"""Deterministic fault injection for the replicated serving layer.

The replication tests need to pin exact failover paths — "the primary
crashes on its first request", "the primary hangs, the hedge fires at
t=50ms and wins" — which real processes cannot script without races.
This harness substitutes the :class:`~repro.serving.replication`
layer's worker and clock seams (the same manual-time idiom as the
asyncio harness in ``tests/serving/aio.py``):

* :class:`VirtualClock` — the routing layer's only notion of time.  It
  advances exclusively inside :meth:`ScriptedWorker.poll`, the one
  place the real system waits, so every hedge deadline and hang timeout
  fires at an exact, reproducible virtual instant with zero sleeps.
* :class:`Fault` / :class:`FaultSchedule` — script what goes wrong and
  precisely where: keyed by ``(shard, replica slot, nth request to that
  worker incarnation)``, plus sticky per-slot faults for
  "this replica always crashes" scenarios.  A respawned worker starts
  a fresh incarnation (its request counter restarts at 0), mirroring a
  real respawned process.
* :class:`ScriptedWorker` — a real in-process
  :class:`~repro.serving.service.DiversificationService` behind the
  :class:`~repro.serving.replication.ReplicaWorker` pipe surface.  The
  reply is computed eagerly on ``send`` (the service is deterministic,
  so *when* it runs cannot change *what* it answers) and queued FIFO
  with a virtual ready-time; faults crash the worker before/after
  computing, delay the reply, or hang it forever.
* :class:`FaultInjectingBackend` — a
  :class:`~repro.serving.replication.ReplicatedBackend` wired to build
  scripted workers from the *real* service factory (so a store-backed
  shard's warm rehydration is exercised by respawns) on the
  shared virtual clock, with shard fan-out forced sequential so the
  clock's advance order is deterministic.  ``spawned`` logs every
  ``(shard, replica)`` build — respawns are observable as repeats.
"""

from __future__ import annotations

import traceback
from collections import deque
from dataclasses import dataclass

from repro.serving.backends import ShardCall, WorkerDiedError
from repro.serving.replication import ReplicatedBackend, ReplicaWorker

__all__ = [
    "CRASH_ON_SEND",
    "CRASH_BEFORE_REPLY",
    "HANG",
    "DELAY",
    "VirtualClock",
    "Fault",
    "FaultSchedule",
    "ScriptedWorker",
    "FaultInjectingBackend",
]

#: The worker dies before the request reaches it (send raises).
CRASH_ON_SEND = "crash-on-send"
#: The worker takes the request, computes, then dies without replying.
CRASH_BEFORE_REPLY = "crash-before-reply"
#: The worker takes the request and never replies (but stays alive).
HANG = "hang"
#: The worker replies ``delay`` virtual seconds after the request.
DELAY = "delay"

_KINDS = (CRASH_ON_SEND, CRASH_BEFORE_REPLY, HANG, DELAY)


class VirtualClock:
    """Manual time: readable everywhere, advanced only by worker polls."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.now += seconds


@dataclass(frozen=True)
class Fault:
    """One scripted failure; ``delay`` only applies to :data:`DELAY`."""

    kind: str
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {_KINDS}")


class FaultSchedule:
    """Faults addressed to exact points in the request stream.

    ``at(shard, replica, call_index, fault)`` arms a one-shot fault for
    the ``call_index``-th request the addressed worker *incarnation*
    receives (0-based; consumed when it fires, so the respawned
    replacement worker — whose counter restarts at 0 — is healthy
    unless separately scripted).  ``always(shard, replica, fault)``
    arms a sticky fault that hits every request to that slot, across
    respawns — the "this replica is cursed" scenario.  One-shot faults
    take precedence over sticky ones at the same point.
    """

    def __init__(self) -> None:
        self._at: dict[tuple[int, int, int], Fault] = {}
        self._always: dict[tuple[int, int], Fault] = {}

    def at(self, shard: int, replica: int, call_index: int, fault: Fault) -> "FaultSchedule":
        self._at[(shard, replica, call_index)] = fault
        return self

    def always(self, shard: int, replica: int, fault: Fault) -> "FaultSchedule":
        self._always[(shard, replica)] = fault
        return self

    def take(self, shard: int, replica: int, call_index: int) -> Fault | None:
        fault = self._at.pop((shard, replica, call_index), None)
        if fault is None:
            fault = self._always.get((shard, replica))
        return fault


class ScriptedWorker(ReplicaWorker):
    """A real shard service behind the replica-worker pipe surface.

    Requests are answered by ``service`` immediately inside ``send`` —
    determinism means execution timing cannot affect results — and the
    replies queue FIFO with a virtual *ready time*: ``poll`` reports the
    head reply ready once the clock reaches it, advancing the clock by
    its timeout when it is not (the scripted stand-in for blocking on a
    pipe).  A ``None`` ready time models a hang: never ready, however
    long anyone waits.  Death (scripted or :meth:`close`) makes ``send``
    and ``recv`` raise :class:`WorkerDiedError` and ``poll`` report
    ready, exactly like a real worker's EOF-able pipe.
    """

    def __init__(self, shard, replica, service, schedule, clock) -> None:
        super().__init__(shard, replica)
        self.service = service
        self._schedule = schedule
        self._clock = clock
        self._queue: deque[tuple[float | None, tuple]] = deque()
        self._dead = False
        self.calls = 0  #: requests this incarnation has received

    def _died(self) -> WorkerDiedError:
        return WorkerDiedError(
            f"{self.label} is dead",
            shards=(self.shard,),
            replica=self.replica,
        )

    def send(self, request: ShardCall) -> None:
        if self._dead:
            raise self._died()
        _shard, method, args = request
        fault = self._schedule.take(self.shard, self.replica, self.calls)
        self.calls += 1
        if fault is not None and fault.kind == CRASH_ON_SEND:
            self._dead = True
            raise self._died()
        try:
            reply = ("ok", getattr(self.service, method)(*args))
        except Exception as exc:  # mirror _worker_main: ship it back
            reply = ("err", (exc, traceback.format_exc()))
        if fault is None:
            self._queue.append((self._clock(), reply))
        elif fault.kind == CRASH_BEFORE_REPLY:
            self._dead = True
        elif fault.kind == HANG:
            self._queue.append((None, reply))
        else:  # DELAY
            self._queue.append((self._clock() + fault.delay, reply))

    def _head_ready(self) -> bool:
        if not self._queue:
            return False
        ready_at = self._queue[0][0]
        return ready_at is not None and ready_at <= self._clock() + 1e-12

    def poll(self, timeout: float) -> bool:
        if self._dead:
            return True  # recv() surfaces the death
        if self._head_ready():
            return True
        if timeout > 0:
            self._clock.advance(timeout)
        return self._head_ready()

    def recv(self) -> tuple:
        if self._dead:
            raise self._died()
        if not self._head_ready():
            raise AssertionError(f"recv() on {self.label} without a ready reply")
        return self._queue.popleft()[1]

    def alive(self) -> bool:
        return not self._dead

    def close(self, kill: bool = False) -> None:
        self._dead = True


class FaultInjectingBackend(ReplicatedBackend):
    """A replicated backend whose workers are scripted and whose time is
    virtual — every failover path at exact clock points, zero sleeps,
    zero real processes.

    The worker provider runs the *real* service factory (so respawns
    exercise warm rehydration from the index store exactly like a
    process respawn would) and wraps the service in a :class:`ScriptedWorker`
    driven by ``schedule``.  Shard fan-out is forced sequential: a
    thread pool racing polls on one shared clock would destroy the
    determinism this harness exists for.
    """

    def __init__(
        self,
        replicas: int = 2,
        schedule: FaultSchedule | None = None,
        policy: str = "round-robin",
        hedge_after_ms: float | None = None,
        hang_timeout_s: float = 1.0,
        poll_interval_s: float = 0.01,
    ) -> None:
        self.clock = VirtualClock()
        self.schedule = schedule or FaultSchedule()
        self.spawned: list[tuple[int, int]] = []  #: every worker build
        super().__init__(
            replicas=replicas,
            policy=policy,
            hedge_after_ms=hedge_after_ms,
            hang_timeout_s=hang_timeout_s,
            poll_interval_s=poll_interval_s,
            worker_provider=self._make_worker,
            clock=self.clock,
            parallel=False,
        )

    def _make_worker(self, factory, shard: int, replica: int) -> ScriptedWorker:
        service = factory(shard)
        if hasattr(service, "rename"):
            service.rename(f"shard{shard}/r{replica}")
        self.spawned.append((shard, replica))
        return ScriptedWorker(shard, replica, service, self.schedule, self.clock)
