"""Shard services in OS worker processes: the process backend.

:class:`ProcessBackend` is the multi-core execution backend, and this
module is the only code that starts worker processes.  It puts a
:class:`ReplicaSet` in front of each shard — R interchangeable workers
(one by default), every one built by the *same* deterministic factory,
so the cluster's identity anchor extends across failures: results are
byte-identical no matter which replica answers, including
mid-benchmark kills.

The moving parts, bottom-up:

* :class:`ReplicaWorker` — the minimal worker surface the routing layer
  needs (``send``/``poll``/``recv``/``alive``/``close``).  The real
  implementation is :class:`ProcessReplicaWorker`: one OS process
  serving one shard over a duplex pipe (:func:`_worker_main`); the
  deterministic fault-injection harness in ``tests/serving/faults.py``
  substitutes scripted in-process workers through ``worker_provider``.
* :class:`ReplicaSet` — one shard's replicas plus the policy that picks
  among them (``round-robin`` or ``least-outstanding``), optional hedged
  requests after a latency deadline, health checks, and burial: a dead
  or hung replica is killed, respawned through the retained factory
  (which rehydrates a store-backed shard's warm artifacts from the
  index store), and an idempotent request retries on a fresh worker.
* :class:`ProcessBackend` — an :class:`ExecutionBackend` that starts
  every worker before awaiting any handshake, routes serving calls to
  one replica per shard and *replicates* state-mutating calls
  (``warm``/``invalidate``/``apply_updates``) to every replica, so
  caches stay in lockstep.

Hedging never duplicates or reorders results: a hedge is a second copy
of the *same* request to a second replica, and the set returns exactly
one reply to the caller — the loser's reply is drained and discarded.
Time is injectable (``clock`` + worker ``poll`` own all waiting), which
is what lets the fault-injection tests script crashes, hangs, and slow
replicas at exact virtual-clock points with zero real sleeps.
"""

from __future__ import annotations

import os
import pickle
import threading
import traceback
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from time import monotonic

from repro.serving.backends import (
    BackendError,
    ExecutionBackend,
    ShardCall,
    WorkerDiedError,
)

__all__ = [
    "REPLICA_POLICIES",
    "REPLICATED_STATE_METHODS",
    "HEDGEABLE_METHODS",
    "UNREPEATABLE_METHODS",
    "ReplicaWorker",
    "ProcessReplicaWorker",
    "ReplicaSetStats",
    "ReplicaSet",
    "ProcessBackend",
]

#: Routing policies a ReplicaSet understands.
REPLICA_POLICIES = ("round-robin", "least-outstanding")

#: Methods that mutate per-replica state and must reach *every* replica,
#: or the caches would diverge and a failover would change behaviour.
#: ``apply_updates`` is the live-ingest epoch publish: every replica must
#: advance to the new epoch, or a failover would time-travel the
#: collection.
REPLICATED_STATE_METHODS = frozenset(
    {"warm", "invalidate", "apply_updates"}
)

#: Methods worth hedging: read-only serving calls where a duplicate
#: execution is wasted work, never wrong work.  State mutators and
#: side-effectful calls (``append_to_store`` writes the store) are
#: excluded.
HEDGEABLE_METHODS = frozenset(
    {"diversify", "diversify_batch", "prepare", "prepare_batch"}
)

#: Methods whose effect outlives the worker.  Once one has been
#: delivered, a worker death leaves it unknown whether the effect
#: committed, so it is never resent: ``append_to_store`` sent twice
#: would append its epoch twice.
UNREPEATABLE_METHODS = frozenset({"append_to_store"})

#: One worker request: (service method name, positional args).
Request = tuple[str, tuple]


def check_factory_pickles(service_factory, method: str) -> None:
    """Fail fast when *method* needs a picklable factory and this one
    is not — naming the factory protocol instead of letting a raw
    ``PicklingError`` traceback surface from inside a worker.

    The probe walks the whole object graph (that is what makes it
    reliable — multiprocessing will pickle the same graph into each
    worker moments later) but streams into a discarding sink, so a
    factory closing over a large workload costs one CPU pass, not a
    resident copy of its serialized bytes.
    """

    class _NullSink:
        def write(self, data) -> int:
            return len(data)

    try:
        pickle.Pickler(_NullSink(), pickle.HIGHEST_PROTOCOL).dump(
            service_factory
        )
    except Exception as exc:
        if type(service_factory).__name__ == "ShardServiceFactory":
            detail = (
                "the ShardServiceFactory's framework_factory must "
                "itself pickle (a module-level callable or a "
                "picklable dataclass, not a closure/lambda)"
            )
        else:
            detail = (
                "pass a picklable factory — e.g. a "
                "ShardServiceFactory wrapping a module-level "
                "framework factory"
            )
        raise BackendError(
            f"service factory {service_factory!r} does not pickle, "
            f"but start method {method!r} builds each worker in a "
            f"fresh interpreter; {detail}, or use "
            f"start_method='fork' where the platform offers it "
            f"(pickle error: {exc})"
        ) from exc


def _worker_main(conn, service_factory, shard: int) -> None:
    """Worker body: build one shard's service, then serve its calls.

    Protocol (all over one duplex pipe, strictly request/reply in order):

    * handshake: ``("ready", None)`` or ``("failed", message)``;
    * request  : ``(method, args)``; ``None`` means stop;
    * reply    : ``("ok", result)`` or ``("err", (exception, traceback))``.
    """
    try:
        service = service_factory(shard)
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        try:
            conn.send(("failed", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ready", None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        method, args = message
        try:
            result = getattr(service, method)(*args)
            conn.send(("ok", result))
        except BaseException as exc:  # noqa: BLE001 - ship it back instead
            payload = (exc, traceback.format_exc())
            try:
                conn.send(("err", payload))
            except Exception:
                # The exception itself would not pickle; degrade to repr.
                conn.send(
                    ("err", (BackendError(f"{type(exc).__name__}: {exc}"),
                             traceback.format_exc()))
                )
    conn.close()


class ReplicaWorker(ABC):
    """One replica of one shard, behind a pipe-like request/reply surface.

    The contract mirrors a ``multiprocessing`` pipe end: ``send`` ships a
    ``(method, args)`` request, ``poll(timeout)`` waits for the *next*
    reply (FIFO — replies come back in request order), ``recv`` returns
    it as ``("ok", result)`` or ``("err", (exc, tb))``.  A dead worker
    raises :class:`WorkerDiedError` from ``send``/``recv`` and reports
    ``poll`` ready (so the router reaches the ``recv`` that surfaces the
    death).  ``poll`` owns all waiting — scripted workers advance a
    virtual clock there instead of sleeping.
    """

    def __init__(self, shard: int, replica: int) -> None:
        self.shard = shard
        self.replica = replica

    @property
    def label(self) -> str:
        return f"shard{self.shard}/r{self.replica}"

    @property
    def pid(self) -> int | None:
        """OS pid when the replica is a real process, else ``None``."""
        return None

    def wait_ready(self) -> None:
        """Block until the replica has built its service; a no-op for
        workers that are ready when constructed."""

    @abstractmethod
    def send(self, request: Request) -> None:
        """Ship a request; raises :class:`WorkerDiedError` if dead."""

    @abstractmethod
    def poll(self, timeout: float) -> bool:
        """Wait up to *timeout* seconds for the next reply."""

    @abstractmethod
    def recv(self) -> tuple:
        """Return the next ``(status, payload)`` reply (FIFO)."""

    @abstractmethod
    def alive(self) -> bool:
        """Liveness as far as the OS (or script) knows."""

    @abstractmethod
    def close(self, kill: bool = False) -> None:
        """Stop the replica — gracefully, or hard when ``kill``."""


class ProcessReplicaWorker(ReplicaWorker):
    """One replica = one OS process serving one shard (:func:`_worker_main`).

    The constructor starts the process and returns at once; the build
    handshake is awaited by :meth:`wait_ready`, so a backend can start
    every worker before it waits for any of them.
    """

    def __init__(self, shard: int, replica: int, ctx, service_factory) -> None:
        super().__init__(shard, replica)
        parent_conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_worker_main,
            args=(child_conn, service_factory, shard),
            name=f"repro-replica-s{shard}r{replica}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._conn = parent_conn

    def wait_ready(self) -> None:
        try:
            status, detail = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died("died during startup") from exc
        if status != "ready":
            message = detail if status == "failed" else f"unexpected {status!r}"
            self.close(kill=True)
            raise BackendError(
                f"{self.label} failed to build its shard service: {message}"
            )

    def _died(self, what: str) -> WorkerDiedError:
        # The pipe closed, so the process is exiting: reap it for its code.
        self._process.join(timeout=1.0)
        code = self._process.exitcode
        return WorkerDiedError(
            f"{self.label} {what} (exitcode={code})",
            shards=(self.shard,),
            replica=self.replica,
            exitcode=code,
        )

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def send(self, request: Request) -> None:
        try:
            self._conn.send(request)
        except (BrokenPipeError, OSError) as exc:
            raise self._died("died") from exc

    def poll(self, timeout: float) -> bool:
        try:
            return self._conn.poll(timeout)
        except (BrokenPipeError, OSError):
            return True  # let recv() surface the death

    def recv(self) -> tuple:
        try:
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died("died") from exc

    def alive(self) -> bool:
        return self._process.is_alive()

    def close(self, kill: bool = False) -> None:
        if kill:
            self._process.kill()  # SIGKILL — no grace, like a real crash
            self._process.join(timeout=5)
        else:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=10)
            if self._process.is_alive():  # pragma: no cover - stuck worker
                self._process.terminate()
                self._process.join(timeout=5)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


@dataclass(frozen=True)
class ReplicaSetStats:
    """Routing-layer counters for one shard, per replica slot.

    Indexed by replica slot (a respawned replica reuses its slot);
    counters accumulate across respawns because the *slot* is the stable
    identity, not the process behind it.
    """

    shard: int
    requests: tuple[int, ...]
    hedges_fired: tuple[int, ...]
    hedges_won: tuple[int, ...]
    respawns: tuple[int, ...]
    failovers: tuple[int, ...]

    @property
    def replicas(self) -> int:
        return len(self.requests)

    @property
    def requests_total(self) -> int:
        return sum(self.requests)

    @property
    def hedges_fired_total(self) -> int:
        return sum(self.hedges_fired)

    @property
    def hedges_won_total(self) -> int:
        return sum(self.hedges_won)

    @property
    def respawns_total(self) -> int:
        return sum(self.respawns)

    @property
    def failovers_total(self) -> int:
        return sum(self.failovers)


class ReplicaSet:
    """One shard's R replicas plus the routing that hides their failures.

    ``call()`` is the serving path: pick a replica (policy-driven, after
    a health sweep that buries and respawns the dead), ship the request,
    await the reply — optionally racing a hedge copy on a second replica
    once ``hedge_after_s`` elapses without an answer.  Any replica death
    or hang along the way counts a failover, buries the replica (kill +
    respawn through the retained factory), and retries the request on
    another — unless the request was delivered and is in
    :data:`UNREPEATABLE_METHODS`, which raises :class:`WorkerDiedError`
    instead.  The attempt budget is generous because every respawn
    yields a fresh, serviceable worker, but finite so a systematically
    crashing fleet surfaces as :class:`WorkerDiedError` instead of a
    livelock.

    ``call_all()`` is the state path: the same request to *every*
    replica in slot order, each awaited, with one respawn-and-retry per
    slot — used for ``warm``/``invalidate``/``apply_updates`` so replica
    caches never diverge.

    The constructor starts the replicas and returns; :meth:`wait_ready`
    awaits their build handshakes, and a respawn awaits its own.

    Bookkeeping invariant: ``_outstanding[r]`` counts replies replica
    *r* still owes (its pipe is strictly FIFO).  A replica is only
    *selected* when it owes nothing; a hedge loser keeps owing until its
    reply is drained by a later health sweep or pre-selection drain, and
    a replica that owes past ``hang_timeout_s`` is declared hung and
    buried.
    """

    def __init__(
        self,
        shard: int,
        spawn: Callable[[int], ReplicaWorker],
        replicas: int,
        policy: str = "round-robin",
        hedge_after_s: float | None = None,
        hang_timeout_s: float = 30.0,
        poll_interval_s: float = 0.005,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        self.shard = shard
        self._spawn = spawn
        self._lock = threading.Lock()  # one request/reply exchange at a time
        self._policy = policy
        self._hedge_after_s = hedge_after_s
        self._hang_timeout_s = hang_timeout_s
        self._poll_interval_s = poll_interval_s
        self._clock = clock
        self._workers = [spawn(replica) for replica in range(replicas)]
        self._outstanding = [0] * replicas
        self._owed_since = [0.0] * replicas
        self._rr = 0
        self.requests = [0] * replicas
        self.hedges_fired = [0] * replicas
        self.hedges_won = [0] * replicas
        self.respawns = [0] * replicas
        self.failovers = [0] * replicas

    @property
    def replicas(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> tuple[ReplicaWorker, ...]:
        return tuple(self._workers)

    def wait_ready(self) -> None:
        """Await every replica's build handshake (the constructor only
        starts them)."""
        for worker in self._workers:
            worker.wait_ready()

    def stats(self) -> ReplicaSetStats:
        return ReplicaSetStats(
            shard=self.shard,
            requests=tuple(self.requests),
            hedges_fired=tuple(self.hedges_fired),
            hedges_won=tuple(self.hedges_won),
            respawns=tuple(self.respawns),
            failovers=tuple(self.failovers),
        )

    # -- the serving path --------------------------------------------------

    def call(self, method: str, args: tuple) -> object:
        """Run one request on one replica, failing over until it lands."""
        with self._lock:
            request: Request = (method, args)
            budget = 2 * self.replicas + 4
            for _attempt in range(budget):
                replica = self._select()
                worker = self._workers[replica]
                try:
                    worker.send(request)
                except WorkerDiedError:
                    self.failovers[replica] += 1
                    self._bury(replica)
                    continue
                self._outstanding[replica] += 1
                self._owed_since[replica] = self._clock()
                self.requests[replica] += 1
                try:
                    return self._await_reply(replica, request, method)
                except WorkerDiedError as exc:
                    self.failovers[replica] += 1
                    if method in UNREPEATABLE_METHODS:
                        raise WorkerDiedError(
                            f"shard {self.shard}: {method!r} was delivered and "
                            f"its worker died before replying ({exc}); it is "
                            "not resent, because its effect may have committed",
                            shards=(self.shard,),
                            replica=replica,
                            exitcode=exc.exitcode,
                        ) from exc
                    continue
            raise WorkerDiedError(
                f"shard {self.shard}: no replica could answer {method!r} "
                f"after {budget} attempts — replicas keep dying",
                shards=(self.shard,),
            )

    def call_all(self, method: str, args: tuple) -> list:
        """Run one request on *every* replica (slot order); one
        respawn-and-retry per slot, then the failure propagates."""
        with self._lock:
            request: Request = (method, args)
            results = []
            for replica in range(self.replicas):
                for attempt in (0, 1):
                    if not self._workers[replica].alive():
                        self._bury(replica)
                    if self._outstanding[replica]:
                        self._drain(replica)
                    worker = self._workers[replica]
                    try:
                        worker.send(request)
                        self._outstanding[replica] += 1
                        self._owed_since[replica] = self._clock()
                        results.append(self._receive(replica, method))
                        break
                    except WorkerDiedError:
                        if attempt:
                            raise
                        self.failovers[replica] += 1
                        if self._workers[replica] is worker:
                            self._bury(replica)
            return results

    def kill(self, replica: int | None = None) -> int:
        """Chaos hook: hard-kill a replica (default: the one the router
        would pick next) and leave the corpse for the next health sweep
        to find — exactly how a real crash presents."""
        if replica is None:
            replica = self._rr % self.replicas
        self._workers[replica].close(kill=True)
        return replica

    def close(self) -> None:
        for worker in self._workers:
            try:
                worker.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    # -- selection, health, burial -----------------------------------------

    def _select(self) -> int:
        """Pick the next replica per policy, after a health sweep; drain
        it first if it still owes a reply (round-robin can land on a
        recent hedge loser)."""
        self._health_sweep()
        order = [(self._rr + i) % self.replicas for i in range(self.replicas)]
        if self._policy == "least-outstanding":
            chosen = min(order, key=lambda r: (self._outstanding[r], order.index(r)))
        else:
            chosen = order[0]
        self._rr = (chosen + 1) % self.replicas
        if self._outstanding[chosen]:
            self._drain(chosen)
        return chosen

    def _health_sweep(self) -> None:
        """Bury the dead, collect owed replies that have arrived, and
        declare replicas hung when they owe past the hang budget."""
        now = self._clock()
        for replica in range(self.replicas):
            worker = self._workers[replica]
            if not worker.alive():
                self._bury(replica)
                continue
            while self._outstanding[replica] and worker.poll(0):
                try:
                    worker.recv()
                except WorkerDiedError:
                    self._bury(replica)
                    break
                self._outstanding[replica] -= 1
            if (
                self._outstanding[replica]
                and now - self._owed_since[replica] > self._hang_timeout_s
            ):
                self._bury(replica)

    def _bury(self, replica: int) -> None:
        """Kill and respawn a replica slot.  The spawn callable runs the
        retained service factory, so a store-backed shard rehydrates the
        newcomer's warm artifacts from the index store."""
        try:
            self._workers[replica].close(kill=True)
        except Exception:  # pragma: no cover - corpse already gone
            pass
        worker = self._spawn(replica)
        worker.wait_ready()
        self._workers[replica] = worker
        self.respawns[replica] += 1
        self._outstanding[replica] = 0

    def _drain(self, replica: int) -> None:
        """Blockingly collect (and discard) every reply a replica owes;
        a replica that cannot cough them up within the hang budget is
        buried."""
        worker = self._workers[replica]
        while self._outstanding[replica]:
            if not worker.poll(self._hang_timeout_s):
                self._bury(replica)
                return
            try:
                worker.recv()
            except WorkerDiedError:
                self._bury(replica)
                return
            self._outstanding[replica] -= 1

    # -- reply plumbing ----------------------------------------------------

    def _await_reply(self, primary: int, request: Request, method: str) -> object:
        """Wait for the primary's reply, hedging onto a second replica
        once the deadline passes.  Exactly one reply is returned; the
        loser's stays owed (drained later)."""
        if self._hedge_after_s is None or method not in HEDGEABLE_METHODS:
            return self._receive(primary, method)
        worker = self._workers[primary]
        if worker.poll(self._hedge_after_s):
            return self._consume(primary, method)
        secondary = self._pick_hedge(primary)
        if secondary is None:
            # Nobody free to hedge onto: plain bounded wait (the hang
            # budget restarts — acceptable slack on a saturated set).
            return self._receive(primary, method)
        hedge_worker = self._workers[secondary]
        try:
            hedge_worker.send(request)
        except WorkerDiedError:
            self._bury(secondary)
            return self._receive(primary, method)
        self._outstanding[secondary] += 1
        self._owed_since[secondary] = self._clock()
        self.hedges_fired[secondary] += 1
        waited = self._hedge_after_s
        while True:
            if worker.poll(0):
                return self._consume(primary, method)
            if hedge_worker.poll(0):
                self.hedges_won[secondary] += 1
                return self._consume(secondary, method)
            if waited >= self._hang_timeout_s:
                # Both silent past the hang budget: bury both, let the
                # caller's retry land on fresh workers.
                self._bury(primary)
                self._bury(secondary)
                raise WorkerDiedError(
                    f"shard {self.shard}: primary r{primary} and hedge "
                    f"r{secondary} both hung on {method!r}",
                    shards=(self.shard,),
                    replica=primary,
                )
            if worker.poll(self._poll_interval_s):
                return self._consume(primary, method)
            waited += self._poll_interval_s

    def _pick_hedge(self, primary: int) -> int | None:
        for offset in range(self.replicas):
            replica = (self._rr + offset) % self.replicas
            if (
                replica != primary
                and self._outstanding[replica] == 0
                and self._workers[replica].alive()
            ):
                return replica
        return None

    def _receive(self, replica: int, method: str) -> object:
        """One reply from a replica, waiting up to the hang budget."""
        worker = self._workers[replica]
        if not worker.poll(self._hang_timeout_s):
            self._bury(replica)
            raise WorkerDiedError(
                f"{worker.label} did not answer within "
                f"{self._hang_timeout_s:g}s (hung)",
                shards=(self.shard,),
                replica=replica,
            )
        return self._consume(replica, method)

    def _consume(self, replica: int, method: str) -> object:
        worker = self._workers[replica]
        try:
            status, payload = worker.recv()
        except WorkerDiedError:
            self._bury(replica)
            raise
        self._outstanding[replica] = max(0, self._outstanding[replica] - 1)
        if status == "ok":
            return payload
        # A service-level error is deterministic — every replica would
        # raise the same — so it propagates instead of failing over.
        exc, tb = payload
        raise exc from BackendError(
            f"shard {self.shard} ({method}) failed in {worker.label}:\n{tb}"
        )


class ProcessBackend(ExecutionBackend):
    """Shard services in OS processes — the multi-core fan-out.

    ``start()`` retains the factory (respawns re-run it), builds one
    :class:`ReplicaSet` of ``replicas`` workers per shard, and starts
    every worker process before awaiting any build handshake, so the
    shards build concurrently.  Per-shard warm state (spec caches,
    result LRUs, stats) lives — and stays — in the workers.
    ``invoke_each`` fans out across shards on a thread pool (each
    shard's set is touched by one thread per batch; sets are not shared
    across concurrent batches) and routes each call: state mutators in
    :data:`REPLICATED_STATE_METHODS` go to every replica via
    ``call_all`` (first replica's result is returned — the replicas are
    identical, so the copies' results are too), everything else to one
    replica via ``call``.  A worker that dies is respawned and the call
    retried, at any replica count; see :class:`ReplicaSet`.

    Parameters
    ----------
    replicas:
        Workers per shard.  ``1`` (the default) is one process per
        shard; more adds failover targets and enables ``policy``
        routing and ``hedge_after_ms`` hedged requests.
    start_method:
        ``multiprocessing`` start method, honoured exactly when given
        (``"fork"``, ``"spawn"``, ``"forkserver"``; a method the
        platform does not offer fails at :meth:`start`).  ``None`` uses
        the *platform default* — ``fork`` on Linux, ``spawn`` on macOS
        and Windows — instead of forcing ``fork`` wherever it exists:
        forking a multi-threaded parent is unsafe and emits
        ``DeprecationWarning`` on Python 3.12+, so the platform's own
        judgement is the sane default.  Under ``fork`` the factory and
        its closed-over workload are inherited for free; under
        ``spawn``/``forkserver`` the factory must pickle, which
        :meth:`start` verifies *before* spawning anything so a closure
        factory fails fast with a clear message instead of a raw pickle
        traceback out of a half-started worker.
    worker_provider, clock, parallel:
        Test seams: ``worker_provider(factory, shard, replica) ->
        ReplicaWorker`` substitutes the worker implementation (the
        deterministic fault harness injects scripted in-process workers
        there), ``clock`` feeds the routing layer's notion of time, and
        ``parallel=False`` keeps the shard fan-out on the calling thread.
    """

    name = "process"

    def __init__(
        self,
        replicas: int = 1,
        policy: str = "round-robin",
        hedge_after_ms: float | None = None,
        hang_timeout_s: float = 30.0,
        poll_interval_s: float = 0.005,
        start_method: str | None = None,
        worker_provider: (
            Callable[[Callable[[int], object], int, int], ReplicaWorker] | None
        ) = None,
        clock: Callable[[], float] | None = None,
        parallel: bool = True,
    ) -> None:
        super().__init__()
        if replicas < 1:
            raise ValueError("replicas must be positive")
        if policy not in REPLICA_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {REPLICA_POLICIES}"
            )
        if hedge_after_ms is not None and replicas < 2:
            raise ValueError("hedge_after_ms needs replicas >= 2")
        self._replica_count = replicas
        self._policy = policy
        self._hedge_after_s = (
            None if hedge_after_ms is None else hedge_after_ms / 1000.0
        )
        self._hang_timeout_s = hang_timeout_s
        self._poll_interval_s = poll_interval_s
        self._start_method = start_method
        self._resolved_start_method: str | None = None
        self._worker_provider = worker_provider
        self._clock = clock or monotonic
        self._parallel = parallel
        self._factory: Callable[[int], object] | None = None
        self._ctx = None
        self._sets: dict[int, ReplicaSet] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def replicas(self) -> int:
        return self._replica_count

    @property
    def start_method(self) -> str | None:
        """The effective start method: the explicit one before
        :meth:`start`, the resolved one (platform default when ``None``
        was given) afterwards."""
        return self._resolved_start_method or self._start_method

    def start(self, service_factory: Callable[[int], object], num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.started or self._closed:
            raise BackendError("ProcessBackend cannot be restarted")
        self._factory = service_factory
        if self._worker_provider is None:
            import multiprocessing as mp

            if self._start_method is not None:
                if self._start_method not in mp.get_all_start_methods():
                    raise BackendError(
                        f"start method {self._start_method!r} is not "
                        f"available on this platform (offers: "
                        f"{mp.get_all_start_methods()})"
                    )
                ctx = mp.get_context(self._start_method)
            else:
                ctx = mp.get_context()  # the platform default, not forced fork
            self._resolved_start_method = ctx.get_start_method()
            if self._resolved_start_method != "fork":
                check_factory_pickles(service_factory, self._resolved_start_method)
            self._ctx = ctx
        try:
            for shard in range(num_shards):
                self._sets[shard] = ReplicaSet(
                    shard,
                    spawn=self._spawner(shard),
                    replicas=self._replica_count,
                    policy=self._policy,
                    hedge_after_s=self._hedge_after_s,
                    hang_timeout_s=self._hang_timeout_s,
                    poll_interval_s=self._poll_interval_s,
                    clock=self._clock,
                )
            # Every worker is building by now; a factory that cannot
            # build surfaces here, not on the first real call.
            for replica_set in self._sets.values():
                replica_set.wait_ready()
        except BaseException:
            self.close()
            raise
        self._num_shards = num_shards

    def _spawner(self, shard: int) -> Callable[[int], ReplicaWorker]:
        def spawn(replica: int) -> ReplicaWorker:
            if self._worker_provider is not None:
                return self._worker_provider(self._factory, shard, replica)
            return ProcessReplicaWorker(shard, replica, self._ctx, self._factory)

        return spawn

    def invoke_each(self, calls: Sequence[ShardCall]) -> dict[int, object]:
        self._require_started()
        if self._closed:
            raise BackendError("ProcessBackend is closed")
        for call in calls:
            if call[0] not in self._sets:
                raise BackendError(f"unknown shard {call[0]}")

        def run(call: ShardCall) -> object:
            shard, method, args = call
            replica_set = self._sets[shard]
            if method in REPLICATED_STATE_METHODS:
                return replica_set.call_all(method, args)[0]
            return replica_set.call(method, args)

        if self._parallel and len(calls) > 1 and (os.cpu_count() or 1) > 1:
            with self._lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=min(len(self._sets), os.cpu_count() or 1),
                        thread_name_prefix="repro-process",
                    )
            futures = {call[0]: self._pool.submit(run, call) for call in calls}
            # Let every shard finish before surfacing a failure, so no
            # call is still running when the caller sends the next one.
            wait(futures.values())
            return {shard: future.result() for shard, future in futures.items()}
        return {call[0]: run(call) for call in calls}

    def invoke_replicas(self, shard: int, method: str, *args) -> list:
        self._require_started()
        if shard not in self._sets:
            raise BackendError(f"unknown shard {shard}")
        return self._sets[shard].call_all(method, args)

    def replication_stats(self) -> dict[int, ReplicaSetStats]:
        return {shard: rset.stats() for shard, rset in sorted(self._sets.items())}

    def kill_replica(self, shard: int, replica: int | None = None) -> int:
        """Chaos hook: hard-kill one replica of *shard* (default: the
        router's next pick); returns the replica slot killed."""
        self._require_started()
        if shard not in self._sets:
            raise BackendError(f"unknown shard {shard}")
        return self._sets[shard].kill(replica)

    def replica_pids(self, shard: int) -> tuple[int | None, ...]:
        """The OS pids behind a shard's replica slots (``None`` entries
        for non-process workers)."""
        self._require_started()
        return tuple(worker.pid for worker in self._sets[shard].workers)

    def health(self) -> dict[int, list[dict]]:
        """Liveness snapshot of every replica slot, keyed by shard.

        Each entry reports what an operator polling a health endpoint
        needs: the slot index, whether the worker behind it is alive as
        far as the OS (or scripted harness) knows, its pid, and how many
        times the slot has been respawned.  Purely observational — no
        burial or respawn is triggered; a dead slot shows ``alive:
        False`` until the routing layer's next health sweep replaces it.
        """
        self._require_started()
        snapshot: dict[int, list[dict]] = {}
        for shard, replica_set in sorted(self._sets.items()):
            stats = replica_set.stats()
            snapshot[shard] = [
                {
                    "replica": slot,
                    "alive": worker.alive(),
                    "pid": worker.pid,
                    "respawns": stats.respawns[slot],
                }
                for slot, worker in enumerate(replica_set.workers)
            ]
        return snapshot

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for replica_set in self._sets.values():
            replica_set.close()
        self._sets = {}
