"""Shard services in OS worker processes: the process backend.

:class:`ProcessBackend` is the multi-core execution backend, and this
module is the only code that starts worker processes.  Each shard runs
in exactly one OS worker, built by a deterministic factory, so results
are byte-identical whether the first worker answers or a respawned one
does, including after mid-benchmark kills.

The moving parts, bottom-up:

* :class:`Worker` — the minimal pipe-like surface a shard's failover
  needs (``send``/``poll``/``recv``/``alive``/``close``).  The real
  implementation is :class:`ProcessWorker`: one OS process serving one
  shard over a duplex pipe (:func:`_worker_main`); the deterministic
  fault-injection harness in ``tests/serving/faults.py`` substitutes
  scripted in-process workers through ``worker_provider``.
* :class:`ShardWorker` — one shard's worker plus the failover that
  hides its deaths: a dead or hung worker is killed and respawned
  through the retained factory (which rehydrates a store-backed shard's
  warm artifacts from the index store), and a repeatable call is
  retried on the new worker within a bounded budget.
* :class:`ProcessBackend` — an :class:`ExecutionBackend` that starts
  every worker before awaiting any handshake and fans calls out across
  the shards.
"""

from __future__ import annotations

import os
import pickle
import threading
import traceback
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait

from repro.serving.backends import (
    BackendError,
    ExecutionBackend,
    ShardCall,
    WorkerDiedError,
)

__all__ = [
    "COUNTERS",
    "UNREPEATABLE_METHODS",
    "Worker",
    "ProcessWorker",
    "ShardWorker",
    "ProcessBackend",
    "answer",
]

#: Methods whose effect outlives the worker.  Once one has been
#: delivered, a worker death leaves it unknown whether the effect
#: committed, so it is never resent: ``append_to_store`` sent twice
#: would append its epoch twice.
UNREPEATABLE_METHODS = frozenset({"append_to_store"})

#: Attempts one call gets before a shard's deaths surface as
#: :class:`WorkerDiedError`.  Every respawn yields a fresh worker, so a
#: few suffice; a worker that keeps dying must not livelock the caller.
ATTEMPTS = 6

#: One worker request: (service method name, positional args).
Request = tuple[str, tuple]

#: The serving counters a shard's parent keeps across respawns: each
#: reply carries the worker's running totals, and a respawn folds the
#: dead worker's last totals into the shard's.
COUNTERS = ("served", "ranked", "diversified", "batches", "seconds")


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


def answer(service, method: str, args: tuple) -> tuple:
    """A worker's reply to one request: ``("ok", result, counters)`` or
    ``("err", (exception, traceback), counters)``, where *counters* are
    the service's :data:`COUNTERS` totals after the call (``None`` for a
    service without ``stats``)."""
    try:
        reply = ("ok", getattr(service, method)(*args))
    except BaseException as exc:  # noqa: BLE001 - ship it back instead
        reply = ("err", (exc, traceback.format_exc()))
    stats = getattr(service, "stats", None)
    counters = None if stats is None else [getattr(stats, n) for n in COUNTERS]
    return (*reply, counters)


def _worker_main(conn, service_factory, shard: int) -> None:
    """Worker body: build one shard's service, then serve its calls.

    Protocol (all over one duplex pipe, strictly request/reply in order):

    * handshake: ``("ready", None)`` or ``("failed", message)``;
    * request  : ``(method, args)``; ``None`` means stop;
    * reply    : :func:`answer`'s triple.
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
        status, payload, counters = answer(service, *message)
        try:
            conn.send((status, payload, counters))
        except Exception as exc:
            # The result or the exception would not pickle; degrade to repr.
            if status == "err":
                exc = payload[0]
            error = BackendError(f"{type(exc).__name__}: {exc}")
            conn.send(("err", (error, traceback.format_exc()), counters))
    conn.close()


class Worker(ABC):
    """One shard's worker, behind a pipe-like request/reply surface.

    The contract mirrors a ``multiprocessing`` pipe end: ``send`` ships a
    ``(method, args)`` request, ``poll(timeout)`` waits for the *next*
    reply (FIFO — replies come back in request order), ``recv`` returns
    it as :func:`answer` built it.  A dead worker
    raises :class:`WorkerDiedError` from ``send``/``recv`` and reports
    ``poll`` ready (so the caller reaches the ``recv`` that surfaces the
    death).  ``poll`` owns all waiting — scripted workers advance a
    virtual clock there instead of sleeping.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard

    @property
    def label(self) -> str:
        return f"shard{self.shard}"

    @property
    def pid(self) -> int | None:
        """OS pid when the worker is a real process, else ``None``."""
        return None

    def wait_ready(self) -> None:
        """Block until the worker has built its service; a no-op for
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
        """Stop the worker — gracefully, or hard when ``kill``."""


class ProcessWorker(Worker):
    """One OS process serving one shard (:func:`_worker_main`).

    The constructor starts the process and returns at once; the build
    handshake is awaited by :meth:`wait_ready`, so a backend can start
    every worker before it waits for any of them.
    """

    def __init__(self, shard: int, ctx, service_factory) -> None:
        super().__init__(shard)
        parent_conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_worker_main,
            args=(child_conn, service_factory, shard),
            name=f"repro-shard{shard}",
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


class ShardWorker:
    """One shard's worker plus the failover that hides its deaths.

    ``call()`` ships one request and awaits its reply under a lock, so
    the pipe carries one request/reply exchange at a time.  Before each
    attempt, a worker that is dead, or that still owes the reply of an
    attempt that ended without it, is killed and respawned through the
    retained ``spawn``: a crash, a hang past ``hang_timeout_s``, and a
    call interrupted between send and reply all end that way, so a
    worker never answers a call with an earlier call's reply.  The
    failed call is retried, up to :data:`ATTEMPTS` times, unless it was
    delivered and is in :data:`UNREPEATABLE_METHODS`, which raises
    :class:`WorkerDiedError` instead.

    ``respawns``, ``failovers`` and :attr:`counters` count across
    respawns: the shard is the stable identity, not the process behind
    it.  The constructor
    starts the worker and returns, so a backend can start every worker
    before it awaits any build handshake; a respawn awaits its own.
    """

    def __init__(
        self,
        shard: int,
        spawn: Callable[[], Worker],
        hang_timeout_s: float = 30.0,
    ) -> None:
        self.shard = shard
        self._spawn = spawn
        self._hang_timeout_s = hang_timeout_s
        self._lock = threading.Lock()
        self.worker = spawn()
        self._owed = False  # an attempt left the worker owing its reply
        self.respawns = 0
        self.failovers = 0
        # (totals of the workers respawned away, the current worker's),
        # swapped as one pair so a reader never sees half a respawn.
        self._totals = ([0] * len(COUNTERS), [0] * len(COUNTERS))

    def call(self, method: str, args: tuple) -> object:
        """Run one request, respawning the worker until it lands."""
        with self._lock:
            for _attempt in range(ATTEMPTS):
                if self._owed or not self.worker.alive():
                    self._respawn()
                self._owed = True
                try:
                    self.worker.send((method, args))
                except WorkerDiedError:
                    self.failovers += 1
                    continue
                try:
                    return self._receive(method)
                except WorkerDiedError as exc:
                    self.failovers += 1
                    if method in UNREPEATABLE_METHODS:
                        raise WorkerDiedError(
                            f"shard {self.shard}: {method!r} was delivered and "
                            f"its worker died before replying ({exc}); it is "
                            "not resent, because its effect may have committed",
                            shards=(self.shard,),
                            exitcode=exc.exitcode,
                        ) from exc
            raise WorkerDiedError(
                f"shard {self.shard}: no worker could answer {method!r} "
                f"after {ATTEMPTS} attempts — workers keep dying",
                shards=(self.shard,),
            )

    @property
    def counters(self) -> dict[str, float]:
        """:data:`COUNTERS` summed over every worker this shard has had,
        as of each one's last reply."""
        dead, live = self._totals
        return {name: d + l for name, d, l in zip(COUNTERS, dead, live)}

    def close(self) -> None:
        try:
            self.worker.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    def _respawn(self) -> None:
        """Kill the worker and start a fresh one.  The spawn callable
        runs the retained service factory, so a store-backed shard
        rehydrates the newcomer's warm artifacts from the index store."""
        try:
            self.worker.close(kill=True)
        except Exception:  # pragma: no cover - corpse already gone
            pass
        worker = self._spawn()
        worker.wait_ready()
        self.worker = worker
        self._owed = False
        self.respawns += 1
        dead, live = self._totals
        self._totals = ([d + l for d, l in zip(dead, live)], [0] * len(COUNTERS))

    def _receive(self, method: str) -> object:
        """The worker's reply, waiting up to the hang budget."""
        worker = self.worker
        if not worker.poll(self._hang_timeout_s):
            raise WorkerDiedError(
                f"{worker.label} did not answer within "
                f"{self._hang_timeout_s:g}s (hung)",
                shards=(self.shard,),
            )
        status, payload, counters = worker.recv()
        self._owed = False
        if counters is not None:
            self._totals = (self._totals[0], counters)
        if status == "ok":
            return payload
        # A service-level error is deterministic — a respawned worker
        # would raise the same — so it propagates instead of failing over.
        exc, tb = payload
        raise exc from BackendError(
            f"shard {self.shard} ({method}) failed in its worker:\n{tb}"
        )


class ProcessBackend(ExecutionBackend):
    """Shard services in OS processes — the multi-core fan-out.

    ``start()`` retains the factory (respawns re-run it), builds one
    :class:`ShardWorker` per shard, and starts every worker process
    before awaiting any build handshake, so the shards build
    concurrently.  Per-shard warm state (spec caches, result LRUs,
    stats) lives — and stays — in the workers.  ``invoke_each`` fans out
    across shards on a thread pool (each shard is touched by one thread
    per batch).  A worker that dies is respawned and the call retried;
    see :class:`ShardWorker`.

    Parameters
    ----------
    hang_timeout_s:
        How long a call waits for its reply before the worker is
        declared hung, killed and respawned.
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
    worker_provider, parallel:
        Test seams: ``worker_provider(factory, shard) -> Worker``
        substitutes the worker implementation (the deterministic fault
        harness injects scripted in-process workers there), and
        ``parallel=False`` keeps the shard fan-out on the calling thread.
    """

    name = "process"

    def __init__(
        self,
        hang_timeout_s: float = 30.0,
        start_method: str | None = None,
        worker_provider: (
            Callable[[Callable[[int], object], int], Worker] | None
        ) = None,
        parallel: bool = True,
    ) -> None:
        super().__init__()
        self._hang_timeout_s = hang_timeout_s
        self._start_method = start_method
        self._resolved_start_method: str | None = None
        self._worker_provider = worker_provider
        self._parallel = parallel
        self._factory: Callable[[int], object] | None = None
        self._ctx = None
        self._shards: dict[int, ShardWorker] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

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
                self._shards[shard] = ShardWorker(
                    shard, self._spawner(shard), self._hang_timeout_s
                )
            # Every worker is building by now; a factory that cannot
            # build surfaces here, not on the first real call.
            for shard_worker in self._shards.values():
                shard_worker.worker.wait_ready()
        except BaseException:
            self.close()
            raise
        self._num_shards = num_shards

    def _spawner(self, shard: int) -> Callable[[], Worker]:
        def spawn() -> Worker:
            if self._worker_provider is not None:
                return self._worker_provider(self._factory, shard)
            return ProcessWorker(shard, self._ctx, self._factory)

        return spawn

    def _shard(self, shard: int) -> ShardWorker:
        self._require_started()
        if shard not in self._shards:
            raise BackendError(f"unknown shard {shard}")
        return self._shards[shard]

    def invoke_each(self, calls: Sequence[ShardCall]) -> dict[int, object]:
        self._require_started()
        if self._closed:
            raise BackendError("ProcessBackend is closed")
        for call in calls:
            self._shard(call[0])

        def run(call: ShardCall) -> object:
            shard, method, args = call
            return self._shards[shard].call(method, args)

        if self._parallel and len(calls) > 1 and (os.cpu_count() or 1) > 1:
            with self._lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=min(len(self._shards), os.cpu_count() or 1),
                        thread_name_prefix="repro-process",
                    )
            futures = {call[0]: self._pool.submit(run, call) for call in calls}
            # Let every shard finish before surfacing a failure, so no
            # call is still running when the caller sends the next one.
            wait(futures.values())
            return {shard: future.result() for shard, future in futures.items()}
        return {call[0]: run(call) for call in calls}

    def replication_stats(self) -> dict[int, dict[str, int]]:
        return {
            shard: {"respawns": sw.respawns, "failovers": sw.failovers}
            for shard, sw in sorted(self._shards.items())
        }

    def worker_counters(self) -> dict[int, dict[str, float]]:
        stats = self.replication_stats()
        return {
            shard: {**stats[shard], **sw.counters}
            for shard, sw in sorted(self._shards.items())
        }

    def kill_worker(self, shard: int) -> None:
        """Chaos hook: hard-kill *shard*'s worker and leave the corpse
        for the next call to the shard to find and respawn — exactly how
        a real crash presents."""
        self._shard(shard).worker.close(kill=True)

    def worker_pid(self, shard: int) -> int | None:
        """The OS pid of *shard*'s worker (``None`` for a non-process
        worker)."""
        return self._shard(shard).worker.pid

    def health(self) -> dict[int, dict]:
        """Liveness snapshot of every shard's worker, keyed by shard.

        Each entry reports what an operator polling a health endpoint
        needs: whether the worker is alive as far as the OS (or scripted
        harness) knows, its pid, and how many times it has been
        respawned.  Purely observational — no respawn is triggered; a
        dead worker shows ``alive: False`` until the next call to its
        shard replaces it.
        """
        self._require_started()
        return {
            shard: {
                "alive": sw.worker.alive(),
                "pid": sw.worker.pid,
                "respawns": sw.respawns,
            }
            for shard, sw in sorted(self._shards.items())
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for shard_worker in self._shards.values():
            shard_worker.close()
        self._shards = {}
