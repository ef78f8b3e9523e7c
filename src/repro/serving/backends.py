"""Pluggable execution backends for the sharded serving layer.

PR 2 measured the N-shard cluster at ~1.00x over one shard: the fan-out
ran on a thread pool, and the pure-Python pipeline is GIL-bound, so N
shards took turns on one core.  This module makes the *execution
substrate* a first-class, swappable object so the same
:class:`~repro.serving.sharded.ShardedDiversificationService` can fan
out three ways:

* :class:`InlineBackend` — an ordered sweep on the calling thread.  Zero
  overhead, fully deterministic; the reference the identity tests
  compare everything against.
* :class:`ThreadBackend` — the PR-2 behaviour: a lazily created
  ``ThreadPoolExecutor``.  Pays off once the numpy kernels (which
  release the GIL) dominate; parity otherwise.
* :class:`~repro.serving.replication.ProcessBackend` — real OS
  processes: one pipe-driven worker per shard, building its shard
  service from a factory, respawned (and the call retried) when it
  dies.  It lives in
  :mod:`repro.serving.replication`, the only module that starts worker
  processes.

A backend is a shard-addressed RPC surface, not a pool: ``start()``
builds the shard services, ``invoke_each()`` runs a list of
``(shard, method, args)`` calls and returns ``{shard: result}``, and
``close()`` releases whatever the backend holds.  The sharded service
owns routing and merging; backends own *where the work runs*.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "BackendError",
    "WorkerDiedError",
    "ExecutionBackend",
    "InlineBackend",
    "ThreadBackend",
    "BACKEND_NAMES",
    "make_backend",
]

#: One shard-addressed call: (shard id, service method name, positional args).
ShardCall = tuple[int, str, tuple]


class BackendError(RuntimeError):
    """A backend-level failure: a worker died, failed to build its
    services, or was used before ``start()`` / after ``close()``."""


class WorkerDiedError(BackendError):
    """A worker process died (crash, kill, or hung past its deadline)
    while it still owed work.

    Subclasses :class:`BackendError` so existing callers that catch the
    broad class keep working; carries enough structure — the one shard
    the worker served (as ``shards``, a 1-tuple) and the OS exit code
    when known — for respawn logic (and tests) to react without parsing
    the message.
    """

    def __init__(
        self,
        message: str,
        *,
        shards: Sequence[int] = (),
        exitcode: int | None = None,
    ) -> None:
        super().__init__(message)
        self.shards = tuple(shards)
        self.exitcode = exitcode

    @property
    def shard(self) -> int | None:
        """The shard the dead worker served."""
        return self.shards[0] if self.shards else None


class ExecutionBackend(ABC):
    """Where per-shard service calls execute.

    Lifecycle: ``start(service_factory, num_shards)`` once, any number of
    ``invoke``/``invoke_each``/``broadcast`` calls, then ``close()``
    (idempotent; also available as a context manager).  ``service_factory``
    is called as ``factory(shard) -> DiversificationService`` wherever the
    backend decides that shard lives.
    """

    name: str = "?"

    def __init__(self) -> None:
        self._num_shards = 0

    @property
    def started(self) -> bool:
        return self._num_shards > 0

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def local_services(self):
        """The shard services when they live in this process, else ``None``.

        The sharded service uses this to keep its zero-copy paths (and
        its ``services`` property) on in-process backends; against a
        :class:`~repro.serving.replication.ProcessBackend` every
        interaction goes through :meth:`invoke_each`.
        """
        return None

    def replication_stats(self) -> dict[int, dict[str, int]]:
        """``{shard: {"respawns": n, "failovers": m}}`` for shards whose
        worker can die and be respawned — empty on in-process backends."""
        return {}

    @abstractmethod
    def start(self, service_factory: Callable[[int], object], num_shards: int) -> None:
        """Build *num_shards* shard services via ``service_factory``."""

    @abstractmethod
    def invoke_each(self, calls: Sequence[ShardCall]) -> dict[int, object]:
        """Run every ``(shard, method, args)`` call; return ``{shard: result}``.

        At most one call per shard per batch (the sharded service's
        fan-outs are per-shard already).  Exceptions raised by a shard
        method propagate to the caller.
        """

    def invoke(self, shard: int, method: str, *args) -> object:
        """Run one call on one shard and return its result."""
        return self.invoke_each([(shard, method, args)])[shard]

    def broadcast(self, method: str, *args) -> dict[int, object]:
        """Run the same call on every shard."""
        self._require_started()
        return self.invoke_each(
            [(shard, method, args) for shard in range(self._num_shards)]
        )

    def close(self) -> None:
        """Release execution resources (idempotent).  In-process backends
        stay usable afterwards (they fall back to inline sweeps);
        a closed process backend is gone for good."""

    def _require_started(self) -> None:
        if not self.started:
            raise BackendError(f"{type(self).__name__} has not been started")

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"shards={self._num_shards}" if self.started else "unstarted"
        return f"{type(self).__name__}({state})"


class _LocalBackend(ExecutionBackend):
    """Shared machinery of the backends whose services live in-process."""

    def __init__(self) -> None:
        super().__init__()
        self._services: list = []

    def start(self, service_factory: Callable[[int], object], num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.adopt([service_factory(shard) for shard in range(num_shards)])

    def adopt(self, services: Sequence[object]) -> None:
        """Attach already-built shard services (the pre-backend
        construction path of ``ShardedDiversificationService``)."""
        services = list(services)
        if not services:
            raise ValueError("at least one shard service is required")
        if self.started:
            raise BackendError(f"{type(self).__name__} is already started")
        self._services = services
        self._num_shards = len(services)

    @property
    def local_services(self):
        return tuple(self._services) if self.started else None

    def _call(self, shard: int, method: str, args: tuple) -> object:
        return getattr(self._services[shard], method)(*args)


class InlineBackend(_LocalBackend):
    """Ordered sequential sweep on the calling thread — the reference."""

    name = "inline"

    def invoke_each(self, calls: Sequence[ShardCall]) -> dict[int, object]:
        self._require_started()
        return {shard: self._call(shard, method, args) for shard, method, args in calls}


class ThreadBackend(_LocalBackend):
    """Thread-pool fan-out over in-process shard services.

    ``max_workers`` defaults to ``min(num_shards, os.cpu_count())`` at
    start time — on a single-core host the fan-out degenerates to an
    ordered sweep (no pool overhead), which is the right call for the
    GIL-bound pure-Python pipeline; the numpy kernels release the GIL
    inside their matmuls, so wider pools pay off as task sizes grow.
    """

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    @property
    def max_workers(self) -> int:
        if self._max_workers is not None:
            return max(1, self._max_workers)
        shards = self._num_shards or 1
        return max(1, min(shards, os.cpu_count() or 1))

    def invoke_each(self, calls: Sequence[ShardCall]) -> dict[int, object]:
        self._require_started()
        if self.max_workers == 1 or len(calls) <= 1:
            return {
                shard: self._call(shard, method, args)
                for shard, method, args in calls
            }
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-shard",
            )
        futures = {
            shard: self._pool.submit(self._call, shard, method, args)
            for shard, method, args in calls
        }
        return {shard: future.result() for shard, future in futures.items()}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: The built-in backend names, in "most deterministic first" order.
BACKEND_NAMES = ("inline", "thread", "process")


def make_backend(
    backend: "str | ExecutionBackend | None",
    max_workers: int | None = None,
    start_method: str | None = None,
) -> ExecutionBackend:
    """Resolve a backend spec — a name, an instance, or ``None``.

    ``None`` yields the default :class:`ThreadBackend` (the PR-2
    behaviour).  An instance passes through untouched, so callers can
    hand in a pre-configured backend or anything else satisfying the
    protocol.

    ``"process"`` builds a
    :class:`~repro.serving.replication.ProcessBackend` with
    ``start_method``.  ``max_workers`` sizes the thread pool and is
    refused with ``"process"`` (which runs one worker per shard), as
    ``start_method`` is refused elsewhere — a contradiction is an error,
    not a silent no-op.
    """
    if backend is None:
        backend = "thread"
    if isinstance(backend, str) and backend.lower() == "process":
        if max_workers is not None:
            raise ValueError(
                "max_workers sizes the thread backend's pool; the "
                "'process' backend runs one worker per shard"
            )
        from repro.serving.replication import ProcessBackend

        return ProcessBackend(start_method=start_method)
    if start_method is not None:
        raise ValueError(
            f"start_method={start_method!r} only applies to the "
            f"'process' backend, not {backend!r}"
        )
    if isinstance(backend, ExecutionBackend):
        return backend
    if not isinstance(backend, str):
        raise TypeError(
            f"backend must be a name or ExecutionBackend, got {backend!r}"
        )
    name = backend.lower()
    if name == "inline":
        return InlineBackend()
    if name == "thread":
        return ThreadBackend(max_workers=max_workers)
    raise ValueError(
        f"unknown backend {backend!r}; choose from {sorted(BACKEND_NAMES)}"
    )
