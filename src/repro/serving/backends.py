"""Execution backends for the sharded serving layer.

A backend decides *where* each shard's service runs; the
:class:`~repro.serving.sharded.ShardedDiversificationService` owns
routing and merging.  There are two:

* :class:`InlineBackend` (the default) — every shard service in this
  process, called in order on the calling thread.  Zero overhead, fully
  deterministic; the reference the identity tests compare everything
  against, and the faster path for a lone miss.
* :class:`~repro.serving.replication.ProcessBackend` — one OS worker
  process per shard, building its shard service from a factory,
  respawned (and the call retried) when it dies.  The multi-core path
  for batches.  It lives in :mod:`repro.serving.replication`, the only
  module that starts worker processes.

There is no thread pool: the pure-Python pipeline is GIL-bound, and on
two cores one ran every probed batch slower than inline
(docs/ARCHITECTURE.md, "Two backends and one index build").

A backend is a shard-addressed RPC surface, not a pool: ``start()``
builds the shard services, ``invoke_each()`` runs a list of
``(shard, method, args)`` calls and returns ``{shard: result}``, and
``close()`` releases whatever the backend holds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

__all__ = [
    "BackendError",
    "WorkerDiedError",
    "ExecutionBackend",
    "InlineBackend",
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

    def worker_counters(self) -> dict[int, dict[str, float]]:
        """``{shard: {counter: total}}`` that the parent keeps for shards
        whose worker can die: the :meth:`replication_stats` pair plus
        the serving counters summed over every worker the shard has
        had — empty on in-process backends, whose services keep their
        own."""
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
        """Release execution resources (idempotent).  The inline backend
        holds none and stays usable; a closed process backend is gone
        for good."""

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


class InlineBackend(ExecutionBackend):
    """Shard services in this process, called in order on the calling
    thread — the reference every other backend is compared against."""

    name = "inline"

    def __init__(self) -> None:
        super().__init__()
        self._services: list = []

    def start(self, service_factory: Callable[[int], object], num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.started:
            raise BackendError("InlineBackend is already started")
        self._services = [service_factory(shard) for shard in range(num_shards)]
        self._num_shards = num_shards

    @property
    def local_services(self):
        return tuple(self._services) if self.started else None

    def invoke_each(self, calls: Sequence[ShardCall]) -> dict[int, object]:
        self._require_started()
        return {
            shard: getattr(self._services[shard], method)(*args)
            for shard, method, args in calls
        }


#: The built-in backend names, in "most deterministic first" order.
BACKEND_NAMES = ("inline", "process")


def make_backend(
    backend: "str | ExecutionBackend | None",
    start_method: str | None = None,
) -> ExecutionBackend:
    """Resolve a backend spec — a name, an instance, or ``None``.

    ``None`` yields the default :class:`InlineBackend`.  An instance
    passes through untouched, so callers can hand in a pre-configured
    backend or anything else satisfying the protocol.

    ``"process"`` builds a
    :class:`~repro.serving.replication.ProcessBackend` with
    ``start_method``, which is refused with any other backend — a
    contradiction is an error, not a silent no-op.
    """
    if backend is None:
        backend = "inline"
    if isinstance(backend, str) and backend.lower() == "process":
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
    if backend.lower() == "inline":
        return InlineBackend()
    raise ValueError(
        f"unknown backend {backend!r}; choose from {list(BACKEND_NAMES)}"
    )
