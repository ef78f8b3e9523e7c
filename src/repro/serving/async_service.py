"""Async micro-batching front-end over the batched serving layer.

The batched services (:class:`~repro.serving.service.DiversificationService`
and :class:`~repro.serving.sharded.ShardedDiversificationService`) take a
*pre-formed* batch — but a real front-end serving millions of users
receives single queries on independent connections and must form the
batches itself.  :class:`AsyncDiversificationService` is that admission
layer:

* callers ``await submit(query)`` — one awaitable per request, resolved
  with exactly the :class:`~repro.core.framework.DiversifiedResult` a
  direct ``diversify_batch`` call would have produced;
* a result-cache hit (``backend.cached(query)``) is answered at once:
  the window exists to batch misses, and a hit has nothing to batch;
* the other requests land in a **bounded** queue (full queue =
  backpressure: the submit blocks, or fails fast once the service is
  stopping);
* a single batcher task coalesces requests under a two-sided window —
  close when ``max_batch_size`` requests have gathered or ``max_wait_s``
  has passed since the first one arrived, whichever comes first;
* each closed batch is dispatched to the backend's ``diversify_batch``
  on an executor so the event loop keeps accepting traffic while the
  (GIL-releasing numpy kernels aside, CPU-bound) ranking runs;
* per-request futures resolve in request order within the batch, and
  batch-formation accounting (batch-size histogram, queue-wait sample,
  queue depth peak) lands in :class:`~repro.serving.service.ServiceStats`
  next to the usual counters.  ``stats.served`` counts every request;
  the histogram (like the backend's own ``served``) counts only those
  that reached ``diversify_batch``, so ``served`` minus the histogram's
  request total is the number of hits answered before the window.

Timing is injected through a small clock protocol (:class:`LoopClock`)
so the admission window can be driven by a *manual* clock in tests —
every window/backpressure/cancellation behaviour is asserted
deterministically in ``tests/serving/test_async_service.py`` without a
single real sleep, including open-loop traffic whose every result must
equal the sequential batched path's.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Iterable
from concurrent.futures import Executor
from dataclasses import dataclass

from repro.core.framework import DiversifiedResult
from repro.serving.service import ServiceStats, WarmReport

__all__ = [
    "AsyncDiversificationService",
    "LoopClock",
    "ServiceClosed",
]


class ServiceClosed(RuntimeError):
    """Raised to submitters whose request cannot be served because the
    service is stopping (or was never started)."""


class LoopClock:
    """Default clock: the running event loop's time and real sleeps.

    Anything with ``now() -> float`` and ``async sleep(seconds)`` can
    stand in — the deterministic test harness substitutes a manually
    advanced clock so admission windows close exactly when a test says
    so.
    """

    def now(self) -> float:
        return asyncio.get_running_loop().time()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)


@dataclass
class _Pending:
    """One admitted request: its query, the caller's future, and when it
    entered the queue (for the wait-time sample)."""

    query: str
    future: asyncio.Future
    enqueued_at: float


class AsyncDiversificationService:
    """Coalesce single-query submits into windowed batches.

    Parameters
    ----------
    backend:
        Anything with ``diversify_batch(queries) -> list[DiversifiedResult]``,
        ``cached(query) -> DiversifiedResult | None``, ``warm(queries)``
        and ``get_stats()`` — a
        :class:`~repro.serving.service.DiversificationService` or a
        :class:`~repro.serving.sharded.ShardedDiversificationService`
        (running on any execution backend, including
        :class:`~repro.serving.replication.ProcessBackend`: its worker
        protocol is serialized internally, so dispatching from the
        event loop's executor threads is safe).  The backend's own
        dedup/caching make results identical to a direct batched call
        over the same queries.
    max_batch_size:
        Close the window as soon as this many requests have gathered.
    max_wait_s:
        Close the window this long after its *first* request arrived,
        even if the batch is not full.  ``0`` disables the timer: a
        batch is whatever is already queued when the batcher looks.
    max_pending:
        Bound of the admission queue.  When it is full, ``submit``
        blocks until the batcher drains — backpressure instead of
        unbounded buffering.
    executor:
        Where batches run.  ``None`` uses the event loop's default
        thread pool.  Ignored when ``inline=True``, which runs the
        backend call directly on the event loop — only sensible for
        tests and tiny workloads, but perfectly deterministic.
    clock:
        The time source for the admission window (see :class:`LoopClock`).
    name:
        Label for ``stats`` summaries.

    >>> async with AsyncDiversificationService(service) as front:  # doctest: +SKIP
    ...     results = await asyncio.gather(*(front.submit(q) for q in traffic))
    """

    def __init__(
        self,
        backend,
        max_batch_size: int = 32,
        max_wait_s: float = 0.005,
        max_pending: int = 1024,
        executor: Executor | None = None,
        inline: bool = False,
        clock=None,
        name: str = "async",
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.backend = backend
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.max_pending = max_pending
        self.name = name
        self.stats = ServiceStats(name=name)
        self._executor = executor
        self._inline = inline
        self._clock = clock if clock is not None else LoopClock()
        self._queue: asyncio.Queue[_Pending] | None = None
        self._runner: asyncio.Task | None = None
        self._closing: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._runner is not None and not self._runner.done()

    def start(self) -> None:
        """Create the admission queue and the batcher task.  Must be
        called from a running event loop; idempotent while running."""
        if self.running:
            return
        self._queue = asyncio.Queue(maxsize=self.max_pending)
        self._closing = asyncio.Event()
        self._runner = asyncio.get_running_loop().create_task(
            self._run(), name=f"repro-batcher-{self.name}"
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the batcher down.

        With ``drain=True`` (the default) every request already accepted
        into the queue is still batched and resolved first — the open
        admission window closes immediately rather than waiting out
        ``max_wait_s``.  Submitters blocked on backpressure, and any
        requests still queued with ``drain=False``, are failed with
        :class:`ServiceClosed`.  Idempotent, including *concurrent*
        stops: overlapping callers share one shutdown instead of
        cancelling a runner another stop already tore down.
        """
        runner = self._runner
        if runner is None:
            return
        self._closing.set()
        if drain:
            await self._queue.join()
        if self._runner is runner:
            self._runner = None
            runner.cancel()
        await asyncio.gather(runner, return_exceptions=True)
        await self._sweep_rejected()

    async def _sweep_rejected(self) -> None:
        """Fail every request still in (or racing into) the queue.

        A submitter parked on backpressure holds its item *outside* the
        queue: each ``get_nowait`` below frees a slot and wakes one such
        putter, whose item only lands after the event loop runs its
        resumed coroutine.  A single sweep would miss those stragglers —
        their futures would never resolve — so the sweep repeats, with
        yield rounds in between, until a full round finds the queue
        empty and nothing new arrived.
        """
        while True:
            swept = False
            while True:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                swept = True
                if not item.future.done():
                    item.future.set_exception(ServiceClosed("service stopped"))
                self._queue.task_done()
            for _ in range(3):  # let woken putters land their items
                await asyncio.sleep(0)
            if not swept and self._queue.empty():
                return

    async def drain(self) -> dict:
        """Graceful-shutdown hook: stop admitting, flush what is queued.

        The rolling-restart primitive the HTTP layer's ``POST /drain``
        exposes: admission closes immediately (new submits raise
        :class:`ServiceClosed`), every request already accepted is still
        batched and resolved, and the returned counts say what the drain
        found and how long the flush took.  Safe to call on a stopped
        (or never-started) service — it reports zero pending and flags
        ``already_stopped``.
        """
        already_stopped = self._runner is None
        pending = 0 if self._queue is None else self._queue.qsize()
        start = time.perf_counter()
        await self.stop(drain=True)
        return {
            "already_stopped": already_stopped,
            "pending_at_drain": pending,
            "served_total": self.stats.served,
            "batches_total": self.stats.batches,
            "seconds": time.perf_counter() - start,
        }

    async def __aenter__(self) -> "AsyncDiversificationService":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop(drain=True)

    # -- submission --------------------------------------------------------------

    async def submit(self, query: str) -> DiversifiedResult:
        """Admit one query; resolves when its batch has been served.

        Blocks (asynchronously) while the admission queue is full.  A
        submit waiting on that backpressure when the service stops is
        failed with :class:`ServiceClosed` instead of hanging.
        """
        if not self.running:
            raise ServiceClosed("service is not running; use `async with` "
                                "or call start() first")
        if self._closing.is_set():
            raise ServiceClosed("service is stopping")
        # The window exists to batch misses; a hit has nothing to wait for.
        result = self.backend.cached(query)
        if result is not None:
            self.stats.served += 1
            return result
        loop = asyncio.get_running_loop()
        item = _Pending(query, loop.create_future(), self._clock.now())
        if not self._queue.full():
            # Fast path: space available, admit without yielding (so the
            # queue-depth sample sees the burst before the batcher drains).
            self._queue.put_nowait(item)
        else:
            put = asyncio.ensure_future(self._queue.put(item))
            closing = asyncio.ensure_future(self._closing.wait())
            try:
                await asyncio.wait(
                    {put, closing}, return_when=asyncio.FIRST_COMPLETED
                )
                if not put.done():
                    # Backpressure lost the race against shutdown.
                    put.cancel()
                    await asyncio.gather(put, return_exceptions=True)
                    raise ServiceClosed(
                        "service stopped while awaiting queue space"
                    )
                put.result()  # re-raise a put failure, if any
            finally:
                if not closing.done():
                    closing.cancel()
                    await asyncio.gather(closing, return_exceptions=True)
        depth = self._queue.qsize()
        if depth > self.stats.queue_depth_peak:
            self.stats.queue_depth_peak = depth
        return await item.future

    async def submit_many(self, queries: Iterable[str]) -> list[DiversifiedResult]:
        """Submit many queries concurrently; results align with input."""
        return list(
            await asyncio.gather(*(self.submit(query) for query in queries))
        )

    async def warm(self, queries: Iterable[str]) -> WarmReport:
        """Run the backend's offline phase without blocking the loop."""
        queries = list(queries)
        if self._inline:
            return self.backend.warm(queries)
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, self.backend.warm, queries
        )

    # -- batch formation ---------------------------------------------------------

    def _fill(self, batch: list[_Pending]) -> None:
        """Greedily move already-queued requests into *batch*."""
        while len(batch) < self.max_batch_size:
            try:
                batch.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                return

    async def _reap(self, getter: asyncio.Task, batch: list[_Pending]) -> None:
        """Cancel a pending queue-get; keep its item if it won the race."""
        getter.cancel()
        try:
            item = await getter
        except (asyncio.CancelledError, asyncio.QueueEmpty):
            return
        batch.append(item)

    async def _await_window(self, batch: list[_Pending]) -> None:
        """Gather requests until the batch fills, ``max_wait_s`` passes
        (measured from the first request), or the service starts
        stopping."""
        deadline = asyncio.ensure_future(self._clock.sleep(self.max_wait_s))
        closing = asyncio.ensure_future(self._closing.wait())
        getter: asyncio.Future | None = None
        try:
            while len(batch) < self.max_batch_size:
                getter = asyncio.ensure_future(self._queue.get())
                done, _ = await asyncio.wait(
                    {getter, deadline, closing},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if getter in done:
                    batch.append(getter.result())
                    self._fill(batch)
                else:
                    await self._reap(getter, batch)
                getter = None
                if deadline in done or closing in done:
                    return
        finally:
            if getter is not None:
                # The wait itself was interrupted (batcher cancelled):
                # keep the item if the get had already won, else put the
                # get out of its misery so it cannot consume one later.
                getter.cancel()
                if getter.done() and not getter.cancelled():
                    batch.append(getter.result())
            for task in (deadline, closing):
                if not task.done():
                    task.cancel()
            await asyncio.gather(deadline, closing, return_exceptions=True)

    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            try:
                self._fill(batch)
                if (
                    len(batch) < self.max_batch_size
                    and self.max_wait_s > 0
                    and not self._closing.is_set()
                ):
                    await self._await_window(batch)
            except asyncio.CancelledError:
                # Stopped without drain while the window was open: the
                # batch's requests were already dequeued, so the queue
                # sweep in stop() cannot see them — fail them here.
                self._reject(batch, ServiceClosed("service stopped"))
                for _ in batch:
                    self._queue.task_done()
                raise
            await self._dispatch(batch)

    # -- dispatch ----------------------------------------------------------------

    def _reject(self, items: list[_Pending], exc: BaseException) -> None:
        for item in items:
            if not item.future.done():
                item.future.set_exception(exc)

    async def _dispatch(self, batch: list[_Pending]) -> None:
        """Serve one closed batch and resolve its futures."""
        try:
            closed_at = self._clock.now()
            # A caller that cancelled its submit no longer needs a
            # result; its query is dropped unless another live request
            # shares it (the backend dedups those anyway).
            live = [item for item in batch if not item.future.done()]
            if not live:
                return
            self.stats.record_formation(
                len(live),
                ((closed_at - item.enqueued_at) * 1000.0 for item in live),
                self._queue.qsize(),
            )
            queries = [item.query for item in live]
            start = time.perf_counter()
            try:
                if self._inline:
                    results = self.backend.diversify_batch(queries)
                else:
                    results = await asyncio.get_running_loop().run_in_executor(
                        self._executor, self.backend.diversify_batch, queries
                    )
            except asyncio.CancelledError:
                self._reject(live, ServiceClosed("service stopped mid-batch"))
                raise
            except Exception as exc:
                self._reject(live, exc)
                return
            finally:
                self.stats.seconds += time.perf_counter() - start
            for item, result in zip(live, results):
                if not item.future.done():
                    item.future.set_result(result)
            self.stats.served += len(live)
            self.stats.batches += 1
        finally:
            for _ in batch:
                self._queue.task_done()

    # -- summaries ---------------------------------------------------------------

    def backend_stats(self) -> ServiceStats:
        """The backend's own serving stats (cluster-merged when sharded)."""
        return self.backend.get_stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return (
            f"AsyncDiversificationService(name={self.name!r}, {state}, "
            f"max_batch_size={self.max_batch_size}, "
            f"max_wait_s={self.max_wait_s}, max_pending={self.max_pending})"
        )
