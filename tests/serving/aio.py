"""Deterministic asyncio test harness for the micro-batching front-end.

Asyncio timing tests are flaky by default: real timers make the admission
window close whenever the host scheduler feels like it.  This module
removes every real-time dependency so each interleaving a test constructs
is the interleaving that runs:

* :class:`ManualClock` — drop-in for the service's clock protocol whose
  ``sleep()`` futures resolve only when the test calls ``advance()``.
  Until then the admission window simply cannot close on time.
* :func:`settle` — drain the event loop's ready queue by yielding a
  bounded number of times, so "let everything that can run, run" is an
  explicit, deterministic step instead of a fragile real sleep.
* :func:`run` — ``asyncio.run`` with a hard watchdog: a test that
  deadlocks fails in seconds instead of hanging the suite (independent
  of any pytest timeout plugin).
* :class:`RecordingBackend` / :class:`FailingBackend` — backend spies
  that record exactly which batches were formed, or inject dispatch
  failures.

Tests build scenarios as ``async def`` coroutines and execute them with
``run(scenario())`` — no asyncio pytest plugin required.
"""

from __future__ import annotations

import asyncio
import heapq

#: Hard per-scenario watchdog (seconds).  Deterministic scenarios finish
#: in milliseconds; anything approaching this is a deadlock.
WATCHDOG_S = 20.0

#: How many times :func:`settle` yields to the loop.  Each yield runs
#: every currently-ready callback; a bounded chain of wakeups (put →
#: getter → window → dispatch → future) settles well within this.
SETTLE_ROUNDS = 50


def run(coro, timeout: float = WATCHDOG_S):
    """Run *coro* on a fresh event loop, failing hard on deadlock."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def settle(rounds: int = SETTLE_ROUNDS) -> None:
    """Yield to the event loop until all ready work has run its course."""
    for _ in range(rounds):
        await asyncio.sleep(0)


class ManualClock:
    """A clock the test advances by hand.

    ``sleep()`` parks the caller on a future keyed by its deadline;
    ``advance(dt)`` moves time forward and wakes every sleeper whose
    deadline has passed, then settles the loop so the woken tasks (and
    everything they trigger) run to their next suspension point before
    the test continues.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []
        self._seq = 0

    def now(self) -> float:
        return self._now

    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._sleepers, (self._now + seconds, self._seq, future))
        self._seq += 1
        await future

    @property
    def pending_sleepers(self) -> int:
        return sum(1 for _, _, f in self._sleepers if not f.done())

    async def advance(self, seconds: float) -> None:
        """Move time forward and let everything due (and its fallout) run."""
        await settle()  # let tasks reach their waits before time moves
        self._now += seconds
        while self._sleepers and self._sleepers[0][0] <= self._now + 1e-9:
            _, _, future = heapq.heappop(self._sleepers)
            if not future.done():  # cancelled sleeps just fall out
                future.set_result(None)
        await settle()


class RecordingBackend:
    """Wrap a real service, recording every batch the front-end forms."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.batches: list[list[str]] = []

    def diversify_batch(self, queries):
        self.batches.append(list(queries))
        return self.inner.diversify_batch(queries)

    def cached(self, query):
        return None  # every request reaches diversify_batch, and is recorded

    def warm(self, queries):
        return self.inner.warm(queries)

    @property
    def stats(self):
        return self.inner.stats

    @property
    def served_queries(self) -> list[str]:
        return [query for batch in self.batches for query in batch]


class FailingBackend:
    """A backend whose dispatch always raises — error-path testing."""

    def __init__(self, exc: Exception | None = None) -> None:
        self.exc = exc or RuntimeError("backend exploded")
        self.calls = 0

    def diversify_batch(self, queries):
        self.calls += 1
        raise self.exc

    def cached(self, query):
        return None

    def warm(self, queries):  # pragma: no cover - not exercised
        raise self.exc
