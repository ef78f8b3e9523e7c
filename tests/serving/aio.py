"""Deterministic asyncio test harness for the micro-batching front-end.

Asyncio tests are flaky when they wait on real time.  The front-end has
no timer — a batch is what is queued when the batcher is free — so a
test that yields until the loop is idle sees exactly the batches the
interleaving it constructed forms, without a single sleep:

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

#: Hard per-scenario watchdog (seconds).  Deterministic scenarios finish
#: in milliseconds; anything approaching this is a deadlock.
WATCHDOG_S = 20.0

#: How many times :func:`settle` yields to the loop.  Each yield runs
#: every currently-ready callback; a bounded chain of wakeups (put →
#: getter → batcher → dispatch → future) settles well within this.
SETTLE_ROUNDS = 50


def run(coro, timeout: float = WATCHDOG_S):
    """Run *coro* on a fresh event loop, failing hard on deadlock."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def settle(rounds: int = SETTLE_ROUNDS) -> None:
    """Yield to the event loop until all ready work has run its course."""
    for _ in range(rounds):
        await asyncio.sleep(0)


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
