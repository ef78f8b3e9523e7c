"""Lightweight per-stage wall-clock profiling.

A request runs in distinct stages — analyse, retrieve, surrogate,
utility, select — and a split between them is only meaningful if each
stage's share is *measured*, not guessed.  :class:`StageTimer` is a
context-manager timer registry a code path threads through::

    timer = StageTimer()
    with timer.stage("densify"):
        arrays = task.arrays()
    print(timer.report())

A timer is cheap (one ``perf_counter`` pair per stage entry) but not
free, so a caller passes one only when profiling is requested;
everywhere else the module-level :data:`NULL_TIMER` no-op stands in,
keeping the hot path unconditional-branch free.

Stages nest and repeat: entering the same stage name again accumulates
into its total.  Timers are not thread-safe — profile one service at a
time, the way the harnesses drive them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["StageTimer", "NullTimer", "NULL_TIMER"]


class StageTimer:
    """Accumulating wall-clock registry keyed by stage name."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @contextmanager
    def stage(self, name: str):
        """Time one entry of *name*; totals and entry counts accumulate."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def seconds(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{stage: {seconds, entries}}`` — JSON-friendly, for reports
        and assertions."""
        return {
            name: {"seconds": self.totals[name], "entries": self.counts[name]}
            for name in self.totals
        }

    def clear(self) -> None:
        self.totals.clear()
        self.counts.clear()

    def report(self) -> str:
        """One line per stage, largest share first."""
        if not self.totals:
            return "no stages recorded"
        grand = sum(self.totals.values())
        lines = []
        for name, seconds in sorted(
            self.totals.items(), key=lambda item: -item[1]
        ):
            share = seconds / grand if grand else 0.0
            lines.append(
                f"{name:<12} {seconds * 1000.0:9.2f} ms  {share:6.1%}  "
                f"({self.counts[name]} entries)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StageTimer(stages={sorted(self.totals)})"


class NullTimer:
    """Do-nothing stand-in so hot paths can time stages unconditionally."""

    @contextmanager
    def stage(self, name: str):
        yield self

    def seconds(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {}

    def clear(self) -> None:
        pass

    def report(self) -> str:
        return "profiling disabled"


#: Shared no-op timer used whenever profiling is not requested.
NULL_TIMER = NullTimer()
