"""The reference op: how fast the machine is *right now*.

The sandbox is a small VM on a shared host.  Besides bursts (which
best-of-passes removes, see ``harness.best_of_passes``) the whole machine
runs 5-60% slower for minutes at a time when a neighbour is busy:
twenty-five consecutive 25 s runs of ``ingest_mixed`` on one commit gave a
best-of-passes p50 between 1.00x and 1.65x its floor.  No amount of
repetition inside one run finds a floor the machine never reaches during
that run.

So every pass of a CPU-bound workload also runs a *reference op* at a few
fixed places between its own ops: a fixed piece of interpreter-bound work
(regex tokenising, suffix stripping, counting — the instruction mix of the
system's own hot path) that uses nothing from ``src/``, so no change to
the system can move it.  Each place's best-of-passes time is found exactly
as an op's is; their mean, divided by :data:`NOMINAL_MS`, is the run's
*machine factor*, and latencies are divided and throughput multiplied by
it (``harness.summarize``).  On the runs above the factor tracked the
slowdown (1.00-1.60x) and the calibrated p50 stayed within +-10%.

The reported numbers are therefore milliseconds on a machine that runs the
reference op in :data:`NOMINAL_MS` — the quiet sandbox.  The measured wall
times are kept beside them (``raw`` in the table and the ``--out`` record).
"""

from __future__ import annotations

import re
import time
from collections import Counter

#: Best time of :func:`run` on the quiet 2-core sandbox, Python 3.11.
NOMINAL_MS = 11.8

_SUFFIXES = ("ing", "ed", "s")
_TEXT = " ".join(
    f"W{index % 997}{_SUFFIXES[index % 3]}" for index in range(6000)
)
_TOKEN = re.compile(r"[a-z0-9]+")
_ROUNDS = 3
#: Places per pass at which a workload times the reference op.
PLACES = 4


def _work() -> int:
    distinct = 0
    for _ in range(_ROUNDS):
        counts: Counter = Counter()
        for token in _TOKEN.findall(_TEXT.lower()):
            for suffix in _SUFFIXES:
                if token.endswith(suffix):
                    token = token[: -len(suffix)]
                    break
            counts[token] += 1
        distinct += len(counts)
    return distinct


def run() -> float:
    """Do the reference work once; its wall time in milliseconds."""
    start = time.perf_counter()
    _work()
    return (time.perf_counter() - start) * 1000.0


def due(position: int, total: int) -> bool:
    """Whether a pass of *total* ops runs the reference op after op
    *position* (0-based): :data:`PLACES` evenly spaced places, the last one
    after the last op."""
    return (position + 1) * PLACES // total > position * PLACES // total


def factor(reference_ms) -> float:
    """Mean of some reference times over the nominal one (1.0 for none)."""
    times = list(reference_ms)
    return sum(times) / len(times) / NOMINAL_MS if times else 1.0


def machine_factor(reference_ms) -> float:
    """The machine factor of a run from its passes' reference times.

    *reference_ms* holds one list per pass, one time per place; every
    place counts with the best time any pass saw there.
    """
    return factor(min(place) for place in zip(*(t for t in reference_ms if t)))
