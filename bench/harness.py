"""Measurement primitives shared by every workload (stdlib only).

Nothing here imports the system under test, so ``bench/tests`` can check
the arithmetic (percentiles, span self time, golden digests) without
building a corpus.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_DIR = BENCH_DIR / "golden"
DEFAULT_SEED = 42

#: Workload-specific end-to-end metrics.  The driver requires every
#: workload to print every ``BENCHMARK.json`` end-to-end metric, so these
#: live in the human table, the ``--out`` record and compare.py only:
#: name -> (unit, better, bound).
EXTRA_END_TO_END = {
    "error_rate": ("ratio", "lower", 0.0),
    "latency_p99_ms": ("ms", "lower", 0.15),
    "alpha_ndcg_20": ("score", "higher", 1e-9),
    "ingest_docs_s": ("docs/s", "higher", 0.10),
    "ingest_p50_ms": ("ms", "lower", 0.10),
}


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (numpy's default), 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = min(1.0, max(0.0, q)) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the driver computes over ten runs (0.0 below four values)."""
    values = list(values)
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: ``{op_id, id, name, parent, start, end}``.

    A span opened while none is open starts a new op; every span opened
    under it shares that ``op_id``.  ``probe`` is any object with a
    ``snapshot() -> (calls, tokens, busy_s)`` method (the timing analyzer):
    the work it saw while the span was open is recorded as one aggregated
    ``analysis`` child, so a layer's self time excludes it without paying
    for a span per analysed sentence.  ``base`` keeps ids of several
    tracers (one per client thread) disjoint.
    """

    def __init__(self, base: int = 0) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._base = base
        self._op = base

    @contextmanager
    def span(self, name: str, probe=None, **counts):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op += 1
        record = {
            "op_id": self._op,
            "id": self._base + len(self.spans),
            "name": name,
            "parent": parent,
            **counts,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        before = probe.snapshot() if probe is not None else None
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if before is not None:
                calls, tokens, busy = (
                    now - then for now, then in zip(probe.snapshot(), before)
                )
                if calls:
                    self.spans.append(
                        {
                            "op_id": record["op_id"],
                            "id": self._base + len(self.spans),
                            "name": "analysis",
                            "parent": record["id"],
                            "start": record["start"],
                            "end": record["start"] + busy,
                            "aggregated": True,
                            "calls": calls,
                            "tokens": tokens,
                        }
                    )


def self_times(spans) -> dict[int, float]:
    """Per span id: its duration minus the interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out: dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out[span["id"]] = (end - start) - covered
    return out


_SPAN_FIELDS = {"op_id", "id", "name", "parent", "start", "end", "aggregated"}


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed self seconds, span count, summed counters."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"self_s": 0.0, "spans": 0})
        entry["self_s"] += own[span["id"]]
        entry["spans"] += 1
        for key, value in span.items():
            if key not in _SPAN_FIELDS and isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return totals


def write_trace(workload: str, spans) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.jsonl"
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return path


# -- passes ------------------------------------------------------------------


@dataclass
class PassResult:
    """One closed-loop pass over a workload's op list.

    ``wall_s`` is the timed wall-clock (untimed input construction
    excluded); ``outputs`` are ``(key, value)`` pairs the checks and the
    golden digest read; ``extra`` holds workload-specific samples;
    ``reference_ms`` are the reference op's times at the places the pass
    ran it (``bench.reference``; empty when it did not).
    """

    latencies_ms: list[float]
    wall_s: float
    failed: int = 0
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    reference_ms: list[float] = field(default_factory=list)

    @property
    def ops(self) -> int:
        """Primary ops (the ones latency percentiles are over)."""
        return len(self.latencies_ms)

    @property
    def timed_ops(self) -> int:
        """Every timed op: primary ones plus ``extra["other_ms"]``
        (ingest_mixed's ingests)."""
        return self.ops + len(self.extra.get("other_ms", ()))


def run_passes(
    run_pass, seconds: float, min_passes: int = 3, max_passes: int | None = None
) -> list:
    """Repeat whole passes until *seconds* is spent (to within half a pass).

    Passes are never cut short, so every pass issues the same op mix and
    percentiles never depend on where the clock ran out.  *max_passes*
    is for workloads whose inputs run out (a finite hold-out).
    """
    results = []
    started = time.perf_counter()
    while True:
        gc.collect()
        results.append(run_pass(len(results)))
        elapsed = time.perf_counter() - started
        if len(results) == max_passes or (
            len(results) >= min_passes
            and elapsed + 0.5 * elapsed / len(results) > seconds
        ):
            return results


def best_of_passes(samples: list[list[float]]) -> list[float]:
    """Per op position, the fastest time any pass saw.

    Every pass issues the same ops in the same order, the work per op is
    deterministic, and a shared sandbox only ever slows an op down (bursts
    of +10..50% lasting a fraction of a second), so the per-position
    minimum estimates an op's cost far more steadily than its median.
    """
    positions = min(len(sample) for sample in samples)
    return [min(sample[j] for sample in samples) for j in range(positions)]


def summarize(
    passes: list[PassResult], pooled: bool, factor: float = 1.0
) -> dict[str, float]:
    """The timing metrics every workload reports, from its passes.

    ``pooled`` (serve_hot_http: concurrent clients, latency set by timers
    and scheduling, so the tail is the system's): percentiles over every
    op of every pass, throughput the median pass's ops / wall.

    Otherwise (one client, CPU-bound, deterministic ops): percentiles over
    the op mix of each op's best-of-passes time, and throughput the rate of
    a pass in which every op ran at its best — differences between ops are
    kept, the machine's bursts are not.  *factor* is the run's machine
    factor (``reference.machine_factor``): times are divided by it, which
    takes out the slowdowns that last longer than a run.
    """
    if pooled:
        times = [ms for p in passes for ms in p.latencies_ms]
        throughput = median(p.ops / p.wall_s for p in passes)
    else:
        times = best_of_passes([p.latencies_ms for p in passes])
        other = best_of_passes([p.extra.get("other_ms", []) for p in passes])
        times = [ms / factor for ms in times]
        busy_ms = sum(times) + sum(other) / factor
        throughput = (len(times) + len(other)) / (busy_ms / 1000.0)
    return {
        "latency_p50_ms": percentile(times, 0.50),
        "latency_p90_ms": percentile(times, 0.90),
        "throughput_ops_s": throughput,
    }


def paired_ratio(numerator: list[PassResult], denominator: list[PassResult]) -> float:
    """Median over op positions of (best numerator op / best denominator op)."""
    top = best_of_passes([p.latencies_ms for p in numerator])
    bottom = best_of_passes([p.latencies_ms for p in denominator])
    return median(a / b for a, b in zip(top, bottom))


# -- process and environment ---------------------------------------------------


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment() -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "load_1min": load,
        "noisy": load > nproc,
    }


# -- output digests ------------------------------------------------------------


def digest(value) -> str:
    """Canonical-JSON SHA-256 of served outputs."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def check_golden(workload: str, seed: int, value: str, update: bool) -> str:
    """Compare a ranking digest with the committed one (default seed only).

    Returns ``"n/a"`` off the default seed, ``"ok"``, ``"mismatch"``, or
    ``"updated"`` after ``--update-golden`` rewrote the file.
    """
    if seed != DEFAULT_SEED:
        return "n/a"
    path = GOLDEN_DIR / f"{workload}.seed{DEFAULT_SEED}.sha256"
    if update:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(f"{value}  {workload}.seed{DEFAULT_SEED}\n")
        return "updated"
    if not path.is_file():
        return "mismatch"
    return "ok" if path.read_text().split()[0] == value else "mismatch"
