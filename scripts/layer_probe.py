#!/usr/bin/env python
"""Untraced layer probe: where a cold diversification request spends its time.

Builds ``pipeline_cold``'s stack (``bench/inputs.py``: corpus, query log,
miner, in-memory engine, ``FRAMEWORK_CONFIG``) and runs its passes — each
a fresh framework over the kept engine, every query once through
``DiversificationFramework.diversify_query`` — with a timer around each
layer the framework calls into:

* ``search``: ``SearchEngine.search`` (R_q and every R_q');
* ``versioned_vectors``: surrogate building;
* ``UtilityMatrix.build``: the utilities of Eq. (1);
* ``select``: the diversifier's ``diversify``.

The first pass runs over a freshly built engine (first-call costs are
paid beforehand on another engine), so it counts nothing a repeated
query left behind; the later passes are what ``pipeline_cold`` measures.
It also reports the surrogates built per op, the share whose selection
was the row's document order, and the share served from a vector the
row already kept (a row keeps it the first time a query takes that
selection, so the first pass reuses only what an earlier query of the
same pass left), the share of ``(query, specialization)`` lists and of
utility cells ``UtilityMatrix.build`` reused from the framework's utility
memo, and the index's build time and ``memory_estimate()`` total as
built.

``--ingest`` probes ``ingest_mixed`` instead (``bench.ingest_mixed``: a
store-backed engine, each epoch 2 adds and 1 remove, then 3 reads through
``DiversificationService.diversify_batch``): its set-up, then its passes
with the same timers, per read.  There the utility memo outlives every
epoch, so the later passes reuse the lists and cells the epochs left
unchanged.  Nothing here is traced, so every number is a call ``src/``
makes::

    python scripts/layer_probe.py                 # pipeline_cold's scale
    python scripts/layer_probe.py --quick         # QUICK_SCALE smoke run
    python scripts/layer_probe.py --paper-scale   # the repo's PAPER_SCALE
    python scripts/layer_probe.py --ingest        # ingest_mixed's scale
    python scripts/layer_probe.py --ingest --quick
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for path in (_ROOT, _ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bench import inputs  # noqa: E402
from bench.ingest_mixed import IngestMixed  # noqa: E402
from repro.core.framework import (  # noqa: E402
    DiversificationFramework,
    FrameworkConfig,
)
from repro.core.utility import UtilityMatrix  # noqa: E402
from repro.retrieval.engine import SearchEngine  # noqa: E402

LAYERS = ("search", "versioned_vectors", "UtilityMatrix.build", "select")
SEED = 42  # bench/run.py's default seed
PASSES = 5  # timed passes after the first


class Probe:
    """Busy seconds per layer, plus the surrogate and memo counts, of one
    pass."""

    def __init__(self) -> None:
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.total = 0.0
        self.ops = self.surrogates = self.in_order = self.reused = 0
        self.lists = self.lists_reused = self.cells = self.cells_reused = 0

    def timed(self, layer: str, call):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                self.busy[layer] += time.perf_counter() - start

        return wrapper

    def ms_per_op(self, total: str) -> dict[str, float]:
        per_op = {layer: busy * 1000.0 / self.ops for layer, busy in self.busy.items()}
        per_op[total] = self.total * 1000.0 / self.ops
        return per_op

    def count_reuse(self, candidates, spec_results, memo, held) -> None:
        """Count the lists whose centroid a ``build`` call reused (its
        entry's key is the one it held before) and their reused cells."""
        for spec in spec_results:
            self.lists += 1
            self.cells += len(candidates)
            old = held.get(spec)
            new = memo.entries.peek((memo.query, spec))
            if old is not None and new is not None and old[0] == new[0]:
                self.lists_reused += 1
                self.cells_reused += sum(seq in old[2] for seq in candidates.seqs)


@contextlib.contextmanager
def instrumented(probe: Probe, engine, diversifier):
    """Time the layers *engine* and *diversifier* run while open."""
    diversifier.diversify = probe.timed("select", diversifier.diversify)
    versioned = probe.timed("versioned_vectors", engine.versioned_vectors)

    def versioned_vectors(query, results):
        results = list(results)
        kept = {r.doc_id: engine.forward_row(r.doc_id).ordered for r in results}
        built = versioned(query, results)
        probe.surrogates += len(built)
        for doc_id, (_, vector) in built.items():
            ordered = engine.forward_row(doc_id).ordered
            probe.in_order += ordered is not None and vector is ordered.vector
            probe.reused += kept[doc_id] is not None and vector is ordered.vector
        return built

    timed_build = probe.timed("UtilityMatrix.build", UtilityMatrix.build)

    def counted_build(candidates, spec_results, vectors, **options):
        memo, held = options.get("memo"), {}
        if memo is not None:
            held = {s: memo.entries.peek((memo.query, s)) for s in spec_results}
        matrix = timed_build(candidates, spec_results, vectors, **options)
        if memo is not None:
            probe.count_reuse(candidates, spec_results, memo, held)
        return matrix

    engine.search = probe.timed("search", engine.search)
    engine.versioned_vectors = versioned_vectors
    build = UtilityMatrix.__dict__["build"]
    UtilityMatrix.build = staticmethod(counted_build)
    try:
        yield
    finally:
        UtilityMatrix.build = build
        del engine.search, engine.versioned_vectors, diversifier.diversify


def run_pass(engine, miner, config, queries) -> Probe:
    """One pass of *queries* through a fresh framework over *engine*."""
    probe = Probe()
    framework = DiversificationFramework(engine, miner, config=config)
    with instrumented(probe, engine, framework.diversifier):
        for query in queries:
            start = time.perf_counter()
            framework.diversify_query(query)
            probe.total += time.perf_counter() - start
            probe.ops += 1
    return probe


def ingest_passes(quick: bool) -> tuple[str, list[Probe]]:
    """``ingest_mixed``'s set-up and passes (the first pass, then as many
    of :data:`PASSES` as its hold-out feeds), one :class:`Probe` each."""
    workload = IngestMixed(SEED, quick=quick)
    workload.setup()
    try:
        framework = workload.service.framework
        probes = []
        for index in range(min(PASSES + 1, workload.max_passes)):
            probe = Probe()
            with instrumented(probe, workload.engine, framework.diversifier):
                result = workload.run_pass(index)
            probe.total = sum(result.latencies_ms) / 1000.0
            probe.ops = len(result.latencies_ms)
            probes.append(probe)
        header = (
            f"{len(workload.expected_ids)} documents after the last epoch, "
            f"{probes[0].ops} reads per pass over a store-backed engine "
            f"({workload.epochs_per_pass} epochs of 2 adds + 1 remove)"
        )
    finally:
        workload.teardown()
    return header, probes


def stack(args):
    """``(collection, miner, config, queries)`` of the chosen scale."""
    if args.paper_scale:
        from repro.experiments.workloads import PAPER_SCALE, build_trec_workload

        scale = PAPER_SCALE
        workload = build_trec_workload(scale, seed=SEED)
        config = FrameworkConfig(
            k=scale.k, candidates=scale.candidates, spec_results=scale.spec_results
        )
        queries = [topic.query for topic in workload.testbed.topics]
        return workload.corpus.collection, workload.miner(), config, queries
    scale = inputs.QUICK_SCALE if args.quick else inputs.PIPELINE_SCALE
    built = inputs.build_stack(scale, SEED, index=False)
    return built.corpus.collection, built.miner, inputs.FRAMEWORK_CONFIG, built.queries


def report(header: str, unit: str, total: str, probes: list[Probe]) -> None:
    """Print the first pass against the median of the later ones."""
    first, later = probes[0], probes[1:]
    print(header)
    print(f"{unit:<22}{'first pass':>12}{'later (median)':>16}")
    first_ms = first.ms_per_op(total)
    later_ms = [probe.ms_per_op(total) for probe in later]
    for layer in (*LAYERS, total):
        median = statistics.median(ms[layer] for ms in later_ms)
        print(f"{layer:<22}{first_ms[layer]:>12.3f}{median:>16.3f}")
    for name, probe in (("first pass", first), ("later passes", later[-1])):
        surrogates = max(probe.surrogates, 1)
        print(
            f"{name}: {probe.surrogates / probe.ops:.2f} surrogates per op, "
            f"{probe.in_order / surrogates:.1%} in document order, "
            f"{probe.reused / surrogates:.1%} served from the row's kept vector"
        )
        print(
            f"{name}: utility memo reused "
            f"{probe.lists_reused / max(probe.lists, 1):.1%} of (query, "
            f"specialization) lists and "
            f"{probe.cells_reused / max(probe.cells, 1):.1%} of cells"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true", help="QUICK_SCALE")
    scale.add_argument("--paper-scale", action="store_true", help="PAPER_SCALE")
    parser.add_argument(
        "--ingest", action="store_true", help="ingest_mixed's set-up and passes"
    )
    args = parser.parse_args(argv)
    if args.ingest:
        if args.paper_scale:
            parser.error("--ingest runs at ingest_mixed's scale or --quick")
        header, probes = ingest_passes(args.quick)
        report(header, "ms/read", "diversify_batch", probes)
        return 0

    collection, miner, config, queries = stack(args)
    # First-call costs (lazy imports, numpy kernels) go to a throwaway engine.
    run_pass(SearchEngine(collection), miner, config, queries[:1])
    start = time.perf_counter()
    engine = SearchEngine(collection)
    build_ms = (time.perf_counter() - start) * 1000.0
    built_bytes = engine.memory_estimate()["total_bytes"]
    probes = [run_pass(engine, miner, config, queries) for _ in range(PASSES + 1)]
    header = (
        f"{len(collection)} documents, {len(queries)} queries per pass; "
        f"index build {build_ms:.1f} ms, index.memory_bytes {built_bytes:,} "
        "as built"
    )
    report(header, "ms/op", "diversify_query", probes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
