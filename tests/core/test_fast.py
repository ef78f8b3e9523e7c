"""Equivalence tests: kernel-backed variants vs reference implementations.

The identity suite is property-style: :func:`tests.core.helpers.random_task`
draws seeded random tasks sweeping sizes, λ, thresholds and the
score/probability/utility distributions (ties included), and every
``Fast*`` kernel must reproduce its pure-Python reference's selection
exactly on each of them.  Besides each task at its own k, the sweep
ranks ragged *groups* of random tasks at one shared k (the largest any
member drew), so smaller members cross the k ≥ n and |S_q| > k
boundaries, plus four edge cases: an empty specialization set, a
hand-built exact tie, k above every n, and one task ranked three times
in a row by the same instance.  A failing case is fully reproducible
from its id — ``task<seed>`` is ``random_task(seed)``, ``group<seed>``
is ``_group(seed)``.

:class:`TestTieContract` pins the tie rule where a BLAS mat-vec breaks it
first: candidates sharing bit-identical utility rows
(:func:`duplicate_row_task`), so every greedy pick among them is an exact
tie the reference decides by baseline rank, plus |S_q| > k truncation,
the strict-pseudocode mode, a document in two OptSelect pools, the fill's
spec-name charge order and the all-zero-gain tail.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from repro.core import kernels
from repro.core.ambiguity import SpecializationSet
from repro.core.fast import (
    FastIASelect,
    FastMMR,
    FastOptSelect,
    FastXQuAD,
    get_fast_diversifier,
)
from repro.core.heaps import BoundedMaxHeap
from repro.core.iaselect import IASelect
from repro.core.mmr import MMR
from repro.core.optselect import OptSelect
from repro.core.xquad import XQuAD
from repro.experiments.workloads import synthetic_task
from repro.retrieval.similarity import TermVector

from .helpers import build_task, random_task, two_intent_task

#: Seeded random sweep width.  Each seed is a different (task, k) draw;
#: together they cover every distribution shape the generator knows.
SWEEP_SEEDS = range(40)

#: Each seed draws one ragged group of independently-random tasks.
GROUP_SEEDS = range(52)

#: Tasks per group — enough for a spread of sizes under one shared k.
GROUP_SIZE = 4

PAIRS = [
    (FastOptSelect, OptSelect),
    (FastXQuAD, XQuAD),
    (FastIASelect, IASelect),
    (FastMMR, MMR),
]


def _own_k(seed: int):
    task, k = random_task(seed)
    return [task], k


def _group(base_seed: int):
    """A ragged group: independent random tasks under one shared k.

    A member drawn for a smaller k may rank here with |S_q| > k, whose
    renormalised probabilities (1/7, …) turn ``random_task``'s exact
    binary ties into ties only up to rounding; the kernels must decide
    those exactly as the reference does too.
    """
    draws = [random_task(1000 * base_seed + j) for j in range(GROUP_SIZE)]
    return [task for task, _ in draws], max(k for _, k in draws)


def _empty_spec_task(n: int = 8):
    """A task whose specialization set is empty (unambiguous query)."""
    scores = [(f"d{i:03d}", 1.0 / (i + 1)) for i in range(n)]
    task = build_task({}, {}, scores)
    task.vectors = {
        doc_id: TermVector({"t0": 1.0, f"t{i % 3}": 0.5})
        for i, (doc_id, _) in enumerate(scores)
    }
    return task


def _empty_specs():
    empty, (full, k) = _empty_spec_task(), random_task(3)
    return [empty, full, empty], k


def _exact_tie():
    """Hand-built exact-arithmetic ties: broken by baseline rank only."""
    scores = [(f"d{i}", float(8 - i)) for i in range(8)]
    utilities = {
        "q s0": {"d0": 0.5, "d2": 0.5, "d4": 0.5},
        "q s1": {"d1": 0.5, "d3": 0.5, "d5": 0.5},
    }
    probabilities = {"q s0": 1.0, "q s1": 1.0}
    tied = build_task(utilities, probabilities, scores, lambda_=0.5)
    tied.vectors = {doc_id: TermVector({"shared": 1.0}) for doc_id, _ in scores}
    other, _ = random_task(11)
    return [tied, other, tied], 6


def _k_above_every_n():
    tasks = [
        synthetic_task(6, num_specs=2, seed=s, with_vectors=True)
        for s in (1, 2, 3)
    ]
    return tasks, 50


def _repeated():
    task, k = random_task(7)
    return [task, task, task], k


CASES = [
    *(
        pytest.param(functools.partial(_own_k, s), id=f"task{s}")
        for s in SWEEP_SEEDS
    ),
    *(
        pytest.param(functools.partial(_group, s), id=f"group{s}")
        for s in GROUP_SEEDS
    ),
    pytest.param(_empty_specs, id="empty-specs"),
    pytest.param(_exact_tie, id="exact-tie"),
    pytest.param(_k_above_every_n, id="k-above-n"),
    pytest.param(_repeated, id="repeated"),
]


class TestRandomizedEquivalence:
    """Kernel selections must equal the references on random tasks."""

    @pytest.mark.parametrize(
        ("fast_cls", "reference_cls"),
        PAIRS,
        ids=[reference.__name__ for _, reference in PAIRS],
    )
    @pytest.mark.parametrize("case", CASES)
    def test_fast_matches_reference(self, case, fast_cls, reference_cls):
        tasks, k = case()
        fast = fast_cls()  # one instance ranks every member in a row
        for j, task in enumerate(tasks):
            got = fast.diversify(task, k)
            want = reference_cls().diversify(task, k)
            assert got == want, (
                f"{fast_cls.__name__} diverged on member {j}: k={k}, "
                f"n={len(task.candidates)}, "
                f"|S_q|={len(task.specializations)}, λ={task.lambda_}"
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_fast_optselect_strict_pseudocode_mode(self, seed):
        task, k = random_task(seed + 1000)
        reference = OptSelect(strict_paper_pseudocode=True)
        fast = FastOptSelect(strict_paper_pseudocode=True)
        assert fast.diversify(task, k) == reference.diversify(task, k)

    def test_hand_built_task(self):
        """The paper's running example, kept as a readable anchor."""
        task = two_intent_task()
        for k in (2, 4, 8):
            assert FastXQuAD().diversify(task, k) == XQuAD().diversify(task, k)
            assert FastIASelect().diversify(task, k) == IASelect().diversify(
                task, k
            )

    def test_thresholded_task(self):
        task = synthetic_task(60, num_specs=4, seed=9).with_threshold(0.5)
        assert FastXQuAD().diversify(task, 10) == XQuAD().diversify(task, 10)
        assert FastIASelect().diversify(task, 10) == IASelect().diversify(
            task, 10
        )


#: Duplicate-row sweep: each chunk is one test id of this many seeds.
DUPLICATE_ROW_CHUNKS = range(5)
DUPLICATE_ROW_SEEDS_PER_CHUNK = 100


def duplicate_row_task(seed: int):
    """Candidates tied on baseline score, each carrying one of 3 utility rows.

    Two candidates with the same row have bit-identical reference scores
    at every pick, so the reference decides between them by baseline
    rank alone.  A kernel that scores them through a BLAS mat-vec can
    round them one ULP apart depending on where their rows sit; this is
    the regime that catches it.
    """
    rng = random.Random(seed)
    specs = [f"q s{j}" for j in range(rng.randint(2, 9))]
    rows = [
        {spec: rng.random() for spec in specs if rng.random() < 0.7}
        for _ in range(3)
    ]
    n = rng.randint(3, 40)
    scores = [(f"d{i:02d}", 1.0) for i in range(n)]
    utilities: dict[str, dict[str, float]] = {spec: {} for spec in specs}
    for doc_id, _ in scores:
        for spec, value in rng.choice(rows).items():
            utilities[spec][doc_id] = value
    probabilities = {spec: rng.uniform(0.05, 1.0) for spec in specs}
    task = build_task(utilities, probabilities, scores, lambda_=rng.random())
    return task, rng.randint(1, n)


class TestTieContract:
    """Ties are decided the way the references decide them."""

    @pytest.mark.parametrize(
        ("fast_cls", "reference_cls"),
        PAIRS[:3],
        ids=[reference.__name__ for _, reference in PAIRS[:3]],
    )
    @pytest.mark.parametrize("chunk", DUPLICATE_ROW_CHUNKS)
    def test_identical_rows_rank_like_the_reference(
        self, chunk, fast_cls, reference_cls
    ):
        first = chunk * DUPLICATE_ROW_SEEDS_PER_CHUNK
        diverged = []
        for seed in range(first, first + DUPLICATE_ROW_SEEDS_PER_CHUNK):
            task, k = duplicate_row_task(seed)
            if fast_cls().diversify(task, k) != reference_cls().diversify(task, k):
                diverged.append(seed)
        assert diverged == [], f"duplicate_row_task seeds {diverged}"

    @pytest.mark.parametrize("seed", range(0, 400, 40))
    def test_more_specializations_than_k(self, seed):
        """|S_q| > k: every kernel ranks on the truncated ``head(k)``."""
        task, _ = duplicate_row_task(seed)
        k = len(task.specializations) - 1
        assert task.arrays().head(k).m == k
        for fast_cls, reference_cls in PAIRS[:3]:
            assert fast_cls().diversify(task, k) == reference_cls().diversify(
                task, k
            ), fast_cls.__name__

    @pytest.mark.parametrize("seed", range(0, 400, 40))
    def test_strict_paper_pseudocode(self, seed):
        task, k = duplicate_row_task(seed)
        fast = FastOptSelect(strict_paper_pseudocode=True)
        reference = OptSelect(strict_paper_pseudocode=True)
        assert fast.diversify(task, k) == reference.diversify(task, k)

    def test_document_in_two_pools(self):
        """One document heads both specialization pools; ranked once."""
        scores = [(f"d{i}", 1.0) for i in range(6)]
        utilities = {
            "q a": {"d0": 0.5, "d1": 0.9, "d2": 0.4},
            "q b": {"d1": 0.9, "d3": 0.5, "d4": 0.4},
        }
        task = build_task(utilities, {"q b": 3.0, "q a": 2.0}, scores)
        for k in range(1, 7):
            got = FastOptSelect().diversify(task, k)
            assert got == OptSelect().diversify(task, k)
            assert got[0] == "d1" and len(set(got)) == len(got) == k

    def test_fill_charges_the_spec_whose_name_sorts_first(self):
        """A document pooled under two specs counts against the one whose
        name sorts first (the last key of the merged sort), not the more
        probable one — and with "q a"'s quota of 2 spent, its third entry
        waits for the baseline top-up."""
        specializations = SpecializationSet.from_frequencies(
            "q", {"q b": 3.0, "q a": 1.0}
        )
        k = 4  # quotas: "q b" 4, "q a" 2
        spec_pools = {
            "q b": [(-0.9, 0), (-0.3, 3)],
            "q a": [(-0.9, 0), (-0.5, 1), (-0.4, 2)],
        }
        selected: list[int] = []
        OptSelect._fill_proportionally(
            5,
            specializations,
            spec_pools,
            {"q b": 0, "q a": 0},
            [],
            selected,
            set(),
            k,
        )
        assert selected == [0, 1, 3, 2]

    def test_all_zero_gain_tail_in_baseline_order(self):
        """Once every remaining gain is an exact 0 the rest of the ranking
        is the baseline order, for the greedy references and kernels."""
        scores = [(f"d{i}", 6.0 - i) for i in range(6)]
        utilities = {
            "q s0": {"d0": 0.5, "d3": 1.0, "d5": 0.25},
            "q s1": {"d1": 0.5, "d3": 1.0},
        }
        task = build_task(utilities, {"q s0": 1.0, "q s1": 1.0}, scores)
        want = ["d3", "d0", "d1", "d2", "d4", "d5"]
        assert IASelect().diversify(task, 6) == want
        assert FastIASelect().diversify(task, 6) == want
        novelty_only = task.with_lambda(1.0)
        assert XQuAD().diversify(novelty_only, 6) == want
        assert FastXQuAD().diversify(novelty_only, 6) == want
        assert kernels.iaselect_select(task.arrays(), 4) == [3, 0, 1, 2]


class TestFastBehaviour:
    def test_k_capped(self):
        task = synthetic_task(10, num_specs=2, seed=1)
        assert len(FastXQuAD().diversify(task, 50)) == 10

    def test_invalid_k(self):
        task = synthetic_task(10, num_specs=2, seed=1)
        with pytest.raises(ValueError):
            FastIASelect().diversify(task, 0)

    def test_many_specializations_capped_at_k(self):
        task = synthetic_task(30, num_specs=8, seed=2)
        selected = FastXQuAD().diversify(task, 3)
        assert len(selected) == 3

    def test_stats_populated(self):
        task = synthetic_task(40, num_specs=3, seed=3)
        algo = FastXQuAD()
        algo.diversify(task, 5)
        assert algo.last_stats.selected == 5
        assert algo.last_stats.operations > 0

    def test_fast_is_actually_faster_at_scale(self):
        import time

        task = synthetic_task(3000, num_specs=8, seed=4)
        start = time.perf_counter()
        XQuAD().diversify(task, 50)
        slow = time.perf_counter() - start
        start = time.perf_counter()
        FastXQuAD().diversify(task, 50)
        fast = time.perf_counter() - start
        assert fast < slow

    def test_mmr_without_vectors_raises(self):
        task = synthetic_task(10, num_specs=2, seed=1)
        with pytest.raises(ValueError):
            FastMMR().diversify(task, 5)

    def test_dense_view_is_shared_across_algorithms(self):
        task = synthetic_task(30, num_specs=4, seed=5)
        FastXQuAD().diversify(task, 5)
        arrays = task._arrays
        assert arrays is not None
        FastIASelect().diversify(task, 5)
        FastOptSelect().diversify(task, 5)
        assert task._arrays is arrays


class TestGetFastDiversifier:
    @pytest.mark.parametrize(
        ("name", "cls"),
        [
            ("optselect", FastOptSelect),
            ("OptSelect-fast", FastOptSelect),
            ("xquad", FastXQuAD),
            ("iaselect", FastIASelect),
            ("MMR", FastMMR),
        ],
    )
    def test_registry(self, name, cls):
        assert isinstance(get_fast_diversifier(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_fast_diversifier("nope")


def _heap_retained(values, capacity, offered=None):
    """What a BoundedMaxHeap keeps, as ascending indices."""
    heap: BoundedMaxHeap[int] = BoundedMaxHeap(capacity)
    indices = range(len(values)) if offered is None else offered
    for i in indices:
        heap.push(int(i), float(values[i]))
    return sorted(item for item, _ in heap.drain())


class TestBoundedRetention:
    """The argpartition partial top-k must equal the heap, ties included."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("capacity", [1, 5, 16])
    def test_partial_topk_matches_heap_on_ties(self, seed, capacity):
        rng = random.Random(seed)
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]
        values = np.array([rng.choice(levels) for _ in range(64)])
        assert len(values) >= kernels.PARTIAL_TOPK_FACTOR * capacity
        retained = kernels.bounded_retention(values, capacity)
        assert retained.tolist() == _heap_retained(values, capacity)

    @pytest.mark.parametrize("seed", range(10))
    def test_stable_sort_path_matches_heap(self, seed):
        rng = random.Random(seed + 300)
        values = np.array([rng.choice((0.5, 1.0)) for _ in range(64)])
        capacity = 20  # 64 < 4 * 20: takes the stable-argsort branch
        assert len(values) < kernels.PARTIAL_TOPK_FACTOR * capacity
        retained = kernels.bounded_retention(values, capacity)
        assert retained.tolist() == _heap_retained(values, capacity)

    def test_offered_subset(self):
        values = np.array([0.1, 0.9, 0.9, 0.2, 0.9, 0.3, 0.9, 0.4])
        offered = np.array([0, 2, 4, 6])
        retained = kernels.bounded_retention(values, 2, offered)
        assert retained.tolist() == _heap_retained(values, 2, offered)

    def test_degenerate_capacities(self):
        values = np.array([0.3, 0.1, 0.2])
        assert kernels.bounded_retention(values, 0).tolist() == []
        assert kernels.bounded_retention(values, 3).tolist() == [0, 1, 2]
        assert kernels.bounded_retention(values, 10).tolist() == [0, 1, 2]
