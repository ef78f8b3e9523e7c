"""Unit tests for the dense task representation (TaskArrays)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import TaskArrays
from repro.experiments.workloads import synthetic_task
from repro.retrieval.similarity import TermVector

from .helpers import build_task, random_task, two_intent_task


class TestFromTask:
    def test_shapes_and_layout(self):
        task = synthetic_task(40, num_specs=5, seed=3)
        arrays = task.arrays()
        assert arrays.n == 40 and arrays.m == 5
        assert arrays.by_spec.shape == (5, 40)
        assert arrays.by_spec.flags.c_contiguous
        assert arrays.doc_ids == task.candidates.doc_ids

    def test_values_match_sparse_matrix(self):
        task = synthetic_task(30, num_specs=4, seed=8)
        arrays = task.arrays()
        for i, doc_id in enumerate(arrays.doc_ids):
            for j, spec in enumerate(arrays.spec_queries):
                assert arrays.by_spec[j, i] == task.utilities.value(
                    doc_id, spec
                )

    def test_utilities_outside_candidates_ignored(self):
        """A utility row may name documents outside R_q; like the
        reference algorithms, densify skips them."""
        task = build_task(
            {"q a": {"d1": 0.5, "elsewhere": 0.9}, "q b": {"d0": 0.25}},
            {"q a": 1.0, "q b": 1.0},
            [("d0", 2.0), ("d1", 1.0)],
        )
        arrays = task.arrays()
        assert arrays.spec_queries == ["q a", "q b"]
        assert arrays.by_spec.tolist() == [[0.0, 0.5], [0.25, 0.0]]

    def test_probabilities_and_relevance(self):
        task = two_intent_task()
        arrays = task.arrays()
        assert arrays.spec_queries == [spec for spec, _ in task.specializations]
        assert arrays.probabilities.tolist() == [
            p for _, p in task.specializations
        ]
        assert arrays.relevance.tolist() == [
            task.relevance.get(d, 0.0) for d in arrays.doc_ids
        ]

    def test_memoized_on_task(self):
        task = synthetic_task(20, num_specs=3, seed=1)
        assert task.arrays() is task.arrays()

    def test_with_lambda_shares_arrays(self):
        task = synthetic_task(20, num_specs=3, seed=1)
        arrays = task.arrays()
        assert task.with_lambda(0.9).arrays() is arrays

    def test_with_threshold_rebuilds_arrays(self):
        task = synthetic_task(20, num_specs=3, seed=1)
        dense = task.arrays().by_spec
        rethresholded = task.with_threshold(0.8).arrays().by_spec
        assert (rethresholded > 0).sum() < (dense > 0).sum()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TaskArrays(
                doc_ids=["d1", "d2"],
                spec_queries=["s"],
                probabilities=[1.0],
                by_spec=np.zeros((1, 3)),
                relevance=np.zeros(2),
            )


class TestHead:
    def test_truncates_and_renormalises_like_top(self):
        task = synthetic_task(25, num_specs=6, seed=5)
        arrays = task.arrays()
        head = arrays.head(3)
        top = task.specializations.top(3)
        assert head.m == 3
        assert head.spec_queries == [spec for spec, _ in top]
        # Bit-identical to SpecializationSet.top's pure-Python division.
        assert head.probabilities.tolist() == [p for _, p in top]
        assert head.by_spec.shape == (3, 25)
        assert head.by_spec.flags.c_contiguous
        assert np.shares_memory(head.by_spec, arrays.by_spec)

    def test_noop_when_small_enough(self):
        arrays = synthetic_task(10, num_specs=3, seed=2).arrays()
        assert arrays.head(5) is arrays


class TestSimilarityMatrix:
    def test_matches_pairwise_cosine(self):
        from repro.retrieval.similarity import cosine

        task = synthetic_task(15, num_specs=3, seed=4, with_vectors=True)
        arrays = task.arrays()
        similarity = arrays.similarity_matrix(task.vectors)
        assert similarity.shape == (15, 15)
        for i, a in enumerate(arrays.doc_ids):
            for j, b in enumerate(arrays.doc_ids):
                expected = cosine(task.vectors[a], task.vectors[b])
                assert similarity[i, j] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(100, 103))
    def test_random_vectors_match_pairwise_cosine(self, seed):
        """Random surrogates, some with no terms at all."""
        from repro.retrieval.similarity import cosine

        task, _ = random_task(seed)
        arrays = task.arrays()
        similarity = arrays.similarity_matrix(task.vectors)
        for i, a in enumerate(arrays.doc_ids):
            for j, b in enumerate(arrays.doc_ids):
                expected = cosine(task.vectors[a], task.vectors[b])
                assert similarity[i, j] == pytest.approx(expected, abs=1e-12)

    def test_missing_vectors_are_zero_rows(self):
        task = synthetic_task(8, num_specs=2, seed=6, with_vectors=True)
        missing = task.candidates.doc_ids[0]
        del task.vectors[missing]
        similarity = task.arrays().similarity_matrix(task.vectors)
        assert not similarity[0].any()

    def test_built_once(self):
        task = synthetic_task(8, num_specs=2, seed=6, with_vectors=True)
        arrays = task.arrays()
        assert arrays.similarity_matrix(task.vectors) is arrays.similarity_matrix(
            task.vectors
        )

    def test_memo_survives_rebuilt_mapping(self):
        """A new dict around the same TermVector objects hits the memo."""
        task = synthetic_task(8, num_specs=2, seed=6, with_vectors=True)
        arrays = task.arrays()
        first = arrays.similarity_matrix(task.vectors)
        rebuilt = dict(task.vectors)
        assert rebuilt is not task.vectors
        assert arrays.similarity_matrix(rebuilt) is first

    def test_memo_detects_swapped_vector(self):
        """Replacing one candidate's vector in-place must rebuild."""
        task = synthetic_task(8, num_specs=2, seed=6, with_vectors=True)
        arrays = task.arrays()
        first = arrays.similarity_matrix(task.vectors)
        victim = arrays.doc_ids[0]
        task.vectors[victim] = TermVector({"entirely-new-term": 1.0})
        second = arrays.similarity_matrix(task.vectors)
        assert second is not first
        assert not np.array_equal(second[0], first[0])

