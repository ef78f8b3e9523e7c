"""Tests for the diversity evaluation metrics."""

from __future__ import annotations

import pytest

from repro.corpus.trec import DiversityQrels
from repro.evaluation.metrics import (
    METRICS,
    alpha_ndcg,
    err_ia,
    intent_aware_precision,
    ndcg,
    precision_at,
    subtopic_recall,
)


@pytest.fixture()
def qrels():
    """Topic 1 with two subtopics: s1 = {d1, d2, d3}, s2 = {d4, d5}."""
    q = DiversityQrels()
    for doc in ("d1", "d2", "d3"):
        q.add(1, 1, doc)
    for doc in ("d4", "d5"):
        q.add(1, 2, doc)
    return q


class TestAlphaNDCG:
    def test_perfect_diversified_ranking_scores_one(self, qrels):
        # Greedy-ideal order: alternate subtopics.
        ranking = ["d1", "d4", "d2", "d5", "d3"]
        assert alpha_ndcg(ranking, 1, qrels, cutoff=5) == pytest.approx(1.0)

    def test_redundant_ranking_scores_below_diverse(self, qrels):
        diverse = ["d1", "d4", "d2"]
        redundant = ["d1", "d2", "d3"]
        assert alpha_ndcg(diverse, 1, qrels, cutoff=3) > alpha_ndcg(
            redundant, 1, qrels, cutoff=3
        )

    def test_irrelevant_ranking_zero(self, qrels):
        assert alpha_ndcg(["x", "y"], 1, qrels, cutoff=2) == 0.0

    def test_empty_ranking_zero(self, qrels):
        assert alpha_ndcg([], 1, qrels, cutoff=10) == 0.0

    def test_unjudged_topic_zero(self, qrels):
        assert alpha_ndcg(["d1"], 99, qrels, cutoff=5) == 0.0

    def test_alpha_zero_equals_binary_ndcg(self, qrels):
        ranking = ["d1", "d2", "x", "d4"]
        assert alpha_ndcg(ranking, 1, qrels, alpha=0.0, cutoff=4) == (
            pytest.approx(ndcg(ranking, 1, qrels, cutoff=4))
        )

    def test_novelty_discount_applied(self, qrels):
        # Second doc of the same subtopic contributes (1-α) = 0.5 gain.
        only_s1 = alpha_ndcg(["d1", "d2"], 1, qrels, cutoff=2)
        mixed = alpha_ndcg(["d1", "d4"], 1, qrels, cutoff=2)
        assert mixed > only_s1

    def test_cutoff_validation(self, qrels):
        with pytest.raises(ValueError):
            alpha_ndcg(["d1"], 1, qrels, cutoff=0)

    def test_alpha_validation(self, qrels):
        with pytest.raises(ValueError):
            alpha_ndcg(["d1"], 1, qrels, alpha=-0.1)

    def test_bounded_by_one(self, qrels):
        for ranking in (["d1", "d2", "d4"], ["d4", "d5", "d1"], ["d3"]):
            assert 0.0 <= alpha_ndcg(ranking, 1, qrels, cutoff=3) <= 1.0 + 1e-9

    def test_multi_subtopic_document(self):
        q = DiversityQrels()
        q.add(1, 1, "multi")
        q.add(1, 2, "multi")
        q.add(1, 1, "single")
        # 'multi' covers both subtopics at once → ideal first pick.
        assert alpha_ndcg(["multi"], 1, q, cutoff=1) == pytest.approx(1.0)
        assert alpha_ndcg(["single"], 1, q, cutoff=1) < 1.0


class TestIntentAwarePrecision:
    def test_uniform_weights(self, qrels):
        # top-2 = d1 (s1), d4 (s2): each subtopic has 1 hit in 2 slots.
        value = intent_aware_precision(["d1", "d4"], 1, qrels, cutoff=2)
        assert value == pytest.approx(0.5 * 0.5 + 0.5 * 0.5)

    def test_probability_weighting(self, qrels):
        value = intent_aware_precision(
            ["d1", "d2"], 1, qrels, cutoff=2, probabilities={1: 0.9, 2: 0.1}
        )
        assert value == pytest.approx(0.9 * 1.0 + 0.1 * 0.0)

    def test_unjudged_topic_zero(self, qrels):
        assert intent_aware_precision(["d1"], 77, qrels) == 0.0

    def test_deep_cutoff_dilutes(self, qrels):
        shallow = intent_aware_precision(["d1", "d4"], 1, qrels, cutoff=2)
        deep = intent_aware_precision(["d1", "d4"], 1, qrels, cutoff=10)
        assert deep < shallow

    def test_cutoff_validation(self, qrels):
        with pytest.raises(ValueError):
            intent_aware_precision(["d1"], 1, qrels, cutoff=0)


class TestClassicMetrics:
    def test_precision_at(self, qrels):
        assert precision_at(["d1", "x", "d4", "y"], 1, qrels, cutoff=4) == 0.5

    def test_ndcg_perfect_prefix(self, qrels):
        assert ndcg(["d1", "d2"], 1, qrels, cutoff=2) == pytest.approx(1.0)


class TestErrIA:
    def test_early_hit_beats_late_hit(self, qrels):
        assert err_ia(["d1", "x"], 1, qrels) > err_ia(["x", "d1"], 1, qrels)

    def test_cascade_discount(self, qrels):
        one_hit = err_ia(["d1"], 1, qrels)
        two_hits = err_ia(["d1", "d2"], 1, qrels)
        # second same-intent hit adds less than the first.
        assert two_hits - one_hit < one_hit

    def test_zero_for_irrelevant(self, qrels):
        assert err_ia(["x", "y"], 1, qrels) == 0.0


class TestSubtopicRecall:
    def test_full_coverage(self, qrels):
        assert subtopic_recall(["d1", "d4"], 1, qrels, cutoff=2) == 1.0

    def test_partial_coverage(self, qrels):
        assert subtopic_recall(["d1", "d2"], 1, qrels, cutoff=2) == 0.5

    def test_unjudged_topic(self, qrels):
        assert subtopic_recall(["d1"], 42, qrels) == 0.0


class TestMetricEdges:
    def test_alpha_one_gives_a_redundant_document_no_gain(self, qrels):
        redundant = alpha_ndcg(["d1", "d2"], 1, qrels, alpha=1.0, cutoff=2)
        assert redundant == alpha_ndcg(["d1", "x"], 1, qrels, alpha=1.0, cutoff=2)
        assert redundant < alpha_ndcg(["d1", "d4"], 1, qrels, alpha=1.0, cutoff=2)

    def test_precision_cutoff_validation(self, qrels):
        with pytest.raises(ValueError):
            precision_at(["d1"], 1, qrels, cutoff=0)

    def test_precision_counts_a_short_ranking_against_the_cutoff(self, qrels):
        assert precision_at(["d1"], 1, qrels, cutoff=4) == 0.25

    def test_precision_unjudged_topic_zero(self, qrels):
        assert precision_at(["d1", "d4"], 42, qrels) == 0.0

    def test_ndcg_is_alpha_ndcg_with_alpha_zero(self, qrels):
        ranking = ["x", "d4", "d1", "y", "d2"]
        assert ndcg(ranking, 1, qrels, cutoff=5) == alpha_ndcg(
            ranking, 1, qrels, alpha=0.0, cutoff=5
        )

    def test_ndcg_ignores_subtopic_novelty(self, qrels):
        assert ndcg(["d1", "d2"], 1, qrels, cutoff=2) == ndcg(
            ["d1", "d4"], 1, qrels, cutoff=2
        )

    def test_ia_precision_zero_probabilities_fall_back_to_uniform(self, qrels):
        ranking = ["d1", "x", "x2", "d4"]
        uniform = intent_aware_precision(ranking, 1, qrels, cutoff=2)
        assert intent_aware_precision(
            ranking, 1, qrels, cutoff=2, probabilities={1: 0.0, 2: 0.0}
        ) == uniform

    def test_ia_precision_ignores_unjudged_subtopic_probabilities(self, qrels):
        ranking = ["d1", "d2", "d4"]
        assert intent_aware_precision(
            ranking, 1, qrels, cutoff=3, probabilities={1: 1.0, 2: 1.0, 7: 5.0}
        ) == pytest.approx(intent_aware_precision(ranking, 1, qrels, cutoff=3))

    def test_err_ia_exact_value(self, qrels):
        # s1 stops at rank 1 (0.5 / 1), s2 at rank 2 (0.5 / 2); uniform P(s|q).
        assert err_ia(["d1", "d4"], 1, qrels) == pytest.approx(
            0.5 * 0.5 + 0.5 * 0.25
        )

    def test_err_ia_weights_subtopics_by_probability(self, qrels):
        assert err_ia(["d4"], 1, qrels, probabilities={1: 0.9, 2: 0.1}) == (
            pytest.approx(0.1 * 0.5)
        )

    def test_err_ia_certain_stop_counts_only_the_first_hit(self, qrels):
        assert err_ia(["d1", "d2"], 1, qrels, max_grade_probability=1.0) == (
            err_ia(["d1"], 1, qrels, max_grade_probability=1.0)
        )

    def test_err_ia_respects_cutoff(self, qrels):
        assert err_ia(["x", "d1"], 1, qrels, cutoff=1) == 0.0

    def test_subtopic_recall_respects_cutoff(self, qrels):
        assert subtopic_recall(["d1", "x", "d4"], 1, qrels, cutoff=2) == 0.5


@pytest.mark.parametrize("name", sorted(METRICS))
class TestMetricRegistry:
    """``python -m repro.evaluation.cli`` calls every entry as
    ``METRICS[name](ranking, topic_id, qrels, cutoff=...)``."""

    def test_accepts_a_cutoff_keyword(self, name, qrels):
        value = METRICS[name](["d1", "x", "d4"], 1, qrels, cutoff=2)
        assert 0.0 < value <= 1.0

    def test_cutoff_truncates_the_ranking(self, name, qrels):
        assert METRICS[name](["x", "y", "d1", "d4"], 1, qrels, cutoff=2) == 0.0

    def test_empty_ranking_scores_zero(self, name, qrels):
        assert METRICS[name]([], 1, qrels, cutoff=10) == 0.0

    def test_unjudged_topic_scores_zero(self, name, qrels):
        assert METRICS[name](["d1", "d4"], 42, qrels, cutoff=10) == 0.0
