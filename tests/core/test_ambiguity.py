"""Tests for Algorithm 1 and the SpecializationSet (Definition 1)."""

from __future__ import annotations

import pytest

from repro.core.ambiguity import (
    SpecializationSet,
    ambiguous_query_detect,
)

FREQS = {
    "apple": 100,
    "apple iphone": 80,
    "apple fruit": 40,
    "apple tree": 10,
    "apple rare": 1,
}


def _recommend(query):
    if query == "apple":
        return ["apple iphone", "apple fruit", "apple tree", "apple rare"]
    return []


def _frequency(query):
    return FREQS.get(query, 0)


class TestSpecializationSet:
    def test_from_frequencies_normalises(self):
        s = SpecializationSet.from_frequencies("q", {"a": 3, "b": 1})
        assert s.probability("a") == pytest.approx(0.75)
        assert s.probability("b") == pytest.approx(0.25)

    def test_sorted_by_probability(self):
        s = SpecializationSet.from_frequencies("q", {"low": 1, "high": 9})
        assert s.queries == ("high", "low")

    def test_unknown_specialization_zero(self):
        s = SpecializationSet.from_frequencies("q", {"a": 1})
        assert s.probability("zzz") == 0.0

    def test_empty_frequencies(self):
        s = SpecializationSet.from_frequencies("q", {})
        assert not s
        assert len(s) == 0

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SpecializationSet("q", (("a", 0.5), ("b", 0.2)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SpecializationSet("q", (("a", 0.5), ("a", 0.5)))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            SpecializationSet("q", (("a", 1.5), ("b", -0.5)))

    def test_top_renormalises(self):
        s = SpecializationSet.from_frequencies("q", {"a": 6, "b": 3, "c": 1})
        top = s.top(2)
        assert top.queries == ("a", "b")
        assert sum(p for _, p in top) == pytest.approx(1.0)
        assert top.probability("a") == pytest.approx(6 / 9)

    def test_top_noop_when_small(self):
        s = SpecializationSet.from_frequencies("q", {"a": 1, "b": 1})
        assert s.top(5) is s

    def test_top_validation(self):
        s = SpecializationSet.from_frequencies("q", {"a": 1})
        with pytest.raises(ValueError):
            s.top(0)

    def test_iteration(self):
        s = SpecializationSet.from_frequencies("q", {"a": 1, "b": 1})
        assert sorted(q for q, _ in s) == ["a", "b"]

    def test_tie_break_lexicographic(self):
        s = SpecializationSet.from_frequencies("q", {"zeta": 1, "alpha": 1})
        assert s.queries == ("alpha", "zeta")


class TestAlgorithm1:
    def test_popularity_ratio_filtering(self):
        # s=2: threshold 50 → only "apple iphone" (80) survives → < 2 → ∅.
        assert not ambiguous_query_detect("apple", _recommend, _frequency, s=2.0)
        # s=4: threshold 25 → iphone + fruit survive → fires.
        result = ambiguous_query_detect("apple", _recommend, _frequency, s=4.0)
        assert set(result.queries) == {"apple iphone", "apple fruit"}

    def test_probabilities_from_surviving_frequencies(self):
        result = ambiguous_query_detect("apple", _recommend, _frequency, s=4.0)
        assert result.probability("apple iphone") == pytest.approx(80 / 120)
        assert result.probability("apple fruit") == pytest.approx(40 / 120)

    def test_generous_ratio_admits_tail(self):
        result = ambiguous_query_detect("apple", _recommend, _frequency, s=100.0)
        assert "apple rare" in result.queries

    def test_zero_frequency_candidates_never_admitted(self):
        def rec(_q):
            return ["ghost a", "ghost b"]

        assert not ambiguous_query_detect("apple", rec, lambda q: 0, s=10.0)

    def test_query_itself_excluded(self):
        def rec(_q):
            return ["apple", "apple iphone", "apple fruit"]

        result = ambiguous_query_detect("apple", rec, _frequency, s=4.0)
        assert "apple" not in result.queries

    def test_unknown_query_not_ambiguous(self):
        assert not ambiguous_query_detect("zzz", _recommend, _frequency)

    def test_s_validation(self):
        with pytest.raises(ValueError):
            ambiguous_query_detect("apple", _recommend, _frequency, s=0)

    def test_threshold_is_inclusive(self):
        # s=2.5: threshold exactly 40, the frequency of "apple fruit".
        result = ambiguous_query_detect("apple", _recommend, _frequency, s=2.5)
        assert set(result.queries) == {"apple iphone", "apple fruit"}

    def test_repeated_recommendations_count_once(self):
        def rec(_q):
            return ["apple iphone", "apple iphone", "apple fruit"]

        result = ambiguous_query_detect("apple", rec, _frequency, s=4.0)
        assert len(result) == 2
        assert result.probability("apple iphone") == pytest.approx(80 / 120)

    def test_query_itself_does_not_count_toward_two_survivors(self):
        def rec(_q):
            return ["apple", "apple iphone"]

        assert not ambiguous_query_detect("apple", rec, _frequency, s=4.0)

    def test_survivors_ordered_by_probability(self):
        result = ambiguous_query_detect("apple", _recommend, _frequency, s=10.0)
        assert result.queries == ("apple iphone", "apple fruit", "apple tree")

    def test_unseen_query_admits_every_known_candidate(self):
        def rec(_q):
            return ["apple tree", "apple rare", "ghost"]

        result = ambiguous_query_detect("orchard", rec, _frequency, s=2.0)
        assert result.queries == ("apple tree", "apple rare")
        assert result.query == "orchard"

    def test_top_caps_a_detected_set_to_a_distribution(self):
        result = ambiguous_query_detect("apple", _recommend, _frequency, s=100.0)
        capped = result.top(2)
        assert capped.queries == ("apple iphone", "apple fruit")
        assert sum(p for _, p in capped) == pytest.approx(1.0)
        assert capped.probability("apple fruit") == pytest.approx(40 / 120)
