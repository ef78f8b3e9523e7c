"""Tests for term vectors, cosine and the δ distance of Eq. (2)."""

from __future__ import annotations

import pytest

from repro.retrieval.similarity import TermVector, cosine


class TestTermVector:
    def test_l2_normalised(self):
        v = TermVector({"a": 3.0, "b": 4.0})
        assert sum(w * w for w in v.weights.values()) == pytest.approx(1.0)

    def test_empty_vector(self):
        v = TermVector({})
        assert not v
        assert v.norm == 0.0

    def test_zero_weights_dropped(self):
        v = TermVector({"a": 1.0, "b": 0.0})
        assert "b" not in v.weights

    def test_negative_weights_rejected(self):
        # Eq. (1)'s centroid form (UtilityMatrix.build) and cosine's [0, 1]
        # range both rest on non-negative weights.
        with pytest.raises(ValueError, match="non-negative"):
            TermVector({"a": 1.0, "b": -0.5})
        with pytest.raises(ValueError, match="non-negative"):
            TermVector.from_normalized({"a": 0.6, "b": -0.8})
        with pytest.raises(ValueError, match="non-negative"):
            TermVector.from_text_idf("apple fruit", {"appl": -1.0, "fruit": 1.0})

    def test_from_terms_counts(self):
        v = TermVector.from_terms(["a", "a", "b"])
        assert v.weights["a"] > v.weights["b"]

    def test_from_terms_equals_constructor_on_counts(self):
        terms = ["a", "b", "a", "c", "a", "b"]
        built = TermVector.from_terms(terms)
        assert built.weights == TermVector({"a": 3, "b": 2, "c": 1}).weights
        assert list(built.weights) == ["a", "b", "c"]
        assert built.norm == 1.0
        assert TermVector.from_terms([]).norm == 0.0

    def test_from_text_uses_analyzer(self):
        v = TermVector.from_text("the running leopards")
        assert set(v.weights) == {"run", "leopard"}

    def test_from_text_idf_weighting(self):
        idf = {"appl": 5.0, "fruit": 0.1}
        v = TermVector.from_text_idf("apple fruit", idf)
        assert v.weights["appl"] > v.weights["fruit"]

    def test_from_text_idf_default(self):
        v = TermVector.from_text_idf("apple fruit", {}, default_idf=1.0)
        assert set(v.weights) == {"appl", "fruit"}

    def test_dot_iterates_smaller_side(self):
        small = TermVector({"a": 1.0})
        big = TermVector({ch: 1.0 for ch in "abcdefgh"})
        assert small.dot(big) == pytest.approx(big.dot(small))

    def test_len(self):
        assert len(TermVector({"a": 1.0, "b": 2.0})) == 2

    def test_from_normalized_keeps_weights_bit_for_bit(self):
        weights = dict(TermVector({"a": 3.0, "b": 1.0, "c": 7.0}).weights)
        restored = TermVector.from_normalized(weights)
        assert restored.weights == weights
        assert list(restored.weights) == list(weights)
        assert restored.norm == 1.0

    def test_from_normalized_drops_zeros_and_flags_empty(self):
        restored = TermVector.from_normalized({"a": 1.0, "b": 0.0})
        assert restored.weights == {"a": 1.0}
        empty = TermVector.from_normalized({})
        assert empty.norm == 0.0 and not empty

    def test_from_text_idf_unknown_terms_drop_without_default(self):
        v = TermVector.from_text_idf("apple fruit", {"appl": 2.0})
        assert set(v.weights) == {"appl"}
        assert v.norm == 1.0


class TestCosine:
    def test_identical_vectors(self):
        v = TermVector({"a": 2.0, "b": 1.0})
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine(TermVector({"a": 1.0}), TermVector({"b": 1.0})) == 0.0

    def test_partial_overlap_between_zero_and_one(self):
        sim = cosine(TermVector({"a": 1.0, "b": 1.0}), TermVector({"a": 1.0}))
        assert 0.0 < sim < 1.0

    def test_symmetry(self):
        v1 = TermVector({"a": 1.0, "b": 3.0})
        v2 = TermVector({"b": 2.0, "c": 1.0})
        assert cosine(v1, v2) == pytest.approx(cosine(v2, v1))

    def test_symmetry_is_exact_on_a_length_tie(self):
        """Two 10-term vectors whose shared terms sit in different
        insertion orders: summing over ``self`` on the tie made the two
        argument orders round one ULP apart (0.31489519670169464 against
        0.3148951967016946)."""
        v1 = TermVector(
            {"f": 9, "c": 7, "g": 1, "a": 2, "b": 4,
             "j": 1, "e": 7, "i": 1, "k": 4, "d": 1}
        )
        v2 = TermVector(
            {"a": 9, "i": 3, "d": 5, "l": 7, "b": 3,
             "j": 9, "g": 2, "k": 5, "h": 9, "e": 3}
        )
        assert len(v1) == len(v2) == 10
        assert cosine(v1, v2) == cosine(v2, v1)
        assert v1.dot(v2) == v2.dot(v1)

    def test_exact_value_of_a_partial_overlap(self):
        both = TermVector({"a": 1.0, "b": 1.0})
        assert cosine(both, TermVector({"a": 1.0})) == pytest.approx(2 ** -0.5)

    def test_scale_invariant(self):
        assert cosine(
            TermVector({"a": 2.0, "b": 4.0}), TermVector({"a": 1.0, "b": 2.0})
        ) == pytest.approx(1.0)

    def test_texts_equal_after_analysis_are_identical(self):
        assert cosine(
            TermVector.from_text("Apple pie!"), TermVector.from_text("the apple PIE")
        ) == pytest.approx(1.0)

    def test_empty_vector_similarity_zero(self):
        v = TermVector({"a": 1.0})
        empty = TermVector({})
        assert cosine(v, empty) == 0.0
        assert cosine(empty, empty) == 0.0

    def test_clamped_to_unit(self):
        v = TermVector({"a": 1e-8, "b": 1e8})
        assert cosine(v, v) <= 1.0
