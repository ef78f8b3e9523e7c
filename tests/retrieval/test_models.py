"""Tests for the DPH / BM25 / TF-IDF weighting models."""

from __future__ import annotations

import pytest

from repro.retrieval.models import BM25, DPH, TFIDF

COMMON = dict(
    document_frequency=10,
    collection_frequency=50,
    num_documents=1000,
    average_document_length=100.0,
)


@pytest.fixture(params=[DPH(), BM25(), TFIDF()], ids=["DPH", "BM25", "TFIDF"])
def model(request):
    return request.param


class TestAllModels:
    def test_zero_tf_scores_zero(self, model):
        assert model.score(0, 100, **COMMON) == 0.0

    def test_positive_for_discriminative_match(self, model):
        assert model.score(5, 100, **COMMON) > 0.0

    def test_monotone_in_tf_for_normal_range(self, model):
        low = model.score(1, 100, **COMMON)
        high = model.score(5, 100, **COMMON)
        assert high > low

    def test_rare_terms_score_higher(self, model):
        rare = model.score(
            3, 100, document_frequency=2, collection_frequency=4,
            num_documents=1000, average_document_length=100.0,
        )
        common = model.score(
            3, 100, document_frequency=500, collection_frequency=5000,
            num_documents=1000, average_document_length=100.0,
        )
        assert rare > common

    def test_key_frequency_scales_contribution(self, model):
        single = model.score(3, 100, **COMMON, key_frequency=1.0)
        double = model.score(3, 100, **COMMON, key_frequency=2.0)
        assert double > single


class TestDPH:
    def test_no_parameters_needed(self):
        assert DPH().name == "DPH"

    def test_full_document_term_does_not_crash(self):
        # f = tf/dl = 1 must not produce log(0) or NaN.
        score = DPH().score(50, 50, **COMMON)
        assert score == score  # not NaN

    def test_zero_doc_length_scores_zero(self):
        assert DPH().score(1, 0, **COMMON) == 0.0

    def test_longer_documents_penalised(self):
        short = DPH().score(3, 50, **COMMON)
        long = DPH().score(3, 500, **COMMON)
        assert short > long


class TestBM25:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BM25(k1=-1)
        with pytest.raises(ValueError):
            BM25(b=1.5)

    def test_b_zero_disables_length_normalisation(self):
        model = BM25(b=0.0)
        assert model.score(3, 50, **COMMON) == pytest.approx(
            model.score(3, 500, **COMMON)
        )

    def test_tf_saturation(self):
        model = BM25()
        gain_low = model.score(2, 100, **COMMON) - model.score(1, 100, **COMMON)
        gain_high = model.score(20, 100, **COMMON) - model.score(19, 100, **COMMON)
        assert gain_low > gain_high


class TestTFIDF:
    def test_idf_uses_document_frequency(self):
        model = TFIDF()
        assert model.score(
            3, 100, document_frequency=1, collection_frequency=1,
            num_documents=1000, average_document_length=100.0,
        ) > model.score(
            3, 100, document_frequency=100, collection_frequency=100,
            num_documents=1000, average_document_length=100.0,
        )
