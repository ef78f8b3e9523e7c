"""Tests for the utility measure (Definition 2) and the utility matrix."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ambiguity import SpecializationSet
from repro.core.base import DiversifierStats
from repro.core.iaselect import IASelect
from repro.core.objectives import normalized_utility, utility
from repro.core.optselect import OptSelect
from repro.core.task import DiversificationTask
from repro.core.utility import UtilityMatrix, harmonic_number
from repro.core.xquad import XQuAD
from repro.retrieval.engine import ResultList
from repro.retrieval.similarity import TermVector


class TestHarmonicNumber:
    def test_known_values(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0)

    def test_monotone(self):
        assert harmonic_number(10) < harmonic_number(11)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_number(-1)


def _vectors():
    return {
        "s1": TermVector({"a": 1.0}),
        "s2": TermVector({"b": 1.0}),
        "cand-a": TermVector({"a": 1.0}),
        "cand-ab": TermVector({"a": 1.0, "b": 1.0}),
        "cand-c": TermVector({"c": 1.0}),
    }


class TestUtilityFunction:
    """Equation (1): U(d|R_q') = Σ (1 − δ(d,d')) / rank(d')."""

    def test_identical_to_top_result(self):
        vectors = _vectors()
        spec = ResultList("q'", [("s1", 2.0), ("s2", 1.0)])
        # cand-a is identical to rank-1 s1 (cosine 1), orthogonal to s2.
        assert utility(vectors["cand-a"], spec, vectors) == pytest.approx(1.0)

    def test_rank_discounting(self):
        vectors = _vectors()
        spec_a_first = ResultList("q'", [("s1", 2.0), ("s2", 1.0)])
        spec_a_second = ResultList("q'", [("s2", 2.0), ("s1", 1.0)])
        u_first = utility(vectors["cand-a"], spec_a_first, vectors)
        u_second = utility(vectors["cand-a"], spec_a_second, vectors)
        assert u_first == pytest.approx(1.0)
        assert u_second == pytest.approx(0.5)

    def test_orthogonal_candidate_zero(self):
        vectors = _vectors()
        spec = ResultList("q'", [("s1", 2.0), ("s2", 1.0)])
        assert utility(vectors["cand-c"], spec, vectors) == 0.0

    def test_missing_vectors_contribute_zero(self):
        vectors = _vectors()
        spec = ResultList("q'", [("s1", 2.0), ("unknown", 1.0)])
        assert utility(vectors["cand-a"], spec, vectors) == pytest.approx(1.0)

    def test_empty_spec_list(self):
        assert utility(_vectors()["cand-a"], ResultList("q'", []), {}) == 0.0


class TestNormalizedUtility:
    def test_perfect_match_is_one(self):
        vectors = {
            "s1": TermVector({"a": 1.0}),
            "s2": TermVector({"a": 1.0}),
        }
        cand = TermVector({"a": 1.0})
        spec = ResultList("q'", [("s1", 2.0), ("s2", 1.0)])
        assert normalized_utility(cand, spec, vectors) == pytest.approx(1.0)

    def test_range(self):
        vectors = _vectors()
        spec = ResultList("q'", [("s1", 2.0), ("s2", 1.0)])
        value = normalized_utility(vectors["cand-ab"], spec, vectors)
        assert 0.0 < value < 1.0

    def test_threshold_zeroes_small_values(self):
        vectors = _vectors()
        spec = ResultList("q'", [("s1", 2.0), ("s2", 1.0)])
        raw = normalized_utility(vectors["cand-ab"], spec, vectors)
        assert raw > 0
        assert normalized_utility(
            vectors["cand-ab"], spec, vectors, threshold=raw + 0.01
        ) == 0.0

    def test_threshold_keeps_equal_values(self):
        vectors = _vectors()
        spec = ResultList("q'", [("s1", 2.0)])
        raw = normalized_utility(vectors["cand-a"], spec, vectors)
        assert normalized_utility(
            vectors["cand-a"], spec, vectors, threshold=raw
        ) == pytest.approx(raw)

    def test_empty_spec_list_zero(self):
        assert normalized_utility(
            TermVector({"a": 1.0}), ResultList("q'", []), {}
        ) == 0.0


class TestUtilityMatrix:
    @pytest.fixture()
    def matrix(self):
        candidates = ResultList(
            "q", [("cand-a", 3.0), ("cand-ab", 2.0), ("cand-c", 1.0)]
        )
        spec_results = {
            "q a": ResultList("q a", [("s1", 2.0), ("s2", 1.0)]),
            "q b": ResultList("q b", [("s2", 2.0)]),
        }
        return UtilityMatrix.build(candidates, spec_results, _vectors())

    def test_values_computed(self, matrix):
        assert matrix.value("cand-a", "q a") == pytest.approx(1.0 / 1.5)
        assert matrix.value("cand-c", "q a") == 0.0

    def test_useful_docs(self, matrix):
        useful = matrix.useful_docs("q a")
        assert "cand-a" in useful and "cand-ab" in useful
        assert "cand-c" not in useful

    def test_is_useful(self, matrix):
        assert matrix.is_useful("cand-ab", "q b")
        assert not matrix.is_useful("cand-a", "q b")

    def test_row(self, matrix):
        row = matrix.row("cand-ab")
        assert set(row) == {"q a", "q b"}

    def test_specializations_listed(self, matrix):
        assert set(matrix.specializations) == {"q a", "q b"}

    def test_rethresholding(self, matrix):
        high = matrix.with_threshold(0.99)
        assert high.value("cand-a", "q a") == 0.0
        # original untouched
        assert matrix.value("cand-a", "q a") > 0.0

    def test_threshold_validation(self, matrix):
        with pytest.raises(ValueError):
            matrix.with_threshold(1.5)

    def test_density(self, matrix):
        assert 0.0 < matrix.density() <= 1.0
        assert matrix.with_threshold(0.999).density() < matrix.density()

    def test_density_of_empty_matrix_is_zero(self):
        assert UtilityMatrix({}, []).density() == 0.0
        assert UtilityMatrix({"q x": {}}, []).density() == 0.0

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            UtilityMatrix({"s": {"d": 1.5}}, ["d"])

    def test_missing_spec_returns_zero(self, matrix):
        assert matrix.value("cand-a", "unknown spec") == 0.0

    def test_empty_spec_results_handled(self):
        candidates = ResultList("q", [("d", 1.0)])
        matrix = UtilityMatrix.build(
            candidates, {"q x": ResultList("q x", [])}, {}
        )
        assert matrix.useful_docs("q x") == {}


# ---------------------------------------------------------------------------
# The centroid identity: ``build`` against the pairwise oracle (Eq. 1)
# ---------------------------------------------------------------------------

EPS = 2.0 ** -52  # one ULP, relative to a value at the bottom of its binade


def oracle_values(candidates, spec_results, vectors):
    """Eq. (1) cell by cell through the pairwise ``normalized_utility``."""
    return {
        spec: {
            c.doc_id: value
            for c in candidates
            if c.doc_id in vectors
            and (value := normalized_utility(vectors[c.doc_id], results, vectors))
            > 0
        }
        for spec, results in spec_results.items()
    }


def ulp_bound(doc_id, results, vectors):
    """Roundings that separate the two evaluations of one cell.

    Pairwise: nnz(d) per dot, one division by the rank, |R_q'| additions,
    one division by H_n.  Centroid: three for ``1 / (rank * H_n)`` times
    the weight, |R_q'| additions per centroid term, nnz(d) for the final
    dot.  Every term is non-negative, so nothing cancels and the relative
    errors (each <= 2**-53) only add: 2 * (nnz(d) + |R_q'| + 3) half-ULPs.
    """
    return len(vectors[doc_id]) + len(results) + 3


def assert_build_matches_oracle(candidates, spec_results, vectors):
    matrix = UtilityMatrix.build(candidates, spec_results, vectors)
    expected = oracle_values(candidates, spec_results, vectors)
    assert matrix.specializations == list(spec_results)
    for spec, results in spec_results.items():
        got = matrix.useful_docs(spec)
        assert set(got) == set(expected[spec])  # R_q ⋈ q' exactly
        for doc_id, value in got.items():
            want = expected[spec][doc_id]
            assert abs(value - want) <= (
                ulp_bound(doc_id, results, vectors) * EPS * max(value, want)
            )
    return matrix, UtilityMatrix(expected, candidates.doc_ids)


class TestPaperOracle:
    """A hand-computed Eq. (1) instance with exactly representable parts."""

    # TermVector({"x": 3, "y": 4}) normalises by exactly 5.
    vectors = {
        "d": TermVector({"x": 3.0, "y": 4.0}),      # (0.6, 0.8)
        "s1": TermVector({"x": 1.0}),               # cos = 0.6
        "s2": TermVector({"y": 1.0}),               # cos = 0.8
        "s3": TermVector({"x": 4.0, "y": 3.0}),     # cos = 0.48 + 0.48
        "other": TermVector({"z": 1.0}),
    }
    spec = ResultList("q'", [("s1", 3.0), ("s2", 2.0), ("s3", 1.0)])
    # U = 0.6/1 + 0.8/2 + 0.96/3 = 1.32;  H_3 = 11/6;  Ũ = 1.32 · 6/11 = 0.72
    expected = 0.72

    def test_weights_are_the_3_4_5_triangle(self):
        assert self.vectors["d"].weights == {"x": 0.6, "y": 0.8}
        assert self.vectors["s3"].weights == {"x": 0.8, "y": 0.6}

    def test_pairwise_reference(self):
        assert utility(self.vectors["d"], self.spec, self.vectors) == (
            pytest.approx(1.32, rel=1e-15)
        )
        assert normalized_utility(
            self.vectors["d"], self.spec, self.vectors
        ) == pytest.approx(self.expected, rel=1e-15)

    def test_build(self):
        candidates = ResultList("q", [("d", 2.0), ("other", 1.0)])
        matrix = UtilityMatrix.build(
            candidates, {"q'": self.spec}, self.vectors
        )
        assert matrix.value("d", "q'") == pytest.approx(self.expected, rel=1e-15)
        assert matrix.useful_docs("q'").keys() == {"d"}


class TestEq9Oracle:
    """A hand-computed Eq. (9) instance on top of the Eq. (1) one above.

    Ũ(d|q) = (1−λ)·|S_q|·P(d|q) + λ·Σ_{q'} P(q'|q)·Ũ(d|R_q'), with
    S_q = {q' (P = 3/4, the 3-4-5 list: Ũ(d) = 0.72),
           q'' (P = 1/4, R = [s2]: Ũ(d) = cos(d, s2) / H_1 = 0.8)},
    P(d|q) = 0.5 and P(other|q) = 0.25; "other" is useful for neither.

    d:     (1−λ)·2·0.5 + λ·(0.75·0.72 + 0.25·0.8) = (1−λ) + 0.74·λ
    other: (1−λ)·2·0.25                           = 0.5·(1−λ)
    """

    expected = {
        0.0: [1.0, 0.5],
        0.5: [0.87, 0.25],
        1.0: [0.74, 0.0],
    }

    def task(self, lambda_):
        candidates = ResultList("q", [("d", 2.0), ("other", 1.0)])
        spec_results = {
            "q'": TestPaperOracle.spec,
            "q''": ResultList("q''", [("s2", 1.0)]),
        }
        return DiversificationTask(
            query="q",
            candidates=candidates,
            specializations=SpecializationSet.from_frequencies(
                "q", {"q'": 3.0, "q''": 1.0}
            ),
            utilities=UtilityMatrix.build(
                candidates, spec_results, TestPaperOracle.vectors
            ),
            relevance={"d": 0.5, "other": 0.25},
            lambda_=lambda_,
        )

    @pytest.mark.parametrize("lambda_", [0.0, 0.5, 1.0])
    def test_pure_python_optselect(self, lambda_):
        task = self.task(lambda_)
        overall = OptSelect()._overall_utilities(
            task, task.specializations, DiversifierStats()
        )
        # Indexed by candidate position: "d" is first, "other" second.
        assert overall == pytest.approx(
            self.expected[lambda_], rel=1e-15, abs=1e-15
        )

    @pytest.mark.parametrize("lambda_", [0.0, 0.5, 1.0])
    def test_kernel(self, lambda_):
        from repro.core import kernels

        task = self.task(lambda_)
        overall = kernels.overall_utilities(task.arrays(), lambda_)
        assert task.arrays().doc_ids == ["d", "other"]
        assert overall.tolist() == pytest.approx(
            self.expected[lambda_], rel=1e-15, abs=1e-15
        )


class TestCentroidIdentity:
    def test_edge_cases_in_one_instance(self):
        vectors = {
            "c1": TermVector({"a": 2.0, "b": 1.0}),
            "c2": TermVector({"b": 1.0, "c": 3.0}),
            "c-empty": TermVector({}),
            # "c-missing" has no vector at all
            "s1": TermVector({"a": 1.0, "c": 1.0}),
            "s-empty": TermVector({}),
            "shared": TermVector({"b": 5.0, "a": 0.5}),
        }
        candidates = ResultList(
            "q",
            [("c1", 5.0), ("c-missing", 4.0), ("c2", 3.0), ("c-empty", 2.0),
             ("shared", 1.0)],
        )
        spec_results = {
            "q one": ResultList(
                "q one",
                [("s1", 4.0), ("s-missing", 3.0), ("shared", 2.0), ("s-empty", 1.0)],
            ),
            "q two": ResultList("q two", [("shared", 2.0), ("c2", 1.0)]),
            "q none": ResultList("q none", []),
            "q blind": ResultList("q blind", [("s-missing", 1.0), ("s-empty", 0.5)]),
        }
        matrix, _ = assert_build_matches_oracle(candidates, spec_results, vectors)
        assert matrix.useful_docs("q one").keys() == {"c1", "c2", "shared"}
        assert matrix.useful_docs("q none") == {}
        assert matrix.useful_docs("q blind") == {}
        assert matrix.candidates == candidates.doc_ids

    def test_identical_surrogates_clamp_to_one(self):
        vector = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 5.0, "e": 7.0}
        vectors = {name: TermVector(vector) for name in ("c", "s1", "s2", "s3")}
        matrix, _ = assert_build_matches_oracle(
            ResultList("q", [("c", 1.0)]),
            {"q'": ResultList("q'", [("s1", 3.0), ("s2", 2.0), ("s3", 1.0)])},
            vectors,
        )
        assert matrix.value("c", "q'") <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_build_agrees_with_pairwise_oracle(self, data):
        pool = [f"d{i}" for i in range(10)]
        weight = st.one_of(
            st.integers(min_value=1, max_value=5).map(float),
            st.floats(min_value=0.01, max_value=10.0),
        )
        # Absent from the map = no surrogate; min_size=0 = empty surrogate.
        vectors = {
            doc_id: TermVector(weights)
            for doc_id, weights in data.draw(
                st.dictionaries(
                    st.sampled_from(pool),
                    st.dictionaries(st.sampled_from("abcdefgh"), weight, max_size=6),
                )
            ).items()
        }
        doc_lists = st.lists(st.sampled_from(pool), unique=True, max_size=6)
        cand_ids = data.draw(doc_lists.filter(bool))
        candidates = ResultList(
            "q", [(d, float(len(cand_ids) - i)) for i, d in enumerate(cand_ids)]
        )
        # One small pool: lists share documents with each other and with R_q.
        spec_results = {
            f"q s{j}": ResultList(
                f"q s{j}", [(d, float(len(ids) - i)) for i, d in enumerate(ids)]
            )
            for j, ids in enumerate(
                data.draw(st.lists(doc_lists, min_size=1, max_size=3))
            )
        }
        assert_build_and_oracle_rank_alike(candidates, spec_results, vectors)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="IASelect first-gain tie: d6's utility under 'q s2' is one "
        "ulp apart between build and the oracle, so IASelect picks d3 first "
        "on one and d6 on the other (ROADMAP 12(a))",
    )
    def test_recorded_iaselect_first_gain_tie(self):
        """The instance the property test above once drew (ROADMAP 12(a)):
        with unit weights IASelect's first gains of d3 and d6 are both
        exactly 1/4, which the two evaluations round apart."""
        vectors = {
            "d3": TermVector({"a": 1.0}),
            "d6": TermVector({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}),
        }
        candidates = ResultList(
            "q", [(d, float(4 - i)) for i, d in enumerate(["d0", "d6", "d1", "d3"])]
        )
        spec_results = {
            f"q s{j}": ResultList(
                f"q s{j}", [(d, float(len(ids) - i)) for i, d in enumerate(ids)]
            )
            for j, ids in enumerate(
                [
                    [],
                    ["d0", "d1", "d2", "d7", "d6", "d4"],
                    ["d0", "d7", "d3", "d1", "d6", "d2"],
                ]
            )
        }
        assert_build_and_oracle_rank_alike(candidates, spec_results, vectors)


def assert_build_and_oracle_rank_alike(candidates, spec_results, vectors):
    """``build`` matches the pairwise oracle value by value, and every
    algorithm ranks the same on both matrices."""
    matrix, oracle = assert_build_matches_oracle(candidates, spec_results, vectors)

    # The two evaluations may order two candidates differently only
    # where their utilities are within the bound of each other (a
    # mathematical tie rounded two ways); everywhere else every
    # algorithm must pick the same documents in the same order.
    for spec in spec_results:
        ours, theirs = matrix.useful_docs(spec), oracle.useful_docs(spec)
        if not all(
            (ours[a] < ours[b]) == (theirs[a] < theirs[b])
            for a in ours
            for b in ours
        ):
            return
    specializations = SpecializationSet.from_frequencies(
        "q", {spec: j + 1 for j, spec in enumerate(spec_results)}
    )
    for algorithm in (OptSelect(), XQuAD(), IASelect()):
        rankings = [
            algorithm.diversify(
                DiversificationTask.create(
                    query="q",
                    candidates=candidates,
                    specializations=specializations,
                    utilities=utilities,
                ),
                k=3,
            )
            for utilities in (matrix, oracle)
        ]
        assert rankings[0] == rankings[1]


class TestMergedVectorMap:
    """What ``build`` is handed today, written down (ROADMAP item 3)."""

    def test_framework_keeps_the_candidates_vector(
        self, small_framework, small_engine, ambiguous_topic
    ):
        """``build_task`` merges with ``setdefault``: a document of R_q' that
        is also in R_q keeps its *q*-biased surrogate, not its q'-biased one —
        so a centroid cached per specialization would rank differently."""
        query = ambiguous_topic.query
        task = small_framework.build_task(query, small_framework.detect(query))
        own = small_engine.snippet_vectors(query, task.candidates)
        differing = 0
        epoch = small_framework.engine.epoch
        for spec in task.utilities.specializations:
            results = small_framework._spec_results(spec, epoch)
            spec_vectors = small_framework._vectors(spec, results)
            for doc_id, spec_vector in spec_vectors.items():
                if doc_id in own:
                    assert task.vectors[doc_id].weights == own[doc_id].weights
                    differing += spec_vector.weights != own[doc_id].weights
                else:
                    assert task.vectors[doc_id] is spec_vector
        assert differing, "no shared document with differing surrogates in the fixture"
        rebuilt = UtilityMatrix.build(
            task.candidates,
            {
                spec: small_framework._spec_results(spec, epoch)
                for spec in task.utilities.specializations
            },
            task.vectors,
            threshold=small_framework.config.threshold,
        )
        for spec in rebuilt.specializations:
            assert rebuilt.useful_docs(spec) == task.utilities.useful_docs(spec)
