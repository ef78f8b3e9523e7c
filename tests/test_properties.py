"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ambiguity import SpecializationSet
from repro.core.heaps import BoundedMaxHeap
from repro.core.iaselect import IASelect
from repro.core.objectives import (
    max_utility_objective,
    ql_diversify_objective,
)
from repro.core.optselect import OptSelect
from repro.core.task import DiversificationTask
from repro.core.utility import UtilityMatrix, harmonic_number
from repro.core.xquad import XQuAD
from repro.evaluation.metrics import alpha_ndcg, intent_aware_precision
from repro.corpus.trec import DiversityQrels
from repro.evaluation.significance import wilcoxon_signed_rank
from repro.retrieval.analysis import Analyzer, PorterStemmer, tokenize
from repro.retrieval.documents import Document
from repro.retrieval.engine import ResultList
from repro.retrieval.similarity import TermVector, cosine
from repro.retrieval.snippets import ForwardRow, SnippetExtractor

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)
weights = st.dictionaries(
    words, st.floats(min_value=0.01, max_value=10.0), min_size=0, max_size=10
)


@st.composite
def tasks(draw):
    """Random but well-formed diversification tasks."""
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=1, max_value=4))
    doc_ids = [f"d{i}" for i in range(n)]
    scores = [(d, float(n - i)) for i, d in enumerate(doc_ids)]
    spec_names = [f"s{j}" for j in range(m)]
    freqs = {
        s: draw(st.integers(min_value=1, max_value=50)) for s in spec_names
    }
    values = {}
    for s in spec_names:
        row = {}
        for d in doc_ids:
            if draw(st.booleans()):
                row[d] = draw(st.floats(min_value=0.0, max_value=1.0))
        values[s] = row
    lam = draw(st.floats(min_value=0.0, max_value=1.0))
    return DiversificationTask.create(
        query="q",
        candidates=ResultList("q", scores),
        specializations=SpecializationSet.from_frequencies("q", freqs),
        utilities=UtilityMatrix(values, doc_ids),
        lambda_=lam,
        relevance_method="sum",
    )


# ---------------------------------------------------------------------------
# text analysis
# ---------------------------------------------------------------------------

class TestAnalysisProperties:
    @given(st.text(max_size=200))
    def test_tokenize_output_is_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()

    @given(words)
    def test_stemmer_reaches_fixed_point(self, word):
        # Porter is not idempotent in general (a stem ending in 's' can be
        # stripped again), but iterating must shrink monotonically and
        # terminate at a fixed point within a few rounds.
        stem = PorterStemmer()
        current = word
        for _ in range(6):
            nxt = stem(current)
            assert len(nxt) <= len(current)
            if nxt == current:
                break
            current = nxt
        else:
            assert stem(current) == current

    @given(words)
    def test_stemmer_never_longer(self, word):
        assert len(PorterStemmer()(word)) <= len(word)

    @given(words)
    def test_stemmer_nonempty(self, word):
        assert PorterStemmer()(word)


# ---------------------------------------------------------------------------
# forward index
# ---------------------------------------------------------------------------

# Few distinct letters so query terms recur in documents; stopwords and
# near-stopwords so cuts turn one into the other; sentence punctuation and
# every kind of whitespace so both window modes occur; characters whose
# lower-casing is longer (İ), context dependent (Σ) or ASCII from
# non-ASCII (K, the Kelvin sign).
document_text = st.text(
    alphabet=st.sampled_from(
        list("abeinrst") * 2 + list("THE") + list("  \t\n") + list(".!?,-")
        + list("09") + ["İ", "Σ", "\u212a", "ß", "é"]
    ),
    max_size=160,
)
extractors = st.builds(
    SnippetExtractor,
    max_chars=st.integers(min_value=1, max_value=120),
    window_terms=st.integers(min_value=1, max_value=12),
    analyzer=st.just(Analyzer()),
)


class TestForwardIndexProperties:
    @settings(max_examples=400, deadline=None)
    @given(extractors, document_text, document_text, document_text)
    def test_forward_surrogate_equals_reanalysed_snippet(
        self, extractor, query, text, title
    ):
        """The served vector (from the forward row) is the vector of the
        re-analysed snippet text: same keys, same order, same floats."""
        analyzer = extractor.analyzer
        document = Document("d", text, title)
        row = extractor.analyse_document(document)
        served = extractor.surrogate_vector(
            set(analyzer.analyze(query)), row, document
        )
        oracle = TermVector.from_terms(
            analyzer.analyze(extractor.extract(query, "d", text, title).text)
        )
        assert list(served.weights.items()) == list(oracle.weights.items())
        # starts point at verbatim copies of their pieces and survive the blob.
        pieces = [title.strip(), *extractor._windows(text)]
        for piece, start, source in zip(
            pieces, row.starts, [title] + [text] * len(pieces)
        ):
            assert start == -1 or source[start:start + len(piece)] == piece
        assert row.starts[0] >= 0
        assert ForwardRow.decode(row.encode()) == row

    @settings(max_examples=200, deadline=None)
    @given(extractors, document_text, document_text)
    def test_row_terms_are_the_postings_terms(self, extractor, text, title):
        """Postings are counted from the row's terms: they must be the
        analysis of the indexed text, and survive the store's blob."""
        document = Document("d", text, title)
        row = extractor.analyse_document(document)
        assert list(row.terms) == extractor.analyzer.analyze(document.full_text)
        assert list(row.bounds) == sorted(row.bounds)
        assert row.bounds[-1] == len(row.terms) == len(row.ends)
        assert ForwardRow.decode(row.encode()) == row

    @given(document_text)
    def test_ends_locate_each_term_in_the_original_text(self, text):
        analyzer = Analyzer()
        terms, ends = analyzer.analyze_with_ends(text)
        assert terms == analyzer.analyze(text)
        for count, end in enumerate(ends, 1):
            # Everything up to a term's end analyses to the terms so far.
            assert analyzer.analyze(text[:end]) == terms[:count]


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

class TestSimilarityProperties:
    @given(weights, weights)
    def test_cosine_bounds_and_symmetry(self, w1, w2):
        v1, v2 = TermVector(w1), TermVector(w2)
        sim = cosine(v1, v2)
        assert 0.0 <= sim <= 1.0
        assert sim == cosine(v2, v1)

    @given(weights.filter(bool))
    def test_cosine_self_similarity_one_for_nonempty(self, w):
        v = TermVector(w)
        assert math.isclose(cosine(v, v), 1.0, rel_tol=1e-9)

    @given(weights.filter(bool), st.floats(min_value=0.1, max_value=100.0))
    def test_cosine_scale_invariant(self, w, factor):
        scaled = TermVector({t: x * factor for t, x in w.items()})
        assert math.isclose(cosine(TermVector(w), scaled), 1.0, rel_tol=1e-9)

    @given(weights, weights)
    def test_cosine_of_disjoint_vectors_zero(self, w1, w2):
        left = TermVector({f"l{t}": x for t, x in w1.items()})
        right = TermVector({f"r{t}": x for t, x in w2.items()})
        assert cosine(left, right) == 0.0


# ---------------------------------------------------------------------------
# heaps
# ---------------------------------------------------------------------------

class TestHeapProperties:
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=60),
        st.integers(min_value=0, max_value=10),
    )
    def test_heap_matches_sorted_reference(self, scores, capacity):
        heap = BoundedMaxHeap(capacity)
        for i, score in enumerate(scores):
            heap.push(i, score)
        drained = [s for _, s in heap.drain()]
        assert drained == sorted(scores, reverse=True)[:capacity]

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30))
    def test_pop_max_monotone(self, scores):
        heap = BoundedMaxHeap(len(scores))
        for i, score in enumerate(scores):
            heap.push(i, score)
        popped = []
        while heap:
            popped.append(heap.pop_max()[1])
        assert popped == sorted(popped, reverse=True)


# ---------------------------------------------------------------------------
# harmonic number
# ---------------------------------------------------------------------------

class TestHarmonicProperties:
    @given(st.integers(min_value=1, max_value=500))
    def test_bounds(self, n):
        h = harmonic_number(n)
        assert math.log(n + 1) <= h <= math.log(n) + 1

    @given(st.integers(min_value=1, max_value=200))
    def test_recurrence(self, n):
        assert harmonic_number(n) == harmonic_number(n - 1) + 1.0 / n


# ---------------------------------------------------------------------------
# diversification invariants
# ---------------------------------------------------------------------------

class TestDiversifierProperties:
    @settings(max_examples=40, deadline=None)
    @given(tasks(), st.integers(min_value=1, max_value=25))
    def test_common_invariants(self, task, k):
        for algorithm in (OptSelect(), XQuAD(), IASelect()):
            selected = algorithm.diversify(task, k)
            assert len(selected) == min(k, task.n)
            assert len(set(selected)) == len(selected)
            assert set(selected) <= set(task.candidates.doc_ids)

    @settings(max_examples=30, deadline=None)
    @given(tasks(), st.integers(min_value=1, max_value=10))
    def test_greedy_objectives_monotone_in_prefix(self, task, k):
        """Every greedy prefix extends the coverage objective
        monotonically (it is a monotone submodular function)."""
        selected = IASelect().diversify(task, k)
        previous = 0.0
        for i in range(1, len(selected) + 1):
            value = ql_diversify_objective(task, selected[:i])
            assert value >= previous - 1e-9
            previous = value

    @settings(max_examples=30, deadline=None)
    @given(tasks())
    def test_optselect_additivity(self, task):
        selected = OptSelect().diversify(task, min(5, task.n))
        total = max_utility_objective(task, selected)
        assert total == sum(task.overall_utility(d) for d in selected)

    @settings(max_examples=30, deadline=None)
    @given(tasks(), st.floats(min_value=0.0, max_value=1.0))
    def test_threshold_never_raises_utility(self, task, c):
        thresholded = task.with_threshold(c)
        for d in task.candidates.doc_ids:
            for spec, _ in task.specializations:
                assert thresholded.utilities.value(d, spec) <= (
                    task.utilities.value(d, spec) + 1e-12
                )


# ---------------------------------------------------------------------------
# specialization sets
# ---------------------------------------------------------------------------

class TestSpecializationProperties:
    @given(
        st.dictionaries(
            words, st.integers(min_value=1, max_value=1000), min_size=1, max_size=10
        )
    )
    def test_from_frequencies_is_distribution(self, freqs):
        s = SpecializationSet.from_frequencies("q", freqs)
        assert sum(p for _, p in s) == 1.0 or abs(
            sum(p for _, p in s) - 1.0
        ) < 1e-9
        probs = [p for _, p in s]
        assert probs == sorted(probs, reverse=True)

    @given(
        st.dictionaries(
            words, st.integers(min_value=1, max_value=1000), min_size=2, max_size=10
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_top_k_is_distribution(self, freqs, k):
        s = SpecializationSet.from_frequencies("q", freqs).top(k)
        assert len(s) <= k
        assert abs(sum(p for _, p in s) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@st.composite
def judged_rankings(draw):
    docs = [f"d{i}" for i in range(10)]
    qrels = DiversityQrels()
    n_subtopics = draw(st.integers(min_value=1, max_value=4))
    any_judged = False
    for s in range(1, n_subtopics + 1):
        for d in docs:
            if draw(st.booleans()):
                qrels.add(1, s, d)
                any_judged = True
    if not any_judged:
        qrels.add(1, 1, docs[0])
    ranking = draw(st.permutations(docs))
    return ranking, qrels


class TestMetricProperties:
    @settings(max_examples=50, deadline=None)
    @given(judged_rankings(), st.integers(min_value=1, max_value=10))
    def test_alpha_ndcg_bounds(self, data, cutoff):
        ranking, qrels = data
        value = alpha_ndcg(ranking, 1, qrels, cutoff=cutoff)
        assert 0.0 <= value <= 1.0 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(judged_rankings(), st.integers(min_value=1, max_value=10))
    def test_ia_precision_bounds(self, data, cutoff):
        ranking, qrels = data
        value = intent_aware_precision(ranking, 1, qrels, cutoff=cutoff)
        assert 0.0 <= value <= 1.0 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(judged_rankings())
    def test_greedy_ideal_is_upper_bound(self, data):
        """No permutation of the judged docs can beat α-NDCG = 1 + ε."""
        ranking, qrels = data
        assert alpha_ndcg(ranking, 1, qrels, cutoff=10) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# significance
# ---------------------------------------------------------------------------

class TestWilcoxonProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-10, max_value=10),
                st.floats(min_value=-10, max_value=10),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_p_value_in_unit_interval(self, pairs):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        result = wilcoxon_signed_rank(a, b)
        assert 0.0 <= result.p_value <= 1.0
        assert result.w_plus >= 0 and result.w_minus >= 0
