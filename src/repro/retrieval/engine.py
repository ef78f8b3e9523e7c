"""Search-engine facade: ranked retrieval plus document surrogates.

This is the substrate the paper obtains from (a modified) Terrier in
Section 5: given a query it returns the ranked list ``R_q`` scored with a
weighting model (DPH by default), and can produce query-biased snippets of
the retrieved documents, which the diversification framework uses as
document surrogates for the utility computation.

The ranked-list data model (:class:`SearchResult` / :class:`ResultList`)
is shared with the diversification core: ``rank`` is 1-based, as in the
paper's ``rank(d', R_q')`` of Equation (1).
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.index import DocumentIndex, ImpactMemo
from repro.retrieval.models import DPH, WeightingModel
from repro.retrieval.similarity import TermVector
from repro.retrieval.snippets import ForwardRow, Snippet, SnippetExtractor

__all__ = ["SearchResult", "ResultList", "SearchEngine"]


@dataclass(frozen=True)
class SearchResult:
    """One ranked retrieval result (rank is 1-based)."""

    doc_id: str
    score: float
    rank: int


class ResultList:
    """An ordered result list ``R_q`` for a query.

    >>> rl = ResultList("apple", [("d1", 2.0), ("d2", 1.5)])
    >>> rl[0].doc_id, rl[0].rank
    ('d1', 1)
    >>> rl.rank_of("d2")
    2
    """

    def __init__(self, query: str, scored: Iterable[tuple[str, float]]) -> None:
        self.query = query
        self.results: list[SearchResult] = [
            SearchResult(doc_id=doc_id, score=score, rank=i + 1)
            for i, (doc_id, score) in enumerate(scored)
        ]
        self._rank_by_id = {r.doc_id: r.rank for r in self.results}
        if len(self._rank_by_id) != len(self.results):
            raise ValueError("result list contains duplicate doc_ids")

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> SearchResult:
        return self.results[i]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._rank_by_id

    @property
    def doc_ids(self) -> list[str]:
        return [r.doc_id for r in self.results]

    @property
    def scores(self) -> list[float]:
        return [r.score for r in self.results]

    def rank_of(self, doc_id: str) -> int:
        """1-based rank of *doc_id*; raises ``KeyError`` if absent."""
        return self._rank_by_id[doc_id]

    def score_of(self, doc_id: str, default: float = 0.0) -> float:
        rank = self._rank_by_id.get(doc_id)
        if rank is None:
            return default
        return self.results[rank - 1].score

    def truncate(self, k: int) -> "ResultList":
        """A new list holding only the top *k* results."""
        return ResultList(
            self.query, [(r.doc_id, r.score) for r in self.results[:k]]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultList(query={self.query!r}, n={len(self)})"


def shared_analysis(
    analyzer: Analyzer | None, snippet_extractor: SnippetExtractor | None
) -> tuple[Analyzer, SnippetExtractor]:
    """The one ``(analyzer, extractor)`` pair an engine analyses with.

    The forward index analyses each window once for the postings *and*
    the surrogates, and queries must land in the same term space, so the
    extractor and the engine cannot hold different analyzers.
    """
    if snippet_extractor is None:
        analyzer = analyzer or Analyzer()
        return analyzer, SnippetExtractor(analyzer=analyzer)
    if analyzer is not None and snippet_extractor.analyzer is not analyzer:
        raise ValueError(
            "snippet_extractor.analyzer must be the engine's analyzer: "
            "documents are analysed once, for postings and surrogates alike"
        )
    return snippet_extractor.analyzer, snippet_extractor


class SearchEngine:
    """Index a collection once, then serve ranked queries and snippets.

    Parameters
    ----------
    collection:
        The documents to index.
    model:
        Weighting model; DPH (the paper's choice) by default.
    analyzer:
        Shared analysis pipeline (stemming + stopwords by default).

    >>> coll = DocumentCollection([
    ...     Document("d1", "apple iphone store prices"),
    ...     Document("d2", "apple fruit orchard harvest"),
    ... ])
    >>> engine = SearchEngine(coll)
    >>> engine.search("apple orchard").doc_ids[0]
    'd2'
    """

    def __init__(
        self,
        collection: DocumentCollection,
        model: WeightingModel | None = None,
        analyzer: Analyzer | None = None,
        snippet_extractor: SnippetExtractor | None = None,
    ) -> None:
        self.collection = collection
        self.analyzer, self.snippets = shared_analysis(analyzer, snippet_extractor)
        self.model = model or DPH()
        self.index = DocumentIndex.from_collection(collection, self.snippets)
        self._impacts: tuple[object, ImpactMemo] = (None, ImpactMemo())

    # -- retrieval -------------------------------------------------------------

    def search(self, query: str, k: int = 1000) -> ResultList:
        """Rank the top-*k* documents for *query* with the weighting model.

        Term-at-a-time over memoised impact lists (:class:`ImpactMemo`):
        each document's contributions are summed in query-term order,
        then a heap selects the top-k.  This is the only search loop;
        subclasses say where an impact list comes from and how ordinals
        become doc_ids.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        terms = self.analyzer.analyze(query)
        if not terms:
            return ResultList(query, [])
        state, memo = self._index_state()
        accumulators: dict[int, float] = {}
        for key in Counter(terms).items():
            impact_list = memo.lists.get(key)
            if impact_list is None:
                impact_list = memo.add(key, self._impact_list(state, *key))
            for ordinal, impact in zip(*impact_list):
                if ordinal in accumulators:
                    accumulators[ordinal] += impact
                else:
                    accumulators[ordinal] = impact

        # Deterministic top-k: score desc, ordinal asc for ties.
        top = heapq.nsmallest(
            k, accumulators.items(), key=lambda item: (-item[1], item[0])
        )
        ordinals, scores = zip(*top) if top else ((), ())
        return ResultList(query, zip(self._doc_ids(state, ordinals), scores))

    def _index_state(self) -> tuple[object, ImpactMemo]:
        """The index state one search reads, and that state's memo (a new
        one whenever the index, its contents or the model changed)."""
        index = self.index
        stamp = (index, index.version, self.model)
        if self._impacts[0] != stamp:
            self._impacts = (stamp, ImpactMemo())
        return index, self._impacts[1]

    def _impact_list(self, index, term: str, qtf: int) -> tuple[Sequence[int], array]:
        """``(ordinals, impacts)`` of a term occurring *qtf* times in the query."""
        impacts, postings = array("d"), index.postings(term)
        if postings is None:
            return (), impacts
        df, cf = postings.document_frequency, postings.collection_frequency
        n_docs, avg_dl = index.num_documents, index.average_document_length
        self._score_postings(impacts, index, postings, qtf, df, cf, n_docs, avg_dl)
        return postings.ordinals, impacts

    def _score_postings(self, impacts, index, postings, qtf, df, cf, n_docs, avg_dl):
        """Append the model's contribution of every posting in *postings*
        to *impacts* — the only place a contribution is computed."""
        score, length, kf = self.model.score, index.document_length, float(qtf)
        impacts.extend(
            [
                score(tf, length(ordinal), df, cf, n_docs, avg_dl, key_frequency=kf)
                for ordinal, tf in zip(postings.ordinals, postings.tfs)
            ]
        )

    def _doc_ids(self, index, ordinals: Sequence[int]) -> Iterable[str]:
        """The doc_ids at *ordinals* in the state a search read."""
        return map(index.doc_id, ordinals)

    def search_batch(
        self, queries: Iterable[str], k: int = 1000
    ) -> dict[str, ResultList]:
        """Ranked retrieval for many queries, deduplicated.

        A serving batch routinely repeats queries (popular intents) and
        shares specializations across queries; scoring each distinct
        query once is the first amortisation the serving layer relies
        on.  Returns ``{query: ResultList}`` over the distinct queries.
        """
        out: dict[str, ResultList] = {}
        for query in queries:
            if query not in out:
                out[query] = self.search(query, k)
        return out

    # -- surrogates -------------------------------------------------------------

    def snippet(self, query: str, doc_id: str) -> Snippet:
        """Query-biased surrogate text for one retrieved document."""
        document = self.collection[doc_id]
        return self.snippets.extract(query, doc_id, document.text, document.title)

    def _forward_lookup(self) -> Callable[[str], tuple[ForwardRow, Document]]:
        """A ``doc_id -> (forward row, document)`` lookup over one
        consistent view of the collection."""
        rows, collection = self.index.forward_row, self.collection
        return lambda doc_id: (rows(doc_id), collection[doc_id])

    def forward_row(self, doc_id: str) -> ForwardRow:
        """The forward-index row of *doc_id* (its text, analysed once)."""
        return self._forward_lookup()(doc_id)[0]

    def snippet_vectors(
        self, query: str, results: ResultList
    ) -> dict[str, TermVector]:
        """Term vectors of the surrogates of every result in *results*.

        These vectors feed the cosine of Equation (2); the paper computes
        the utility on snippets rather than whole documents (Section 5).
        Each vector equals ``TermVector.from_terms(analyze(snippet(query,
        doc_id).text))`` but is built from the forward index: the query
        is analysed once per call and document text is not re-analysed.
        A document whose surrogate is the whole document gets the same
        shared vector on every call.
        """
        query_terms = set(self.analyzer.analyze(query))
        lookup = self._forward_lookup()
        surrogate_vector = self.snippets.surrogate_vector
        return {
            r.doc_id: surrogate_vector(query_terms, *lookup(r.doc_id))
            for r in results
        }

    def snippet_vectors_batch(
        self, batch: Mapping[str, ResultList]
    ) -> dict[str, dict[str, TermVector]]:
        """Surrogate vectors for many ``{query: ResultList}`` pairs.

        The batched counterpart of :meth:`snippet_vectors` — the serving
        layer vectorises every specialization list of a query batch in
        one call.
        """
        return {
            query: self.snippet_vectors(query, results)
            for query, results in batch.items()
        }

    # -- accounting -------------------------------------------------------------

    @property
    def partitions(self) -> tuple:
        """The index partitions — here the one undivided index."""
        return (self.index,)

    def memory_estimate(self) -> dict[str, int]:
        """Estimated resident bytes of the engine, by component:
        :meth:`~repro.retrieval.index.InvertedIndex.memory_estimate`
        summed over the partitions (a term indexed in several is priced
        in each: each really holds its own posting list and vocabulary
        entry), with the impact memo priced into ``postings_bytes``."""
        totals: Counter[str] = Counter()
        for partition in self.partitions:
            totals.update(partition.memory_estimate())
        memo_bytes = self._index_state()[1].memory_bytes()
        totals["postings_bytes"] += memo_bytes
        totals["total_bytes"] += memo_bytes
        return dict(totals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchEngine(docs={self.index.num_documents}, "
            f"model={self.model.name})"
        )
