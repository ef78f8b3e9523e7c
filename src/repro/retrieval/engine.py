"""Search-engine facade: ranked retrieval plus document surrogates.

This is the substrate the paper obtains from (a modified) Terrier in
Section 5: given a query it returns the ranked list ``R_q`` scored with a
weighting model (DPH by default), and can produce query-biased snippets of
the retrieved documents, which the diversification framework uses as
document surrogates for the utility computation.

The ranked-list data model (:class:`SearchResult` / :class:`ResultList`)
is shared with the diversification core: ``rank`` is 1-based, as in the
paper's ``rank(d', R_q')`` of Equation (1).

There is one engine, :class:`SearchEngine`.  It holds its index as N
hash-placed partitions (one by default) scored with *collection-global*
statistics, so its rankings — scores included — do not depend on N; a
single node is simply the one-partition case.  Every posting carries its
document's collection-wide *sequence number*, assigned at indexing and
never moved, so an epoch edits only what it changed.  Everything a query
reads lives in one immutable, epoch-versioned :class:`EngineSnapshot`, which
is what makes snapshot-pinned serving (:meth:`SearchEngine.pinned`)
available on every engine.  An engine built here in memory is read-only:
the collection changes only through a store
(:func:`repro.retrieval.store.append_epoch`), whose attached
:class:`~repro.retrieval.store.StoreBackedSearchEngine` re-snapshots on
``refresh()``.  Beside it live the placement function
(:func:`stable_shard`, :func:`partition_collection`) and the enforced
memory limit (:class:`MemoryBudget`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import heapq
import threading
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from repro.retrieval.analysis import Analyzer
from repro.retrieval.documents import Document, DocumentCollection
from repro.retrieval.index import DocumentIndex, ImpactMemo, InvertedIndex
from repro.retrieval.models import DPH, WeightingModel
from repro.retrieval.similarity import TermVector
from repro.retrieval.snippets import ForwardRow, Snippet, SnippetExtractor

__all__ = [
    "SearchResult",
    "ResultList",
    "stable_shard",
    "partition_collection",
    "EngineSnapshot",
    "MemoryBudget",
    "SearchEngine",
]


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """One ranked retrieval result (rank is 1-based)."""

    doc_id: str
    score: float
    rank: int


class ResultList:
    """An ordered result list ``R_q`` for a query.

    A list :meth:`SearchEngine.search` returns also carries each result's
    sequence number, in rank order, as ``seqs`` (empty on a list built by
    hand): the key under which the framework memoises its surrogates.

    >>> rl = ResultList("apple", [("d1", 2.0), ("d2", 1.5)])
    >>> rl[0].doc_id, rl[0].rank
    ('d1', 1)
    >>> rl.rank_of("d2")
    2
    """

    def __init__(
        self,
        query: str,
        scored: Iterable[tuple[str, float]],
        seqs: Sequence[int] = (),
    ) -> None:
        self.query = query
        self.seqs = seqs
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


# -- placement ---------------------------------------------------------------------


def stable_shard(key: str, num_shards: int, seed: int = 0) -> int:
    """Deterministic shard for *key*, uniform over ``range(num_shards)``.

    Process-stable (blake2b, not the salted built-in ``hash``), so the
    same key always lands on the same shard across restarts — the
    property both the partitioned index (placement of documents) and the
    sharded serving layer (routing of queries) rely on.

    >>> stable_shard("apple", 4) == stable_shard("apple", 4)
    True
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if num_shards == 1:
        return 0
    digest = hashlib.blake2b(
        f"{seed}:{key}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % num_shards


def partition_collection(
    collection: DocumentCollection, num_shards: int, seed: int = 0
) -> list[DocumentCollection]:
    """Hash-partition *collection* into *num_shards* sub-collections.

    Every document lands in exactly one partition
    (``stable_shard(doc_id, num_shards, seed)``), and partitions preserve
    the collection's relative document order — which is what lets the
    engine reconstruct the single-index tie-break exactly.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    partitions: list[list] = [[] for _ in range(num_shards)]
    for document in collection:
        partitions[stable_shard(document.doc_id, num_shards, seed)].append(
            document
        )
    return [DocumentCollection(docs) for docs in partitions]


def partition_seqs(
    collection: DocumentCollection, parts: Sequence[DocumentCollection]
) -> tuple[tuple[int, ...], ...]:
    """Each partition member's seq in a fresh build: its collection position."""
    return tuple(tuple(map(collection.ordinal, part.doc_ids)) for part in parts)


# -- accounting --------------------------------------------------------------------


class MemoryBudget:
    """An enforced resident-bytes limit for an engine.

    Attach a budget with :meth:`SearchEngine.set_memory_budget` and,
    whenever a search gathers a term's postings, the impact memo is
    dropped and partitions are evicted least-recently-touched first until
    the summed resident estimate fits under ``limit_bytes``.  Eviction
    requires partitions that can page their data back in on demand (the
    store-backed partitions of :mod:`repro.retrieval.store`), so
    enforcement trades latency on the next touch for bounded residency —
    never changing a single result.

    The instance accumulates enforcement counters; they surface through
    the engine's page-cache stats path into ``ServiceStats.summary()``.
    """

    def __init__(self, limit_bytes: int) -> None:
        if limit_bytes <= 0:
            raise ValueError("limit_bytes must be positive")
        self.limit_bytes = int(limit_bytes)
        #: Times an enforcement pass found the engine over budget.
        self.enforcements = 0
        #: Whole partitions evicted across all enforcement passes.
        self.partitions_evicted = 0
        #: Estimated bytes released across all enforcement passes.
        self.bytes_evicted = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryBudget(limit_bytes={self.limit_bytes}, "
            f"evicted={self.partitions_evicted})"
        )


# -- epochs ------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EngineSnapshot:
    """One immutable, epoch-versioned view of the engine's index.

    Everything a query touches — partitions, the seq → doc_id map, the
    collection-global statistics, the document collection itself — lives
    here, so a query that pins a snapshot at entry sees exactly one
    epoch no matter how many publishes happen while it runs.  Publishing
    the next epoch is a single reference assignment on the engine; the
    previous snapshot keeps serving every query already pinned to it.

    ``impacts`` is the snapshot's own impact memo: a query pinned to an
    older epoch reads that epoch's impacts, and a publish starts with
    none.

    Partitions post *sequence numbers*: ``doc_ids`` resolves one to its
    doc_id.  A seq names one document version for good: no snapshot of
    an engine maps it to another document or another text, since an
    epoch gives each document it adds — a rewrite included — the next
    seq never issued.  Derived state keyed by seq (the framework's
    surrogate memo) is therefore true at every epoch.
    """

    epoch: int
    collection: DocumentCollection
    partitions: tuple[InvertedIndex, ...]
    doc_ids: Mapping[int, str]
    num_documents: int
    total_tokens: int
    average_document_length: float
    impacts: ImpactMemo = dataclasses.field(
        default_factory=ImpactMemo, compare=False, repr=False
    )


# -- the engine --------------------------------------------------------------------


class _Pin(threading.local):
    """The snapshot this thread's reads are pinned to, if any.  A class
    default, so an unpinned read is an attribute hit, not a miss."""

    snapshot: EngineSnapshot | None = None


class SearchEngine:
    """Index a collection once, then serve ranked queries and snippets.

    Documents are hash-partitioned into ``num_partitions`` independent
    :class:`~repro.retrieval.index.DocumentIndex` instances (one by
    default), but scoring is
    *collection-global*: per-term document/collection frequencies are
    summed across partitions, document count and average length are
    global, and every posting is accumulated under the global ``(score
    desc, sequence number asc)`` tie-break.  A fresh build numbers the
    documents by collection position; an epoch appends its added
    documents after every live one.  Because DFR/BM25
    contributions depend only on per-document counts plus those global
    statistics, the ranking — scores included — is the same for every
    partition count.

    Every read goes through one published :class:`EngineSnapshot`, and
    :meth:`pinned` keeps a thread's reads on one epoch while a publish
    lands.  This engine never publishes one itself: it serves the
    collection it was built over.  A store-backed engine
    (:class:`~repro.retrieval.store.StoreBackedSearchEngine`) publishes
    each epoch appended to its store when it refreshes.

    Parameters
    ----------
    collection:
        The documents to index.
    num_partitions / seed:
        How many partitions to place the documents in, and the seed of
        the :func:`stable_shard` placement.
    model:
        Weighting model; DPH (the paper's choice) by default.  Fixed at
        construction: the impact memo holds its scores.
    analyzer / snippet_extractor:
        Shared analysis pipeline (stemming + stopwords by default) and
        the surrogate extractor built over it.

    >>> coll = DocumentCollection([
    ...     Document("d1", "apple iphone store prices"),
    ...     Document("d2", "apple fruit orchard harvest"),
    ... ])
    >>> engine = SearchEngine(coll)
    >>> engine.search("apple orchard").doc_ids[0]
    'd2'
    """

    #: The store file the engine is attached to; ``None`` in memory.  The
    #: serving layer appends ingest batches to it and hydrates each shard's
    #: warm artifacts from it.
    store_path: str | None = None

    def __init__(
        self,
        collection: DocumentCollection,
        num_partitions: int = 1,
        model: WeightingModel | None = None,
        analyzer: Analyzer | None = None,
        snippet_extractor: SnippetExtractor | None = None,
        seed: int = 0,
    ) -> None:
        self._configure(num_partitions, seed, model, analyzer, snippet_extractor)
        parts = partition_collection(collection, num_partitions, seed)
        indexes = [
            DocumentIndex.from_collection(part, self.snippets, seqs=part_seqs)
            for part, part_seqs in zip(parts, partition_seqs(collection, parts))
        ]
        num_documents = sum(p.num_documents for p in indexes)
        total_tokens = sum(p.total_tokens for p in indexes)
        self._snapshot = EngineSnapshot(
            epoch=0,
            collection=collection,
            partitions=tuple(indexes),
            doc_ids={seq: doc.doc_id for seq, doc in enumerate(collection)},
            num_documents=num_documents,
            total_tokens=total_tokens,
            average_document_length=(
                total_tokens / num_documents if num_documents else 0.0
            ),
        )

    def _configure(
        self,
        num_partitions: int,
        seed: int,
        model: WeightingModel | None,
        analyzer: Analyzer | None,
        snippet_extractor: SnippetExtractor | None,
    ) -> None:
        """The state an engine holds besides its published snapshot."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self.seed = seed
        self.analyzer, self.snippets = shared_analysis(analyzer, snippet_extractor)
        self._model = model or DPH()
        self.memory_budget: MemoryBudget | None = None
        self._partition_clock = 0
        self._partition_touched = [0] * num_partitions
        self._pin = _Pin()
        self._epoch_lock = threading.RLock()

    @property
    def model(self) -> WeightingModel:
        """The weighting model every impact is scored with (read-only:
        the memoised impacts of the published snapshot embed it)."""
        return self._model

    # -- epoch-versioned snapshots ------------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        """The currently published :class:`EngineSnapshot`."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        """Epoch id of the currently published snapshot."""
        return self._snapshot.epoch

    def _pinned_snapshot(self) -> EngineSnapshot:
        return self._pin.snapshot or self._snapshot

    @contextlib.contextmanager
    def pinned(self, snapshot: EngineSnapshot | None = None):
        """Pin every read on this thread to one snapshot.

        The framework wraps each query (and each warm pass) in this, so
        a query whose pipeline touches the engine several times —
        candidate retrieval, specialization fetches, snippet
        vectorisation — sees exactly one epoch even when a publish lands
        halfway through.  Re-entrant: an inner pin restores the outer
        one on exit.
        """
        # An inner unnamed pin inherits the outer one (not the published
        # snapshot!) — a publish landing between the two must stay
        # invisible for the rest of the outer pin's scope.
        pinned = snapshot or self._pinned_snapshot()
        previous = self._pin.snapshot
        self._pin.snapshot = pinned
        try:
            yield pinned
        finally:
            self._pin.snapshot = previous

    @property
    def collection(self) -> DocumentCollection:
        return self._pinned_snapshot().collection

    @property
    def partitions(self) -> tuple[InvertedIndex, ...]:
        return self._pinned_snapshot().partitions

    # -- retrieval -------------------------------------------------------------

    def search(self, query: str, k: int = 1000) -> ResultList:
        """Rank the top-*k* documents for *query* with the weighting model.

        Term-at-a-time over memoised impact lists (:class:`ImpactMemo`):
        each document's contributions are summed in query-term order,
        then a heap selects the top-k.  This is the only search loop.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        terms = self.analyzer.analyze(query)
        if not terms:
            return ResultList(query, [], [])
        state, memo = self._index_state()
        accumulators: dict[int, float] = {}
        for key in Counter(terms).items():
            impact_list = memo.lists.get(key)
            if impact_list is None:
                impact_list = memo.add(key, self._impact_list(state, *key))
            for seq, impact in zip(*impact_list):
                if seq in accumulators:
                    accumulators[seq] += impact
                else:
                    accumulators[seq] = impact

        # Deterministic top-k: score desc, sequence number asc for ties.
        top = heapq.nsmallest(
            k, accumulators.items(), key=lambda item: (-item[1], item[0])
        )
        doc_ids = state.doc_ids
        return ResultList(
            query,
            [(doc_ids[seq], score) for seq, score in top],
            [seq for seq, _ in top],
        )

    def _index_state(self) -> tuple[EngineSnapshot, ImpactMemo]:
        """The snapshot one search reads, and that snapshot's memo.

        One snapshot read for the whole search: a publish that lands
        mid-query cannot hand this call a half-new epoch.
        """
        snapshot = self._pinned_snapshot()
        return snapshot, snapshot.impacts

    def _impact_list(
        self, snapshot: EngineSnapshot, term: str, qtf: int
    ) -> tuple[Sequence[int], array]:
        """``(seqs, impacts)`` of a term occurring *qtf* times in the
        query, gathered from every partition of *snapshot* with df/cf
        summed across partitions and the global N and avg_dl — the only
        place a contribution is computed.  Partitions post collection-wide
        sequence numbers, so their postings concatenate as they are."""
        per_partition = [p.postings(term) for p in snapshot.partitions]
        df = sum(pl.document_frequency for pl in per_partition if pl)
        cf = sum(pl.collection_frequency for pl in per_partition if pl)
        n_docs, avg_dl = snapshot.num_documents, snapshot.average_document_length
        score, kf = self._model.score, float(qtf)
        seqs: list[int] = []
        impacts = array("d")
        self._partition_clock += 1
        for shard, postings in enumerate(per_partition):
            if postings is None:
                continue
            self._partition_touched[shard] = self._partition_clock
            seqs.extend(postings.ordinals)
            length = snapshot.partitions[shard].document_length
            impacts.extend(
                [
                    score(tf, length(seq), df, cf, n_docs, avg_dl, key_frequency=kf)
                    for seq, tf in zip(postings.ordinals, postings.tfs)
                ]
            )
        self._enforce_memory_budget()
        return seqs, impacts

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

    def _forward_lookup(self) -> Callable[[str], tuple[ForwardRow, Document, int]]:
        """A ``doc_id -> (forward row, document, seq)`` lookup over one
        snapshot: rows and documents of one epoch, each row read from
        the partition its document hashes to, and the seq they are of."""
        snapshot = self._pinned_snapshot()
        partitions, collection = snapshot.partitions, snapshot.collection
        num_partitions, seed = self.num_partitions, self.seed

        def lookup(doc_id: str) -> tuple[ForwardRow, Document, int]:
            part = partitions[stable_shard(doc_id, num_partitions, seed)]
            return part.forward_row(doc_id), collection[doc_id], part.ordinal(doc_id)

        return lookup

    def forward_row(self, doc_id: str) -> ForwardRow:
        """The forward-index row of *doc_id* (its text, analysed once)."""
        return self._forward_lookup()(doc_id)[0]

    def seq_of(self, doc_id: str) -> int:
        """The seq of the version of *doc_id* the pinned snapshot reads;
        ``KeyError`` when it holds none."""
        return self._forward_lookup()(doc_id)[2]

    def versioned_vectors(
        self, query: str, results: Iterable[SearchResult]
    ) -> dict[str, tuple[int, TermVector]]:
        """Each result's surrogate vector (as :meth:`snippet_vectors`)
        with the seq of the row it was built from: in memory the seq
        :meth:`search` returned at the same pin, while a store-backed read
        that misses a superseded snapshot's caches can read another
        version (:class:`~repro.retrieval.store.StoreBackedSearchEngine`)."""
        query_terms = set(self.analyzer.analyze(query))
        lookup = self._forward_lookup()
        surrogate_vector = self.snippets.surrogate_vector
        built = {}
        for r in results:
            row, document, seq = lookup(r.doc_id)
            built[r.doc_id] = (seq, surrogate_vector(query_terms, row, document))
        return built

    def snippet_vectors(
        self, query: str, results: Iterable[SearchResult]
    ) -> dict[str, TermVector]:
        """Term vectors of the surrogates of every result in *results*.

        These vectors feed the cosine of Equation (2); the paper computes
        the utility on snippets rather than whole documents (Section 5).
        Each vector equals ``TermVector.from_terms(analyze(snippet(query,
        doc_id).text))`` but is built from the forward index: the query
        is analysed once per call and document text is not re-analysed.
        A query whose selection is the document's own order gets the one
        vector the row kept for that selection.
        """
        return {
            doc_id: vector
            for doc_id, (_, vector) in self.versioned_vectors(query, results).items()
        }

    # -- accounting -------------------------------------------------------------

    def set_memory_budget(
        self, budget: "MemoryBudget | int | None"
    ) -> "MemoryBudget | None":
        """Attach (or detach, with ``None``) an enforced memory budget.

        Enforcement evicts whole partitions, so every partition must be
        able to page its data back in: each needs callable ``evict()``
        and ``resident_bytes()`` (the store-backed partitions of
        :mod:`repro.retrieval.store` have both; the plain in-memory
        :class:`~repro.retrieval.index.InvertedIndex` deliberately does
        not — evicting it would lose the only copy).  Accepts a byte
        limit or a :class:`MemoryBudget`; returns the attached budget.
        """
        if budget is None:
            self.memory_budget = None
            return None
        if isinstance(budget, int):
            budget = MemoryBudget(budget)
        for shard, partition in enumerate(self.partitions):
            if not callable(getattr(partition, "evict", None)) or not callable(
                getattr(partition, "resident_bytes", None)
            ):
                raise ValueError(
                    f"partition {shard} ({type(partition).__name__}) is not "
                    "evictable: a memory budget needs store-backed "
                    "partitions that can page their postings back in "
                    "(build the engine from an IndexStore)"
                )
        self.memory_budget = budget
        return budget

    def _enforce_memory_budget(self) -> None:
        """Drop the impact memo (derived, recomputable), then evict
        least-recently-touched partitions, until under budget."""
        budget = self.memory_budget
        if budget is None:
            return
        memo = self._pinned_snapshot().impacts
        total = sum(p.resident_bytes() for p in self.partitions)
        if total + memo.memory_bytes() <= budget.limit_bytes:
            return
        budget.enforcements += 1
        memo.clear()
        order = sorted(
            range(len(self.partitions)),
            key=lambda shard: self._partition_touched[shard],
        )
        for shard in order:
            if total <= budget.limit_bytes:
                break
            freed = self.partitions[shard].evict()
            if freed:
                budget.partitions_evicted += 1
                budget.bytes_evicted += freed
                total -= freed

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

    def __getstate__(self) -> dict:
        # The pin is thread-local and the epoch lock process-local;
        # everything else (including the published snapshot) travels.
        state = self.__dict__.copy()
        state.pop("_pin", None)
        state.pop("_epoch_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pin = _Pin()
        self._epoch_lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "+".join(str(p.num_documents) for p in self.partitions)
        return (
            f"{type(self).__name__}(docs={len(self.collection)} [{sizes}], "
            f"model={self.model.name})"
        )
