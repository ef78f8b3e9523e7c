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
is what makes live ingest (:meth:`SearchEngine.apply_updates`) and
snapshot-pinned serving (:meth:`SearchEngine.pinned`) available on
every engine.  Beside it live the placement function
(:func:`stable_shard`, :func:`partition_collection`), the per-partition
build record (:class:`BuildReport`) and the enforced memory limit
(:class:`MemoryBudget`).
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

from repro.core.cache import BUSY, PARTS, Rollup, named
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
    "BuildReport",
    "EpochDelta",
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


@dataclasses.dataclass(frozen=True)
class BuildReport(Rollup):
    """What building one index partition produced and what it costs to hold.

    ``seconds`` is the build wall-clock of this partition (of the whole
    scatter/gather, on a merged report — then ``busy_seconds`` keeps the
    summed per-partition build time, which can exceed the wall-clock
    when partitions build concurrently).  The byte fields are the
    *estimated* resident footprint of the partition's index
    (:meth:`~repro.retrieval.index.InvertedIndex.memory_estimate`);
    ``vector_count``/``vector_bytes`` account the snippet-vector warm
    artifacts once the offline pipeline's warm stage has run (zero at
    build time).  A zero-document partition — the degenerate
    ``num_partitions > len(collection)`` regime — contributes a
    well-formed all-zero report carrying its name, exactly like a
    zero-query shard in a merged :class:`ServiceStats`.

    Merging sums the counters and byte estimates (overlapping
    vocabularies are priced per partition, as each holds them resident)
    and ``seconds``, which the parallel build overwrites with its
    scatter/gather wall-clock; ``shards`` keeps the per-partition inputs.
    """

    documents: int
    terms: int
    postings: int
    tokens: int
    seconds: float
    postings_bytes: int = 0
    vocabulary_bytes: int = 0
    documents_bytes: int = 0
    vector_count: int = 0
    vector_bytes: int = 0
    name: str = dataclasses.field(default="", metadata=named("total"))
    busy_seconds: float = dataclasses.field(default=0.0, metadata=BUSY)
    shards: tuple["BuildReport", ...] = dataclasses.field(
        default=(), metadata=PARTS
    )

    @property
    def total_bytes(self) -> int:
        """Estimated resident bytes: index components plus warm vectors."""
        return (
            self.postings_bytes
            + self.vocabulary_bytes
            + self.documents_bytes
            + self.vector_bytes
        )

    @classmethod
    def from_index(
        cls, index: InvertedIndex, seconds: float, name: str = ""
    ) -> "BuildReport":
        """Report for one freshly built partition index."""
        memory = index.memory_estimate()
        return cls(
            documents=index.num_documents,
            terms=index.num_terms,
            postings=index.num_postings,
            tokens=index.total_tokens,
            seconds=seconds,
            postings_bytes=memory["postings_bytes"],
            vocabulary_bytes=memory["vocabulary_bytes"],
            documents_bytes=memory["documents_bytes"],
            name=name,
        )

    def summary(self) -> str:
        label = f"[{self.name}] " if self.name else ""
        text = (
            f"{label}documents={self.documents} terms={self.terms} "
            f"postings={self.postings} seconds={self.seconds:.3f}"
        )
        if self.busy_seconds and abs(self.busy_seconds - self.seconds) > 1e-9:
            text += f" busy={self.busy_seconds:.3f}"
        text += f" est_memory={self.total_bytes / 1e6:.2f}MB"
        if self.vector_count:
            text += f" vectors={self.vector_count}"
        return text


# -- epochs ------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EpochDelta:
    """What changed between a snapshot and the one it replaced (every
    epoch in between, for a store refresh that skipped some).

    Carried by the :class:`EngineSnapshot` the change produced, so every
    consumer of a publish (warm caches, result caches, stores) can
    decide *surgically* what it must invalidate instead of flushing
    wholesale:

    * ``added`` / ``removed`` — the doc_ids the epoch ingested/dropped
      (a re-ingested id appears in both);
    * ``terms`` — the union of analysed terms of every changed document,
      i.e. every term whose df/cf could differ from the previous epoch;
    * ``stats_changed`` — whether the collection-global scalars (N,
      total tokens, hence avg_dl) moved.  When they did, *every* cached
      score is stale — DFR/BM25 contributions read them — and consumers
      must invalidate every score; what reads no statistic (a surrogate
      vector of an unchanged document) stays valid.
    """

    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    terms: frozenset[str] = frozenset()
    stats_changed: bool = True

    @property
    def changed_ids(self) -> frozenset[str]:
        return frozenset(self.added) | frozenset(self.removed)


@dataclasses.dataclass(frozen=True)
class EngineSnapshot:
    """One immutable, epoch-versioned view of the engine's index.

    Everything a query touches — partitions, the seq → doc_id map, the
    collection-global statistics, the document collection itself — lives
    here, so a query that pins a snapshot at entry sees exactly one
    epoch no matter how many publishes happen while it runs.  Publishing
    the next epoch is a single reference assignment on the engine; the
    previous snapshot keeps serving every query already pinned to it.

    ``delta`` describes the change that produced this snapshot (empty
    for epoch 0 / a fresh build), which is what the serving layer's
    per-affected-specialization warm invalidation reads.  ``impacts`` is
    the snapshot's own impact memo: a query pinned to an older epoch
    reads that epoch's impacts, and a publish starts with none.

    Partitions post *sequence numbers*: ``doc_ids`` resolves one to its
    doc_id, and ``next_seq`` is the number the next added document gets.
    """

    epoch: int
    collection: DocumentCollection
    partitions: tuple[InvertedIndex, ...]
    doc_ids: Mapping[int, str]
    next_seq: int
    num_documents: int
    total_tokens: int
    average_document_length: float
    delta: EpochDelta = EpochDelta((), (), frozenset(), False)
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
    default; each buildable on its own worker), but scoring is
    *collection-global*: per-term document/collection frequencies are
    summed across partitions, document count and average length are
    global, and every posting is accumulated under the global ``(score
    desc, sequence number asc)`` tie-break.  A fresh build numbers the
    documents by collection position; an epoch appends its added
    documents after every live one.  Because DFR/BM25
    contributions depend only on per-document counts plus those global
    statistics, the ranking — scores included — is the same for every
    partition count.

    Every read goes through one published :class:`EngineSnapshot`;
    :meth:`apply_updates` (or :meth:`prepare_epoch` + :meth:`publish`)
    ingests a batch as the next epoch, and :meth:`pinned` keeps a
    thread's reads on one epoch while a publish lands.

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
    partition_collections / partition_indexes:
        Pre-built partitions (keyword-only) — the partition-parallel
        offline pipeline (:func:`repro.serving.offline.build_partitioned_engine`)
        builds them on an execution backend and assembles the engine
        here.  They are validated document-for-document against the
        placement, so an assembled engine is exactly the engine this
        constructor would have built.  The indexes must be
        :class:`~repro.retrieval.index.DocumentIndex` instances built
        with this engine's ``window_terms``: the forward rows that serve
        the surrogates travel inside them.

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
        *,
        partition_collections: Sequence[DocumentCollection] | None = None,
        partition_indexes: Sequence[InvertedIndex] | None = None,
    ) -> None:
        self._configure(num_partitions, seed, model, analyzer, snippet_extractor)
        if partition_collections is None:
            partition_collections = partition_collection(
                collection, num_partitions, seed
            )
        else:
            partition_collections = list(partition_collections)
            if len(partition_collections) != num_partitions:
                raise ValueError(
                    f"expected {num_partitions} partition collections, "
                    f"got {len(partition_collections)}"
                )
            # Global statistics are summed from the partitions, so an
            # injection that does not cover the collection exactly once
            # (stale snapshot, subset, duplicate placement) would serve
            # silently wrong scores — refuse it here instead.
            covered = [
                document.doc_id
                for part in partition_collections
                for document in part
            ]
            if len(covered) != len(collection) or set(covered) != set(
                collection.doc_ids
            ):
                raise ValueError(
                    "partition collections do not cover the collection "
                    "exactly once (missing, extra or duplicated documents)"
                )
        seqs = partition_seqs(collection, partition_collections)
        if partition_indexes is None:
            partition_indexes = [
                DocumentIndex.from_collection(part, self.snippets, seqs=part_seqs)
                for part, part_seqs in zip(partition_collections, seqs)
            ]
        else:
            partition_indexes = list(partition_indexes)
            if len(partition_indexes) != num_partitions:
                raise ValueError(
                    f"expected {num_partitions} partition indexes, "
                    f"got {len(partition_indexes)}"
                )
            for shard, (part, part_seqs, index) in enumerate(
                zip(partition_collections, seqs, partition_indexes)
            ):
                if list(index.members()) != list(zip(part_seqs, part.doc_ids)):
                    raise ValueError(
                        f"partition index {shard} does not match its "
                        "partition collection (documents, their order or "
                        "their seqs, the collection positions, differ)"
                    )
                extractor = getattr(index, "extractor", None)
                if (
                    extractor is None
                    or extractor.window_terms != self.snippets.window_terms
                ):
                    raise ValueError(
                        f"partition index {shard} must be a DocumentIndex "
                        "built with this engine's window_terms "
                        f"({self.snippets.window_terms}): its forward rows "
                        "serve the surrogates"
                    )
        self._snapshot = self._assemble_snapshot(
            0,
            collection,
            partition_indexes,
            {seq: doc.doc_id for seq, doc in enumerate(collection)},
            len(collection),
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

    @staticmethod
    def _assemble_snapshot(
        epoch: int,
        collection: DocumentCollection,
        partition_indexes: Sequence[InvertedIndex],
        doc_ids: dict[int, str],
        next_seq: int,
        delta: EpochDelta | None = None,
    ) -> EngineSnapshot:
        """Freeze one epoch's views plus its collection-global statistics."""
        num_documents = sum(p.num_documents for p in partition_indexes)
        total_tokens = sum(p.total_tokens for p in partition_indexes)
        return EngineSnapshot(
            epoch=epoch,
            collection=collection,
            partitions=tuple(partition_indexes),
            doc_ids=doc_ids,
            next_seq=next_seq,
            num_documents=num_documents,
            total_tokens=total_tokens,
            average_document_length=(
                total_tokens / num_documents if num_documents else 0.0
            ),
            delta=delta or EpochDelta((), (), frozenset(), False),
        )

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
            return ResultList(query, [])
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
        return ResultList(query, [(doc_ids[seq], score) for seq, score in top])

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

    def _forward_lookup(self) -> Callable[[str], tuple[ForwardRow, Document]]:
        """A ``doc_id -> (forward row, document)`` lookup over one
        snapshot: rows and documents of one epoch, each row read from
        the partition its document hashes to."""
        snapshot = self._pinned_snapshot()
        partitions, collection = snapshot.partitions, snapshot.collection
        num_partitions, seed = self.num_partitions, self.seed

        def lookup(doc_id: str) -> tuple[ForwardRow, Document]:
            shard = stable_shard(doc_id, num_partitions, seed)
            return partitions[shard].forward_row(doc_id), collection[doc_id]

        return lookup

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

    # -- live ingest ---------------------------------------------------------------

    def prepare_epoch(
        self,
        add_documents: Sequence[Document] = (),
        remove_doc_ids: Sequence[str] = (),
    ) -> EngineSnapshot:
        """Build — off to the side — the snapshot the next epoch publishes.

        Pure with respect to the published snapshot: only the partitions
        actually touched by the batch are copied and mutated
        (:meth:`~repro.retrieval.index.InvertedIndex.remove_document` /
        :meth:`~repro.retrieval.index.InvertedIndex.index_document`);
        untouched partitions are shared structurally with the current
        epoch.  Added documents take the next sequence numbers in batch
        order; no other document's number moves.  The resulting snapshot
        is identical — global statistics, rankings, scores — to a
        from-scratch build over the final collection (survivors in their
        original order, added documents appended in batch order), and its
        sequence numbers are that build's ordinals up to an
        order-preserving relabelling, which is the identity gate every
        ingest test asserts.  Runs on any thread; serving is undisturbed
        until :meth:`publish`.
        """
        with self._epoch_lock:
            return self._prepare_epoch_locked(add_documents, remove_doc_ids)

    def _prepare_epoch_locked(
        self,
        add_documents: Sequence[Document],
        remove_doc_ids: Sequence[str],
    ) -> EngineSnapshot:
        current = self._snapshot
        adds = list(add_documents)
        removes = list(remove_doc_ids)
        if not adds and not removes:
            raise ValueError("an epoch must change the collection")
        removed: set[str] = set()
        for doc_id in removes:
            if doc_id in removed:
                raise ValueError(f"duplicate removal: {doc_id!r}")
            if doc_id not in current.collection:
                raise ValueError(f"cannot remove unknown doc_id: {doc_id!r}")
            removed.add(doc_id)
        fresh: set[str] = set()
        for document in adds:
            if document.doc_id in fresh:
                raise ValueError(f"duplicate doc_id in batch: {document.doc_id!r}")
            if document.doc_id in current.collection and (
                document.doc_id not in removed
            ):
                raise ValueError(f"duplicate doc_id: {document.doc_id!r}")
            fresh.add(document.doc_id)

        adds_by_shard: dict[int, list[Document]] = {}
        for document in adds:
            shard = stable_shard(document.doc_id, self.num_partitions, self.seed)
            adds_by_shard.setdefault(shard, []).append(document)
        removes_by_shard: dict[int, list[str]] = {}
        for doc_id in removes:
            shard = stable_shard(doc_id, self.num_partitions, self.seed)
            removes_by_shard.setdefault(shard, []).append(doc_id)

        collection = DocumentCollection(
            [d for d in current.collection if d.doc_id not in removed] + adds
        )
        partitions = list(current.partitions)
        seq_of = {
            document.doc_id: current.next_seq + offset
            for offset, document in enumerate(adds)
        }
        doc_ids = dict(current.doc_ids)
        # Every term a changed document holds, read off the forward rows.
        changed_terms: set[str] = set()
        for shard in sorted(set(adds_by_shard) | set(removes_by_shard)):
            index = partitions[shard].copy()
            for doc_id in removes_by_shard.get(shard, ()):
                changed_terms.update(index.forward_row(doc_id).terms)
                del doc_ids[index.remove_document(doc_id)]
            for document in adds_by_shard.get(shard, ()):
                seq = index.index_document(document, seq_of[document.doc_id])
                doc_ids[seq] = document.doc_id
                changed_terms.update(index.forward_row(document.doc_id).terms)
            partitions[shard] = index
        prepared = self._assemble_snapshot(
            current.epoch + 1,
            collection,
            partitions,
            doc_ids,
            current.next_seq + len(adds),
        )
        stats_changed = (
            prepared.num_documents != current.num_documents
            or prepared.total_tokens != current.total_tokens
        )
        return dataclasses.replace(
            prepared,
            delta=EpochDelta(
                added=tuple(d.doc_id for d in adds),
                removed=tuple(removes),
                terms=frozenset(changed_terms),
                stats_changed=stats_changed,
            ),
        )

    def publish(self, prepared: EngineSnapshot) -> int:
        """Atomically publish *prepared* as the current epoch.

        One reference assignment under the epoch lock: queries pinned to
        the previous snapshot finish on it untouched, queries arriving
        after this line see the new epoch in full — there is no state in
        between.  Refuses a stale preparation (another publish won the
        race).  Returns the published epoch id.
        """
        with self._epoch_lock:
            if prepared.epoch != self._snapshot.epoch + 1:
                raise ValueError(
                    f"stale epoch preparation: prepared epoch "
                    f"{prepared.epoch} cannot follow published epoch "
                    f"{self._snapshot.epoch}"
                )
            self._snapshot = prepared
        return prepared.epoch

    def apply_updates(
        self,
        add_documents: Sequence[Document] = (),
        remove_doc_ids: Sequence[str] = (),
    ) -> EngineSnapshot:
        """Prepare and publish the next epoch in one call.

        The convenience path for callers without a separate background
        preparer; serialised against concurrent updates by the epoch
        lock.  Returns the published snapshot (its ``delta`` drives the
        serving layer's surgical warm invalidation).
        """
        with self._epoch_lock:
            prepared = self._prepare_epoch_locked(
                add_documents, remove_doc_ids
            )
            self.publish(prepared)
        return prepared

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

    def build_reports(self) -> list[BuildReport]:
        """Per-partition :class:`BuildReport` snapshots of the held indexes.

        Build *seconds* are zero — this probes an already-built engine;
        the parallel build pipeline times each partition where it builds
        and reports through the same type.
        """
        return [
            BuildReport.from_index(index, 0.0, name=f"partition{shard}")
            for shard, index in enumerate(self.partitions)
        ]

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
