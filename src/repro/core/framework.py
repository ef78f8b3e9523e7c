"""End-to-end diversification framework (Section 3's pipeline).

Once trained, the paper's system answers a query ``q`` in three steps:

  (a) check whether ``q`` is ambiguous/faceted (Algorithm 1 over the
      query-log model);
  (b) if so, retrieve documents relevant to every mined specialization
      (the small precomputed lists ``R_q'``, |R_q'| ≪ |R_q|);
  (c) re-rank the original result list ``R_q`` so the final top-k
      maximises the chosen objective (OptSelect by default).

:class:`DiversificationFramework` implements that pipeline on top of the
library's search engine and specialization miner, and is what the
examples and the Table 3 / Figure 1 experiments drive.  A per-framework
cache of specialization result lists mirrors the paper's feasibility
argument (Section 4.1): those lists are tiny and computed once, offline.
The cache is a bounded LRU (:class:`~repro.core.cache.LRUCache`) with
hit/miss counters exposed via :meth:`DiversificationFramework.cache_info`,
and :meth:`DiversificationFramework.prefetch_specializations` lets the
serving layer (:mod:`repro.serving`) realise the offline phase explicitly
— warm the artifacts for an expected workload in one batched engine pass,
then serve queries that only read them.

A second bounded LRU keeps each query's own candidate surrogate vectors:
a surrogate reads the query and the document's text, never N or avg_dl,
so a repeated query after an ingest epoch vectorises only the candidates
that epoch added or changed (:meth:`DiversificationFramework.build_task`).

Both caches hold entries tagged with the epoch they were computed at,
reused only by a read pinned to that epoch;
:meth:`DiversificationFramework.invalidate_affected` re-tags what an
epoch leaves valid (:func:`~repro.core.cache.sweep_tagged`).
"""

from __future__ import annotations

import sys
from collections.abc import Container, Iterable, Mapping
from dataclasses import dataclass, field

from repro.core.ambiguity import SpecializationSet
from repro.core.base import Diversifier
from repro.core.cache import CacheStats, LRUCache, put_tagged, sweep_tagged
from repro.core.iaselect import IASelect
from repro.core.mmr import MMR
from repro.core.optselect import OptSelect
from repro.core.task import DiversificationTask
from repro.core.utility import UtilityMatrix
from repro.core.xquad import XQuAD
from repro.retrieval.engine import ResultList, SearchEngine
from repro.retrieval.similarity import TermVector

__all__ = [
    "FrameworkConfig",
    "DiversifiedResult",
    "DiversificationFramework",
    "get_diversifier",
    "default_diversifier",
]


def default_diversifier(use_fast: bool | None = None) -> Diversifier:
    """The framework's default algorithm: OptSelect on the numpy kernels.

    ``use_fast=None`` (the default) or ``True`` returns
    :class:`~repro.core.fast.FastOptSelect`; ``False`` pins the
    instrumented pure-Python :class:`~repro.core.optselect.OptSelect`.
    Both variants produce identical rankings.
    """
    if use_fast or use_fast is None:
        from repro.core.fast import FastOptSelect

        return FastOptSelect()
    return OptSelect()


def get_diversifier(
    name: str, use_fast: bool | None = False, **kwargs
) -> Diversifier:
    """Instantiate an algorithm by its paper name (case-insensitive).

    ``use_fast`` selects the implementation: ``False`` (default) returns
    the instrumented pure-Python reference — what the complexity
    experiments measure — and ``True`` or ``None`` the numpy
    kernel-backed variant from :mod:`repro.core.fast`.  Either way the
    ranking is identical; only the constant factor changes.

    >>> get_diversifier("xquad").name
    'xQuAD'
    """
    if use_fast or use_fast is None:
        from repro.core.fast import get_fast_diversifier

        return get_fast_diversifier(name, **kwargs)
    registry = {
        "optselect": OptSelect,
        "iaselect": IASelect,
        "xquad": XQuAD,
        "mmr": MMR,
    }
    try:
        factory = registry[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown diversifier {name!r}; choose from {sorted(registry)}"
        ) from None
    return factory(**kwargs)


def _held(cached: tuple | None, epoch: int) -> tuple | None:
    """*cached* if it is tagged *epoch*, else ``None``."""
    return cached if cached is not None and cached[0] == epoch else None


def _serves(
    cached: tuple | None, epoch: int, candidates: Container[str] = ()
) -> bool:
    """Whether a spec-cache entry serves a caller pinned to *epoch* and
    holding *candidates*' own vectors without computing anything: it is
    tagged *epoch*, its result list is present and each result has a
    vector or is a candidate.  With no candidates this is a whole
    artifact."""
    if _held(cached, epoch) is None or cached[1] is None:
        return False
    _, results, vectors = cached
    return all(d in vectors or d in candidates for d in results.doc_ids)


def _unchanged(vectors: dict, changed_ids: frozenset[str]) -> dict:
    """*vectors* less those of *changed_ids*; the same map when it holds
    none of them."""
    if changed_ids.isdisjoint(vectors):
        return vectors
    return {d: v for d, v in vectors.items() if d not in changed_ids}


#: Estimated bytes of one boxed CPython float (64-bit build).
_FLOAT_BYTES = 24


def _estimate_warm_memory(
    spec_entries: Iterable[tuple[str, tuple]],
    candidate_vectors: Iterable[Mapping[str, TermVector]],
) -> dict[str, int]:
    """Estimated resident bytes of warm artifacts, plus their counts.

    *spec_entries* are the spec cache's ``(spec_query, (epoch,
    ResultList | None, {doc_id: TermVector}))`` pairs; an entry without
    a list (retained vectors) prices its vectors only.  Each map in
    *candidate_vectors* (a query's retained candidate vectors) is priced
    into the vector counts too.  Sums
    ``sys.getsizeof`` of the real strings/dicts plus flat per-element
    prices for boxed floats — the same estimation discipline as
    :meth:`~repro.retrieval.index.InvertedIndex.memory_estimate`, so the
    offline pipeline's per-partition index footprints and per-shard warm
    footprints are directly comparable.  Returns ``{"specializations",
    "results", "vectors", "result_bytes", "vector_bytes", "total_bytes"}``.
    """
    specializations = 0
    results_count = 0
    vectors_count = 0
    result_bytes = 0
    vector_bytes = 0
    vector_maps = list(candidate_vectors)
    for spec_query, (_, results, vectors) in spec_entries:
        specializations += 1
        results = results or ()  # None: a retained-vectors entry
        results_count += len(results)
        result_bytes += sys.getsizeof(spec_query)
        for result in results:
            # SearchResult object + its doc_id string + score float.
            result_bytes += 64 + sys.getsizeof(result.doc_id) + _FLOAT_BYTES
        vector_maps.append(vectors)
    for vectors in vector_maps:
        for doc_id, vector in vectors.items():
            vectors_count += 1
            vector_bytes += sys.getsizeof(doc_id) + sys.getsizeof(
                vector.weights
            )
            for term in vector.weights:
                vector_bytes += sys.getsizeof(term) + _FLOAT_BYTES
    return {
        "specializations": specializations,
        "results": results_count,
        "vectors": vectors_count,
        "result_bytes": result_bytes,
        "vector_bytes": vector_bytes,
        "total_bytes": result_bytes + vector_bytes,
    }


@dataclass(frozen=True)
class FrameworkConfig:
    """Operating parameters of the online pipeline.

    Paper defaults for Table 3: ``spec_results=20`` (|R_q'|), ``k=1000``,
    ``candidates=25000`` (|R_q|), ``lambda_=0.15``, ``threshold`` swept.
    The library defaults are SERP-scale; experiments override them.
    """

    k: int = 10
    candidates: int = 100
    spec_results: int = 20
    lambda_: float = 0.15
    threshold: float = 0.0
    relevance_method: str = "sum"

    def __post_init__(self) -> None:
        if self.k <= 0 or self.candidates <= 0 or self.spec_results <= 0:
            raise ValueError("k, candidates and spec_results must be positive")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError("lambda_ must lie in [0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")


@dataclass
class DiversifiedResult:
    """Outcome of one query: the served answer, not its provenance.

    The task behind a ranking (every candidate's surrogate vector and
    utility row) is not kept; :meth:`DiversificationFramework.build_task`
    rebuilds it."""

    query: str
    ranking: list[str]
    diversified: bool
    baseline: ResultList
    specializations: SpecializationSet
    algorithm: str = ""

    @property
    def k(self) -> int:
        return len(self.ranking)


class DiversificationFramework:
    """Glue object: engine + ambiguity detection + diversifier.

    Parameters
    ----------
    engine:
        The search engine producing ``R_q`` and the ``R_q'`` lists.
    detector:
        Anything with a ``mine(query) -> SpecializationSet`` method (a
        :class:`~repro.querylog.specializations.SpecializationMiner`).
    diversifier:
        Algorithm instance; when omitted, :func:`default_diversifier`
        picks OptSelect — kernel-backed
        (:class:`~repro.core.fast.FastOptSelect`) unless ``use_fast`` is
        ``False``.  Both are selection-identical.
    use_fast:
        Only consulted when *diversifier* is omitted: ``None`` (default)
        or ``True`` uses the numpy kernels, ``False`` pins the
        pure-Python reference.
    config:
        Pipeline parameters.
    spec_cache_size:
        Bound on the specialization artifact cache (result list +
        snippet vectors per mined specialization).  The seed kept these
        in unbounded dicts; a bounded LRU keeps the online memory
        footprint constant under heavy traffic while still realising the
        paper's compute-once argument for the hot specializations.  It
        also bounds the store of queries' candidate vectors, to as many
        vectors as the spec cache can hold
        (``spec_cache_size * spec_results // candidates`` queries).
    """

    def __init__(
        self,
        engine: SearchEngine,
        detector,
        diversifier: Diversifier | None = None,
        config: FrameworkConfig | None = None,
        spec_cache_size: int = 4096,
        use_fast: bool | None = None,
    ) -> None:
        self.engine = engine
        self.detector = detector
        self.diversifier = diversifier or default_diversifier(use_fast)
        self.config = config or FrameworkConfig()
        # Offline side structures (Section 4.1): specialization result
        # lists and their surrogate vectors, built once per specialization
        # and served from a bounded LRU (spec_query → (epoch, ResultList |
        # None, {doc_id → TermVector})).  An entry may lack the vectors of
        # results a direct query's candidates shadowed (see _serves); the
        # list is None when an epoch dropped it and only vectors remain.
        self._spec_cache: LRUCache[str, tuple[int, ResultList | None, dict]]
        self._spec_cache = LRUCache(spec_cache_size)
        # Each query's own candidate surrogate vectors (query → (epoch,
        # {doc_id → TermVector})), exactly those of its last candidate
        # list.  Both caches reuse an entry only at the epoch it is
        # tagged with; see build_task and invalidate_affected.
        bound = spec_cache_size * self.config.spec_results // self.config.candidates
        self._candidate_vectors: LRUCache[str, tuple[int, dict]]
        self._candidate_vectors = LRUCache(max(1, bound))

    # -- pipeline pieces ---------------------------------------------------------

    def detect(self, query: str) -> SpecializationSet:
        """Step (a): Algorithm 1 via the configured detector."""
        return self.detector.mine(query)

    def _complete(
        self,
        spec_query: str,
        epoch: int,
        results: ResultList,
        held: tuple | None,
        candidates: Container[str] = (),
    ) -> tuple[int, ResultList, dict]:
        """The spec-cache entry ``(epoch, R_q', its surrogate vectors)``,
        put by :func:`~repro.core.cache.put_tagged`.

        *held* is what the cache held for *spec_query* at *epoch* —
        nothing, a partial entry, or a retained-vectors entry — and only
        the results it has no vector for are vectorised, less those in
        *candidates*: :meth:`build_task` merges the candidates' own
        vectors first, so a q'-biased vector of a candidate is never
        read.  The entry may therefore lack them; a later caller without
        those candidates completes it (:meth:`_spec_results`).
        """
        kept = held[2] if held is not None else {}
        missing = [
            r for r in results if r.doc_id not in kept and r.doc_id not in candidates
        ]
        fresh = self.engine.snippet_vectors(spec_query, missing) if missing else {}
        entry = epoch, results, {
            d: kept[d] if d in kept else fresh[d]
            for d in results.doc_ids
            if d in kept or d in fresh
        }
        put_tagged(self._spec_cache, spec_query, entry)
        return entry

    def _spec_results(
        self, spec_query: str, epoch: int, candidates: Container[str] = ()
    ) -> tuple[ResultList, dict]:
        """Step (b): the cached small list R_q' and its snippet vectors,
        for a read pinned to *epoch*.

        *candidates* are the doc_ids whose vectors the caller already
        holds (the query's R_q); with none, every result gets a vector.
        A lookup is a hit when the entry serves this caller as it is
        (:func:`_serves`); any other lookup completes the entry it holds
        at *epoch*, re-searching only when that holds no result list.
        """
        cached = self._spec_cache.lookup(
            spec_query, lambda entry: _serves(entry, epoch, candidates)
        )
        if _serves(cached, epoch, candidates):
            return cached[1:]
        held = _held(cached, epoch)
        results = None if held is None else held[1]
        if results is None:
            results = self.engine.search(spec_query, self.config.spec_results)
        return self._complete(spec_query, epoch, results, held, candidates)[1:]

    def prefetch_specializations(self, spec_queries) -> int:
        """Warm the specialization cache for *spec_queries* in one pass.

        The serving layer's offline ``warm()`` phase funnels through
        here (the online batch path does not: it fetches each
        specialization in :meth:`build_task`, once its candidates are
        known): engine lookups for specializations missing from the
        cache are batched (deduplicated) so queries sharing intents pay
        for each artifact once, and a partial entry is completed on the
        list it holds.  Every specialization ends with a whole artifact.
        Returns the number of specializations fetched or completed.
        """
        with self.engine.pinned() as snapshot:
            epoch = snapshot.epoch
            held = {
                q: _held(self._spec_cache.peek(q), epoch)
                for q in dict.fromkeys(spec_queries)
            }
            missing = [q for q, cached in held.items() if not _serves(cached, epoch)]
            unlisted = [q for q in missing if held[q] is None or held[q][1] is None]
            fetched = self.engine.search_batch(unlisted, self.config.spec_results)
            for spec_query in missing:
                cached = held[spec_query]
                results = fetched[spec_query] if spec_query in fetched else cached[1]
                self._complete(spec_query, epoch, results, cached)
        return len(missing)

    def invalidate_affected(self, delta) -> int:
        """Carry the warm state over the epoch *delta* published, by
        :func:`~repro.core.cache.sweep_tagged`'s tag rule; no lock is
        needed, since a read reuses an entry only at its tag's epoch.

        What a spec entry tagged ``delta.base`` keeps: a batch that
        changes the document count or token total changes ``N`` and
        ``avg_dl``, hence *every* cached score — every list drops.  A
        stats-preserving swap leaves a list byte-valid iff its
        specialization's terms are disjoint from the changed documents'
        terms (df/cf untouched) **and** none of the changed documents
        appear in its results (survivors keep their relative seq order,
        so tie-breaks hold).  A surrogate vector reads the query and its
        document's forward row, which no epoch moves unless it changed
        that document: a dropped list leaves its unchanged documents'
        vectors behind as a retained-vectors entry (``results``
        ``None``), and the next fetch vectorises only what that lacks.
        A candidate-vector entry likewise loses the changed doc_ids'
        vectors.  An entry left with no vector goes.  ``delta=None`` (an
        unknown change) drops everything.  Returns the number of result
        lists dropped.
        """
        if delta is None:
            dropped = sum(e[1] is not None for _, e in self._spec_cache.snapshot())
            self._spec_cache.clear()
            self._candidate_vectors.clear()
            return dropped
        changed_terms = delta.terms
        changed_ids = delta.changed_ids
        analyze = self.engine.analyzer.analyze
        dropped = 0

        def spec_entry(spec_query: str, entry: tuple) -> tuple | None:
            nonlocal dropped
            _, results, vectors = entry
            stale = not changed_ids.isdisjoint(vectors)
            if results is not None and not stale:
                stale = (
                    delta.stats_changed
                    or not changed_ids.isdisjoint(results.doc_ids)
                    or not changed_terms.isdisjoint(analyze(spec_query))
                )
            if not stale:
                return results, vectors
            dropped += results is not None
            kept = _unchanged(vectors, changed_ids)
            return (None, kept) if kept else None

        def candidate_entry(query: str, entry: tuple) -> tuple | None:
            kept = _unchanged(entry[1], changed_ids)
            return (kept,) if kept else None

        sweep_tagged(self._spec_cache, delta, spec_entry)
        sweep_tagged(self._candidate_vectors, delta, candidate_entry)
        return dropped

    def cache_info(self) -> CacheStats:
        """Hit/miss/eviction counters of the specialization cache."""
        return self._spec_cache.stats()

    def export_warm_state(self) -> dict:
        """Snapshot of the warm artifacts, LRU-oldest first.

        Returns ``{spec_query: (ResultList, {doc_id: TermVector})}`` with
        a vector for every result — exactly what the offline phase
        computes — for the entries of the epoch the export is pinned to.
        A partial entry (one a direct query left without the vectors its
        candidates shadowed) is completed and kept completed, in its
        place in the recency order; retained-vectors entries are not
        artifacts and are left out.  The cache counters are untouched.
        The snapshot is what the index store's ``warm_artifacts`` rows
        persist, so a restarted (or freshly forked) worker can hydrate
        instead of re-deriving the offline phase.
        """
        exported = {}
        with self.engine.pinned() as snapshot:
            epoch = snapshot.epoch
            for spec_query, cached in self._spec_cache.snapshot():
                if _held(cached, epoch) is None or cached[1] is None:
                    continue
                if not _serves(cached, epoch):
                    cached = self._complete(spec_query, epoch, cached[1], cached)
                exported[spec_query] = cached[1:]
        return exported

    def warm_memory_estimate(self) -> dict[str, int]:
        """Estimated resident bytes of the spec cache — artifacts and
        retained vectors alike — and of the queries' retained candidate
        vectors, which count as vectors only (:func:`_estimate_warm_memory`)."""
        return _estimate_warm_memory(
            self._spec_cache.snapshot(),
            (vectors for _, (_, vectors) in self._candidate_vectors.snapshot()),
        )

    def install_warm_state(self, artifacts) -> int:
        """Load previously exported warm artifacts into the cache.

        Each is tagged with the published epoch (``append_epoch``
        deletes the ``warm_artifacts`` rows an epoch stales).  Whole
        entries already present at that epoch are left untouched (their
        recency and the counters are not distorted); any other entry is
        replaced.  Returns how many artifacts were installed.  The
        inverse of :meth:`export_warm_state`.

        The cache stays bounded: installing more artifacts than
        ``spec_cache_size`` evicts the earliest-installed ones, exactly
        as serving them would.  Size the cache to the saved artifact
        count (an export never exceeds the donor's bound) when the
        "re-warm fetches nothing" guarantee must hold in full.
        """
        epoch = self.engine.epoch
        installed = 0
        for spec_query, (results, vectors) in dict(artifacts).items():
            if not _serves(self._spec_cache.peek(spec_query), epoch):
                put_tagged(self._spec_cache, spec_query, (epoch, results, vectors))
                installed += 1
        return installed

    def _candidate_surrogates(
        self, query: str, candidates: ResultList, epoch: int
    ) -> dict[str, TermVector]:
        """The q-biased surrogate vectors of *candidates*, in their order.

        A surrogate reads the query and its document's text, never N or
        avg_dl, so an epoch that did not change a document leaves its
        vector valid.  The query's entry in the candidate-vector store
        holds the vectors of its last candidate list; a read pinned to
        *epoch* reuses them only when the entry is tagged *epoch* (the
        sweep re-tags what it keeps), vectorises the rest, and replaces
        the entry.  The store's own counters are read by nothing.
        """
        held = _held(
            self._candidate_vectors.lookup(query, lambda e: e[0] == epoch), epoch
        )
        kept = held[1] if held is not None else {}
        missing = [r for r in candidates if r.doc_id not in kept]
        fresh = self.engine.snippet_vectors(query, missing) if missing else {}
        own = fresh if not kept else {
            d: kept[d] if d in kept else fresh[d] for d in candidates.doc_ids
        }
        put_tagged(self._candidate_vectors, query, (epoch, own))
        return own

    def build_task(
        self, query: str, specializations: SpecializationSet
    ) -> DiversificationTask | None:
        """Steps (b)+(c) inputs: retrieve, vectorise and score utilities.

        Runs pinned to one engine snapshot.  The candidates' q-biased
        surrogate vectors come from :meth:`_candidate_surrogates`, which
        vectorises only those this query's retained entry lacks; the
        R_q' lists come from the spec cache (:meth:`_spec_results`),
        which skips the results these candidates shadow.
        """
        with self.engine.pinned() as snapshot:
            epoch = snapshot.epoch
            candidates = self.engine.search(query, self.config.candidates)
            if not len(candidates):
                return None
            own = self._candidate_surrogates(query, candidates, epoch)
            vectors = dict(own)
            spec_results: dict[str, ResultList] = {}
            for spec_query, _p in specializations:
                results, spec_vectors = self._spec_results(spec_query, epoch, own)
                spec_results[spec_query] = results
                for doc_id, vector in spec_vectors.items():
                    vectors.setdefault(doc_id, vector)
        matrix = UtilityMatrix.build(
            candidates,
            spec_results,
            vectors,
            threshold=self.config.threshold,
        )
        task = DiversificationTask.create(
            query=query,
            candidates=candidates,
            specializations=specializations,
            utilities=matrix,
            lambda_=self.config.lambda_,
            relevance_method=self.config.relevance_method,
        )
        task.vectors = vectors
        return task

    # -- main entry point -----------------------------------------------------------

    def diversify_query(self, query: str) -> DiversifiedResult:
        """Run the full pipeline for one query.

        Unambiguous queries (Algorithm 1 returns ∅) get the plain baseline
        top-k — the paper only diversifies when detection triggers.
        """
        return self.diversify_detected(query, self.detect(query))

    def diversify_detected(
        self, query: str, specializations: SpecializationSet
    ) -> DiversifiedResult:
        """Steps (b)+(c) for a query whose detection already ran.

        The serving layer batches step (a) across many queries and then
        ranks each one through here, so detection is never run twice for
        the same query in a batch.  The whole pass runs pinned to one
        engine snapshot, so a concurrent epoch publish cannot leave the
        result straddling two collections.
        """
        with self.engine.pinned():
            return self._diversify_pinned(query, specializations)

    def _diversify_pinned(
        self, query: str, specializations: SpecializationSet
    ) -> DiversifiedResult:
        if not specializations:
            baseline = self.engine.search(query, self.config.k)
            return DiversifiedResult(
                query=query,
                ranking=baseline.doc_ids,
                diversified=False,
                baseline=baseline,
                specializations=specializations,
            )
        task = self.build_task(query, specializations)
        if task is None:
            return DiversifiedResult(
                query=query,
                ranking=[],
                diversified=False,
                baseline=ResultList(query, []),
                specializations=specializations,
            )
        ranking = self.diversifier.diversify(task, self.config.k)
        return DiversifiedResult(
            query=query,
            ranking=ranking,
            diversified=True,
            baseline=task.candidates,
            specializations=specializations,
            algorithm=self.diversifier.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiversificationFramework(diversifier={self.diversifier.name}, "
            f"k={self.config.k})"
        )
