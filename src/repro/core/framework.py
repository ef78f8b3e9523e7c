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

The spec cache holds each list tagged with the epoch it was searched
at, reused only by a read pinned to that epoch;
:meth:`DiversificationFramework.drop_before` frees the lists a publish
left behind.  The surrogate vectors behind Eq. 1 live in a second
bounded LRU, one memo keyed by ``(query, seq)``: a surrogate reads the
query and one document version's text, never N or avg_dl, and a
sequence number names one version for good, so an entry is never stale
and no epoch drops it.  A third, the utility memo, keeps each ``(query,
spec_query)`` pair's centroid and cells under the seqs they read, and so
is never stale either (:meth:`DiversificationFramework.build_task`).
"""

from __future__ import annotations

import sys
from collections.abc import Container, Iterable
from dataclasses import dataclass, field

from repro.core.ambiguity import SpecializationSet
from repro.core.base import Diversifier
from repro.core.cache import CacheStats, LRUCache, put_tagged
from repro.core.iaselect import IASelect
from repro.core.mmr import MMR
from repro.core.optselect import OptSelect
from repro.core.task import DiversificationTask
from repro.core.utility import UtilityMatrix, UtilityMemo
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


#: Estimated bytes of one boxed CPython float (64-bit build).
_FLOAT_BYTES = 24
#: Estimated bytes of one int above the small-int cache, plus its list slot.
_SEQ_BYTES = 36
#: A TermVector object: two slots plus the GC header.
_VECTOR_BYTES = 48


def _estimate_warm_memory(
    spec_entries: Iterable[tuple[str, tuple]],
    vectors: Iterable[TermVector],
    utilities: Iterable[tuple],
) -> dict[str, int]:
    """Estimated resident bytes of warm artifacts, plus their counts.

    *spec_entries* are the spec cache's ``(spec_query, (epoch,
    ResultList))`` pairs, *vectors* the surrogate memo's values and
    *utilities* the utility memo's ``(key, centroid, cells)`` entries.  Sums
    ``sys.getsizeof`` of the real strings/dicts plus flat per-element
    prices for boxed floats and ints — the same estimation discipline as
    :meth:`~repro.retrieval.index.InvertedIndex.memory_estimate`, so the
    offline pipeline's per-partition index footprints and per-shard warm
    footprints are directly comparable.  A vector is priced once however
    many keys share it, as its object, dict and floats: its term strings
    are the forward index's (as in
    :meth:`~repro.retrieval.snippets.ForwardRow.memory_bytes`).  A
    utility entry is priced as its tuples (the key's origins included),
    its centroid's dict and floats, and its cells' dict and floats: the
    centroid's terms are the forward index's, and the origins' queries
    and seqs the spec lists' and candidates'.  Returns
    ``{"specializations", "results", "vectors", "utilities",
    "result_bytes", "vector_bytes", "utility_bytes", "total_bytes"}``,
    ``vectors`` counting distinct ones.
    """
    specializations = 0
    results_count = 0
    result_bytes = 0
    for spec_query, (_, results) in spec_entries:
        specializations += 1
        results_count += len(results)
        result_bytes += sys.getsizeof(spec_query)
        for result in results:
            # SearchResult object + its doc_id string + score float + seq.
            result_bytes += (
                64 + sys.getsizeof(result.doc_id) + _FLOAT_BYTES + _SEQ_BYTES
            )
    distinct = {id(vector): vector for vector in vectors}.values()
    vector_bytes = sum(
        _VECTOR_BYTES + sys.getsizeof(v.weights) + _FLOAT_BYTES * len(v.weights)
        for v in distinct
    )
    entries = 0
    utility_bytes = 0
    for entry in utilities:
        key, centroid, cells = entry
        entries += 1
        utility_bytes += (
            sys.getsizeof(entry)
            + sys.getsizeof(key)
            + sum(sys.getsizeof(origin) for origin in key)
            + sys.getsizeof(centroid)
            + _FLOAT_BYTES * len(centroid)
            + sys.getsizeof(cells)
            + _FLOAT_BYTES * len(cells)
        )
    return {
        "specializations": specializations,
        "results": results_count,
        "vectors": len(distinct),
        "utilities": entries,
        "result_bytes": result_bytes,
        "vector_bytes": vector_bytes,
        "utility_bytes": utility_bytes,
        "total_bytes": result_bytes + vector_bytes + utility_bytes,
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
        Bound on the specialization cache (one result list per mined
        specialization).  The seed kept these in unbounded dicts; a
        bounded LRU keeps the online memory footprint constant under
        heavy traffic while still realising the paper's compute-once
        argument for the hot specializations.  It also bounds the
        surrogate memo, to ``2 * spec_cache_size * spec_results``
        vectors: those of as many specialization lists, and as many
        again for the queries' own candidates.  The utility memo holds
        as many ``(query, spec_query)`` entries.
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
        # lists, searched once per specialization and served from a
        # bounded LRU (spec_query → (epoch, ResultList)) under the tag rule.
        self._spec_cache: LRUCache[str, tuple[int, ResultList]]
        self._spec_cache = LRUCache(spec_cache_size)
        # Every surrogate vector, R_q's and R_q''s alike: (query, seq) →
        # TermVector.  The engine never reissues a seq, so an entry is
        # true at every epoch; nothing sweeps it and eviction is its only
        # way out.
        self._surrogates: LRUCache[tuple[str, int], TermVector]
        self._surrogates = LRUCache(
            2 * spec_cache_size * self.config.spec_results
        )
        # Eq. (1) per (query, spec_query): (list key, centroid, {candidate
        # seq: raw Ũ}), keyed by surrogate-memo keys, so equally never
        # stale (repro.core.utility.UtilityMemo).
        self._utilities: LRUCache[tuple[str, str], tuple]
        self._utilities = LRUCache(spec_cache_size)

    # -- pipeline pieces ---------------------------------------------------------

    def detect(self, query: str) -> SpecializationSet:
        """Step (a): Algorithm 1 via the configured detector."""
        return self.detector.mine(query)

    def _vectors(
        self,
        query: str,
        results: ResultList,
        shadowed: Container[str] = (),
        origins: dict | None = None,
    ) -> dict[str, TermVector]:
        """The *query*-biased surrogate vectors of *results* outside
        *shadowed*, in rank order: each from the memo when its ``(query,
        seq)`` was built before, else vectorised in one engine call at the
        pinned snapshot and memoised — unless the engine built it from
        another version than *seq* names, which is used but not kept.
        Each vector's memo key, or ``None`` for one not kept, is
        ``setdefault`` into *origins* (:class:`UtilityMemo`)."""
        if len(results.seqs) != len(results):
            raise ValueError(f"result list for {results.query!r} carries no seqs")
        if origins is None:
            origins = {}
        memo = self._surrogates
        vectors: dict[str, TermVector] = {}
        missing = []
        for result, seq in zip(results, results.seqs):
            if result.doc_id in shadowed:
                continue
            key = (query, seq)
            vector = vectors[result.doc_id] = memo.get(key)
            if vector is None:
                missing.append((result, key))
            else:
                origins.setdefault(result.doc_id, key)
        if missing:
            built = self.engine.versioned_vectors(query, [r for r, _ in missing])
            for result, key in missing:
                version, vector = built[result.doc_id]
                vectors[result.doc_id] = vector
                if version == key[1]:
                    memo.put(key, vector)
                else:
                    key = None
                origins.setdefault(result.doc_id, key)
        return vectors

    def _memoised(self, spec_query: str, results: ResultList) -> bool:
        """Whether the memo holds a vector for every result: the list is
        a whole artifact."""
        return all((spec_query, seq) in self._surrogates for seq in results.seqs)

    def _held(self, spec_query: str, epoch: int) -> ResultList | None:
        """The list the spec cache holds for *spec_query* tagged *epoch*,
        if any; a probe, so counters and recency are untouched."""
        cached = self._spec_cache.peek(spec_query)
        return cached[1] if cached is not None and cached[0] == epoch else None

    def _spec_results(self, spec_query: str, epoch: int) -> ResultList:
        """Step (b): the cached small list R_q' for a read pinned to
        *epoch*; a lookup is a hit when the cache holds the list tagged
        *epoch*, and a miss searches and puts it."""
        cached = self._spec_cache.lookup(spec_query, lambda e: e[0] == epoch)
        if cached is not None:
            return cached[1]
        results = self.engine.search(spec_query, self.config.spec_results)
        put_tagged(self._spec_cache, spec_query, (epoch, results))
        return results

    def prefetch_specializations(self, spec_queries) -> int:
        """Warm the specialization cache for *spec_queries* in one pass.

        The serving layer's offline ``warm()`` phase funnels through
        here (the online batch path does not: it fetches each
        specialization in :meth:`build_task`, once its candidates are
        known): engine lookups for specializations missing from the
        cache are batched (deduplicated) so queries sharing intents pay
        for each artifact once, and every result of every list gets its
        vector in the memo — a whole artifact.  Returns the number of
        specializations searched or completed.
        """
        with self.engine.pinned() as snapshot:
            epoch = snapshot.epoch
            lists = {q: self._held(q, epoch) for q in dict.fromkeys(spec_queries)}
            fetched = self.engine.search_batch(
                [q for q, results in lists.items() if results is None],
                self.config.spec_results,
            )
            for spec_query, results in fetched.items():
                put_tagged(self._spec_cache, spec_query, (epoch, results))
                lists[spec_query] = results
            incomplete = [
                q
                for q, results in lists.items()
                if q in fetched or not self._memoised(q, results)
            ]
            for spec_query in incomplete:
                self._vectors(spec_query, lists[spec_query])
        return len(incomplete)

    def drop_before(self, epoch: int) -> int:
        """Drop every spec list tagged before the published *epoch*, and
        return how many: one rule for every ingest, since almost every
        batch moves ``N`` or ``avg_dl`` and with them every cached score.
        The drop only frees memory: a read reuses a list only at its
        tag's epoch.  The surrogate memo is left alone, since a changed
        document is a new seq."""
        return self._spec_cache.discard(lambda entry: entry[0] < epoch)

    def cache_info(self) -> CacheStats:
        """Hit/miss/eviction counters of the specialization cache."""
        return self._spec_cache.stats()

    def export_warm_state(self) -> dict:
        """Snapshot of the warm artifacts, LRU-oldest first.

        Returns ``{spec_query: (ResultList, {doc_id: TermVector})}`` with
        a vector for every result — exactly what the offline phase
        computes — for the lists of the epoch the export is pinned to;
        a vector the memo lacks (one a direct query's candidates
        shadowed) is built and memoised.  The spec cache's counters and
        recency order are untouched.  The snapshot is what the index
        store's ``warm_artifacts`` rows persist, so a restarted (or
        freshly forked) worker can hydrate instead of re-deriving the
        offline phase.
        """
        exported = {}
        with self.engine.pinned() as snapshot:
            for spec_query, (tag, results) in self._spec_cache.snapshot():
                if tag == snapshot.epoch:
                    exported[spec_query] = (
                        results,
                        self._vectors(spec_query, results),
                    )
        return exported

    def warm_memory_estimate(self) -> dict[str, int]:
        """Estimated resident bytes of the spec cache's lists, of the
        surrogate memo's distinct vectors and of the utility memo's
        centroids and cells (:func:`_estimate_warm_memory`)."""
        return _estimate_warm_memory(
            self._spec_cache.snapshot(),
            (vector for _, vector in self._surrogates.snapshot()),
            (entry for _, entry in self._utilities.snapshot()),
        )

    def install_warm_state(self, artifacts) -> int:
        """Load previously exported warm artifacts into the caches.

        Each list is tagged with the published epoch (``append_epoch``
        deletes the ``warm_artifacts`` rows an epoch stales) and its
        vectors are memoised under the seqs it carries, the ones the
        exporting search returned.  A whole artifact already present at
        that epoch is left untouched (its recency and the counters are
        not distorted); any other list is replaced.  Returns how many
        artifacts were installed.  The inverse of
        :meth:`export_warm_state`.

        The cache stays bounded: installing more artifacts than
        ``spec_cache_size`` evicts the earliest-installed ones, exactly
        as serving them would.  Size the cache to the saved artifact
        count (an export never exceeds the donor's bound) when the
        "re-warm fetches nothing" guarantee must hold in full.
        """
        installed = 0
        with self.engine.pinned() as snapshot:
            epoch = snapshot.epoch
            for spec_query, (results, vectors) in dict(artifacts).items():
                held = self._held(spec_query, epoch)
                if held is not None and self._memoised(spec_query, held):
                    continue
                put_tagged(self._spec_cache, spec_query, (epoch, results))
                for doc_id, seq in zip(results.doc_ids, results.seqs):
                    self._surrogates.put((spec_query, seq), vectors[doc_id])
                installed += 1
        return installed

    def build_task(
        self, query: str, specializations: SpecializationSet
    ) -> DiversificationTask | None:
        """Steps (b)+(c) inputs: retrieve, vectorise and score utilities.

        Runs pinned to one engine snapshot.  The candidates get their
        q-biased surrogate vectors and each R_q' (from the spec cache,
        :meth:`_spec_results`) the q'-biased vectors of its results
        outside R_q: a candidate's own vector shadows any other in the
        merge, so none is built for it.  Every vector comes from the memo
        when its ``(query, seq)`` was built before (:meth:`_vectors`), so
        a repeated read after an epoch vectorises only the documents the
        epoch added or rewrote.  ``task.vectors`` holds the candidates in
        rank order, then each specialization's other results in rank
        order.  Likewise each ``(query, spec_query)`` pair's centroid and
        cells come from the utility memo while the memo keys of what they
        read are unchanged (:class:`~repro.core.utility.UtilityMemo`), so
        that read also dots only the candidates the epoch added or
        rewrote, and sums only the centroids of lists it changed.
        """
        origins: dict[str, tuple[str, int] | None] = {}
        with self.engine.pinned() as snapshot:
            epoch = snapshot.epoch
            candidates = self.engine.search(query, self.config.candidates)
            if not len(candidates):
                return None
            own = self._vectors(query, candidates, origins=origins)
            vectors = dict(own)
            spec_results: dict[str, ResultList] = {}
            for spec_query, _p in specializations:
                results = self._spec_results(spec_query, epoch)
                spec_results[spec_query] = results
                spec_vectors = self._vectors(spec_query, results, own, origins)
                for doc_id, vector in spec_vectors.items():
                    vectors.setdefault(doc_id, vector)
        matrix = UtilityMatrix.build(
            candidates,
            spec_results,
            vectors,
            threshold=self.config.threshold,
            memo=UtilityMemo(self._utilities, query, origins),
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
