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
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.ambiguity import SpecializationSet
from repro.core.base import Diversifier
from repro.core.cache import CacheStats, LRUCache
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


def _whole(cached: tuple | None) -> bool:
    """Whether a spec-cache entry is a whole artifact — not absent and
    not a retained-vectors entry (``results`` ``None``)."""
    return cached is not None and cached[0] is not None


#: Estimated bytes of one boxed CPython float (64-bit build).
_FLOAT_BYTES = 24


def _estimate_warm_memory(
    artifacts: Mapping[str, tuple[ResultList, Mapping[str, TermVector]]],
) -> dict[str, int]:
    """Estimated resident bytes of warm artifacts, plus their counts.

    *artifacts* is ``{spec_query: (ResultList, {doc_id: TermVector})}``
    as :meth:`~repro.core.framework.DiversificationFramework.export_warm_state`
    returns it, or ``(spec_query, entry)`` pairs; an entry whose
    ``ResultList`` is ``None`` (retained vectors) prices its vectors
    only.  Sums ``sys.getsizeof`` of the real strings/dicts plus flat per-element
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
    for spec_query, (results, vectors) in dict(artifacts).items():
        specializations += 1
        results = results or ()  # None: a retained-vectors entry
        results_count += len(results)
        result_bytes += sys.getsizeof(spec_query)
        for result in results:
            # SearchResult object + its doc_id string + score float.
            result_bytes += 64 + sys.getsizeof(result.doc_id) + _FLOAT_BYTES
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
        paper's compute-once argument for the hot specializations.
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
        # and served from a bounded LRU (spec_query → (ResultList,
        # {doc_id → TermVector})).
        self._spec_cache: LRUCache[str, tuple[ResultList, dict]] = LRUCache(
            spec_cache_size
        )

    # -- pipeline pieces ---------------------------------------------------------

    def detect(self, query: str) -> SpecializationSet:
        """Step (a): Algorithm 1 via the configured detector."""
        return self.detector.mine(query)

    def _cache_spec(
        self, spec_query: str, cached: tuple, held: tuple | None
    ) -> None:
        """Insert a freshly computed artifact unless its epoch is gone.

        A query pinned to epoch N may finish computing an artifact after
        N+1 published and the serving layer already swept the stale
        entries; inserting then would resurrect epoch-N data.  The check
        and the put happen under the engine's epoch lock — the same lock
        a publish and :meth:`invalidate_affected` hold — so either the
        insert lands before the publish (and the sweep sees it) or the
        epoch comparison fails and the artifact is discarded.  An
        artifact completed from a retained-vectors entry (*held*) is
        discarded too if a sweep replaced that entry meanwhile: the
        vectors it reused may belong to a document the sweep's epoch
        changed.
        """
        engine = self.engine
        computed_at = engine._pinned_snapshot().epoch
        with engine._epoch_lock:
            if engine.epoch != computed_at:
                return
            if held is not None and self._spec_cache.peek(spec_query) is not held:
                return
            self._spec_cache.put(spec_query, cached)

    def _complete(
        self, spec_query: str, results: ResultList, held: tuple | None
    ) -> tuple[ResultList, dict]:
        """``(R_q', its surrogate vectors)``, cached by :meth:`_cache_spec`.

        *held* is what the cache held for *spec_query* — nothing, or a
        retained-vectors entry — and only the results it has no vector
        for are vectorised.
        """
        kept = held[1] if held is not None else {}
        missing = [r for r in results if r.doc_id not in kept]
        fresh = self.engine.snippet_vectors(spec_query, missing) if missing else {}
        artifact = results, {
            d: kept[d] if d in kept else fresh[d] for d in results.doc_ids
        }
        self._cache_spec(spec_query, artifact, held)
        return artifact

    def _spec_results(self, spec_query: str) -> tuple[ResultList, dict]:
        """Step (b): the cached small list R_q' and its snippet vectors."""
        cached = self._spec_cache.lookup(spec_query, _whole)
        if _whole(cached):
            return cached
        results = self.engine.search(spec_query, self.config.spec_results)
        return self._complete(spec_query, results, cached)

    def prefetch_specializations(self, spec_queries) -> int:
        """Warm the specialization cache for *spec_queries* in one pass.

        The serving layer's offline ``warm()`` phase and the batch path
        both funnel through here: engine lookups for specializations
        missing from the cache are batched (deduplicated) so a batch of
        queries sharing intents pays for each artifact once.  Returns the
        number of specializations actually fetched.
        """
        held = {q: self._spec_cache.peek(q) for q in dict.fromkeys(spec_queries)}
        missing = [q for q, cached in held.items() if not _whole(cached)]
        if not missing:
            return 0
        with self.engine.pinned():
            fetched = self.engine.search_batch(
                missing, self.config.spec_results
            )
            for spec_query in missing:
                self._complete(spec_query, fetched[spec_query], held[spec_query])
        return len(missing)

    def invalidate_affected(self, delta) -> int:
        """Drop exactly the warm state an epoch's delta stales.

        The soundness rule for a result list: a batch that changes the
        collection's document count or token total changes ``N`` and
        ``avg_dl`` and therefore *every* cached score — every list
        drops.  A stats-preserving swap leaves a list byte-valid iff its
        specialization's terms are disjoint from the changed documents'
        terms (df/cf untouched) **and** none of the changed documents
        appear in its results (relative seq order of survivors is
        preserved, so tie-breaks hold).

        A surrogate vector is derived from the specialization query and
        its document's forward row, neither of which an epoch moves
        unless it changed that document.  So a dropped list leaves its
        unchanged documents' vectors behind, as a retained-vectors entry
        (``results`` ``None``) in the same bounded cache; the next fetch
        of that specialization re-searches and vectorises only the
        documents it holds no vector for.  An entry left with no vector
        goes.  ``delta=None`` (an unknown change) drops everything.

        Runs under the engine's epoch lock, like :meth:`_cache_spec`.
        Returns the number of result lists dropped.
        """
        with self.engine._epoch_lock:
            if delta is None:
                dropped = sum(_whole(c) for _, c in self._spec_cache.snapshot())
                self._spec_cache.clear()
                return dropped
            changed_terms = delta.terms
            changed_ids = delta.changed_ids
            if not (delta.stats_changed or changed_terms or changed_ids):
                return 0
            analyzer = self.engine.analyzer
            dropped = 0
            for spec_query, (results, vectors) in self._spec_cache.snapshot():
                stale = not changed_ids.isdisjoint(vectors)
                if results is not None and not stale:
                    stale = (
                        delta.stats_changed
                        or not changed_ids.isdisjoint(results.doc_ids)
                        or not changed_terms.isdisjoint(analyzer.analyze(spec_query))
                    )
                if not stale:
                    continue
                dropped += results is not None
                kept = {
                    doc_id: vector
                    for doc_id, vector in vectors.items()
                    if doc_id not in changed_ids
                }
                if kept:
                    self._spec_cache.put(spec_query, (None, kept))
                else:
                    self._spec_cache.delete(spec_query)
            return dropped

    def cache_info(self) -> CacheStats:
        """Hit/miss/eviction counters of the specialization cache."""
        return self._spec_cache.stats()

    def export_warm_state(self) -> dict:
        """Snapshot of the warm artifacts, LRU-oldest first.

        Returns ``{spec_query: (ResultList, {doc_id: TermVector})}`` —
        exactly what the offline phase computed; retained-vectors
        entries (see :meth:`invalidate_affected`) are not artifacts and
        are left out.  The snapshot is a pure probe (cache counters
        untouched) and is what the index store's ``warm_artifacts`` rows
        persist, so a restarted (or freshly forked) worker can hydrate
        instead of re-deriving the offline phase.
        """
        return {
            spec_query: cached
            for spec_query, cached in self._spec_cache.snapshot()
            if _whole(cached)
        }

    def warm_memory_estimate(self) -> dict[str, int]:
        """Estimated resident bytes of the spec cache — artifacts and
        retained vectors alike (:func:`_estimate_warm_memory`)."""
        return _estimate_warm_memory(self._spec_cache.snapshot())

    def install_warm_state(self, artifacts) -> int:
        """Load previously exported warm artifacts into the cache.

        Entries already present are left untouched (their recency and
        the counters are not distorted); returns how many artifacts were
        actually installed.  The inverse of :meth:`export_warm_state`.

        The cache stays bounded: installing more artifacts than
        ``spec_cache_size`` evicts the earliest-installed ones, exactly
        as serving them would.  Size the cache to the saved artifact
        count (an export never exceeds the donor's bound) when the
        "re-warm fetches nothing" guarantee must hold in full.
        """
        installed = 0
        for spec_query, cached in dict(artifacts).items():
            if not _whole(self._spec_cache.peek(spec_query)):
                self._spec_cache.put(spec_query, tuple(cached))
                installed += 1
        return installed

    def build_task(
        self, query: str, specializations: SpecializationSet
    ) -> DiversificationTask | None:
        """Steps (b)+(c) inputs: retrieve, vectorise and score utilities."""
        candidates = self.engine.search(query, self.config.candidates)
        if not len(candidates):
            return None
        vectors = dict(self.engine.snippet_vectors(query, candidates))
        spec_results: dict[str, ResultList] = {}
        for spec_query, _p in specializations:
            results, spec_vectors = self._spec_results(spec_query)
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
