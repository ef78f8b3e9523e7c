"""Sharded serving layer: hash-routed shards of the diversification service.

One :class:`~repro.serving.service.DiversificationService` bounds the
paper's online phase to a single worker.  This module grows it
horizontally the way the partitioned-storage designs in PAPERS.md grow
theirs: state is partitioned with deterministic placement, and the
per-partition summaries merge back losslessly.

:class:`ShardedDiversificationService` owns N shard services.  Queries
route by :func:`~repro.retrieval.engine.stable_shard` — the same
seeded, process-stable hash the retrieval layer uses to place documents
— so a given query *always* lands on the same shard, and each shard's
specialization cache, detection cache and result LRU hold exactly its
partition of the query space.  The offline phase (``warm``) and the
online phase (``diversify_batch``) fan out per-shard over a pluggable
:class:`~repro.serving.backends.ExecutionBackend` — an ordered inline
sweep, a thread pool, or OS worker processes (R replicas per shard,
one by default) — and merge:

* results re-assemble in request order (routing is per-query, the batch
  contract is unchanged);
* :class:`~repro.serving.service.ServiceStats` /
  :class:`~repro.core.cache.CacheStats` /
  :class:`~repro.serving.service.WarmReport` roll up through their
  ``merge`` classmethods into cluster-level summaries that keep the
  per-shard breakdown — every shard contributes an entry, including
  shards that served zero queries.

Because every shard runs the same framework over the same corpus (the
index itself may be document-partitioned via
``num_partitions`` of :class:`~repro.retrieval.engine.SearchEngine`,
which is ranking-identical), the cluster serves **exactly** the rankings the
unsharded service serves — under *any* backend — asserted by the test
suite (``tests/serving/test_sharded.py``, ``test_backends.py``).
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from collections.abc import Callable, Iterable, Sequence

from repro.core.cache import CacheStats
from repro.core.framework import DiversificationFramework, DiversifiedResult
from repro.retrieval.engine import stable_shard
from repro.serving.backends import ExecutionBackend, WorkerDiedError, make_backend
from repro.serving.service import (
    PAGE_FIELDS,
    DiversificationService,
    PreparedQuery,
    ServiceStats,
    WarmReport,
)

__all__ = ["ShardedDiversificationService", "ShardServiceFactory"]

#: The per-replica-slot counters only the routing layer sees.
_ROUTING_COUNTERS = ("hedges_fired", "hedges_won", "respawns", "failovers")


@dataclasses.dataclass(frozen=True)
class ShardServiceFactory:
    """Build one shard's :class:`DiversificationService` from a framework
    factory — the per-process construction protocol.

    An instance travels to wherever the execution backend places the
    shard: in-process backends just call it; a
    :class:`~repro.serving.replication.ProcessBackend` worker calls it
    after fork (or unpickles it first, under spawn — then
    ``framework_factory`` itself must pickle).  A shard whose engine is
    attached to an index store hydrates its warm artifacts from that
    store's ``warm_artifacts`` rows as it is built, so process workers
    and respawned replicas cold-start at the store's current epoch
    without re-deriving the offline phase.
    """

    framework_factory: Callable[[int], DiversificationFramework]
    result_cache_size: int = 2048

    def __call__(self, shard: int) -> DiversificationService:
        service = DiversificationService(
            self.framework_factory(shard),
            result_cache_size=self.result_cache_size,
            name=f"shard{shard}",
        )
        store_path = service.framework.engine.store_path
        if store_path is not None:
            service.load_warm_store(store_path, shard)
        return service


class ShardedDiversificationService:
    """N hash-routed :class:`DiversificationService` shards behind one API.

    Parameters
    ----------
    services:
        The shard services, in shard order, when they are built by the
        caller (the in-process path).  Shards without a ``name`` are
        labelled ``shard0 … shardN-1`` so their stats stay attributable
        in merged reports.  Pass ``None`` (and use :meth:`from_factory`)
        for backends that build the services themselves — a
        :class:`~repro.serving.replication.ProcessBackend` constructs each
        shard inside its worker process.
    max_workers:
        Pool width of a :class:`~repro.serving.backends.ThreadBackend`
        built from a name/default; ``None`` resolves to
        ``min(num_shards, os.cpu_count())``.  Refused with
        ``"process"``, which runs one worker per shard replica.
    router_seed:
        Seed of the :func:`~repro.retrieval.engine.stable_shard`
        router.  Must be kept constant for the lifetime of the cluster's
        caches: changing it remaps queries to different shards (cold
        caches), though results stay correct because every shard can
        answer any query.
    backend:
        Where per-shard calls execute: a name (``"inline"``,
        ``"thread"``, ``"process"``), an
        :class:`~repro.serving.backends.ExecutionBackend` instance, or
        ``None`` for the default thread pool.  Rankings are identical
        under every backend; only the parallelism substrate changes.

    >>> cluster = ShardedDiversificationService.from_factory(  # doctest: +SKIP
    ...     lambda shard: DiversificationFramework(engine, miner),
    ...     num_shards=4,
    ...     backend="process",
    ... )
    >>> cluster.warm(expected_queries)                         # doctest: +SKIP
    >>> results = cluster.diversify_batch(traffic)             # doctest: +SKIP
    >>> print(cluster.cluster_stats().summary())               # doctest: +SKIP
    """

    def __init__(
        self,
        services: Sequence[DiversificationService] | None = None,
        max_workers: int | None = None,
        router_seed: int = 0,
        backend: "str | ExecutionBackend | None" = None,
    ) -> None:
        backend = make_backend(backend, max_workers=max_workers)
        if services is not None:
            services = list(services)
            if not services:
                raise ValueError("at least one shard service is required")
            for i, service in enumerate(services):
                if not service.name:
                    service.rename(f"shard{i}")
            if backend.started:
                raise ValueError(
                    "pass either pre-built services or a started backend, "
                    "not both"
                )
            if not hasattr(backend, "adopt"):
                raise ValueError(
                    f"{type(backend).__name__} builds its own services; "
                    "construct the cluster via from_factory()"
                )
            backend.adopt(services)
        elif not backend.started:
            raise ValueError(
                "no services given and the backend is not started; "
                "use from_factory()"
            )
        self._backend = backend
        self.router_seed = router_seed
        self._online_seconds = 0.0

    @classmethod
    def from_factory(
        cls,
        framework_factory: Callable[[int], DiversificationFramework],
        num_shards: int,
        result_cache_size: int = 2048,
        max_workers: int | None = None,
        router_seed: int = 0,
        backend: "str | ExecutionBackend | None" = None,
        replicas: int = 1,
        policy: str = "round-robin",
        hedge_after_ms: float | None = None,
    ) -> "ShardedDiversificationService":
        """Build *num_shards* shards from ``framework_factory(shard_id)``.

        The factory is called once per shard, *wherever the backend
        places that shard* — in this process for ``inline``/``thread``,
        inside a worker process for ``process`` (inherited under fork;
        must pickle under spawn).  Frameworks may share a (read-only)
        engine and detector, or carry per-shard replicas / a partitioned
        :class:`~repro.retrieval.engine.SearchEngine` —
        anything ranking-identical keeps the cluster's identity
        guarantee.  A shard whose engine is a
        :class:`~repro.retrieval.store.StoreBackedSearchEngine` hydrates
        its warm artifacts from that store as it is built
        (:class:`ShardServiceFactory`).

        ``replicas=R`` (with a ``None``/``"process"`` backend spec) runs
        R process workers per shard instead of one, with ``policy``
        routing (``"round-robin"`` or ``"least-outstanding"``) and
        optional hedged requests after ``hedge_after_ms``.  At any R a
        dead worker is respawned and rehydrated — it re-runs the
        factory, so over a store-backed engine it hydrates from the
        store at its current epoch.  Every replica is built by the same
        deterministic factory, so results are byte-identical no matter
        which replica answers.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        backend = make_backend(
            backend,
            max_workers=max_workers,
            replicas=replicas,
            policy=policy,
            hedge_after_ms=hedge_after_ms,
        )
        backend.start(
            ShardServiceFactory(
                framework_factory, result_cache_size=result_cache_size
            ),
            num_shards,
        )
        return cls(backend=backend, router_seed=router_seed)

    # -- routing -----------------------------------------------------------------

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend running the per-shard calls."""
        return self._backend

    @property
    def num_shards(self) -> int:
        return self._backend.num_shards

    @property
    def services(self) -> tuple[DiversificationService, ...]:
        """The shard services, in shard order (read-only view).

        Only available on in-process backends; shards driven by a
        :class:`~repro.serving.replication.ProcessBackend` live in worker
        processes — use :meth:`shard_stats` / :meth:`cluster_stats` /
        the cache-info methods, which fetch snapshots over the boundary.
        """
        local = self._backend.local_services
        if local is None:
            raise RuntimeError(
                "shard services live in worker processes; use shard_stats()"
                " / cluster_stats() / spec_cache_info() for snapshots"
            )
        return local

    def _shard_names(self) -> list[str]:
        local = self._backend.local_services
        if local is not None:
            return [service.name for service in local]
        return [f"shard{i}" for i in range(self.num_shards)]

    def route(self, query: str) -> int:
        """Shard id owning *query* — stable across processes/restarts."""
        return stable_shard(query, self.num_shards, self.router_seed)

    def shard_for(self, query: str) -> DiversificationService:
        """The (in-process) shard service that owns *query*."""
        return self.services[self.route(query)]

    def partition(self, queries: Iterable[str]) -> list[list[str]]:
        """Split *queries* into per-shard buckets, preserving order.

        The hash runs once per *distinct* query — serving batches repeat
        queries heavily (that is what batching is for), so routing cost
        tracks distinct traffic, not raw volume.
        """
        return self._partition_with_routes(queries)[0]

    def _partition_with_routes(
        self, queries: Iterable[str]
    ) -> tuple[list[list[str]], dict[str, int]]:
        """Per-shard buckets plus the ``{query: shard}`` memo behind them."""
        buckets: list[list[str]] = [[] for _ in range(self.num_shards)]
        shard_of: dict[str, int] = {}
        for query in queries:
            shard = shard_of.get(query)
            if shard is None:
                shard = shard_of[query] = self.route(query)
            buckets[shard].append(query)
        return buckets, shard_of

    def close(self) -> None:
        """Release the backend's execution resources (idempotent; with
        in-process backends the cluster stays usable inline afterwards,
        a process backend is shut down for good)."""
        self._backend.close()

    # -- offline phase -----------------------------------------------------------

    def warm(self, queries: Iterable[str]) -> WarmReport:
        """Fan the offline phase out per-shard; return the merged report.

        Each shard warms only the queries it will later serve, so the
        specialization artifacts land exactly where the online path
        reads them.  The merged report's ``shards`` tuple keeps one
        (possibly empty) report per shard, in shard order, and it
        carries *both* clocks, labelled: ``seconds`` is the cluster
        wall-clock measured here around routing + fan-out + merge, and
        ``busy_seconds`` is the summed per-shard busy time — which
        exceeds the wall-clock when shards overlap (thread/process
        backends) and falls short of it under the inline backend, where
        the wall-clock additionally pays for routing and merging.
        Neither number is ever silently substituted for the other.
        """
        start = time.perf_counter()
        buckets = self.partition(queries)
        done = self._backend.invoke_each(
            [
                (shard, "warm", (bucket,))
                for shard, bucket in enumerate(buckets)
                if bucket
            ]
        )
        names = self._shard_names()
        reports = [
            done.get(shard) or WarmReport(0, 0, 0, 0, 0.0, name=names[shard])
            for shard in range(self.num_shards)
        ]
        return dataclasses.replace(
            WarmReport.merge(reports), seconds=time.perf_counter() - start
        )

    def warm_payloads(self) -> dict[int, dict[str, str]]:
        """Every shard's warm artifacts as canonical payload lines.

        ``{shard: {spec_query: payload}}`` — exactly the
        ``warm_payloads`` argument of
        :func:`repro.retrieval.store.write_store`, collected over the
        execution backend (strings travel cheaply across process
        boundaries).  The offline pipeline calls this once after the
        warm pass to bundle the cluster's warm state into the store.
        """
        done = self._backend.broadcast("export_warm_payloads")
        return {shard: done[shard] for shard in range(self.num_shards)}

    def prepare_batch(self, queries: Iterable[str]) -> dict[str, PreparedQuery]:
        """Detection + task construction, fanned out per-shard."""
        buckets = self.partition(queries)
        done = self._backend.invoke_each(
            [
                (shard, "prepare_batch", (bucket,))
                for shard, bucket in enumerate(buckets)
                if bucket
            ]
        )
        merged: dict[str, PreparedQuery] = {}
        for prepared in done.values():
            merged.update(prepared)
        return merged

    # -- online phase ------------------------------------------------------------

    def cached(self, query: str) -> DiversifiedResult | None:
        """The owning shard's result-cache entry for *query*, or ``None``.

        Only in-process shards are probed.  On a process backend a probe
        would cost a pipe round trip, and every miss a second one, so it
        answers ``None`` and the query takes the batched path.
        """
        local = self._backend.local_services
        if local is None:
            return None
        return local[self.route(query)].cached(query)

    def diversify(self, query: str) -> DiversifiedResult:
        """Serve one query on its owning shard."""
        start = time.perf_counter()
        result = self._backend.invoke(self.route(query), "diversify", query)
        self._online_seconds += time.perf_counter() - start
        return result

    def diversify_batch(self, queries: Sequence[str]) -> list[DiversifiedResult]:
        """Serve a batch across the shards; results align with *queries*.

        The batch splits into per-shard sub-batches (duplicates of a
        query always share a shard, so the per-shard dedup equals the
        unsharded dedup), each shard runs its own
        :meth:`DiversificationService.diversify_batch`, and the shard
        outputs zip back together in request order.
        """
        queries = list(queries)
        if not queries:
            return []
        start = time.perf_counter()
        buckets, shard_of = self._partition_with_routes(queries)
        done = self._backend.invoke_each(
            [
                (shard, "diversify_batch", (bucket,))
                for shard, bucket in enumerate(buckets)
                if bucket
            ]
        )
        # Shard outputs align with their buckets, which preserved the
        # request order — walk the request stream again, consuming each
        # owning shard's results in turn.
        cursors = {shard: iter(results) for shard, results in done.items()}
        merged = [next(cursors[shard_of[query]]) for query in queries]
        self._online_seconds += time.perf_counter() - start
        return merged

    # -- live ingest --------------------------------------------------------------

    def ingest(
        self,
        add_documents: Sequence = (),
        remove_doc_ids: Sequence[str] = (),
    ) -> int:
        """Coordinator entry point for one ingest batch.

        Shard 0 appends the batch to the shards' store file exactly once
        (:meth:`DiversificationService.append_to_store`, with its
        engine's analyzer; one replica, never hedged or broadcast); the
        :meth:`apply_updates` broadcast then makes every shard — and
        every replica of every shard — serve the new epoch.  Returns the
        epoch that includes the batch; shards over in-memory engines
        raise :class:`~repro.serving.service.ReadOnlyError` from shard 0
        before anything changes.

        A worker that dies after taking the append may have committed
        it, and its respawn attaches the store at whatever epoch the
        store holds.  So the :class:`~repro.serving.backends.WorkerDiedError`
        is raised only after an empty :meth:`apply_updates` broadcast
        has brought every shard and replica to the store's epoch (a
        refresh that finds nothing new changes nothing).  The batch's
        documents stay out of the ingest document counters, which count
        acknowledged batches.
        """
        adds = list(add_documents)
        removes = list(remove_doc_ids)
        try:
            self._backend.invoke(0, "append_to_store", adds, removes)
        except WorkerDiedError:
            self.apply_updates()
            raise
        return self.apply_updates(adds, removes)

    def apply_updates(
        self,
        add_documents: Sequence = (),
        remove_doc_ids: Sequence[str] = (),
    ) -> int:
        """Serve an (already durable) ingest batch on every shard.

        Each shard refreshes its engine to the store's latest epoch and
        sweeps its caches; the process backend routes this to *every*
        replica (it is in ``REPLICATED_STATE_METHODS``), so no failover
        can time-travel the collection.  Shards that share one engine
        object advance it once — the first refresh publishes the epoch,
        the rest find it current — and each still runs its own sweep.
        Returns the published epoch.
        """
        done = self._backend.broadcast(
            "apply_updates", list(add_documents), list(remove_doc_ids)
        )
        return max(done[shard] for shard in range(self.num_shards))

    def current_epoch(self) -> int:
        """The epoch every shard serves (shards advance in lockstep —
        probe shard 0)."""
        return self._backend.invoke(0, "current_epoch")

    # -- maintenance & cluster summaries -----------------------------------------

    def invalidate(self) -> None:
        """Drop every shard's cached results and detections."""
        self._backend.broadcast("invalidate")

    def shard_stats(self) -> list[ServiceStats]:
        """Per-shard online stats, in shard order.

        In-process shards return their live objects; process-backed
        shards ship snapshots over the boundary.  Every shard appears,
        named ``shard<i>`` — one that served zero queries contributes a
        well-formed zeroed entry.  A process-backed shard's snapshots
        are stamped with their slots' routing counters — hedges,
        respawns, failovers, which a worker cannot see from inside and
        which survive a respawn that resets the serving counters.  With
        R > 1 replicas the entry rolls them up
        (:meth:`ServiceStats.merge_replicas`), each named
        ``shard<i>/r<j>``.
        """
        replication = self._backend.replication_stats()
        entries = []
        for shard in range(self.num_shards):
            # get_stats() (not .stats) so store-backed shards refresh
            # their page-cache counters into the returned objects.
            replica_stats = self._backend.invoke_replicas(shard, "get_stats")
            routing = replication.get(shard)
            if routing is not None:
                replica_stats = [
                    dataclasses.replace(snapshot, **{
                        counter: getattr(routing, counter)[replica]
                        for counter in _ROUTING_COUNTERS
                    })
                    for replica, snapshot in enumerate(replica_stats)
                ]
            if len(replica_stats) == 1:
                entries.extend(replica_stats)
                continue
            for replica, snapshot in enumerate(replica_stats):
                snapshot.name = f"shard{shard}/r{replica}"
            entries.append(
                ServiceStats.merge_replicas(replica_stats, name=f"shard{shard}")
            )
        return entries

    def cluster_stats(self) -> ServiceStats:
        """Merged online stats with *cluster* wall-clock.

        Counters and latency samples merge across shards; ``seconds``
        is the wall-clock this object measured around its fan-outs —
        overlapping shard work is not double-counted, so
        ``throughput_qps`` is the cluster's actual serving rate — while
        ``busy_seconds`` keeps the summed per-shard busy time next to
        it.  The per-shard breakdown (one entry per shard, zero-query
        shards included) is kept in the merged instance's ``shards``
        tuple.  In-process shards that share one engine share its page
        cache, which then counts once; process workers and replicas each
        hold their own engine copy, whose counters sum.
        """
        entries = self.shard_stats()
        merged = ServiceStats.merge(entries)
        merged.seconds = self._online_seconds
        local = self._backend.local_services
        if local is not None:
            engines = {id(s.framework.engine): e for s, e in zip(local, entries)}
            pages = ServiceStats.merge(engines.values())
            for name in PAGE_FIELDS:
                setattr(merged, name, getattr(pages, name))
        return merged

    def get_stats(self) -> ServiceStats:
        """:meth:`cluster_stats` under the name the front-ends read from
        every backend (a single service's :meth:`DiversificationService.get_stats`)."""
        return self.cluster_stats()

    def warm_memory_estimate(self) -> dict[str, int]:
        """Cluster-summed warm-artifact memory estimate.

        Fans :meth:`DiversificationService.warm_memory_estimate` out to
        every shard (snapshots cross the process boundary on a process
        backend) and sums component-wise — the snippet-vector half of
        the offline pipeline's memory accounting, complementing the
        per-partition index footprints in
        :class:`~repro.retrieval.engine.BuildReport`.
        """
        totals: Counter[str] = Counter()
        for estimate in self._backend.broadcast("warm_memory_estimate").values():
            totals.update(estimate)
        return dict(totals)

    def _merged_cache_info(self, method: str) -> CacheStats:
        """Merge one cache-info getter across shards.  Replicated shards
        contribute every replica's cache (each holds its own copy of the
        shard's partition)."""
        return CacheStats.merge(
            info
            for shard in range(self.num_shards)
            for info in self._backend.invoke_replicas(shard, method)
        )

    def spec_cache_info(self) -> CacheStats:
        """Cluster-merged specialization-cache counters."""
        return self._merged_cache_info("spec_cache_info")

    def result_cache_info(self) -> CacheStats:
        """Cluster-merged result-LRU counters."""
        return self._merged_cache_info("result_cache_info")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedDiversificationService(shards={self.num_shards}, "
            f"backend={self._backend.name}, seed={self.router_seed})"
        )
