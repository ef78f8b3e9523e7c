"""The offline phase's last step: persist it as one index store.

The paper's efficiency story rests on an *offline* phase — mine the
query log, precompute per-specialization result lists and snippet
vectors — amortising into a fast online path.  The index is built
serially (``SearchEngine(collection, num_partitions)``); the warm half
fans out per-shard
(:meth:`~repro.serving.sharded.ShardedDiversificationService.warm`);
:func:`persist_store` writes the engine and every shard's warm artifacts
into one index store, from which store-backed shards hydrate on start.
``python -m repro.experiments.offline`` drives the whole pipeline —
build, warm, store round trip — end to end with identity checks.
"""

from __future__ import annotations

__all__ = ["persist_store"]


def persist_store(path, engine, cluster=None):
    """Persist the offline phase's outputs as one durable index store.

    The final step of a store-producing offline pipeline (``python -m
    repro.experiments.offline --store PATH``): writes *engine*'s
    partitions, documents and collection-global statistics — plus, when
    a warmed *cluster*
    (:class:`~repro.serving.sharded.ShardedDiversificationService`) is
    given, every shard's warm artifacts collected over its execution
    backend — into a single SQLite file via
    :func:`repro.retrieval.store.write_store`.  Serving processes then
    cold-start by *attaching* the store
    (:class:`~repro.retrieval.store.StoreBackedSearchEngine`; a serving
    shard over it hydrates its warm rows) in O(attach) instead of
    re-running this pipeline.  Returns the written
    :class:`~pathlib.Path`.
    """
    from repro.retrieval.store import write_store

    warm_payloads = cluster.warm_payloads() if cluster is not None else None
    return write_store(path, engine, warm_payloads)
