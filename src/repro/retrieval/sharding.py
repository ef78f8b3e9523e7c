"""Index partitioning: hash-routed shards of the retrieval substrate.

The paper's feasibility argument (Section 4.1) holds per machine; growing
past one worker needs the storage layer split the way the partitioned
designs surveyed in PAPERS.md split theirs — deterministic placement and
results that merge back losslessly.  Both halves live beside the engine
in :mod:`repro.retrieval.engine`, where a single node is simply the
one-partition case; this module names them for scale-out callers:

* :func:`stable_shard` — the placement function.  A seeded blake2b hash
  of the key modulo the shard count, stable across processes and Python
  versions (unlike the built-in ``hash``, which is salted per process).
  The serving layer (:mod:`repro.serving.sharded`) routes *queries* with
  the same function the engine uses for *documents*, so one router
  underlies both levels of sharding.
* :func:`partition_collection` — split a
  :class:`~repro.retrieval.documents.DocumentCollection` into N
  sub-collections by doc_id hash, preserving relative document order.
* :class:`PartitionedSearchEngine` — the
  :class:`~repro.retrieval.engine.SearchEngine` class itself (the same
  object, not a subclass), which takes ``num_partitions``: N independent
  inverted indexes scored with *global* collection statistics, so its
  rankings are **identical** (scores included) for every N.
* :class:`BuildReport` — the accounting record of building one index
  partition, with a ``merge()`` that rolls per-partition reports into a
  collection-level summary.  The partition-parallel offline pipeline
  (:func:`repro.serving.offline.build_partitioned_engine`) emits one per
  partition, wherever that partition was built.
"""

from __future__ import annotations

from repro.retrieval.engine import (
    BuildReport,
    EngineSnapshot,
    EpochDelta,
    MemoryBudget,
    SearchEngine,
    partition_collection,
    stable_shard,
)

#: The engine under the name scale-out callers use; ``num_partitions``
#: is the only thing that makes an engine "partitioned".
PartitionedSearchEngine = SearchEngine

__all__ = [
    "stable_shard",
    "partition_collection",
    "BuildReport",
    "EpochDelta",
    "EngineSnapshot",
    "MemoryBudget",
    "PartitionedSearchEngine",
]
