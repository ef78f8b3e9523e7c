"""Serving subsystem: the online face of the reproduction.

The core library diversifies one query at a time; this package turns it
into a servable system with an explicit offline/online lifecycle, then
grows it past one worker:

* :class:`~repro.serving.service.DiversificationService` — ``warm()``
  precomputes specialization artifacts (the paper's Section 4.1 offline
  phase), ``diversify_batch()`` serves traffic with deduplication,
  bounded LRU caching and per-query latency/throughput accounting;
* :class:`~repro.serving.sharded.ShardedDiversificationService` — N
  hash-routed service shards behind the same API: queries route by the
  process-stable :func:`~repro.retrieval.engine.stable_shard`, the
  offline and online phases fan out per-shard over a pluggable
  execution backend, and :class:`~repro.serving.service.ServiceStats` /
  :class:`~repro.core.cache.CacheStats` / :class:`WarmReport` merge
  into cluster-level summaries with per-shard breakdowns.  The cluster
  serves rankings identical to the unsharded service under every
  backend;
* :mod:`~repro.serving.backends` — the execution substrates:
  :class:`~repro.serving.backends.InlineBackend` (ordered sweep, the reference),
  :class:`~repro.serving.backends.ThreadBackend` (GIL-bound fan-out; wins once the numpy
  kernels dominate) and ``"process"``;
* :mod:`~repro.serving.replication` — the process backend,
  :class:`~repro.serving.replication.ProcessBackend`: R OS worker
  processes per shard (one by default) with per-worker warm state — the
  multi-core path.  A :class:`~repro.serving.replication.ReplicaSet` per
  shard routes among its replicas (round-robin / least-outstanding),
  optionally hedges requests for tail control, and respawns and
  rehydrates a worker that dies.  A shard over a store-backed engine
  hydrates its warm artifacts from the index store, so worker processes
  skip re-deriving the offline phase.  Every replica is built by the
  same deterministic factory, so results stay byte-identical no matter
  which replica answers — including mid-benchmark kills;
* :mod:`~repro.serving.offline` — the partition-parallel offline
  pipeline: :func:`build_partitioned_engine` builds the N inverted-index
  partitions of a
  :class:`~repro.retrieval.engine.SearchEngine` on any of
  the execution backends (ranking- and score-identical to the serial
  build) with per-partition build-time and memory accounting in a
  mergeable :class:`~repro.retrieval.engine.BuildReport`;
* :class:`~repro.serving.async_service.AsyncDiversificationService` —
  the asyncio micro-batching front-end: single-query ``await
  submit(query)`` calls coalesce under a size/time admission window
  (bounded queue, backpressure) into batches dispatched to either
  service above on an executor, with batch-formation accounting in
  :class:`~repro.serving.service.ServiceStats`.  Results are identical to a direct
  ``diversify_batch`` call;
* :class:`~repro.serving.http.DiversificationHTTPServer` — the network
  face: a stdlib-only REST front-end (``ThreadingHTTPServer`` bridging
  into the async service's admission windows) with ``POST /diversify``,
  paginated ``GET /results``, ``GET /health`` / ``GET /stats``
  operational surfaces and ``POST /drain`` for graceful rolling
  restarts.  Responses are field-identical to a direct
  ``diversify_batch`` on the wrapped backend.

Every cache is a :class:`~repro.core.cache.LRUCache`, the bounded cache
shared with the framework and the search engine.

Services built without an explicit diversifier inherit the framework's
default: the numpy kernels, selection-identical to the pure-Python
references (see :func:`repro.core.framework.default_diversifier`).

See ``examples/quickstart.py`` for the end-to-end flow and ``bench/``
(``python3 bench/run.py --all``) for the end-to-end measurements.
"""

from repro.serving.async_service import AsyncDiversificationService
from repro.serving.backends import BACKEND_NAMES, make_backend
from repro.serving.http import DiversificationHTTPServer, result_payload
from repro.serving.offline import build_partitioned_engine, persist_store
from repro.serving.replication import ProcessBackend
from repro.serving.service import DiversificationService, WarmReport
from repro.serving.sharded import ShardedDiversificationService

__all__ = [
    "AsyncDiversificationService",
    "BACKEND_NAMES",
    "DiversificationHTTPServer",
    "DiversificationService",
    "ProcessBackend",
    "ShardedDiversificationService",
    "WarmReport",
    "build_partitioned_engine",
    "make_backend",
    "persist_store",
    "result_payload",
]
