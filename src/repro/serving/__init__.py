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
* :mod:`~repro.serving.backends` — the two execution substrates:
  :class:`~repro.serving.backends.InlineBackend` (ordered sweep on the
  calling thread; the default and the reference) and ``"process"``;
* :mod:`~repro.serving.replication` — the process backend,
  :class:`~repro.serving.replication.ProcessBackend`: one OS worker
  process per shard with its own warm state — the multi-core path.  A
  :class:`~repro.serving.replication.ShardWorker` per shard respawns and
  rehydrates a worker that dies, retries a repeatable call on the new
  one, and keeps the shard's serving counters across respawns.  A shard
  over a store-backed engine hydrates its warm artifacts from the index
  store, so worker processes skip re-deriving the offline phase.  Every
  worker is built by the same deterministic factory, so results stay
  byte-identical across respawns — including mid-benchmark kills;
* :func:`~repro.serving.offline.persist_store` — the offline phase's
  last step: the serially built engine plus every shard's warm
  artifacts written into one index store;
* :class:`~repro.serving.async_service.AsyncDiversificationService` —
  the asyncio micro-batching front-end: a single-query ``await
  submit(query)`` is dispatched as soon as the batcher is free, batched
  with whatever queued meanwhile (bounded queue, backpressure), to either
  service above on the loop's default executor, with batch-formation
  accounting in
  :class:`~repro.serving.service.ServiceStats`.  Results are identical to a direct
  ``diversify_batch`` call;
* :class:`~repro.serving.http.DiversificationHTTPServer` — the network
  face: a stdlib-only REST front-end (``ThreadingHTTPServer`` handler
  threads answer result-cache hits themselves and bridge only misses
  into the async service's batcher) with ``POST /diversify``,
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
from repro.serving.offline import persist_store
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
    "make_backend",
    "persist_store",
    "result_payload",
]
