"""HTTP serving surface: a stdlib REST front-end over the async service.

Every layer below this one — batched kernels, sharded/process
backends, asyncio micro-batching — still terminates in a Python call.
This module gives the reproduction a *network* path, in the style of the
Paper-Scanner API reference (SNIPPETS.md): a documented base URL,
offset+cursor pagination, and explicit JSON error codes.  It is built
entirely from the standard library (``http.server`` + ``json``): no
framework dependency, which keeps the repo's no-new-deps constraint and
makes the server a faithful measurement harness — what the
``serve_hot_http`` workload of ``bench/`` times through a real socket is
this code and the serving stack, nothing else.

Architecture: a :class:`~http.server.ThreadingHTTPServer` accepts
connections (one handler thread per in-flight request) in front of an
:class:`~repro.serving.async_service.AsyncDiversificationService` on a
dedicated asyncio event loop.  The handler thread answers result-cache
hits itself (``serve_cached``: one locked LRU read, no thread hand-off);
only the misses cross into the event loop, where a miss is dispatched as
soon as the batcher is free and misses from concurrent HTTP clients
that queued meanwhile share a batch, as native asyncio submitters do.
The wrapped backend is anything the async service accepts — a single
:class:`~repro.serving.service.DiversificationService` or a
:class:`~repro.serving.sharded.ShardedDiversificationService` on any
execution backend, including the process one.

A request's header block is read by :func:`read_headers`, not by the
stdlib's ``email``-based parser: one bounded ``readline`` per line, the
stdlib's limits kept (a line over ``MAX_HEADER_LINE`` = 65,536 bytes,
or more than ``MAX_HEADERS`` = 100 lines counting the blank one that
ends the block, answers ``431``), names matched case-insensitively and
the first occurrence of a name winning, as ``Message.get`` does.  It
refuses framing the server cannot honour, each refusal closing the
connection: ``400 bad_length`` for two ``Content-Length`` values that
differ, ``501 unsupported_transfer_encoding`` for any
``Transfer-Encoding``, ``400 bad_header`` for a line without a colon,
with an empty or space-padded name, or starting with SP/HTAB (obs-fold).

A hit's reply is encoded once: a memo of up to ``ring_size`` entries
maps a query to the result ``serve_cached`` answered and its encoded
payload, and serves those bytes only while the service still answers
that very object (``is``) — a result an ingest epoch replaced, or the
result LRU evicted and recomputed, is encoded afresh.  Misses are
encoded per request and never enter the memo.  A batch reply splices
the per-result bytes into ``{"results": [...]}``, byte-identical to
encoding the whole dict.

A reply leaves in one flush of a buffered writer, on a socket with
``TCP_NODELAY`` set, so a keep-alive round trip costs its work rather
than a delayed-ACK timer.  Every reply carries an ``X-Request-Id`` (the
client's, when it is 1-64 characters of ``[A-Za-z0-9._-]``, else one
the server numbers), and the ``repro.serving.http`` logger gets one INFO
record per request: method, path, status, bytes, ms and request id.

Endpoints (base URL ``http://<host>:<port>``):

``POST /diversify``
    Body ``{"query": "..."}`` or ``{"queries": ["...", ...]}``, optional
    ``"timeout_ms"``.  Responses are field-identical to a direct
    ``diversify_batch`` on the same backend (asserted end-to-end by
    ``tests/serving/test_http.py``).  Errors: ``400`` malformed body, ``422``
    validation, ``429`` over the in-flight bound, ``503`` draining /
    stopped / timed out.
``GET /results``
    Offset+cursor pagination over a bounded ring of recently served
    results (``limit``/``offset``, or keyset ``cursor`` from the
    previous page's ``next_cursor``).
``POST /documents``
    Live ingest into a store-backed service: body is one document object
    (``{"doc_id", "text", "title"?, "metadata"?}``) or a batch
    ``{"documents": [...], "remove": [...]}``.  The whole body is
    appended to the store as ONE epoch — the response names the epoch
    that includes the change, and every query served afterwards sees
    either the previous epoch or this one, never a half-applied batch.
    Errors: ``404`` ``unknown_document`` removing an unknown doc_id,
    ``409`` ``conflict`` duplicate doc_id, ``409`` ``read_only`` when the
    service's engine is in memory (it serves the collection it was built
    over; only a store ingests), ``503`` ``write_unconfirmed`` when the
    worker appending the batch died before confirming it: the batch may
    or may not be in the store, and every shard already serves whichever
    epoch the store holds — read ``GET /health``'s ``epoch`` before
    resending.
``DELETE /documents/{id}``
    Remove one document (an epoch of its own); responds with the epoch
    that excludes it.  Errors as for ``POST /documents``.
``GET /health``
    Liveness plus the currently published ``epoch`` and, when the
    cluster runs a :class:`~repro.serving.replication.ProcessBackend`,
    each shard's worker under ``workers`` (``alive``, ``pid``,
    ``respawns``).
``GET /stats``
    Merged :class:`~repro.serving.service.ServiceStats` /
    :class:`~repro.core.cache.CacheStats` (the reply memo's under
    ``caches.reply``) / worker respawn + ingest counters as JSON.
``POST /drain``
    Graceful rolling-restart shutdown: stop admitting, flush the queued
    and in-flight batches, report drained counts.  Idempotent;
    read endpoints keep answering afterwards.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import re
import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.cache import LRUCache
from repro.core.framework import DiversifiedResult
from repro.retrieval.documents import Document
from repro.serving.async_service import AsyncDiversificationService, ServiceClosed
from repro.serving.backends import WorkerDiedError
from repro.serving.service import ReadOnlyError, ServiceStats

__all__ = [
    "ApiError",
    "DiversificationHTTPServer",
    "Headers",
    "read_headers",
    "result_payload",
    "stats_payload",
    "MAX_PAGE_LIMIT",
    "DEFAULT_PAGE_LIMIT",
]

#: Pagination bounds of ``GET /results`` (Paper-Scanner style: a default
#: page, a hard cap a client cannot exceed).
DEFAULT_PAGE_LIMIT = 50
MAX_PAGE_LIMIT = 200

#: Largest request body a ``POST`` may declare.  The biggest legitimate
#: body is an ingest batch of documents; 8 MiB holds thousands of them and
#: bounds what one request can make a handler thread allocate.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest ``timeout_ms`` a body may name: the longest wait a thread can
#: block for (a larger one would make the wait itself raise).
MAX_TIMEOUT_MS = threading.TIMEOUT_MAX * 1000.0

#: Longest a connection may sit in one socket read — a request line,
#: headers, a declared body, or the idle gap before a keep-alive
#: client's next request.  A client slower than this (slow-loris) has its
#: connection closed unanswered, freeing the handler thread.
READ_TIMEOUT_S = 60.0

#: The stdlib's header limits (``http.client``'s ``_MAXLINE`` and
#: ``_MAXHEADERS``): a longer line, or more lines counting the blank one
#: that ends the block, answers 431.
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100

#: A client's ``X-Request-Id`` is echoed only when it matches this; any
#: other value (too long, spaces, header syntax) is replaced.
_REQUEST_ID = re.compile(r"[A-Za-z0-9._-]{1,64}")

#: The access log: one INFO record per request, off at the default
#: WARNING level.
_LOG = logging.getLogger("repro.serving.http")


class _Listener(ThreadingHTTPServer):
    """ThreadingHTTPServer with a backlog sized for bursty open-loop
    load — the stdlib default of 5 pending connections refuses clients
    under any realistic arrival burst."""

    request_queue_size = 128
    daemon_threads = True


class ApiError(Exception):
    """One HTTP error response: status code, machine code, message.

    Raised anywhere inside request handling and rendered as the JSON
    body ``{"error": {"code": ..., "message": ...}}`` with the HTTP
    status attached — every failure a client can provoke has an explicit,
    documented shape instead of a traceback page.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class Headers(dict):
    """A request's header fields: lower-cased name → first value.

    Lookups fold the name's case, so ``get``, ``[]`` and ``in`` answer
    as ``email.message.Message`` does for a block whose names are unique
    up to case, and as its ``get`` does for the first of repeated ones.
    """

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())

    def __contains__(self, name: str) -> bool:
        return dict.__contains__(self, name.lower())


def read_headers(rfile) -> Headers:
    """Read one header block from *rfile*, up to its blank line.

    Each line is one bounded ``readline``, decoded as ISO-8859-1; the
    value loses its leading SP/HTAB and its line ending, nothing else.
    Raises :class:`ApiError` — 431 past :data:`MAX_HEADER_LINE` or
    :data:`MAX_HEADERS`; 400 ``bad_header`` for a line with no colon, a
    name that is empty or padded with whitespace, or an obs-fold
    continuation; 400 ``bad_length`` for ``Content-Length`` values that
    differ; 501 for any ``Transfer-Encoding`` (bodies are read by their
    declared length only).  End of stream ends the block, as in the
    stdlib.
    """
    headers = Headers()
    lines = 0
    while True:
        line = rfile.readline(MAX_HEADER_LINE + 1)
        if len(line) > MAX_HEADER_LINE:
            raise ApiError(
                431, "header_line_too_long",
                f"a header line exceeds {MAX_HEADER_LINE} bytes",
            )
        lines += 1
        if lines > MAX_HEADERS:
            raise ApiError(
                431, "too_many_headers", f"more than {MAX_HEADERS} header lines"
            )
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("iso-8859-1").rstrip("\r\n").partition(":")
        if not colon or not name or name[0] in " \t" or name[-1] in " \t":
            raise ApiError(400, "bad_header", f"malformed header line {line[:80]!r}")
        name = name.lower()
        value = value.lstrip(" \t")
        if name == "transfer-encoding":
            raise ApiError(
                501, "unsupported_transfer_encoding",
                "Transfer-Encoding is not supported; send a Content-Length",
            )
        first = headers.setdefault(name, value)
        if first != value and name == "content-length":
            raise ApiError(400, "bad_length", "conflicting Content-Length values")


def result_payload(result: DiversifiedResult) -> dict:
    """The wire projection of one :class:`DiversifiedResult`.

    Everything the serving contract promises is included — ranking,
    diversification flag, algorithm, specializations with their
    probabilities, and the baseline ranking *with scores* — so the
    HTTP identity tests can compare responses
    field-for-field against direct ``diversify_batch`` results.  Floats
    survive the JSON round-trip exactly (``json`` serialises via
    ``repr`` and parses back to the same double).
    """
    return {
        "query": result.query,
        "ranking": list(result.ranking),
        "diversified": bool(result.diversified),
        "algorithm": result.algorithm,
        "k": len(result.ranking),
        "specializations": [
            [spec, float(probability)]
            for spec, probability in result.specializations
        ],
        "baseline": {
            "doc_ids": [r.doc_id for r in result.baseline],
            "scores": [float(r.score) for r in result.baseline],
        },
    }


def stats_payload(stats: ServiceStats) -> dict:
    """One :class:`ServiceStats` (leaf or merged) as a JSON-able dict.

    The ``shards`` breakdown serialises recursively — its entries are
    bounded snapshots, not live objects.
    """
    payload = {
        "name": stats.name,
        "served": stats.served,
        "ranked": stats.ranked,
        "diversified": stats.diversified,
        "batches": stats.batches,
        "seconds": stats.seconds,
        "busy_seconds": stats.busy_seconds,
        "throughput_qps": stats.throughput_qps,
        "latency": {
            "mean_ms": stats.mean_latency_ms,
            "p50_ms": stats.percentile_ms(0.50),
            "p95_ms": stats.percentile_ms(0.95),
            "p99_ms": stats.percentile_ms(0.99),
        },
        "formation": {
            "mean_batch_size": stats.mean_batch_size,
            "batch_sizes": {
                str(size): count for size, count in sorted(stats.batch_sizes.items())
            },
            "wait_mean_ms": stats.mean_wait_ms,
            "wait_p95_ms": stats.wait_percentile_ms(0.95),
            "queue_depth_peak": stats.queue_depth_peak,
        },
        "replication": {
            "respawns": stats.respawns,
            "failovers": stats.failovers,
        },
        "page_cache": {
            "hits": stats.page_hits,
            "misses": stats.page_misses,
            "evictions": stats.page_evictions,
            "resident_bytes": stats.page_resident_bytes,
        },
        "ingest": {
            "documents_ingested": stats.documents_ingested,
            "documents_removed": stats.documents_removed,
            "epochs_published": stats.epochs_published,
            "warm_invalidations": stats.warm_invalidations,
        },
    }
    if stats.shards:
        payload["shards"] = [stats_payload(s) for s in stats.shards]
    return payload


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _cache_payload(info) -> dict:
    return {
        "maxsize": info.maxsize,
        "size": info.size,
        "hits": info.hits,
        "misses": info.misses,
        "evictions": info.evictions,
        "hit_rate": info.hit_rate,
    }


class DiversificationHTTPServer:
    """Serve a diversification backend over HTTP.

    Parameters
    ----------
    service:
        The backend: a :class:`DiversificationService` or a
        :class:`ShardedDiversificationService` (any execution backend).
        The server wraps it in an
        :class:`AsyncDiversificationService` with its default batch and
        queue bounds.  Result-cache hits are answered on the handler
        thread; misses go to its batcher exactly like native submitters.
    host / port:
        Bind address.  ``port=0`` (the default) picks an ephemeral port;
        read it back from :attr:`address` / :attr:`base_url`.
    max_inflight:
        Bound on requests (queries, not connections) admitted into the
        serving path at once; excess answers ``429`` immediately instead
        of queueing without bound — open-loop load sheds here.
    ring_size:
        Capacity of the recent-results ring behind ``GET /results``,
        and of the memo of encoded hit replies.
    default_timeout_s:
        Per-request serving timeout when the body names none.

    >>> server = DiversificationHTTPServer(service)      # doctest: +SKIP
    >>> server.start()                                   # doctest: +SKIP
    >>> print(server.base_url)                           # doctest: +SKIP
    >>> server.close()                                   # doctest: +SKIP
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 256,
        ring_size: int = 512,
        default_timeout_s: float = 30.0,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        if default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be positive")
        self.service = service
        self._host = host
        self._port = port
        self.max_inflight = max_inflight
        self.default_timeout_s = default_timeout_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._server_thread: threading.Thread | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self.front: AsyncDiversificationService | None = None
        self._ring: deque[dict] = deque(maxlen=ring_size)
        #: query → (the hit result served, its encoded payload).
        self._replies: LRUCache[str, tuple[DiversifiedResult, bytes]] = \
            LRUCache(ring_size)
        self._ring_lock = threading.Lock()
        self._seq = 0
        # next() on a count is one C call, atomic across handler threads.
        self._request_ids = itertools.count(1)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        #: Serialises concurrent POST /documents handler threads so each
        #: body becomes exactly one epoch, in arrival order.
        self._ingest_lock = threading.Lock()
        self._drain_report: dict | None = None
        self._draining = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "DiversificationHTTPServer":
        """Bind the listener, then start the event loop, the async
        front-end and the accept thread.  Binding first means a refused
        address raises before any thread or task exists."""
        if self._httpd is not None or self._closed:
            raise RuntimeError("server cannot be (re)started")
        self._httpd = _Listener((self._host, self._port), _make_handler(self))
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-http-loop", daemon=True
        )
        self._loop_thread.start()
        self.front = AsyncDiversificationService(self.service, name="http")

        async def _start_front():
            self.front.start()

        asyncio.run_coroutine_threadsafe(_start_front(), self._loop).result(10)
        self._server_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http-server",
            daemon=True,
        )
        self._server_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port resolved when ephemeral."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def __enter__(self) -> "DiversificationHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop the listener and the front-end (drains first); idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._loop is not None:
            if self._drain_report is None and self.front is not None:
                asyncio.run_coroutine_threadsafe(
                    self.front.stop(drain=True), self._loop
                ).result(30)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=10)
            self._loop.close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=10)

    # -- serving bridge ----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def serve(self, queries: list[str], timeout_s: float) -> list[bytes]:
        """Answer one HTTP request's queries, in request order, each as
        its encoded :func:`result_payload`.

        Result-cache hits are answered on this handler thread
        (``front.serve_cached``) and encoded through the reply memo; only
        the misses cross into the event loop, as one ``submit_many``
        waited on up to *timeout_s*.  Maps
        the serving-layer failure modes onto the documented error codes:
        draining/stopped → 503, timeout → 503 (the coroutine is
        cancelled, so its queue slots free), anything else propagates as
        a 500.
        """
        if self._draining:
            raise ApiError(503, "draining", "service is draining; retry elsewhere")
        try:
            hits = [self.front.serve_cached(query) for query in queries]
            results = hits
            misses = [q for q, result in zip(queries, hits) if result is None]
            if misses:
                ranked = iter(self._serve_misses(misses, timeout_s))
                results = [
                    next(ranked) if result is None else result
                    for result in hits
                ]
        except ServiceClosed as exc:
            raise ApiError(503, "draining", str(exc)) from None
        self._record(queries, results)
        return [
            self._encode_hit(query, result) if hit is not None
            else _encode(result_payload(result))
            for query, result, hit in zip(queries, results, hits)
        ]

    def _encode_hit(self, query: str, result: DiversifiedResult) -> bytes:
        """The encoded payload of a hit: the memo's bytes while they were
        encoded from this very *result*, else encoded now and memoised."""
        entry = self._replies.lookup(query, lambda entry: entry[0] is result)
        if entry is not None:
            return entry[1]
        body = _encode(result_payload(result))
        self._replies.put(query, (result, body))
        return body

    def _serve_misses(
        self, queries: list[str], timeout_s: float
    ) -> list[DiversifiedResult]:
        future = asyncio.run_coroutine_threadsafe(
            self.front.submit_many(queries), self._loop
        )
        try:
            return future.result(timeout_s)
        except FutureTimeoutError:
            future.cancel()
            raise ApiError(
                503,
                "timeout",
                f"request did not complete within {timeout_s:g}s",
            ) from None

    def _record(self, queries: list[str], results: list[DiversifiedResult]) -> None:
        """Append served results to the recent-results ring, in request
        order, each stamped with a monotonically increasing ``seq`` (the
        keyset behind cursor pagination)."""
        with self._ring_lock:
            for query, result in zip(queries, results):
                self._seq += 1
                self._ring.append(
                    {
                        "seq": self._seq,
                        "query": query,
                        "ranking": list(result.ranking),
                        "diversified": bool(result.diversified),
                        "algorithm": result.algorithm,
                    }
                )

    def request_id(self, offered: str | None) -> str:
        """The client's ``X-Request-Id`` when well-formed, else the next
        number of this server's counter."""
        if offered is not None and _REQUEST_ID.fullmatch(offered):
            return offered
        return str(next(self._request_ids))

    def acquire_slots(self, count: int) -> bool:
        """Reserve *count* in-flight query slots; False = shed (429)."""
        with self._inflight_lock:
            if self._inflight + count > self.max_inflight:
                return False
            self._inflight += count
            return True

    def release_slots(self, count: int) -> None:
        with self._inflight_lock:
            self._inflight -= count

    # -- endpoint bodies ---------------------------------------------------------

    def handle_diversify(self, body: dict) -> bytes:
        queries, single = _validate_diversify(body, self.max_inflight)
        timeout_s = _validate_timeout(body, self.default_timeout_s)
        if not self.acquire_slots(len(queries)):
            raise ApiError(
                429,
                "overloaded",
                f"more than {self.max_inflight} queries in flight; retry later",
            )
        try:
            bodies = self.serve(queries, timeout_s)
        finally:
            self.release_slots(len(queries))
        if single:
            return bodies[0]
        # The bytes json.dumps({"results": payloads}) would produce.
        return b'{"results": [' + b", ".join(bodies) + b"]}"

    def handle_results(self, params: dict) -> dict:
        limit = _int_param(params, "limit", DEFAULT_PAGE_LIMIT, 1, MAX_PAGE_LIMIT)
        offset = _int_param(params, "offset", 0, 0, None)
        cursor = params.get("cursor", [None])[0]
        with self._ring_lock:
            entries = list(self._ring)
        if cursor is not None:
            try:
                after = int(cursor)
            except ValueError:
                raise ApiError(
                    400, "bad_cursor", f"cursor must be an integer seq, got {cursor!r}"
                ) from None
            selected = [entry for entry in entries if entry["seq"] > after]
            page = selected[:limit]
            has_more = len(selected) > len(page)
            next_cursor = str(page[-1]["seq"]) if page else cursor
        else:
            page = entries[offset:offset + limit]
            has_more = offset + len(page) < len(entries)
            next_cursor = str(page[-1]["seq"]) if page else None
        return {
            "items": page,
            "page": {
                "total": len(entries),
                "limit": limit,
                "offset": offset if cursor is None else None,
                "next_cursor": next_cursor,
                "has_more": has_more,
            },
        }

    def handle_ingest(self, body: dict) -> dict:
        documents, removals = _validate_ingest(body)
        if self._draining:
            raise ApiError(503, "draining", "service is draining; no writes")
        with self._ingest_lock:
            try:
                epoch = self.service.ingest(
                    add_documents=documents, remove_doc_ids=removals
                )
            except (ReadOnlyError, ValueError, WorkerDiedError) as exc:
                raise _ingest_error(exc) from None
        return {
            "epoch": epoch,
            "ingested": len(documents),
            "removed": len(removals),
        }

    def handle_remove(self, doc_id: str) -> dict:
        if not doc_id:
            raise ApiError(404, "not_found", "no document id in path")
        if self._draining:
            raise ApiError(503, "draining", "service is draining; no writes")
        with self._ingest_lock:
            try:
                epoch = self.service.ingest(remove_doc_ids=[doc_id])
            except (ReadOnlyError, ValueError, WorkerDiedError) as exc:
                raise _ingest_error(exc) from None
        return {"epoch": epoch, "ingested": 0, "removed": 1}

    def handle_health(self) -> dict:
        if self._drain_report is not None:
            status = "drained"
        elif self._draining:
            status = "draining"
        else:
            status = "ok"
        payload = {
            "status": status,
            "running": bool(self.front is not None and self.front.running),
        }
        payload["epoch"] = self.service.current_epoch()
        backend = getattr(self.service, "backend", None)
        if backend is not None and hasattr(backend, "num_shards"):
            payload["kind"] = "sharded"
            payload["shards"] = backend.num_shards
            payload["execution_backend"] = getattr(backend, "name", "?")
            health = getattr(backend, "health", None)
            if callable(health):
                payload["workers"] = {
                    str(shard): entry for shard, entry in health().items()
                }
        else:
            payload["kind"] = "single"
            payload["shards"] = 0
        return payload

    def handle_stats(self) -> dict:
        backend_stats = self.front.backend_stats()
        payload = {
            "front": stats_payload(self.front.stats),
            "backend": stats_payload(backend_stats),
            "caches": {
                "specialization": _cache_payload(self.service.spec_cache_info()),
                "result": _cache_payload(self.service.result_cache_info()),
                "reply": _cache_payload(self._replies.stats()),
            },
            "ring": {
                "size": len(self._ring),
                "capacity": self._ring.maxlen,
                "last_seq": self._seq,
            },
            "inflight": self._inflight,
            "draining": self._draining,
        }
        return payload

    def handle_drain(self) -> dict:
        """Graceful shutdown: stop admitting, flush, report counts.

        The draining flag flips *before* the flush starts, so requests
        arriving mid-drain answer 503 instead of racing the shutdown;
        requests already admitted complete (the async layer's
        ``drain()`` guarantees no dropped futures).  Idempotent: repeat
        calls return the original report flagged ``already_drained``.
        """
        with self._drain_lock:
            if self._drain_report is not None:
                return {**self._drain_report, "already_drained": True}
            self._draining = True
            report = asyncio.run_coroutine_threadsafe(
                self.front.drain(), self._loop
            ).result(60)
            report["already_drained"] = False
            self._drain_report = report
            return dict(report)


def _validate_diversify(body: dict, max_batch: int) -> tuple[list[str], bool]:
    """Validate a ``POST /diversify`` body; returns (queries, single?)."""
    if not isinstance(body, dict):
        raise ApiError(422, "invalid_body", "body must be a JSON object")
    unknown = set(body) - {"query", "queries", "timeout_ms"}
    if unknown:
        raise ApiError(
            422, "unknown_field", f"unknown field(s): {', '.join(sorted(unknown))}"
        )
    if ("query" in body) == ("queries" in body):
        raise ApiError(
            422, "invalid_body", "provide exactly one of 'query' or 'queries'"
        )
    if "query" in body:
        query = body["query"]
        if not isinstance(query, str) or not query.strip():
            raise ApiError(422, "invalid_query", "'query' must be a non-empty string")
        return [query], True
    queries = body["queries"]
    if not isinstance(queries, list) or not queries:
        raise ApiError(
            422, "invalid_queries", "'queries' must be a non-empty list of strings"
        )
    if len(queries) > max_batch:
        raise ApiError(
            422, "batch_too_large", f"at most {max_batch} queries per request"
        )
    for query in queries:
        if not isinstance(query, str) or not query.strip():
            raise ApiError(
                422, "invalid_queries", "'queries' entries must be non-empty strings"
            )
    return list(queries), False


def _validate_ingest(body: dict) -> tuple[list[Document], list[str]]:
    """Validate a ``POST /documents`` body.

    Accepts either one document object or the batch form
    ``{"documents": [...], "remove": [...]}`` (both keys optional, not
    both empty).  Returns ``(documents, remove_doc_ids)``.
    """
    if not isinstance(body, dict):
        raise ApiError(422, "invalid_body", "body must be a JSON object")
    if "documents" in body or "remove" in body:
        unknown = set(body) - {"documents", "remove"}
        if unknown:
            raise ApiError(
                422, "unknown_field",
                f"unknown field(s): {', '.join(sorted(unknown))}",
            )
        raw_docs = body.get("documents", [])
        removals = body.get("remove", [])
        if not isinstance(raw_docs, list):
            raise ApiError(
                422, "invalid_documents", "'documents' must be a list of objects"
            )
        if not isinstance(removals, list) or any(
            not isinstance(doc_id, str) or not doc_id for doc_id in removals
        ):
            raise ApiError(
                422, "invalid_remove", "'remove' must be a list of doc_id strings"
            )
        if not raw_docs and not removals:
            raise ApiError(
                422, "invalid_body", "an ingest batch must change the collection"
            )
        return [_validate_document(raw) for raw in raw_docs], list(removals)
    return [_validate_document(body)], []


def _validate_document(raw) -> Document:
    if not isinstance(raw, dict):
        raise ApiError(422, "invalid_document", "each document must be an object")
    unknown = set(raw) - {"doc_id", "text", "title", "metadata"}
    if unknown:
        raise ApiError(
            422, "unknown_field",
            f"unknown document field(s): {', '.join(sorted(unknown))}",
        )
    doc_id = raw.get("doc_id")
    text = raw.get("text")
    if not isinstance(doc_id, str) or not doc_id:
        raise ApiError(
            422, "invalid_document", "'doc_id' must be a non-empty string"
        )
    if not isinstance(text, str) or not text.strip():
        raise ApiError(422, "invalid_document", "'text' must be a non-empty string")
    title = raw.get("title", "")
    if not isinstance(title, str):
        raise ApiError(422, "invalid_document", "'title' must be a string")
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ApiError(422, "invalid_document", "'metadata' must be an object")
    return Document(doc_id, text, title=title, metadata=metadata)


def _ingest_error(exc: ReadOnlyError | ValueError | WorkerDiedError) -> ApiError:
    """Map serving-layer ingest rejections onto documented HTTP errors."""
    message = str(exc)
    if isinstance(exc, ReadOnlyError):
        return ApiError(409, "read_only", message)
    if isinstance(exc, WorkerDiedError):
        return ApiError(
            503, "write_unconfirmed",
            f"{message}; the batch may be in the store: read GET /health's "
            "epoch before resending",
        )
    if "unknown doc_id" in message:
        return ApiError(404, "unknown_document", message)
    if "duplicate" in message or "already stored" in message:
        return ApiError(409, "conflict", message)
    return ApiError(400, "invalid_ingest", message)


def _validate_timeout(body: dict, default_s: float) -> float:
    timeout_ms = body.get("timeout_ms")
    if timeout_ms is None:
        return default_s
    # The range test also rejects NaN, which compares false either way.
    if not isinstance(timeout_ms, (int, float)) or isinstance(timeout_ms, bool) \
            or not 0 < timeout_ms <= MAX_TIMEOUT_MS:
        raise ApiError(
            422, "invalid_timeout",
            f"'timeout_ms' must be a positive number of at most {MAX_TIMEOUT_MS:g}",
        )
    return float(timeout_ms) / 1000.0


def _int_param(params: dict, name: str, default: int, low: int, high: int | None) -> int:
    raw = params.get(name, [None])[0]
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(
            400, f"bad_{name}", f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < low:
        raise ApiError(400, f"bad_{name}", f"{name} must be >= {low}")
    if high is not None and value > high:
        value = high  # clamp, Paper-Scanner style (limit caps at max)
    return value


def _http_version(version: str) -> tuple[int, int] | None:
    """``(major, minor)`` of an ``HTTP/x.y`` word, or ``None`` when it
    is malformed (RFC 2145: two decimal integers, leading zeros ignored,
    each of at most 10 digits)."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[len("HTTP/"):].split(".")
    if len(parts) != 2 or not all(
        part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # a non-ASCII digit such as '²'
        return None


def _make_handler(api: DiversificationHTTPServer):
    """Bind the handler class to one server instance (the ``api``)."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serving/1"
        protocol_version = "HTTP/1.1"
        #: Buffer the reply: status line, headers and body leave in the
        #: one flush ``handle_one_request`` ends with.
        wbufsize = -1
        #: TCP_NODELAY.  A reply over the 8 KiB buffer still leaves in
        #: two sends, and Nagle's algorithm would hold the second until
        #: the client's delayed ACK, ~40 ms later.
        disable_nagle_algorithm = True
        #: Socket timeout of every read; the stdlib's handle_one_request
        #: closes a connection whose read times out.
        timeout = READ_TIMEOUT_S

        def parse_request(self) -> bool:
            """The stdlib's request-line rules, then :func:`read_headers`.

            The request line is judged as CPython 3.11 judges it: 400 for
            a malformed version or line, 505 for HTTP/2+, GET only for a
            two-word (HTTP/0.9) line, and a leading ``//`` collapsed to
            ``/``.  Its ``Connection`` and ``Expect: 100-continue``
            handling follows (this handler speaks HTTP/1.1, so the
            stdlib's ``protocol_version`` checks always hold and are
            left out).  Every refusal is answered in JSON and closes the
            connection: the rest of the block is unread.  A line whose
            version is refused is answered with an HTTP/1.1 status line;
            a line without a version gets HTTP/0.9's bare body.
            """
            self._started = time.perf_counter()
            self.command = self.path = None  # in case the first line is refused
            self.request_version = self.default_request_version
            self.close_connection = True
            requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
            self.requestline = requestline
            words = requestline.split()
            if not words:
                return False
            if len(words) >= 3:  # enough to determine protocol version
                version = words[-1]
                number = _http_version(version)
                if number is None or number >= (2, 0):
                    # A refused version is answered in the one we speak.
                    self.request_version = self.protocol_version
                    if number is None:
                        return self._refuse(ApiError(
                            400, "bad_request_line",
                            f"bad request version ({version!r})",
                        ))
                    return self._refuse(ApiError(
                        505, "http_version_not_supported",
                        f"invalid HTTP version ({version.split('/', 1)[1]})",
                    ))
                self.close_connection = number < (1, 1)
                self.request_version = version
            if not 2 <= len(words) <= 3:
                return self._refuse(ApiError(
                    400, "bad_request_line", f"bad request syntax ({requestline!r})"
                ))
            command, path = words[:2]
            if len(words) == 2 and command != "GET":
                return self._refuse(ApiError(
                    400, "bad_request_line",
                    f"bad HTTP/0.9 request type ({command!r})",
                ))
            self.command, self.path = command, path
            # gh-87389: a path starting with '//' reads as a scheme-less
            # absolute URI to a client (an open redirect); reduce it.
            if path.startswith("//"):
                self.path = "/" + path.lstrip("/")
            try:
                self.headers = read_headers(self.rfile)
            except ApiError as error:
                return self._refuse(error)
            conntype = self.headers.get("Connection", "").lower()
            if conntype == "close":
                self.close_connection = True
            elif conntype == "keep-alive":
                self.close_connection = False
            expect = self.headers.get("Expect", "").lower()
            if expect == "100-continue" and self.request_version >= "HTTP/1.1":
                return self.handle_expect_100()
            return True

        def _refuse(self, error: ApiError) -> bool:
            """Answer a request refused while parsing; the connection
            closes, because what follows the refused part is unread."""
            self.close_connection = True
            self._request_id = api.request_id(None)
            self._error(error)
            return False

        def handle_expect_100(self) -> bool:
            # The interim reply must reach the client now: it is waiting
            # for it before sending the body.
            super().handle_expect_100()
            self.wfile.flush()
            return True

        def log_request(self, code="-", size="-") -> None:
            pass  # _reply logs each request once, with its bytes and ms

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            # Only the stdlib's own errors (a request line over the limit,
            # an unsupported method, a read timeout) still arrive here.
            _LOG.info("%s " + format, self.address_string(), *args)

        # -- plumbing ------------------------------------------------------------

        def _reply(self, status: int, payload: dict | bytes) -> None:
            body = payload if isinstance(payload, bytes) else _encode(payload)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Request-Id", self._request_id)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
            if _LOG.isEnabledFor(logging.INFO):
                ms = (time.perf_counter() - self._started) * 1000.0
                _LOG.info(
                    "%s %s %d %dB %.3fms id=%s",
                    self.command, self.path, status, len(body), ms,
                    self._request_id,
                    extra={
                        "method": self.command,
                        "path": self.path,
                        "status": status,
                        "bytes": len(body),
                        "ms": ms,
                        "request_id": self._request_id,
                    },
                )

        def _error(self, error: ApiError) -> None:
            self._reply(
                error.status,
                {"error": {"code": error.code, "message": error.message}},
            )

        def _read_body(self) -> dict:
            length = self.headers.get("Content-Length")
            if length is None:
                raise ApiError(400, "missing_body", "a JSON body is required")
            try:
                size = int(length)
            except ValueError:
                size = -1
            if 0 <= size <= MAX_BODY_BYTES:
                raw = self.rfile.read(size)
            else:
                # The declared body stays unread, so the connection
                # cannot be reused for a next request.
                self.close_connection = True
                if size < 0:
                    raise ApiError(
                        400, "bad_length",
                        "Content-Length must be a non-negative integer",
                    )
                raise ApiError(
                    413, "body_too_large",
                    f"body of {size} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
                )
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ApiError(400, "bad_json", f"body is not valid JSON: {exc}") \
                    from None
            except RecursionError:
                raise ApiError(400, "bad_json", "body is nested too deeply") \
                    from None

        def _dispatch(self, method: str) -> None:
            self._request_id = api.request_id(self.headers.get("X-Request-Id"))
            url = urlsplit(self.path)
            params = parse_qs(url.query)
            try:
                # /documents/{id} is the one non-exact route: the
                # trailing path segment is the document id.
                if url.path.startswith("/documents/"):
                    doc_id = unquote(url.path[len("/documents/"):])
                    if method != "DELETE":
                        raise ApiError(
                            405, "method_not_allowed",
                            f"{method} is not supported on /documents/{{id}}",
                        )
                    self._reply(200, api.handle_remove(doc_id))
                    return
                route = ROUTES.get((method, url.path))
                if route is None:
                    if any(path == url.path for _, path in ROUTES):
                        raise ApiError(
                            405, "method_not_allowed",
                            f"{method} is not supported on {url.path}",
                        )
                    raise ApiError(404, "not_found", f"no route for {url.path}")
                self._reply(200, route(self, params))
            except ApiError as error:
                self._error(error)
            except TimeoutError:
                # The client stalled inside its body (_read_body): there
                # is no request to answer, so handle_one_request closes
                # the connection.  A serving timeout is a 503 by now.
                raise
            except Exception as exc:  # pragma: no cover - defensive surface
                self._error(ApiError(500, "internal", f"{type(exc).__name__}: {exc}"))

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch("POST")

        def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch("DELETE")

        # -- routes --------------------------------------------------------------

        def _route_diversify(self, params):
            return api.handle_diversify(self._read_body())

        def _route_ingest(self, params):
            return api.handle_ingest(self._read_body())

        def _route_results(self, params):
            return api.handle_results(params)

        def _route_health(self, params):
            return api.handle_health()

        def _route_stats(self, params):
            return api.handle_stats()

        def _route_drain(self, params):
            return api.handle_drain()

    ROUTES = {
        ("POST", "/diversify"): Handler._route_diversify,
        ("POST", "/documents"): Handler._route_ingest,
        ("GET", "/results"): Handler._route_results,
        ("GET", "/health"): Handler._route_health,
        ("GET", "/stats"): Handler._route_stats,
        ("POST", "/drain"): Handler._route_drain,
    }

    return Handler
