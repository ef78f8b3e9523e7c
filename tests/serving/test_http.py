"""Contract tests for the HTTP serving surface.

Every endpoint's documented behaviour — status codes, error bodies,
pagination edges, the drain lifecycle — is pinned against a live
:class:`~repro.serving.DiversificationHTTPServer` on an ephemeral port.
Concurrency scenarios (429 shedding, request timeout, drain under load)
are made deterministic with a gate backend that blocks ``diversify_batch``
until the test opens it, so no scenario depends on scheduler luck.
"""

from __future__ import annotations

import http.client
import io
import json
import logging
import multiprocessing
import re
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import (
    DiversificationHTTPServer,
    DiversificationService,
    ShardedDiversificationService,
    result_payload,
)
from repro.serving import http as http_module
from repro.serving.http import (
    DEFAULT_PAGE_LIMIT,
    MAX_BODY_BYTES,
    MAX_PAGE_LIMIT,
    MAX_TIMEOUT_MS,
    read_headers,
)


# -- HTTP helpers ----------------------------------------------------------------


def get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as rsp:
            return rsp.status, json.load(rsp)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def post(url: str, body: dict | bytes | None = None) -> tuple[int, dict]:
    if body is None:
        data = b""
    elif isinstance(body, bytes):
        data = body
    else:
        data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as rsp:
            return rsp.status, json.load(rsp)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def error_code(body: dict) -> str:
    return body["error"]["code"]


def post_raw(server, body: dict) -> tuple[int, bytes]:
    """``POST /diversify`` on a fresh connection; the reply's raw bytes."""
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        connection.request(
            "POST", "/diversify", body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def exchange(server, raw: bytes) -> bytes:
    """Send *raw* on a fresh connection; everything the server sends back
    until it closes the connection (a socket timeout if it never does)."""
    chunks = []
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(raw)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with the request's tail unread: the reply came first
    return b"".join(chunks)


def only_reply(stream: bytes) -> tuple[int, bytes, bytes]:
    """``(status, head, body)`` of the one reply *stream* holds."""
    assert len(re.findall(rb"(?m)^HTTP/1\.[01] \d{3} ", stream)) == 1, stream
    head, _, body = stream.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), head, body


class GateBackend:
    """A service wrapper whose ``diversify_batch`` blocks until opened.

    ``entered`` fires when a batch reaches the backend, so tests can wait
    until a request is genuinely in flight before acting on it.
    """

    def __init__(self, service):
        self._service = service
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __getattr__(self, name):
        return getattr(self._service, name)

    def diversify_batch(self, queries):
        self.entered.set()
        assert self.gate.wait(timeout=30), "test never opened the gate"
        return self._service.diversify_batch(queries)


@pytest.fixture()
def server(framework_factory, topic_queries):
    service = DiversificationService(framework_factory())
    service.warm(topic_queries)
    with DiversificationHTTPServer(service) as srv:
        yield srv


@pytest.fixture()
def reference(framework_factory, topic_queries):
    """Direct diversify_batch payloads for the same queries, own service."""
    service = DiversificationService(framework_factory())
    service.warm(topic_queries)
    return {
        query: result_payload(result)
        for query, result in zip(
            topic_queries, service.diversify_batch(topic_queries)
        )
    }


# -- POST /diversify -------------------------------------------------------------


class TestDiversify:
    def test_single_query_matches_direct_batch(
        self, server, reference, topic_queries
    ):
        query = topic_queries[0]
        status, body = post(server.base_url + "/diversify", {"query": query})
        assert status == 200
        assert body == reference[query]

    def test_batch_body_matches_direct_batch(
        self, server, reference, topic_queries
    ):
        status, body = post(
            server.base_url + "/diversify", {"queries": topic_queries}
        )
        assert status == 200
        assert body["results"] == [reference[q] for q in topic_queries]

    def test_repeated_queries_keep_request_order(self, server, topic_queries):
        queries = [topic_queries[0], topic_queries[1], topic_queries[0]]
        status, body = post(server.base_url + "/diversify", {"queries": queries})
        assert status == 200
        assert [r["query"] for r in body["results"]] == queries
        assert body["results"][0] == body["results"][2]

    def test_malformed_json_is_400(self, server):
        status, body = post(server.base_url + "/diversify", b"{not json")
        assert status == 400
        assert error_code(body) == "bad_json"

    def test_missing_body_is_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/diversify", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=30)
        assert exc_info.value.code == 400

    @pytest.mark.parametrize(
        "body, code",
        [
            ({}, "invalid_body"),
            ({"query": "a", "queries": ["b"]}, "invalid_body"),
            ({"nope": 1}, "unknown_field"),
            ({"query": ""}, "invalid_query"),
            ({"query": 7}, "invalid_query"),
            ({"queries": []}, "invalid_queries"),
            ({"queries": "not a list"}, "invalid_queries"),
            ({"queries": ["ok", ""]}, "invalid_queries"),
            ({"query": "a", "timeout_ms": 0}, "invalid_timeout"),
            ({"query": "a", "timeout_ms": True}, "invalid_timeout"),
            ({"query": "a", "timeout_ms": "soon"}, "invalid_timeout"),
            # Waits no thread can block for; json emits and reads NaN and
            # Infinity, and the wait itself would raise on each.
            ({"query": "a", "timeout_ms": MAX_TIMEOUT_MS * 2}, "invalid_timeout"),
            ({"query": "a", "timeout_ms": float("inf")}, "invalid_timeout"),
            ({"query": "a", "timeout_ms": float("nan")}, "invalid_timeout"),
        ],
    )
    def test_validation_errors_are_422(self, server, body, code):
        status, got = post(server.base_url + "/diversify", body)
        assert status == 422
        assert error_code(got) == code

    def test_deeply_nested_body_is_400(self, server):
        # Well under MAX_BODY_BYTES, but deeper than the JSON decoder can
        # recurse (it raises RecursionError, not JSONDecodeError).
        status, body = post(server.base_url + "/diversify", b"[" * 200_000)
        assert status == 400
        assert error_code(body) == "bad_json"

    def test_unknown_path_is_404(self, server):
        status, body = get(server.base_url + "/nope")
        assert status == 404
        assert error_code(body) == "not_found"

    def test_wrong_method_is_405(self, server):
        status, body = get(server.base_url + "/diversify")
        assert status == 405
        assert error_code(body) == "method_not_allowed"
        status, body = post(server.base_url + "/health")
        assert status == 405


class TestBodyLimits:
    """``Content-Length`` is outside input: it is checked before a byte
    of the body is read or allocated."""

    def _declare(self, server, length: str, body: bytes = b""):
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/diversify")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders(body)
            response = connection.getresponse()
            return response.status, json.load(response), response.getheader(
                "Connection"
            )
        finally:
            connection.close()

    def test_declared_body_over_limit_is_413_without_reading_it(self, server):
        # No body follows the headers: the refusal cannot have waited for one.
        status, body, connection = self._declare(server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert error_code(body) == "body_too_large"
        assert str(MAX_BODY_BYTES) in body["error"]["message"]
        assert connection == "close"

    @pytest.mark.parametrize("length", ["-1", "-9999999999", "ten"])
    def test_negative_or_garbled_length_is_400(self, server, length):
        status, body, connection = self._declare(server, length)
        assert status == 400
        assert error_code(body) == "bad_length"
        assert connection == "close"

    def test_body_exactly_at_limit_is_served(
        self, server, reference, topic_queries
    ):
        payload = json.dumps({"query": topic_queries[0]}).encode("utf-8")
        padded = payload + b" " * (MAX_BODY_BYTES - len(payload))
        status, body, _ = self._declare(server, str(len(padded)), padded)
        assert status == 200
        assert body == reference[topic_queries[0]]


class TestKeepAlive:
    """A reply leaves in one flush on a TCP_NODELAY socket.  Sent as
    headers then body, or past the 8 KiB write buffer with Nagle's
    algorithm on, its last segment waits for the client's delayed ACK:
    a round trip of >= 40 ms on a reused connection."""

    ROUNDS = 20
    LIMIT_MS = 20.0

    def _median_ms(self, connection, body: bytes) -> tuple[float, int]:
        times, size = [], 0
        for _ in range(self.ROUNDS):
            start = time.perf_counter()
            connection.request(
                "POST", "/diversify", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = response.read()
            times.append((time.perf_counter() - start) * 1000.0)
            assert response.status == 200
            size = len(payload)
        return statistics.median(times), size

    def test_hits_on_a_reused_connection_cost_no_ack_timer(
        self, server, topic_queries
    ):
        single = json.dumps({"query": topic_queries[0]}).encode("utf-8")
        batch = json.dumps({"queries": (topic_queries * 4)[:24]}).encode("utf-8")
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            self._median_ms(connection, batch)  # prime the result cache
            single_ms, _ = self._median_ms(connection, single)
            batch_ms, batch_bytes = self._median_ms(connection, batch)
        finally:
            connection.close()
        assert batch_bytes > 8192  # over the write buffer: two sends
        assert single_ms < self.LIMIT_MS
        assert batch_ms < self.LIMIT_MS

    def test_expect_100_continue_is_answered_before_the_body(
        self, server, reference, topic_queries
    ):
        body = json.dumps({"query": topic_queries[0]}).encode("utf-8")
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(
                b"POST /diversify HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n" % len(body)
            )
            # The client holds the body back until the interim reply
            # arrives; a buffered one left unflushed would stall here.
            assert sock.recv(1024).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            assert json.loads(response.read()) == reference[topic_queries[0]]


class TestSlowClients:
    """A client that stops sending mid-request (slow-loris) is cut off
    after ``READ_TIMEOUT_S`` without a reply, and the server goes on
    serving everyone else."""

    @pytest.fixture()
    def impatient_server(self, framework_factory, monkeypatch):
        monkeypatch.setattr(http_module, "READ_TIMEOUT_S", 0.2)
        with DiversificationHTTPServer(
            DiversificationService(framework_factory())
        ) as srv:
            yield srv

    @pytest.mark.parametrize(
        "partial",
        [
            b"GET /hea",
            b"POST /diversify HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
            b'{"query": "app',
        ],
        ids=["half_request_line", "half_declared_body"],
    )
    def test_stalled_client_is_closed_unanswered(self, impatient_server, partial):
        with socket.create_connection(impatient_server.address, timeout=10) as sock:
            sock.sendall(partial)
            started = time.perf_counter()
            # End of stream, not a status line: no 500 for a body that
            # never came, and no wait anywhere near the client's timeout.
            assert sock.recv(1024) == b""
            assert time.perf_counter() - started < 5
        status, body = get(impatient_server.base_url + "/health")
        assert (status, body["status"]) == (200, "ok")


# -- the header reader -----------------------------------------------------------


class TestHeaderLimits:
    """The stdlib's limits, kept: a 65,536-byte line and 100 lines (the
    blank one that ends the block counted).  No blank line follows the
    offending one, so the refusal cannot have waited for the block's end."""

    HEAD = b"GET /health HTTP/1.1\r\nHost: test\r\n"

    def test_header_line_over_the_limit_is_431(self, server):
        line = b"X-Long: " + b"a" * (65_537 - len(b"X-Long: \r\n")) + b"\r\n"
        assert len(line) == 65_537
        status, _, _ = only_reply(exchange(server, self.HEAD + line))
        assert status == 431

    def test_more_than_100_header_lines_is_431(self, server):
        lines = b"".join(b"X-H%d: v\r\n" % i for i in range(100))
        status, _, _ = only_reply(exchange(server, self.HEAD + lines))
        assert status == 431  # 101 header lines, Host included

    def test_block_at_the_limits_is_served(self, server):
        lines = b"".join(b"X-H%d: v\r\n" % i for i in range(97))
        line = b"X-Long: " + b"a" * (65_536 - len(b"X-Long: \r\n")) + b"\r\n"
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(self.HEAD + lines + line + b"\r\n")
            response = http.client.HTTPResponse(sock)
            response.begin()  # Host, 97 + 1 lines and the blank one = 100
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"


class TestRequestLine:
    """The request line is judged by CPython 3.11's rules."""

    @pytest.mark.parametrize(
        "line, status",
        [
            (b"GET /health HTTP/1.1", 200),
            (b"GET //health HTTP/1.1", 200),  # a leading // reduces to /
            (b"GET /health HTTP/1.0", 200),
            (b"GET /health HTTP/2.0", 505),
            (b"GET /health HTTP/1", 400),
            (b"GET /health HTTP/1.\xb2", 400),
            (b"GET /health HTTP/1.1 extra", 400),
            (b"GET /health HTTP/3.0", 505),
            (b"GET /health HTTPS/1.1", 400),
            (b"GET /health HTTP/12345678901.1", 400),  # > 10 digits
            (b"GET /a b HTTP/1.1", 400),  # a good version, four words
            (b"POST /health", 400),  # HTTP/0.9 knows only GET
            (b"GET", 400),  # one word: no version to answer in
        ],
    )
    def test_status_of_request_line(self, server, line, status):
        stream = exchange(server, line + b"\r\nConnection: close\r\n\r\n")
        if status == 200:
            assert only_reply(stream)[0] == 200
            return
        code = {400: "bad_request_line", 505: "http_version_not_supported"}
        if len(line.split()) < 3:
            # HTTP/0.9 has no status line: the refusal is the bare body.
            assert not stream.startswith(b"HTTP/")
            assert error_code(json.loads(stream)) == code[status]
        else:
            got, head, body = only_reply(stream)
            assert (got, head[:9]) == (status, b"HTTP/1.1 ")
            assert b"\r\nConnection: close" in head
            assert error_code(json.loads(body)) == code[status]

    def test_http_09_get_is_answered_without_a_status_line(self, server):
        stream = exchange(server, b"GET /health\r\n\r\n")
        assert json.loads(stream)["status"] == "ok"


class TestRefusedFraming:
    """Framing the server cannot honour is refused before any body is
    read, and the connection closes: nothing the client sent after the
    offending line can be taken for a next request."""

    HEAD = b"POST /diversify HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"

    @pytest.fixture()
    def body(self, topic_queries) -> bytes:
        return json.dumps({"query": topic_queries[0]}).encode("utf-8")

    def _refusal(self, server, raw: bytes) -> tuple[int, str]:
        status, head, body = only_reply(exchange(server, raw))
        assert b"\r\nConnection: close" in head
        return status, error_code(json.loads(body))

    def test_conflicting_content_lengths_are_400(self, server, body):
        raw = self.HEAD + b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n" % (
            len(body), len(body) + 1
        )
        assert self._refusal(server, raw + body) == (400, "bad_length")

    def test_repeated_equal_content_length_is_served(
        self, server, reference, topic_queries, body
    ):
        raw = self.HEAD + b"Content-Length: %d\r\n" % len(body) * 2
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(raw + b"Connection: close\r\n\r\n" + body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            assert json.loads(response.read()) == reference[topic_queries[0]]

    def test_transfer_encoding_is_501(self, server, body):
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        raw = self.HEAD + b"Transfer-Encoding: chunked\r\n\r\n" + chunked
        assert self._refusal(server, raw) == (501, "unsupported_transfer_encoding")

    def test_header_line_without_colon_is_400(self, server, body):
        raw = self.HEAD + b"Content-Length: %d\r\nno colon here\r\n\r\n" % len(body)
        assert self._refusal(server, raw + body) == (400, "bad_header")

    def test_obs_fold_continuation_is_400(self, server, body):
        raw = self.HEAD + b"Content-Length: %d\r\nX-Note: one\r\n two\r\n\r\n" % (
            len(body)
        )
        assert self._refusal(server, raw + body) == (400, "bad_header")


# -- the reply memo --------------------------------------------------------------


class TestReplyMemo:
    """A hit's encoded reply is memoised: served while the service answers
    the same result object, and byte-identical to encoding it afresh."""

    def test_replies_are_the_bytes_of_result_payload(self, server, topic_queries):
        queries = topic_queries[:3] + topic_queries[:1]
        for _ in range(3):  # misses, then hits that fill and use the memo
            _, single = post_raw(server, {"query": queries[0]})
            _, batch = post_raw(server, {"queries": queries})
            results = [server.service.cached(query) for query in queries]
            assert single == json.dumps(result_payload(results[0])).encode("utf-8")
            assert batch == json.dumps(
                {"results": [result_payload(result) for result in results]}
            ).encode("utf-8")
        _, stats = get(server.base_url + "/stats")
        assert stats["caches"]["reply"]["hits"] > 0

    def test_memo_holds_hits_only_and_is_bounded_by_ring_size(
        self, framework_factory, topic_queries
    ):
        assert len(topic_queries) > 2
        service = DiversificationService(framework_factory())
        with DiversificationHTTPServer(service, ring_size=2) as srv:
            post(srv.base_url + "/diversify", {"queries": topic_queries})
            _, cold = get(srv.base_url + "/stats")
            for _ in range(2):
                post(srv.base_url + "/diversify", {"queries": topic_queries})
            _, hot = get(srv.base_url + "/stats")
        assert cold["caches"]["reply"]["size"] == 0  # every query missed
        reply = hot["caches"]["reply"]
        assert (reply["size"], reply["maxsize"]) == (2, 2)
        assert reply["evictions"] > 0

    def test_concurrent_hits_under_churn_stay_byte_identical(
        self, framework_factory, reference, topic_queries
    ):
        """More client threads than cores, a short switch interval, a
        memo smaller than the query set and result-cache invalidations
        mid-run: every reply is still the encoding of its own query's
        result, and the memo stays within its bound."""
        want = {q: json.dumps(reference[q]).encode("utf-8") for q in topic_queries}
        wrong: list[str] = []
        service = DiversificationService(framework_factory())

        def client(offset: int) -> None:
            connection = http.client.HTTPConnection(*srv.address, timeout=30)
            try:
                for i in range(40):
                    query = topic_queries[(offset + i) % len(topic_queries)]
                    connection.request(
                        "POST", "/diversify", body=json.dumps({"query": query}),
                        headers={"Content-Type": "application/json"},
                    )
                    if connection.getresponse().read() != want[query]:
                        wrong.append(query)
            finally:
                connection.close()

        interval = sys.getswitchinterval()
        with DiversificationHTTPServer(service, ring_size=2) as srv:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for _ in range(5):
                    time.sleep(0.01)
                    service.invalidate()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            _, stats = get(srv.base_url + "/stats")
        assert wrong == []
        reply = stats["caches"]["reply"]
        assert reply["size"] <= 2 and reply["hits"] > 0

    def test_a_replaced_result_is_encoded_afresh(self, server, topic_queries):
        query = topic_queries[0]
        post_raw(server, {"query": query})
        _, before = post_raw(server, {"query": query})  # memoised
        stale = server.service.cached(query)
        server.service.invalidate()
        post_raw(server, {"query": query})  # recomputed: a new object
        _, after = post_raw(server, {"query": query})
        fresh = server.service.cached(query)
        assert fresh is not stale
        assert after == json.dumps(result_payload(fresh)).encode("utf-8")
        assert after == before  # the same answer, encoded from the new object
        _, stats = get(server.base_url + "/stats")
        reply = stats["caches"]["reply"]
        assert (reply["hits"], reply["misses"]) == (0, 2)  # fill, then stale


# -- GET /results ----------------------------------------------------------------


class TestResultsPagination:
    def test_empty_ring(self, server):
        status, body = get(server.base_url + "/results")
        assert status == 200
        assert body["items"] == []
        assert body["page"] == {
            "total": 0,
            "limit": DEFAULT_PAGE_LIMIT,
            "offset": 0,
            "next_cursor": None,
            "has_more": False,
        }

    def test_offset_walk_covers_ring_in_serve_order(self, server, topic_queries):
        post(server.base_url + "/diversify", {"queries": topic_queries})
        seen = []
        offset = 0
        while True:
            status, body = get(
                f"{server.base_url}/results?limit=2&offset={offset}"
            )
            assert status == 200
            seen.extend(item["query"] for item in body["items"])
            if not body["page"]["has_more"]:
                break
            offset += len(body["items"])
        assert seen == topic_queries

    def test_offset_past_end_is_empty_not_error(self, server, topic_queries):
        post(server.base_url + "/diversify", {"query": topic_queries[0]})
        status, body = get(server.base_url + "/results?offset=999")
        assert status == 200
        assert body["items"] == []
        assert body["page"]["has_more"] is False
        assert body["page"]["total"] == 1

    def test_cursor_walk_is_gapless_and_ascending(self, server, topic_queries):
        post(server.base_url + "/diversify", {"queries": topic_queries})
        seqs, cursor = [], "0"
        while True:
            status, body = get(
                f"{server.base_url}/results?limit=2&cursor={cursor}"
            )
            assert status == 200
            seqs.extend(item["seq"] for item in body["items"])
            if not body["page"]["has_more"]:
                break
            cursor = body["page"]["next_cursor"]
        assert seqs == list(range(1, len(topic_queries) + 1))

    def test_cursor_past_end_is_empty(self, server, topic_queries):
        post(server.base_url + "/diversify", {"query": topic_queries[0]})
        status, body = get(server.base_url + "/results?cursor=999")
        assert status == 200
        assert body["items"] == []
        assert body["page"]["has_more"] is False

    def test_bad_cursor_is_400(self, server):
        status, body = get(server.base_url + "/results?cursor=xyzzy")
        assert status == 400
        assert error_code(body) == "bad_cursor"

    @pytest.mark.parametrize("param", ["limit=abc", "limit=0", "offset=-1"])
    def test_bad_paging_params_are_400(self, server, param):
        status, body = get(f"{server.base_url}/results?{param}")
        assert status == 400

    def test_limit_clamps_at_max(self, server, topic_queries):
        post(server.base_url + "/diversify", {"query": topic_queries[0]})
        status, body = get(f"{server.base_url}/results?limit=99999")
        assert status == 200
        assert body["page"]["limit"] == MAX_PAGE_LIMIT

    def test_ring_is_bounded(self, framework_factory, topic_queries):
        service = DiversificationService(framework_factory())
        service.warm(topic_queries)
        with DiversificationHTTPServer(service, ring_size=2) as srv:
            post(srv.base_url + "/diversify", {"queries": topic_queries[:4]})
            status, body = get(srv.base_url + "/results")
            assert status == 200
            assert body["page"]["total"] == 2
            # the ring keeps the most recent entries
            assert [i["query"] for i in body["items"]] == topic_queries[2:4]


# -- GET /health and GET /stats --------------------------------------------------

#: The top-level `/stats` blocks.
STATS_KEYS = {"front", "backend", "caches", "ring", "inflight", "draining"}


class TestHealthAndStats:
    def test_health_single_service(self, server):
        status, body = get(server.base_url + "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["running"] is True
        assert body["kind"] == "single"

    def test_health_sharded_cluster(self, framework_factory, topic_queries):
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(), num_shards=2
        )
        cluster.warm(topic_queries)
        try:
            with DiversificationHTTPServer(cluster) as srv:
                status, body = get(srv.base_url + "/health")
                assert status == 200
                assert body["kind"] == "sharded"
                assert body["shards"] == 2
                assert body["execution_backend"] == "inline"
        finally:
            cluster.close()

    def test_stats_counts_served_requests(self, server, topic_queries):
        post(server.base_url + "/diversify", {"queries": topic_queries[:3]})
        status, body = get(server.base_url + "/stats")
        assert status == 200
        assert body["backend"]["served"] == 3
        assert body["front"]["served"] == 3
        assert body["ring"]["size"] == 3
        assert body["caches"]["specialization"]["maxsize"] > 0
        assert body["draining"] is False
        latency = body["backend"]["latency"]
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]

    def test_stats_key_sets_are_pinned(self, server, topic_queries):
        """The `/stats` contract: a block added or removed is a change a
        client can see, so it has to show up here first."""
        post(server.base_url + "/diversify", {"queries": topic_queries[:1]})
        _, body = get(server.base_url + "/stats")
        assert set(body) == STATS_KEYS
        for stats in (body["front"], body["backend"]):
            assert set(stats) == {
                "name", "served", "ranked", "diversified", "batches",
                "seconds", "busy_seconds", "throughput_qps", "latency",
                "formation", "replication", "page_cache", "ingest",
            }

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the process cluster relies on fork inheriting the fixtures",
    )
    def test_process_cluster_reports_a_killed_worker(
        self, framework_factory, topic_queries
    ):
        """One worker per shard: a worker killed between requests is
        respawned by the next request, and `/health` and `/stats` show
        it."""
        cluster = ShardedDiversificationService.from_factory(
            lambda shard: framework_factory(), num_shards=2, backend="process"
        )
        killed = 1
        try:
            with DiversificationHTTPServer(cluster) as srv:
                _, before = get(srv.base_url + "/health")
                cluster.backend.kill_worker(killed)
                status, _ = post(
                    srv.base_url + "/diversify", {"queries": topic_queries}
                )
                assert status == 200
                _, health = get(srv.base_url + "/health")
                status, stats = get(srv.base_url + "/stats")
        finally:
            cluster.close()
        assert health["execution_backend"] == "process"
        assert set(health["workers"]) == {"0", "1"}
        for entry in health["workers"].values():
            assert set(entry) == {"alive", "pid", "respawns"}
            assert entry["alive"] is True
        assert health["workers"]["0"]["respawns"] == 0
        assert health["workers"]["0"]["pid"] == before["workers"]["0"]["pid"]
        assert health["workers"]["1"]["respawns"] == 1
        assert health["workers"]["1"]["pid"] != before["workers"]["1"]["pid"]
        assert status == 200
        assert set(stats) == STATS_KEYS
        # Found dead before dispatch: a respawn, not a failed-over call.
        per_shard = [s["replication"] for s in stats["backend"]["shards"]]
        assert per_shard == [
            {"respawns": 0, "failovers": 0},
            {"respawns": 1, "failovers": 0},
        ]
        assert stats["backend"]["replication"] == {"respawns": 1, "failovers": 0}


# -- concurrency, shedding, drain ------------------------------------------------


class TestConcurrencyAndDrain:
    def test_concurrent_clients_match_direct_batch(
        self, server, reference, topic_queries
    ):
        queries = (topic_queries * 3)[: len(topic_queries) * 3]
        outcomes: list[tuple[int, dict] | None] = [None] * len(queries)

        def client(index: int, query: str) -> None:
            outcomes[index] = post(
                server.base_url + "/diversify", {"query": query}
            )

        threads = [
            threading.Thread(target=client, args=(i, q))
            for i, q in enumerate(queries)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for query, outcome in zip(queries, outcomes):
            assert outcome is not None
            status, body = outcome
            assert status == 200
            assert body == reference[query]

    def test_overload_sheds_with_429(self, framework_factory, topic_queries):
        backend = GateBackend(DiversificationService(framework_factory()))
        backend.warm(topic_queries)
        with DiversificationHTTPServer(backend, max_inflight=1) as srv:
            first: list[tuple[int, dict]] = []

            def client():
                first.append(
                    post(srv.base_url + "/diversify", {"query": topic_queries[0]})
                )

            thread = threading.Thread(target=client)
            thread.start()
            assert backend.entered.wait(timeout=10)
            status, body = post(
                srv.base_url + "/diversify", {"query": topic_queries[1]}
            )
            assert status == 429
            assert error_code(body) == "overloaded"
            backend.gate.set()
            thread.join(timeout=30)
            assert first and first[0][0] == 200

    def test_request_timeout_is_503(self, framework_factory, topic_queries):
        backend = GateBackend(DiversificationService(framework_factory()))
        backend.warm(topic_queries)
        with DiversificationHTTPServer(backend) as srv:
            status, body = post(
                srv.base_url + "/diversify",
                {"query": topic_queries[0], "timeout_ms": 50},
            )
            assert status == 503
            assert error_code(body) == "timeout"
            backend.gate.set()  # let the in-flight batch finish before close

    def test_drain_completes_inflight_and_rejects_new(
        self, framework_factory, topic_queries
    ):
        backend = GateBackend(DiversificationService(framework_factory()))
        backend.warm(topic_queries)
        with DiversificationHTTPServer(backend) as srv:
            outcomes: list[tuple[int, dict] | None] = [None] * 3

            def client(index: int) -> None:
                outcomes[index] = post(
                    srv.base_url + "/diversify",
                    {"query": topic_queries[index]},
                )

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            assert backend.entered.wait(timeout=10)

            drained: list[tuple[int, dict]] = []
            drainer = threading.Thread(
                target=lambda: drained.append(post(srv.base_url + "/drain"))
            )
            drainer.start()
            backend.gate.set()
            drainer.join(timeout=30)
            for thread in threads:
                thread.join(timeout=30)

            # zero dropped futures: every admitted request completed
            assert all(outcome is not None for outcome in outcomes)
            statuses = sorted(status for status, _ in outcomes)
            ok = statuses.count(200)
            assert ok >= 1  # at least the gated in-flight request
            assert set(statuses) <= {200, 503}

            status, report = drained[0]
            assert status == 200
            assert report["served_total"] == ok
            assert report["already_drained"] is False

            # health reflects the drained state; reads still answered
            status, health = get(srv.base_url + "/health")
            assert status == 200
            assert health["status"] == "drained"

            # new work is rejected, idempotent drain reports itself
            status, body = post(
                srv.base_url + "/diversify", {"query": topic_queries[0]}
            )
            assert status == 503
            assert error_code(body) == "draining"
            status, second = post(srv.base_url + "/drain")
            assert status == 200
            assert second["already_drained"] is True
            assert second["served_total"] == report["served_total"]


class TestStart:
    def test_refused_bind_leaves_no_thread_behind(self, framework_factory):
        service = DiversificationService(framework_factory())
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(OSError):
                with DiversificationHTTPServer(service, port=port):
                    pass  # pragma: no cover - the bind must fail
        assert not [
            thread for thread in threading.enumerate()
            if thread.name == "repro-http-loop"
        ]


# -- result-cache hits on the handler thread -------------------------------------


def _batched(stats: dict) -> int:
    """Requests a ``/stats`` block's batch-size histogram has seen."""
    return sum(
        int(size) * count
        for size, count in stats["formation"]["batch_sizes"].items()
    )


def _wait_for(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestHitsSkipTheLoop:
    """A result-cache hit is answered on the handler thread: only misses
    are sent to the event loop."""

    def test_hit_answers_while_the_event_loop_is_blocked(
        self, server, reference, topic_queries
    ):
        hot = topic_queries[0]
        server.service.diversify_batch([hot])  # a result-cache hit from here on
        parked, release = threading.Event(), threading.Event()

        def park() -> None:
            parked.set()
            release.wait(timeout=30)

        server._loop.call_soon_threadsafe(park)
        assert parked.wait(timeout=10)
        try:
            status, body = post(
                server.base_url + "/diversify", {"query": hot, "timeout_ms": 2000}
            )
        finally:
            release.set()
        assert status == 200
        assert body == reference[hot]

    def test_mixed_request_keeps_order_and_counts_each_query_once(
        self, server, reference, topic_queries
    ):
        hit_a, miss, hit_b = topic_queries[:3]
        server.service.diversify_batch([hit_a, hit_b])
        _, before = get(server.base_url + "/stats")
        status, body = post(
            server.base_url + "/diversify", {"queries": [hit_a, miss, hit_b]}
        )
        _, after = get(server.base_url + "/stats")
        assert status == 200
        assert body["results"] == [reference[q] for q in (hit_a, miss, hit_b)]
        result_before = before["caches"]["result"]
        result_after = after["caches"]["result"]
        assert result_after["hits"] - result_before["hits"] == 2
        assert result_after["misses"] - result_before["misses"] == 1
        assert after["front"]["served"] - before["front"]["served"] == 3
        assert _batched(after["front"]) - _batched(before["front"]) == 1
        assert after["backend"]["served"] - before["backend"]["served"] == 1
        _, page = get(server.base_url + "/results")
        assert [item["query"] for item in page["items"][-3:]] == [hit_a, miss, hit_b]

    def test_hits_racing_drain_are_counted_or_refused(
        self, framework_factory, reference, topic_queries
    ):
        service = DiversificationService(framework_factory())
        service.warm(topic_queries)
        hot, cold = topic_queries[:3], topic_queries[3]
        service.diversify_batch(hot)
        backend = GateBackend(service)
        with DiversificationHTTPServer(backend) as srv:
            url = srv.base_url + "/diversify"
            # A gated miss holds the drain open in the middle of its flush.
            missed: list[tuple[int, dict]] = []
            misser = threading.Thread(
                target=lambda: missed.append(post(url, {"query": cold}))
            )
            misser.start()
            assert backend.entered.wait(timeout=10)

            outcomes: list[list[tuple[int, dict]]] = [[] for _ in hot]

            def client(index: int) -> None:
                """Send one hit after another until one is refused."""
                connection = http.client.HTTPConnection(*srv.address, timeout=30)
                try:
                    while True:
                        connection.request(
                            "POST", "/diversify",
                            body=json.dumps({"query": hot[index]}),
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        outcomes[index].append(
                            (response.status, json.loads(response.read()))
                        )
                        if response.status != 200:
                            return
                finally:
                    connection.close()

            clients = [
                threading.Thread(target=client, args=(i,)) for i in range(len(hot))
            ]
            for thread in clients:
                thread.start()
            assert _wait_for(lambda: all(len(o) >= 5 for o in outcomes))

            drained: list[tuple[int, dict]] = []
            drainer = threading.Thread(
                target=lambda: drained.append(post(srv.base_url + "/drain"))
            )
            drainer.start()
            assert _wait_for(lambda: srv.draining)
            # Draining has begun (the miss still holds it open): a hit that
            # arrives now is refused, not answered from the cache.
            status, body = post(url, {"query": hot[0]})
            assert status == 503
            assert error_code(body) == "draining"

            backend.gate.set()
            for thread in clients + [misser, drainer]:
                thread.join(timeout=30)
                assert not thread.is_alive()

        assert missed[0] == (200, reference[cold])
        for query, outcome in zip(hot, outcomes):
            *answered, (last_status, last_body) = outcome
            assert last_status == 503
            assert error_code(last_body) == "draining"
            assert answered and all(
                status == 200 and body == reference[query]
                for status, body in answered
            )
        status, report = drained[0]
        assert status == 200
        assert report["served_total"] == 1 + sum(len(o) - 1 for o in outcomes)


# -- request ids and the access log ----------------------------------------------


REQUEST_ID = re.compile(r"[A-Za-z0-9._-]{1,64}")


def request(server, method: str, path: str, body=None, headers=None):
    """One request on its own connection: (status, X-Request-Id, body)."""
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        connection.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        return response.status, response.getheader("X-Request-Id"), payload
    finally:
        connection.close()


class TestRequestIds:
    def test_client_id_is_echoed_on_success_and_error(self, server, topic_queries):
        headers = {"X-Request-Id": "trace-42.a_B"}
        status, rid, _ = request(
            server, "POST", "/diversify", {"query": topic_queries[0]}, headers
        )
        assert (status, rid) == (200, "trace-42.a_B")
        status, rid, _ = request(server, "GET", "/nope", headers=headers)
        assert (status, rid) == (404, "trace-42.a_B")

    def test_missing_id_is_generated_per_request(self, server):
        first = request(server, "GET", "/health")[1]
        second = request(server, "GET", "/health")[1]
        assert REQUEST_ID.fullmatch(first) and REQUEST_ID.fullmatch(second)
        assert first != second

    @pytest.mark.parametrize(
        "hostile", ["x" * 65, "has space", "semi;colon", "über", ""]
    )
    def test_hostile_id_is_replaced(self, server, hostile):
        status, rid, _ = request(
            server, "GET", "/health", headers={"X-Request-Id": hostile}
        )
        assert status == 200
        assert rid != hostile and REQUEST_ID.fullmatch(rid)

    def test_one_access_record_per_request(self, server, topic_queries, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serving.http"):
            _, _, body = request(
                server, "POST", "/diversify", {"query": topic_queries[0]},
                {"X-Request-Id": "log-me"},
            )
        records = [r for r in caplog.records if r.name == "repro.serving.http"]
        assert len(records) == 1
        record = records[0]
        assert record.levelno == logging.INFO
        assert (record.method, record.path, record.status) == (
            "POST", "/diversify", 200,
        )
        assert record.request_id == "log-me"
        assert record.bytes == len(json.dumps(body))
        assert record.ms >= 0.0
        assert "log-me" in record.getMessage()

    def test_access_log_is_off_at_the_default_level(self, server, caplog):
        request(server, "GET", "/health")
        assert not [r for r in caplog.records if r.name == "repro.serving.http"]


# -- hostile bodies: 4xx or the direct answer, never a 5xx -----------------------


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
#: timeout_ms values the server must refuse; valid ones are long enough
#: that no request can time out.
bad_timeouts = (
    st.floats(max_value=0)
    | st.sampled_from([float("nan"), float("inf"), MAX_TIMEOUT_MS * 2, 10**20])
    | st.booleans()
    | st.text(max_size=4)
    | st.lists(st.integers(), max_size=2)
)
timeouts = st.none() | st.integers(30_000, 60_000) | bad_timeouts


def _bodies(queries: list[str]):
    text = st.sampled_from(queries) | st.text(min_size=1, max_size=12)
    well_formed = st.fixed_dictionaries(
        {"query": text}, optional={"timeout_ms": timeouts}
    ) | st.fixed_dictionaries(
        {"queries": st.lists(text, min_size=1, max_size=4)},
        optional={"timeout_ms": timeouts},
    )
    anything = text | json_values
    mixed = st.fixed_dictionaries(
        {},
        optional={
            "query": anything,
            "queries": st.lists(anything, max_size=4) | json_values,
            "timeout_ms": timeouts,
            "extra": json_values,
        },
    )
    as_json = (well_formed | mixed | json_values).map(
        lambda body: json.dumps(body).encode("utf-8")
    )
    depth = st.integers(1_000, 100_000)
    return st.one_of(
        as_json,
        st.binary(max_size=40),  # mostly invalid UTF-8 or invalid JSON
        st.binary(min_size=1, max_size=8).map(  # invalid UTF-8 in a string
            lambda raw: b'{"query": "' + b"\xff" + raw + b'"}'
        ),
        depth.map(lambda n: b"[" * n),
        depth.map(lambda n: b'{"queries": ' + b"[" * n),
    )


def test_fuzzed_diversify_bodies_never_5xx(
    server, framework_factory, topic_queries
):
    direct = DiversificationService(framework_factory())

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(raw=_bodies(topic_queries))
    def check(raw: bytes) -> None:
        status, body = post(server.base_url + "/diversify", raw)
        assert status < 500, (raw[:200], body)
        if status != 200:
            assert 400 <= status < 500 and error_code(body)
            return
        sent = json.loads(raw)
        queries = [sent["query"]] if "query" in sent else sent["queries"]
        want = [result_payload(r) for r in direct.diversify_batch(queries)]
        assert body == (want[0] if "query" in sent else {"results": want})

    check()


# -- hostile header blocks: the stdlib's reading, or a 4xx; never a 5xx ----------


TCHAR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
#: field-value characters: HTAB, SP, VCHAR and obs-text.
FIELD_CHARS = "\t" + "".join(map(chr, range(0x20, 0x7F))) + "".join(
    map(chr, range(0x80, 0x100))
)
#: Names the reader answers for, never refuses; the framing ones have
#: their own tests.
field_names = (
    st.sampled_from(["Host", "Connection", "Expect", "X-Request-Id", "Accept"])
    | st.text(alphabet=TCHAR, min_size=1, max_size=10)
).filter(lambda name: name.lower() not in {"content-length", "transfer-encoding"})
header_fields = st.lists(
    st.tuples(
        field_names,
        st.sampled_from([":", ": ", ":\t", ":  "]),
        st.text(alphabet=FIELD_CHARS, max_size=16),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(fields=header_fields, tail=st.binary(max_size=8))
def test_reader_answers_as_the_stdlib_parser(fields, tail):
    """On a well-formed block, ``get`` answers what ``email`` does for
    every name in any case, the first of repeated names winning, and the
    reader stops at the blank line exactly as the stdlib does."""
    block = b"".join(
        f"{name}{colon}{value}\r\n".encode("latin-1")
        for name, colon, value in fields
    ) + b"\r\n"
    ours, theirs = io.BytesIO(block + tail), io.BytesIO(block + tail)
    got, want = read_headers(ours), http.client.parse_headers(theirs)
    for name, _, _ in fields + [("X-Absent", "", "")]:
        for spelling in (name, name.lower(), name.upper()):
            assert got.get(spelling) == want.get(spelling), spelling
            assert (spelling in got) == (spelling in want)
    assert ours.read() == theirs.read() == tail


#: Lines a hostile or broken client sends; each is one line (no CR/LF
#: inside), so the block ends only at the blank line the test appends.
hostile_lines = st.sampled_from(
    [
        b"Host: test", b"Connection: close", b"Connection: keep-alive",
        b"Expect: 100-continue", b"X-Request-Id: abc", b"X-Request-Id: \xff",
        b"Content-Length: 3", b"Content-Length: -1", b"Content-Length:",
        b"  folded", b"\tfolded", b"no colon", b": empty name",
        b"Name : padded", b"X-A:", b"X-B: \xff\xfe", b"From nobody",
    ]
) | st.binary(min_size=1, max_size=24).filter(
    lambda line: b"\r" not in line and b"\n" not in line
)


def test_fuzzed_header_blocks_never_5xx(server, topic_queries):
    body = json.dumps({"query": topic_queries[0]}).encode("utf-8")

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(lines=st.lists(hostile_lines, max_size=8))
    def check(lines: list[bytes]) -> None:
        raw = (
            b"POST /diversify HTTP/1.1\r\n"
            + b"".join(line + b"\r\n" for line in lines)
            + b"Content-Length: %d\r\n\r\n" % len(body)
            + body
        )
        # A socket timeout here is a handler left waiting on the client.
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(raw)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
        assert response.status < 500, (raw[:200], payload)
        if response.status != 200:
            assert 400 <= response.status < 500 and error_code(payload)

    check()
