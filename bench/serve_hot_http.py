"""serve_hot_http: the pipeline does ~0 work; all time is admission window
+ JSON + socket.

A warmed ``DiversificationService`` behind ``DiversificationHTTPServer``
runs in a child process (``bench/http_child.py``).  This process drives
single-query ``POST /diversify`` over 2 keep-alive connections, closed
loop, one client thread per connection (= nproc of the 2-core sandbox).
Queries are Zipf(s=1) over the 12 topics and the result LRU is primed, so
the hit rate is 100% and the latency distribution is unimodal.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import select
import subprocess
import sys
import threading
import time

from bench import harness, inputs

CLIENTS = 2
#: Requests per pass (both clients together): ~4 s at the seed's 48 ms
#: keep-alive round trip.
PASS_OPS = 160
READY_TIMEOUT_S = 150
EXIT_TIMEOUT_S = 30


def _no_span(name: str):
    return contextlib.nullcontext()


def _read_line(child, timeout_s: float) -> str:
    """One line of the child's stdout, or "" on EOF or timeout."""
    readable, _, _ = select.select([child.stdout], [], [], timeout_s)
    return child.stdout.readline() if readable else ""


class ServeHotHTTP:
    name = "serve_hot_http"
    min_passes = 3
    max_passes = None
    pooled = True  # see harness.summarize

    def __init__(self, seed: int, quick: bool = False, trace: bool = False):
        self.seed = seed
        self.quick = quick
        self.trace = trace
        self.pass_ops = 20 if quick else PASS_OPS
        self.child = None
        self.connections: list[http.client.HTTPConnection] = []
        self.ready: dict = {}
        self.final: dict = {}
        self.non200 = 0
        self.response_bytes: list[int] = []

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        command = [
            sys.executable,
            str(harness.BENCH_DIR / "http_child.py"),
            "--seed",
            str(self.seed),
        ]
        if self.quick:
            command.append("--quick")
        self.child = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = _read_line(self.child, READY_TIMEOUT_S)
        if not line:
            raise RuntimeError("http child did not become ready")
        self.ready = json.loads(line)
        self.connections = [self._connect() for _ in range(CLIENTS)]
        for connection in self.connections:  # untimed warm-up op per client
            self._post(connection, self.ready["queries"][0])
        if self.trace:
            self.stats_before = self._stats()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.ready["port"], timeout=30
        )

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        child, self.child = self.child, None
        if child is None:
            return
        try:
            child.stdin.close()  # the child's cue to report and exit
            line = _read_line(child, EXIT_TIMEOUT_S)
            if line:
                self.final = json.loads(line)
            child.wait(timeout=EXIT_TIMEOUT_S)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            child.kill()
        finally:
            child.wait()
            child.stdout.close()

    # -- requests --------------------------------------------------------------

    @staticmethod
    def _post(connection, query: str, span=_no_span) -> tuple[int, bytes]:
        with span("http.request"):
            with span("http.send"):
                connection.request(
                    "POST",
                    "/diversify",
                    body=json.dumps({"query": query}),
                    headers={"Content-Type": "application/json"},
                )
            with span("http.receive"):
                response = connection.getresponse()
                return response.status, response.read()

    def _stats(self) -> dict:
        connection = self._connect()
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def _client(self, connection, queries, tracer, out: dict) -> None:
        """One closed-loop client: next request only after the reply."""
        latencies, replies = [], []
        span = _no_span if tracer is None else tracer.span
        for query in queries:
            start = time.perf_counter()
            try:
                status, body = self._post(connection, query, span)
            except (OSError, http.client.HTTPException):
                connection.close()  # http.client reconnects on the next request
                status, body = 0, b""
            latencies.append((time.perf_counter() - start) * 1000.0)
            replies.append((query, status, body))
        out["latencies"], out["replies"] = latencies, replies

    def _pass(self, index: int, traced: bool, tracer=None) -> harness.PassResult:
        label = f"zipf-{'traced' if traced else 'plain'}-{index}"
        stream = inputs.zipf_stream(
            self.ready["queries"], self.pass_ops, inputs.derive(self.seed, label)
        )
        tracers = [
            harness.Tracer(base=(2 * index + client + 1) * 10**7) if traced else None
            for client in range(CLIENTS)
        ]
        outs: list[dict] = [{} for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=self._client,
                args=(self.connections[c], stream[c::CLIENTS], tracers[c], outs[c]),
            )
            for c in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if traced:
            for client_tracer in tracers:
                tracer.spans.extend(client_tracer.spans)

        # Output checks run after the clock stops: status, then payload
        # against the child's direct diversify_batch payload.
        latencies, outputs, failed = [], [], 0
        verified: dict[bytes, tuple[bool, list]] = {}
        for out in outs:
            latencies.extend(out["latencies"])
            for query, status, body in out["replies"]:
                if status != 200:
                    self.non200 += 1
                    failed += 1
                    continue
                self.response_bytes.append(len(body))
                if body not in verified:
                    payload = json.loads(body)
                    verified[body] = (
                        harness.digest(payload) == self.ready["expected"].get(query),
                        payload["ranking"],
                    )
                ok, ranking = verified[body]
                failed += not ok
                outputs.append((query, ranking))
        return harness.PassResult(latencies, wall, failed, outputs)

    def run_pass(self, index: int) -> harness.PassResult:
        return self._pass(index, traced=False)

    def traced_pass(self, index: int, tracer) -> harness.PassResult:
        return self._pass(index, traced=True, tracer=tracer)

    # -- results ---------------------------------------------------------------

    def check(self, passes, traced) -> tuple[int, int]:
        return 0, 0  # every reply was already checked in its pass

    def digest_value(self, passes):
        return passes[0].outputs

    def extras(self, passes) -> dict[str, float]:
        pooled = [ms for p in passes for ms in p.latencies_ms]
        return {"latency_p99_ms": harness.percentile(pooled, 0.99)}

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.child.pid)

    def layers(self, passes, traced, totals, ops: int) -> dict[str, float]:
        pooled = [ms for p in passes for ms in p.latencies_ms]
        fresh_ms = []
        for i in range(10 if self.quick else 100):
            query = self.ready["queries"][i % len(self.ready["queries"])]
            start = time.perf_counter()
            connection = self._connect()
            try:
                status, _body = self._post(connection, query)
            finally:
                connection.close()
            fresh_ms.append((time.perf_counter() - start) * 1000.0)
            self.non200 += status != 200
        after, before = self._stats(), self.stats_before
        result_after = after["caches"]["result"]
        result_before = before["caches"]["result"]
        hits = result_after["hits"] - result_before["hits"]
        misses = result_after["misses"] - result_before["misses"]
        self.teardown()  # the child reports its front-end stats on exit
        ready, stages = self.ready, self.ready["stages"]
        out = {
            "service.result_cache_hit_rate": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "speccache.hit_rate": after["caches"]["specialization"]["hit_rate"],
            "service.warm_s": stages["warm_s"],
            "service.warm_bytes": ready["warm_bytes"],
            "service.direct_p50_ms": ready["direct_p50_ms"],
            "async.queue_wait_p50_ms": self.final.get("queue_wait_p50_ms", 0.0),
            "async.mean_batch_size": self.final.get("mean_batch_size", 0.0),
            "http.overhead_p50_ms": (
                harness.percentile(pooled, 0.5) - ready["direct_p50_ms"]
            ),
            "http.newconn_p50_ms": harness.percentile(fresh_ms, 0.5),
            "http.p99_ms": harness.percentile(pooled, 0.99),
            "http.response_bytes": harness.median(self.response_bytes),
            "http.non200": self.non200,
            **ready["index"],
        }
        out.update({f"setup.{name}": value for name, value in stages.items()})
        return out
