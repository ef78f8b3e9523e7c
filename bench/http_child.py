"""Server process of ``serve_hot_http``: the process under test.

Builds the serving stack from ``--seed``, warms it, primes the result LRU
with every topic query, starts ``DiversificationHTTPServer`` on an
ephemeral port and prints one ``ready`` JSON line.  It then blocks on
stdin; when the parent closes it, the child prints a final JSON line of
front-end statistics and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(_ROOT)
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(1, str(_ROOT / "src"))

from bench import harness, inputs  # noqa: E402
from repro.serving.http import DiversificationHTTPServer, result_payload  # noqa: E402
from repro.serving.service import DiversificationService  # noqa: E402

#: Direct (in-process) result-cache hits timed for ``service.direct_p50_ms``.
DIRECT_SAMPLES = 400


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    scale = inputs.QUICK_SCALE if args.quick else inputs.SERVING_SCALE
    stack = inputs.build_stack(scale, args.seed)
    service = DiversificationService(
        inputs.make_framework(stack.engine, stack.miner)
    )
    warm = service.warm(stack.queries)
    # Prime the result LRU: from here on every request is a cache hit.
    expected = {
        result.query: harness.digest(result_payload(result))
        for result in service.diversify_batch(stack.queries)
    }
    direct_ms = []
    for i in range(DIRECT_SAMPLES):
        query = stack.queries[i % len(stack.queries)]
        start = time.perf_counter()
        service.diversify_batch([query])
        direct_ms.append((time.perf_counter() - start) * 1000.0)

    with DiversificationHTTPServer(service) as server:
        print(
            json.dumps(
                {
                    "port": server.address[1],
                    "queries": stack.queries,
                    "expected": expected,
                    "stages": {**stack.stages, "warm_s": warm.seconds},
                    "warm_bytes": service.warm_memory_estimate()["total_bytes"],
                    "direct_p50_ms": harness.percentile(direct_ms, 0.5),
                    "index": inputs.index_layers(
                        stack.engine,
                        len(stack.corpus.collection),
                        stack.stages["index_s"],
                    ),
                }
            ),
            flush=True,
        )
        sys.stdin.read()
        front = server.front.stats
        print(
            json.dumps(
                {
                    "queue_wait_p50_ms": front.wait_percentile_ms(0.5),
                    "mean_batch_size": front.mean_batch_size,
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
