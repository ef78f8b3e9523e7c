"""Quickstart: diversify an ambiguous query end to end, the served way.

Builds the whole stack at toy scale — synthetic web corpus, DPH search
engine, synthetic query log, specialization miner — then serves the
paper's pipeline through :class:`~repro.serving.DiversificationService`:
``warm()`` precomputes the specialization artifacts offline (Section 4.1)
and ``diversify()`` answers from the warmed caches, printing the baseline
SERP next to the OptSelect-diversified SERP with ground-truth aspect
labels plus the service's latency/cache statistics.

Run::

    python examples/quickstart.py
"""

from __future__ import annotations

import asyncio

from repro import (
    AOL_PROFILE,
    AsyncDiversificationService,
    CorpusConfig,
    DiversificationFramework,
    DiversificationService,
    FrameworkConfig,
    OptSelect,
    SearchEngine,
    ShardedDiversificationService,
    SpecializationMiner,
    generate_corpus,
    generate_query_log,
)


def main() -> None:
    print("1. generating a synthetic ambiguous-topic corpus ...")
    corpus = generate_corpus(
        CorpusConfig(num_topics=8, docs_per_aspect=12, background_docs=200)
    )
    print(f"   {len(corpus.collection)} documents, {len(corpus.topics)} topics")

    print("2. indexing with the DPH search engine ...")
    engine = SearchEngine(corpus.collection)

    print("3. synthesising an AOL-like query log ...")
    log = generate_query_log(corpus, AOL_PROFILE.scaled(0.15))
    print(f"   {len(log)} records from {log.num_users} users")

    print("4. training the specialization miner (QFG + Search Shortcuts) ...")
    miner = SpecializationMiner(log).build()

    framework = DiversificationFramework(
        engine,
        miner,
        OptSelect(),
        FrameworkConfig(k=10, candidates=150, spec_results=15, threshold=0.2),
    )
    service = DiversificationService(framework)

    print("5. warming the service (offline specialization artifacts) ...")
    report = service.warm(topic.query for topic in corpus.topics)
    print(
        f"   {report.ambiguous}/{report.queries} queries ambiguous, "
        f"{report.fetched} specialization lists precomputed "
        f"in {report.seconds:.2f}s"
    )

    # Pick the most-queried topic — it is certain to be mined.
    topic = max(corpus.topics, key=lambda t: log.frequency(t.query))
    query = topic.query
    print(f"\n6. serving the ambiguous query {query!r}")

    result = service.diversify(query)
    if not result.diversified:
        print("   Algorithm 1 did not flag the query; try a larger log scale")
        return

    print("   mined specializations P(q'|q):")
    for spec, p in result.specializations:
        truth = topic.popularity_of(spec)
        print(f"     {spec:30s} mined={p:.2f} ground-truth={truth:.2f}")

    def aspect_of(doc_id: str) -> str:
        topic_id, aspect = corpus.labels.get(doc_id, (None, None))
        if topic_id != topic.topic_id:
            return "off-topic"
        return f"aspect {aspect}"

    baseline = result.baseline.doc_ids[: len(result.ranking)]
    print(f"\n   {'rank':4s}  {'baseline (DPH)':24s}  {'OptSelect':24s}")
    for i, (b, d) in enumerate(zip(baseline, result.ranking), start=1):
        print(
            f"   {i:4d}  {b} ({aspect_of(b):9s})   {d} ({aspect_of(d):9s})"
        )

    covered_base = {aspect_of(d) for d in baseline}
    covered_div = {aspect_of(d) for d in result.ranking}
    print(
        f"\n   aspects covered: baseline={len(covered_base)}, "
        f"diversified={len(covered_div)}"
    )

    # Serve the same query again: the bounded result LRU answers it.
    service.diversify(query)
    print(f"\n   service: {service.stats.summary()}")
    print(
        f"   caches: specialization hit rate "
        f"{service.spec_cache_info().hit_rate:.0%}, "
        f"result hit rate {service.result_cache_info().hit_rate:.0%}"
    )

    # Scale out: the same traffic through a hash-routed 4-shard cluster.
    # Every shard runs an identical framework, so the cluster must serve
    # exactly the rankings the single service served.
    print("\n7. serving the workload through a 4-shard cluster ...")
    cluster = ShardedDiversificationService.from_factory(
        lambda shard: DiversificationFramework(
            engine, miner, OptSelect(), framework.config
        ),
        num_shards=4,
    )
    queries = [t.query for t in corpus.topics]
    cluster.warm(queries)
    cluster_results = {r.query: r for r in cluster.diversify_batch(queries)}
    assert cluster_results[query].ranking == result.ranking
    print(f"   routed {query!r} to shard {cluster.route(query)}; "
          f"rankings identical to the single service")
    print(f"   cluster: {cluster.cluster_stats().summary()}")
    for stats in cluster.shard_stats():
        print(f"   {stats.summary()}")

    # The offline phase is a disk artifact, not a ritual: persist the
    # index and the cluster's warm state into one store file, then bring
    # up a *process-backed* cluster — every shard in its own OS worker —
    # over an engine attached to that store.  Each shard hydrates its
    # specialization lists from the store's rows instead of re-deriving
    # them.  On a multi-core host this is the fan-out the GIL cannot
    # serialise; rankings are identical either way.
    print("\n8. persisting index + warm state and attaching a process-backed "
          "cluster ...")
    import multiprocessing
    import tempfile

    from repro.retrieval.store import StoreBackedSearchEngine
    from repro.serving import persist_store

    if "fork" not in multiprocessing.get_all_start_methods():
        # Without fork the closure factory below cannot reach spawn'd
        # workers; a picklable factory object would be needed instead
        # (see repro.experiments.offline.PartitionedFrameworkFactory).
        print("   (skipped: no fork start method on this platform)")
    else:
        with tempfile.TemporaryDirectory(prefix="repro-store-") as store_dir:
            path = persist_store(f"{store_dir}/index.sqlite3", engine, cluster)
            stored = StoreBackedSearchEngine(path)
            process_cluster = ShardedDiversificationService.from_factory(
                lambda shard: DiversificationFramework(
                    stored, miner, OptSelect(), framework.config
                ),
                num_shards=4,  # same shard count ⇒ per-shard rows line up
                backend="process",
            )
            try:
                report = process_cluster.warm(queries)
                assert report.fetched == 0  # everything came from the store
                process_results = process_cluster.diversify_batch(queries)
                assert [r.ranking for r in process_results] == [
                    cluster_results[q].ranking for q in queries
                ]
                print(f"   4 worker processes attached {path.name} and "
                      f"hydrated its warm rows (0 fetched on warm); "
                      f"rankings identical")
                print(f"   process cluster: "
                      f"{process_cluster.cluster_stats().summary()}")
            finally:
                process_cluster.close()
                stored.close()

    # A real front-end gets single queries, not batches: the async
    # admission layer dispatches each submit() as soon as its batcher is
    # free, batched with whatever queued meanwhile — the served rankings
    # stay identical to the direct batched call.
    print("\n9. the same traffic as single async submits, micro-batched ...")

    async def serve_async():
        async with AsyncDiversificationService(cluster, max_batch_size=4) as front:
            return await asyncio.gather(
                *(front.submit(q) for q in queries * 2)
            ), front.stats

    async_results, front_stats = asyncio.run(serve_async())
    assert [r.ranking for r in async_results[: len(queries)]] == [
        cluster_results[q].ranking for q in queries
    ]
    sizes = dict(sorted(front_stats.batch_sizes.items()))
    print(f"   {front_stats.served} submits formed batches {sizes} "
          f"(queue wait p95 {front_stats.wait_percentile_ms(0.95):.2f}ms); "
          f"rankings identical to the batched call")


if __name__ == "__main__":
    main()
