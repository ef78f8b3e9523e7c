"""Frozen output of the surrogate path (ROADMAP item 5a, first file).

``tests/golden/surrogates_seed7.json`` was written by the commit *before*
the forward index existed, when ``snippet_vectors`` re-analysed document
text per query.  The engine must keep reproducing it byte for byte —
surrogate vectors (terms in insertion order, exact weights), baseline
top-20 with scores, and the diversified top-20 with every document's
overall utility — so the identity claim rests on frozen output, not on a
sibling code path that could drift together with it.

The ``diversified`` utilities (not their order) were regenerated once
since, when ``UtilityMatrix.build`` moved from pairwise cosines to one
centroid per specialization: 36 of the 100 values moved, by at most 2 ULP.

Regenerate only after an intended semantic change, and for a change that
should move nothing but the last bits of utilities only when
``scripts/golden_drift.py OLD NEW`` passes against the replaced file::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/retrieval/test_golden_surrogates.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.framework import DiversificationFramework, FrameworkConfig
from repro.core.optselect import OptSelect
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.trec import build_testbed
from repro.querylog.specializations import SpecializationMiner
from repro.querylog.synthesis import AOL_PROFILE, generate_query_log
from repro.retrieval.engine import SearchEngine

SEED = 7
GOLDEN = Path(__file__).parent.parent / "golden" / f"surrogates_seed{SEED}.json"
TOP = 20


def compute_golden() -> dict:
    corpus = generate_corpus(
        CorpusConfig(
            num_topics=5,
            docs_per_aspect=6,
            background_docs=60,
            doc_length=(30, 70),
            seed=SEED,
        )
    )
    queries = [topic.query for topic in build_testbed(corpus).topics]
    log = generate_query_log(corpus, AOL_PROFILE.scaled(0.08), seed=SEED)
    miner = SpecializationMiner(log).build()
    engine = SearchEngine(corpus.collection)
    framework = DiversificationFramework(
        engine,
        miner,
        OptSelect(),
        FrameworkConfig(k=TOP, candidates=40, spec_results=8),
    )
    out = {}
    for query in queries:
        baseline = engine.search(query, TOP)
        vectors = engine.snippet_vectors(query, baseline)
        result = framework.diversify_query(query)
        out[query] = {
            "baseline": [[r.doc_id, r.score] for r in baseline],
            "vectors": {
                doc_id: [[term, weight] for term, weight in vector.weights.items()]
                for doc_id, vector in vectors.items()
            },
            "diversified": [
                [doc_id, result.task.overall_utility(doc_id)]
                for doc_id in result.ranking
            ],
        }
    return out


@pytest.fixture(scope="module")
def computed():
    return compute_golden()


def test_golden_is_reproduced_exactly(computed):
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            json.dumps(computed, sort_keys=True, separators=(",", ":")) + "\n"
        )
    frozen = json.loads(GOLDEN.read_text())
    # Through JSON and back, so both sides hold lists; floats round-trip
    # exactly (repr), and list order pins the vectors' term order.
    assert json.loads(json.dumps(computed)) == frozen


def test_golden_covers_what_it_claims(computed):
    assert len(computed) == 5
    for entry in computed.values():
        assert len(entry["baseline"]) == TOP
        assert len(entry["vectors"]) == TOP
        assert len(entry["diversified"]) == TOP
        assert all(weights for weights in entry["vectors"].values())
