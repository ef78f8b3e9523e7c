"""The runnable examples stay runnable: each one executes as its own
process, the way the README tells a reader to run it, and must exit 0.

``efficiency_comparison.py`` is left out: it times the algorithms at
sizes that take several times longer than all the others together."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = [
    "build_search_engine.py",
    "querylog_specialization_mining.py",
    "quickstart.py",
    "trec_diversity_evaluation.py",
    "yahoo_boss_reranking.py",
]


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
