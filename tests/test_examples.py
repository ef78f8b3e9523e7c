"""The runnable examples stay runnable: each one executes as its own
process, the way the README tells a reader to run it, and must exit 0;
README's own python blocks run too, in order, the way a reader pastes
them.

``efficiency_comparison.py`` is left out: it times the algorithms at
sizes that take several times longer than all the others together."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ShardedDiversificationService

ROOT = Path(__file__).resolve().parents[1]

#: The offline command README runs before its store block, which
#: attaches the store file this writes.
STORE_COMMAND = (
    "python -m repro.experiments.offline --partitions 4 --shards 2 "
    "--store index.sqlite3"
)

EXAMPLES = [
    "build_search_engine.py",
    "querylog_specialization_mining.py",
    "quickstart.py",
    "trec_diversity_evaluation.py",
    "yahoo_boss_reranking.py",
]


def source_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example, tmp_path):
    env = source_env()
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


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    """Every ```python block of README.md, in order, in one namespace —
    with the documented offline command run where README runs it, so
    the store block attaches the file that command wrote."""
    blocks = re.findall(
        r"^```(\w+)\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
    )
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    stored = 0
    try:
        for number, (language, source) in enumerate(blocks):
            command = " ".join(source.replace("\\\n", " ").split())
            if language == "sh" and STORE_COMMAND in command:
                done = subprocess.run(
                    [sys.executable, *STORE_COMMAND.split()[1:]],
                    env=source_env(),
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                assert done.returncode == 0, done.stderr[-2000:]
                stored += 1
            elif language == "python":
                exec(compile(source, f"README.md block {number}", "exec"), namespace)
    finally:
        for value in namespace.values():
            if isinstance(value, ShardedDiversificationService):
                value.close()
    assert stored == 1
    assert "served=" in capsys.readouterr().out
