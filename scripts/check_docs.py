#!/usr/bin/env python
"""Docs gate: the README must match the code it documents.

Checks, in order:

1. ``README.md`` and ``docs/ARCHITECTURE.md`` exist;
2. the README still references the load-bearing commands (tier-1 pytest
   line, the ``bench/`` benchmark, the offline pipeline and its store);
3. every ``python -m repro.<module>`` command mentioned in the README
   names a module that actually imports;
4. the experiment CLIs answer ``--help`` (smoke-run, subprocess per
   module — catches argparse regressions and import-time crashes);
5. the ``documents`` schema table and the ``SCHEMA_VERSION`` quoted in
   ``docs/ARCHITECTURE.md`` match the store's ``_SCHEMA_STATEMENTS``;
6. every backticked dotted path (```repro.core.fast```,
   ```repro.retrieval.index.ImpactMemo```) in either document resolves
   by import plus ``getattr`` — a deleted symbol cannot outlive its code
   in the docs.

Run from the repository root (CI runs it in the ``docs`` job)::

    python scripts/check_docs.py
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Strings the README must keep verbatim — each is a command a user is
#: told to run; losing one silently orphans a documented workflow.
REQUIRED_SNIPPETS = [
    "python -m pytest -x -q",
    "python3 bench/run.py --all",
    "python3 bench/compare.py",
    "python -m repro.experiments.offline",
    "--backend process",
    "--partitions 4",
    "--start-method spawn",
    "--warm-dir",
    "--store",
    "/documents",
    "REPRO_SPAWN_LANE=1",
    "REPRO_KILL_LANE=1",
    "docs/ARCHITECTURE.md",
    "examples/quickstart.py",
]

COMMAND_PATTERN = re.compile(r"python -m (repro(?:\.\w+)+)")

DOTTED_PATTERN = re.compile(r"`(repro(?:\.\w+)+)`")


def fail(message: str) -> None:
    print(f"check_docs: FAIL — {message}")
    sys.exit(1)


def documented_columns(architecture: str, table: str) -> list[tuple[str, ...]]:
    """``(column, type, constraints)`` rows of the markdown table under
    the ``### `table``` heading of the architecture document."""
    _, found, section = architecture.partition(f"### `{table}`\n")
    if not found:
        fail(f"docs/ARCHITECTURE.md has no ### `{table}` schema section")
    rows = []
    for line in section.split("\n## ")[0].split("\n### ")[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 3:
            rows.append((cells[0].strip("`"), cells[1], cells[2]))
    return rows


def check_store_schema(architecture: str) -> None:
    """The documented ``documents`` columns are the created ones."""
    from repro.retrieval import store

    (statement,) = [
        s for s in store._SCHEMA_STATEMENTS if s.startswith("CREATE TABLE documents")
    ]
    body = statement[statement.index("(") + 1:statement.rindex(")")]
    created = []
    for column in body.split(","):
        name, kind, *constraints = column.split()
        created.append((name, kind, " ".join(constraints)))
    documented = documented_columns(architecture, "documents")
    if documented != created:
        fail(
            "docs/ARCHITECTURE.md `documents` table drifted from "
            f"_SCHEMA_STATEMENTS:\n  documented {documented}\n  created    {created}"
        )
    version = f"`SCHEMA_VERSION = {store.SCHEMA_VERSION}`"
    if version not in architecture:
        fail(f"docs/ARCHITECTURE.md does not state {version}")


def resolves(path: str) -> bool:
    """Whether *path* names a module, or an attribute chain under the
    longest importable module prefix."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name != name:
                raise
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted_paths(documents: dict[str, str]) -> int:
    """Every backticked ``repro.…`` path in *documents* resolves."""
    paths = {
        (path, name)
        for name, text in documents.items()
        for path in DOTTED_PATTERN.findall(text)
    }
    dead = sorted(f"{name}: `{path}`" for path, name in paths if not resolves(path))
    if dead:
        fail("dotted paths that no longer resolve:\n  " + "\n  ".join(dead))
    return len({path for path, _ in paths})


def main() -> None:
    readme = ROOT / "README.md"
    architecture = ROOT / "docs" / "ARCHITECTURE.md"
    for path in (readme, architecture):
        if not path.is_file():
            fail(f"{path.relative_to(ROOT)} is missing")

    text = readme.read_text(encoding="utf-8")
    for snippet in REQUIRED_SNIPPETS:
        if snippet not in text:
            fail(f"README.md no longer mentions {snippet!r}")

    sys.path.insert(0, str(SRC))
    modules = sorted(set(COMMAND_PATTERN.findall(text)))
    if not modules:
        fail("README.md documents no `python -m repro.*` commands")
    for module in modules:
        try:
            importlib.import_module(module)
        except Exception as exc:  # pragma: no cover - failure path
            fail(f"README references `python -m {module}` but it does "
                 f"not import: {exc}")

    for module in modules:
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        if proc.returncode != 0:
            fail(
                f"`python -m {module} --help` exited "
                f"{proc.returncode}:\n{proc.stderr.strip()}"
            )

    architecture_text = architecture.read_text(encoding="utf-8")
    check_store_schema(architecture_text)
    dotted = check_dotted_paths(
        {"README.md": text, "docs/ARCHITECTURE.md": architecture_text}
    )

    print(
        f"check_docs: OK — {len(modules)} documented commands import "
        f"and answer --help: {', '.join(modules)}; store schema table "
        f"matches _SCHEMA_STATEMENTS; {dotted} dotted paths resolve"
    )


if __name__ == "__main__":
    main()
