#!/usr/bin/env python
"""Docs gate: the README must match the code it documents.

Checks, in order:

1. ``README.md`` and ``docs/ARCHITECTURE.md`` exist;
2. the README still references the load-bearing commands (tier-1 pytest
   line, the ``bench/`` benchmark, the offline pipeline and its store);
3. every ``python -m repro.<module>`` command mentioned in the README
   names a module that actually imports;
4. the experiment CLIs answer ``--help`` (smoke-run, subprocess per
   module — catches argparse regressions and import-time crashes), and
   every ``--flag`` of a README command (joined across its ``\``
   continuations) appears in its module's ``--help`` — a deleted flag
   cannot outlive its code in the README;
5. every table the store's ``_SCHEMA_STATEMENTS`` creates has a
   ``### `table``` section in ``docs/ARCHITECTURE.md`` whose column
   table, and any table-level clause, match the statement, and the
   ``SCHEMA_VERSION`` quoted there matches the store's;
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
    "--store",
    "/documents",
    "REPRO_SPAWN_LANE=1",
    "REPRO_KILL_LANE=1",
    "docs/ARCHITECTURE.md",
    "examples/quickstart.py",
]

COMMAND_PATTERN = re.compile(r"python -m (repro(?:\.\w+)+)[^\n`|]*")

FLAG_PATTERN = re.compile(r"(?<![\w-])--[\w-]+")

DOTTED_PATTERN = re.compile(r"`(repro(?:\.\w+)+)`")


def fail(message: str) -> None:
    print(f"check_docs: FAIL — {message}")
    sys.exit(1)


def documented_columns(architecture: str, table: str) -> tuple[list, str]:
    """``(column, type, constraints)`` rows of the first markdown table
    under the ``### `table``` heading of the architecture document, and
    the section's whole text."""
    _, found, section = architecture.partition(f"### `{table}`\n")
    if not found:
        fail(f"docs/ARCHITECTURE.md has no ### `{table}` schema section")
    section = section.split("\n## ")[0].split("\n### ")[0]
    rows: list[tuple[str, ...]] = []
    in_table = False
    for line in section.splitlines():
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) >= 3:
            rows.append((cells[0].strip("`"), cells[1], cells[2]))
    return rows, section


def created_table(statement: str) -> tuple[str, list, list]:
    """``(name, [(column, type, constraints)], [table-level clauses])``
    of one ``CREATE TABLE`` statement."""
    name = statement.split()[2]
    body = statement[statement.index("(") + 1:statement.rindex(")")]
    parts, depth, start = [], 0, 0
    for at, char in enumerate(body):
        depth += {"(": 1, ")": -1}.get(char, 0)
        if char == "," and depth == 0:
            parts.append(body[start:at])
            start = at + 1
    parts.append(body[start:])
    columns, clauses = [], []
    for part in (" ".join(p.split()) for p in parts):
        if part.startswith("PRIMARY KEY"):
            clauses.append(part)
        else:
            column, kind, *constraints = part.split()
            columns.append((column, kind, " ".join(constraints)))
    trailer = statement[statement.rindex(")") + 1:].strip()
    if trailer:
        clauses.append(trailer)
    return name, columns, clauses


def check_store_schema(architecture: str) -> int:
    """Every created table is documented, column for column and clause
    for clause; returns how many tables were checked."""
    from repro.retrieval import store

    for statement in store._SCHEMA_STATEMENTS:
        name, created, clauses = created_table(statement)
        documented, section = documented_columns(architecture, name)
        if documented != created:
            fail(
                f"docs/ARCHITECTURE.md `{name}` table drifted from "
                f"_SCHEMA_STATEMENTS:\n  documented {documented}\n"
                f"  created    {created}"
            )
        for clause in clauses:
            if f"`{clause}`" not in section:
                fail(f"docs/ARCHITECTURE.md `{name}` section omits `{clause}`")
    version = f"`SCHEMA_VERSION = {store.SCHEMA_VERSION}`"
    if version not in architecture:
        fail(f"docs/ARCHITECTURE.md does not state {version}")
    return len(store._SCHEMA_STATEMENTS)


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
    commands = [
        (match.group(1), match.group(0))
        for match in COMMAND_PATTERN.finditer(re.sub(r"\s*\\\n\s*", " ", text))
    ]
    modules = sorted({module for module, _ in commands})
    if not modules:
        fail("README.md documents no `python -m repro.*` commands")
    for module in modules:
        try:
            importlib.import_module(module)
        except Exception as exc:  # pragma: no cover - failure path
            fail(f"README references `python -m {module}` but it does "
                 f"not import: {exc}")

    helps = {}
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
        helps[module] = set(FLAG_PATTERN.findall(proc.stdout))
    for module, command in commands:
        unknown = sorted(set(FLAG_PATTERN.findall(command)) - helps[module])
        if unknown:
            fail(
                f"README runs `{command.strip()}` but `python -m {module} "
                f"--help` lists no {', '.join(unknown)}"
            )

    architecture_text = architecture.read_text(encoding="utf-8")
    tables = check_store_schema(architecture_text)
    dotted = check_dotted_paths(
        {"README.md": text, "docs/ARCHITECTURE.md": architecture_text}
    )

    print(
        f"check_docs: OK — {len(modules)} documented commands import "
        f"and answer --help with every README flag: {', '.join(modules)}; "
        f"{tables} store schema tables match _SCHEMA_STATEMENTS; "
        f"{dotted} dotted paths resolve"
    )


if __name__ == "__main__":
    main()
