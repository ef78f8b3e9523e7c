#!/usr/bin/env python
r"""Docs gate: the README must match the code it documents.

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
   by import plus ``getattr``, and so does every backticked
   ```Class.member``` (a call's arguments allowed) whose ``Class`` is a
   public class in ``src/``: a method, property, class attribute or
   dataclass field counts (:func:`unresolved_members`) — a deleted
   symbol cannot outlive its code in the docs.  In every fenced
   ``python`` block, each keyword passed to a public ``src/`` class is a
   parameter of its constructor (:func:`dead_keywords`) — a deleted
   keyword cannot outlive its code either;
7. everything in ``src/`` has a caller (:func:`find_orphans`): every
   module, every public top-level name and every package ``__init__``
   re-export is read by a *caller* — a non-``__init__`` module under
   ``src/``, ``bench/``, ``benchmarks/``, ``examples/`` or ``scripts/``,
   a ``python -m repro.…`` command in the README, or (for names) an
   import in the README or the ``repro`` quickstart docstring.  Tests
   are not callers; :data:`ALLOWLIST` names the exceptions;
8. every ``src/`` import follows the layer table at the top of
   ``docs/ARCHITECTURE.md`` (:func:`layer_violations`): a layer imports
   only from the layers listed above it, or a module the paragraph above
   the table names as the exception;
9. no ``src/`` module outside ``repro.retrieval`` reads the engine's
   private epoch state, ``_epoch_lock`` or ``_pinned_snapshot``
   (:func:`private_epoch_reads`): a caller gets its epoch from
   ``engine.pinned()`` or ``engine.epoch``;
10. every ``*.md`` file named in ``src/`` exists in the repository
    (:func:`missing_markdown`);
11. every execution backend the README, ``docs/ARCHITECTURE.md`` or a
    CI workflow names (``--backend NAME``, ``backend="NAME"``) is in
    ``repro.serving.backends.BACKEND_NAMES`` (:func:`unknown_backends`)
    — a deleted backend cannot outlive its code in a documented command.

Run from the repository root (CI runs it in the ``docs`` job)::

    python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
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

MEMBER_PATTERN = re.compile(r"`([A-Z]\w*)\.(\w+)(?:\([^`]*\))?`")

FENCED_PYTHON_PATTERN = re.compile(r"^```python\n(.*?)^```", re.S | re.M)

IMPORT_TEXT_PATTERN = re.compile(
    r"from (repro(?:\.\w+)*) import (?:\(([\w\s,]+)\)|([\w ,]+))")

MARKDOWN_PATTERN = re.compile(r"[\w./-]+\.md\b")

PACKAGE = "repro"

#: Directories whose non-``__init__`` modules are callers.  ``tests/`` is
#: not one: code only its own tests read is dead code.
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "scripts")

#: Modules and names kept without a caller, each with its reason.
ALLOWLIST = {
    "repro.core.objectives":
        "the paper-equation oracles that the selection tests compare against",
    "repro.corpus.trec.format_run":
        "writes the run format `python -m repro.evaluation.cli` reads; "
        "test_cli.py builds its inputs with it",
    "repro.corpus.trec.format_diversity_qrels":
        "writes the qrels format `python -m repro.evaluation.cli` reads; "
        "test_cli.py builds its inputs with it",
}


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
            # ``a.b.C.d`` fails on ``a.b.C`` (not a package), not on itself.
            if exc.name != name and not name.startswith(f"{exc.name}."):
                raise
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def public_classes(root: Path) -> dict[str, list[str]]:
    """Name -> defining modules of every public top-level class of the
    package under ``root/src``."""
    classes: dict[str, list[str]] = {}
    for module, path in src_modules(root).items():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                classes.setdefault(node.name, []).append(module)
    return classes


def has_member(cls: type, member: str) -> bool:
    """A method, property, class attribute or dataclass field of *cls*."""
    return hasattr(cls, member) or (
        dataclasses.is_dataclass(cls)
        and member in {field.name for field in dataclasses.fields(cls)}
    )


def unresolved_members(
    documents: dict[str, str], root: Path = ROOT
) -> tuple[int, list[str]]:
    """``(checked, dead)``: how many distinct backticked ``Class.member``
    names in *documents* name a public ``src/`` class, and those of them
    no class of that name has."""
    classes = public_classes(root)
    names = {
        (match.group(1), match.group(2), name)
        for name, text in documents.items()
        for match in MEMBER_PATTERN.finditer(text)
        if match.group(1) in classes
    }
    dead = sorted(
        f"{name}: `{cls}.{member}`"
        for cls, member, name in names
        if not any(
            has_member(getattr(importlib.import_module(module), cls), member)
            for module in classes[cls]
        )
    )
    return len({(cls, member) for cls, member, _ in names}), dead


def accepts(cls: type, keyword: str) -> bool:
    """Whether constructing *cls* takes *keyword*."""
    parameters = inspect.signature(cls).parameters.values()
    return any(
        parameter.name == keyword or parameter.kind is parameter.VAR_KEYWORD
        for parameter in parameters
    )


def dead_keywords(
    documents: dict[str, str], root: Path = ROOT
) -> tuple[int, list[str]]:
    """``(checked, dead)``: how many distinct ``(class, keyword)`` pairs
    the fenced Python blocks of *documents* pass to a public ``src/``
    class's constructor, and those no class of that name accepts."""
    classes = public_classes(root)
    calls = set()
    for name, text in documents.items():
        for block in FENCED_PYTHON_PATTERN.findall(text):
            for node in ast.walk(ast.parse(block)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                cls = getattr(func, "id", None) or getattr(func, "attr", None)
                if cls in classes:
                    calls |= {
                        (cls, keyword.arg, name)
                        for keyword in node.keywords
                        if keyword.arg is not None
                    }
    dead = sorted(
        f"{name}: `{cls}({keyword}=...)`"
        for cls, keyword, name in calls
        if not any(
            accepts(getattr(importlib.import_module(module), cls), keyword)
            for module in classes[cls]
        )
    )
    return len({(cls, keyword) for cls, keyword, _ in calls}), dead


def check_dotted_paths(documents: dict[str, str]) -> int:
    """Every backticked ``repro.…`` path and ``Class.member`` name in
    *documents* resolves, and every constructor keyword of their Python
    blocks exists; returns how many were checked."""
    paths = {
        (path, name)
        for name, text in documents.items()
        for path in DOTTED_PATTERN.findall(text)
    }
    dead = sorted(f"{name}: `{path}`" for path, name in paths if not resolves(path))
    members, dead_members = unresolved_members(documents)
    keywords, dead_kwargs = dead_keywords(documents)
    if dead or dead_members or dead_kwargs:
        fail(
            "dotted paths, Class.member names and constructor keywords "
            "that no longer resolve:\n  "
            + "\n  ".join(dead + dead_members + dead_kwargs)
        )
    return len({path for path, _ in paths}) + members + keywords


def src_modules(root: Path) -> dict[str, Path]:
    """Dotted name -> file of every module of the package under
    ``root/src`` (a package under its own name, for its ``__init__``)."""
    modules = {}
    for path in sorted((root / "src" / PACKAGE).rglob("*.py")):
        parts = path.relative_to(root / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


class ModuleScan:
    """What one Python file imports and reads of the package.

    ``modules``: every package module it imports; ``names``: every
    ``(module, name)`` pair it reads, through ``from m import name`` or
    an attribute of an imported module; ``aliases``: its top-level
    ``from m import a as b`` bindings, ``{b: (m, a)}``; ``defined``: its
    public top-level definitions; ``local``: the names it reads itself.
    """

    def __init__(self, path: Path, known: dict[str, Path]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        self.modules: set[str] = set()
        self.names: set[tuple[str, str]] = set()
        self.aliases: dict[str, tuple[str, str]] = {}
        self.defined: set[str] = set()
        self.local: set[str] = set()
        bound: dict[str, str] = {}
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] != PACKAGE:
                        continue
                    self.modules.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound[PACKAGE] = PACKAGE
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if source.split(".")[0] != PACKAGE:
                    continue
                self.modules.add(source)
                for alias in node.names:
                    target = f"{source}.{alias.name}"
                    if target in known:
                        self.modules.add(target)
                        bound[alias.asname or alias.name] = target
                    else:
                        self.names.add((source, alias.name))
                        if id(node) in top:
                            self.aliases[alias.asname or alias.name] = (
                                source, alias.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.local.add(node.id)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                self.defined.update(t.id for t in targets if isinstance(t, ast.Name))
        self.defined = {n for n in self.defined if not n.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id in bound:
                    self.read(bound[node.id], chain[::-1], known)

    def read(self, module: str, attrs: list[str], known: dict[str, Path]) -> None:
        """Record ``module.attrs[0].attrs[1]…`` as a read of the longest
        module prefix and the attribute after it."""
        for attr in attrs:
            if f"{module}.{attr}" not in known:
                self.names.add((module, attr))
                return
            module = f"{module}.{attr}"
            self.modules.add(module)


def text_imports(text: str) -> set[tuple[str, str]]:
    """``(module, name)`` of every ``from repro… import …`` in *text*."""
    return {
        (module, name.split()[0])
        for module, grouped, inline in IMPORT_TEXT_PATTERN.findall(text)
        for name in (grouped or inline).split(",")
        if name.strip()
    }


def find_orphans(root: Path, allowlist: dict[str, str] = ALLOWLIST) -> list[str]:
    """Every package module, public top-level name and ``__init__``
    re-export under ``root/src`` with no caller, minus *allowlist*."""
    known = src_modules(root)
    scans = {name: ModuleScan(path, known) for name, path in known.items()}
    callers = [
        ModuleScan(path, known)
        for folder in CALLER_DIRS[1:]
        for path in sorted((root / folder).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    readme = root / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.is_file() else ""
    quickstart = ast.get_docstring(
        ast.parse(known[PACKAGE].read_text(encoding="utf-8"))) or ""
    documented = text_imports(text + quickstart)
    commands = {match.group(1) for match in COMMAND_PATTERN.finditer(text)}
    packages = {name for name, path in known.items() if path.name == "__init__.py"}

    live = set(known) - packages
    while True:
        used_modules, used_names, used_exports = set(commands), set(), set()
        pending = list(documented)
        for scan in callers + [scans[name] for name in live]:
            used_modules |= scan.modules
            pending += scan.names
        for name in live:
            pending += [(name, local) for local in scans[name].local]
        while pending:
            key = pending.pop()
            if key in used_names:
                continue
            used_names.add(key)
            module, attr = key
            source = scans[module].aliases.get(attr) if module in scans else None
            if source:
                used_modules.add(source[0])
                pending.append(source)
                if module in packages:
                    used_exports.add(key)
        still_live = {name for name in live if name in used_modules}
        if still_live == live:
            break
        live = still_live

    def allowed(dotted: str) -> bool:
        return any(dotted == entry or dotted.startswith(entry + ".")
                   for entry in allowlist)

    orphans = [
        f"{name} (module)" for name in sorted(set(known) - packages - live)
        if not allowed(name)
    ]
    for name in sorted(live):
        orphans += [
            f"{name}.{defined}" for defined in sorted(scans[name].defined)
            if (name, defined) not in used_names
            and not allowed(f"{name}.{defined}")
        ]
    for package in sorted(packages):
        orphans += [
            f"{package}.{export} (re-export)"
            for export in sorted(scans[package].aliases)
            if (package, export) not in used_exports
            and not allowed(f"{package}.{export}")
        ]
    return orphans


def layer_violations(root: Path, architecture: str) -> list[str]:
    """Every ``src/`` import that reaches a layer listed below the
    importer's in the architecture layer table, except into a module
    the paragraph above the table names."""
    intro, _, rest = architecture.partition("| Layer | Package | Role |")
    if not rest:
        fail("docs/ARCHITECTURE.md has no | Layer | Package | Role | table")
    layer = {}
    rows = rest.strip().splitlines()[1:]
    for index, row in enumerate(rows):
        if not row.startswith("|"):
            break
        for package in re.findall(r"`(repro\.\w+)`", row.split("|")[2]):
            layer[package] = index
    exceptions = set(DOTTED_PATTERN.findall(intro))
    known = src_modules(root)
    violations = []
    for name, path in known.items():
        own = layer.get(".".join(name.split(".")[:2]))
        if own is None:
            continue
        scan = ModuleScan(path, known)
        for target in sorted(scan.modules):
            other = layer.get(".".join(target.split(".")[:2]))
            if (other is not None and other > own
                    and not any(target == e or target.startswith(e + ".")
                                for e in exceptions)):
                violations.append(f"{name} imports {target}")
    return violations


#: The engine's private epoch state, read only inside ``repro.retrieval``.
PRIVATE_EPOCH_STATE = ("_epoch_lock", "_pinned_snapshot")


def private_epoch_reads(root: Path) -> list[str]:
    """``module:line reads attribute`` for every read of
    :data:`PRIVATE_EPOCH_STATE` in a ``src/`` module outside
    ``repro.retrieval``."""
    reads = []
    for name, path in src_modules(root).items():
        if name == "repro.retrieval" or name.startswith("repro.retrieval."):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE_EPOCH_STATE:
                reads.append(f"{name}:{node.lineno} reads {node.attr}")
    return sorted(reads)


#: A backend a document names: ``--backend NAME`` or ``backend="NAME"``.
BACKEND_PATTERN = re.compile(
    r"""--backend[ =]+([A-Za-z]\w*)|\bbackend\s*=\s*["'](\w+)["']"""
)


def unknown_backends(root: Path, names) -> list[str]:
    """``file:line names backend 'x'`` for every backend README.md,
    docs/ARCHITECTURE.md or a ``.github/workflows`` YAML file names that
    is not in *names*."""
    paths = [
        root / "README.md",
        root / "docs" / "ARCHITECTURE.md",
        *sorted((root / ".github" / "workflows").glob("*.y*ml")),
    ]
    found = []
    for path in paths:
        if not path.is_file():
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for match in BACKEND_PATTERN.finditer(line):
                name = match.group(1) or match.group(2)
                if name not in names:
                    found.append(
                        f"{path.relative_to(root).as_posix()}:{lineno} "
                        f"names backend {name!r}"
                    )
    return found


def missing_markdown(root: Path) -> list[str]:
    """``file: name`` for every ``*.md`` file a ``src/`` file names that
    exists nowhere in the repository."""
    present = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(root).parts)
    }
    present |= {path.rsplit("/", 1)[-1] for path in present}
    return [
        f"{path.relative_to(root).as_posix()}: {name}"
        for path in sorted((root / "src").rglob("*.py"))
        for name in sorted(set(MARKDOWN_PATTERN.findall(path.read_text(encoding="utf-8"))))
        if name not in present
    ]


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
    orphans = find_orphans(ROOT)
    if orphans:
        fail("src/ code whose only callers are tests (delete it or give it "
             "a caller):\n  " + "\n  ".join(orphans))
    violations = layer_violations(ROOT, architecture_text)
    if violations:
        fail("imports against the docs/ARCHITECTURE.md layer order:\n  "
             + "\n  ".join(violations))
    private = private_epoch_reads(ROOT)
    if private:
        fail("src/ reads the engine's private epoch state outside "
             "repro.retrieval (use engine.pinned() or engine.epoch):\n  "
             + "\n  ".join(private))
    missing = missing_markdown(ROOT)
    if missing:
        fail("src/ names markdown files that do not exist:\n  "
             + "\n  ".join(missing))
    from repro.serving.backends import BACKEND_NAMES

    unknown = unknown_backends(ROOT, BACKEND_NAMES)
    if unknown:
        fail(f"docs or CI name a backend outside {BACKEND_NAMES}:\n  "
             + "\n  ".join(unknown))

    print(
        f"check_docs: OK — {len(modules)} documented commands import "
        f"and answer --help with every README flag: {', '.join(modules)}; "
        f"{tables} store schema tables match _SCHEMA_STATEMENTS; "
        f"{dotted} dotted paths, Class.member names and constructor "
        f"keywords resolve; every "
        f"src/ module, name and re-export has a caller; imports follow the "
        f"layer table; only repro.retrieval reads the engine's private "
        f"epoch state; every "
        f"markdown file src/ names exists; every backend the docs and CI "
        f"name is one of {', '.join(BACKEND_NAMES)}"
    )


if __name__ == "__main__":
    main()
