"""Tests for the caller, layer-order, private-epoch-state, markdown,
backend-name and ``Class.member`` rules of ``scripts/check_docs.py``: the tree rules each
over a tiny package tree in ``tmp_path``, the name rules over this
repository's classes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

ARCHITECTURE = """# Architecture

Layered bottom-up. (`repro.high.shared` is the one exception.)

| Layer | Package | Role |
| --- | --- | --- |
| Low | `repro.low` | the bottom layer |
| High | `repro.high` | imports the low layer |
"""


def write(root: Path, relative: str, text: str = "") -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@pytest.fixture()
def tree(tmp_path: Path) -> Path:
    """``repro.low.used`` is read by ``repro.high.app``, which a bench
    file runs; ``repro.low.orphan`` is read only by a test."""
    write(tmp_path, "src/repro/__init__.py", '"""The package."""\n')
    write(tmp_path, "src/repro/low/__init__.py")
    write(tmp_path, "src/repro/low/used.py", "def used_fn():\n    return 1\n")
    write(tmp_path, "src/repro/low/orphan.py", "def helper():\n    return 2\n")
    write(tmp_path, "src/repro/high/__init__.py")
    write(tmp_path, "src/repro/high/shared.py", "LIMIT = 3\n")
    write(
        tmp_path,
        "src/repro/high/app.py",
        "from repro.low.used import used_fn\n\n\n"
        "def main():\n    return used_fn()\n",
    )
    write(tmp_path, "bench/run.py", "from repro.high.app import main\n\nmain()\n")
    write(tmp_path, "tests/test_orphan.py", "from repro.low.orphan import helper\n")
    return tmp_path


def test_only_modules_without_a_caller_are_reported(tree):
    assert check_docs.find_orphans(tree, allowlist={}) == [
        "repro.high.shared (module)",
        "repro.low.orphan (module)",
    ]


def test_module_imported_only_by_a_test_is_reported(tree):
    assert "repro.low.orphan (module)" in check_docs.find_orphans(tree, allowlist={})


def test_module_imported_from_bench_is_not_reported(tree):
    write(tree, "bench/extra.py", "from repro.low.orphan import helper\n")
    assert "repro.low.orphan (module)" not in check_docs.find_orphans(
        tree, allowlist={}
    )


def test_unread_public_name_is_reported(tree):
    write(
        tree,
        "src/repro/low/used.py",
        "def used_fn():\n    return 1\n\n\ndef unread():\n    return 4\n",
    )
    assert "repro.low.used.unread" in check_docs.find_orphans(tree, allowlist={})


def test_reexport_without_importer_is_reported(tree):
    write(tree, "src/repro/low/__init__.py", "from repro.low.used import used_fn\n")
    assert "repro.low.used_fn (re-export)" in check_docs.find_orphans(
        tree, allowlist={}
    )
    write(tree, "examples/demo.py", "from repro.low import used_fn\n")
    assert "repro.low.used_fn (re-export)" not in check_docs.find_orphans(
        tree, allowlist={}
    )


def test_allowlisted_module_is_not_reported(tree):
    orphans = check_docs.find_orphans(
        tree, allowlist={"repro.low.orphan": "a test oracle"}
    )
    assert "repro.low.orphan (module)" not in orphans
    assert "repro.high.shared (module)" in orphans


def test_layer_order_violation_is_reported(tree):
    assert check_docs.layer_violations(tree, ARCHITECTURE) == []
    write(tree, "src/repro/low/bad.py", "from repro.high.app import main\n")
    write(tree, "src/repro/low/fine.py", "from repro.high.shared import LIMIT\n")
    assert check_docs.layer_violations(tree, ARCHITECTURE) == [
        "repro.low.bad imports repro.high.app"
    ]


def test_private_epoch_state_read_outside_retrieval_is_reported(tree):
    assert check_docs.private_epoch_reads(tree) == []
    write(
        tree,
        "src/repro/retrieval/engine.py",
        "def pinned(engine):\n    return engine._pinned_snapshot()\n",
    )
    write(
        tree,
        "src/repro/high/cache.py",
        "def put(engine, cache, key, value):\n"
        "    with engine._epoch_lock:\n"
        "        if engine._pinned_snapshot().epoch == engine.epoch:\n"
        "            cache[key] = value\n",
    )
    assert check_docs.private_epoch_reads(tree) == [
        "repro.high.cache:2 reads _epoch_lock",
        "repro.high.cache:3 reads _pinned_snapshot",
    ]


def test_missing_markdown_file_is_reported(tree):
    write(tree, "docs/ARCHITECTURE.md", ARCHITECTURE)
    write(
        tree,
        "src/repro/low/notes.py",
        '"""See docs/ARCHITECTURE.md and DESIGN.md."""\n',
    )
    assert check_docs.missing_markdown(tree) == [
        "src/repro/low/notes.py: DESIGN.md"
    ]


def test_unknown_backend_in_docs_or_ci_is_reported(tree):
    write(
        tree,
        "README.md",
        "python -m repro.experiments.offline --backend process\n"
        "cluster = from_factory(factory, 2, backend='inline')\n"
        "python -m repro.experiments.offline --backend thread\n",
    )
    write(tree, "docs/ARCHITECTURE.md", 'from_factory(f, 2, backend="thread")\n')
    write(
        tree,
        ".github/workflows/ci.yml",
        "run: python -m repro.experiments.offline --backend=gpu\n",
    )
    assert check_docs.unknown_backends(tree, ("inline", "process")) == [
        "README.md:3 names backend 'thread'",
        "docs/ARCHITECTURE.md:1 names backend 'thread'",
        ".github/workflows/ci.yml:1 names backend 'gpu'",
    ]


def test_known_backends_and_missing_files_pass(tree):
    assert check_docs.unknown_backends(tree, ("inline", "process")) == []
    write(tree, "README.md", "--backend inline, backend=\"process\"\n")
    assert check_docs.unknown_backends(tree, ("inline", "process")) == []


@pytest.mark.parametrize(
    "line",
    [
        "python -m repro.experiments.offline --backend thread",
        "python -m repro.experiments.offline --backend=thread --shards 2",
        'ShardedDiversificationService.from_factory(f, 2, backend="thread")',
        "make_backend(backend = 'thread')",
    ],
    ids=["flag", "flag-equals", "double-quoted", "single-quoted"],
)
def test_every_spelling_of_a_backend_is_read(tree, line):
    write(tree, ".github/workflows/ci.yml", f"run: {line}\n")
    assert check_docs.unknown_backends(tree, ("inline", "process")) == [
        ".github/workflows/ci.yml:1 names backend 'thread'"
    ]


def test_prose_about_threads_names_no_backend(tree):
    write(
        tree,
        "README.md",
        "The inline backend needs no thread pool.\n"
        "Concurrent refreshes run on `threading.Thread`s.\n"
        'backend_name = "thread"\n'
        "--backend-file thread.json\n",
    )
    assert check_docs.unknown_backends(tree, ("inline", "process")) == []


def test_this_repository_names_only_real_backends():
    from repro.serving.backends import BACKEND_NAMES

    assert check_docs.unknown_backends(check_docs.ROOT, BACKEND_NAMES) == []


def test_readme_module_command_keeps_the_module_but_not_its_names(tree):
    write(tree, "README.md", "Run `python -m repro.low.orphan --fast`.\n")
    orphans = check_docs.find_orphans(tree, allowlist={})
    assert "repro.low.orphan (module)" not in orphans
    assert "repro.low.orphan.helper" in orphans


def test_reexport_the_readme_imports_is_not_reported(tree):
    write(tree, "src/repro/low/__init__.py", "from repro.low.orphan import helper\n")
    write(tree, "README.md", "```python\nfrom repro.low import helper\n```\n")
    orphans = check_docs.find_orphans(tree, allowlist={})
    assert "repro.low.helper (re-export)" not in orphans
    assert "repro.low.orphan (module)" not in orphans
    assert "repro.low.orphan.helper" not in orphans


def test_reexport_the_quickstart_docstring_imports_is_not_reported(tree):
    write(
        tree,
        "src/repro/__init__.py",
        '"""The package.\n\n    from repro import helper\n"""\n\n'
        "from repro.low.orphan import helper\n",
    )
    orphans = check_docs.find_orphans(tree, allowlist={})
    assert "repro.helper (re-export)" not in orphans
    assert "repro.low.orphan (module)" not in orphans


def test_an_init_is_not_a_caller(tree):
    write(tree, "src/repro/low/__init__.py", "from repro.low.orphan import helper\n")
    orphans = check_docs.find_orphans(tree, allowlist={})
    assert "repro.low.orphan (module)" in orphans
    assert "repro.low.helper (re-export)" in orphans


def test_import_inside_a_function_is_a_caller(tree):
    write(
        tree,
        "src/repro/high/app.py",
        "from repro.low.used import used_fn\n\n\n"
        "def main():\n"
        "    from repro.high.shared import LIMIT\n"
        "    return used_fn() + LIMIT\n",
    )
    assert "repro.high.shared (module)" not in check_docs.find_orphans(
        tree, allowlist={}
    )


def test_attribute_read_through_a_module_import_is_a_caller(tree):
    write(
        tree,
        "scripts/tool.py",
        "import repro.low.orphan\n\nrepro.low.orphan.helper()\n",
    )
    orphans = check_docs.find_orphans(tree, allowlist={})
    assert "repro.low.orphan (module)" not in orphans
    assert "repro.low.orphan.helper" not in orphans


def test_aliased_module_import_is_a_caller(tree):
    write(
        tree,
        "examples/demo.py",
        "from repro.low import orphan as impl\n\nimpl.helper()\n",
    )
    orphans = check_docs.find_orphans(tree, allowlist={})
    assert "repro.low.orphan (module)" not in orphans
    assert "repro.low.orphan.helper" not in orphans


def test_a_module_only_an_orphan_reads_is_an_orphan_too(tree):
    write(
        tree,
        "src/repro/low/orphan.py",
        "from repro.high.shared import LIMIT\n\n\n"
        "def helper():\n    return LIMIT\n",
    )
    orphans = check_docs.find_orphans(tree, allowlist={})
    assert "repro.low.orphan (module)" in orphans
    assert "repro.high.shared (module)" in orphans


def test_name_read_inside_its_own_module_is_not_reported(tree):
    write(
        tree,
        "src/repro/low/used.py",
        "SCALE = 2\n\n\ndef used_fn():\n    return SCALE\n",
    )
    assert "repro.low.used.SCALE" not in check_docs.find_orphans(
        tree, allowlist={}
    )


def test_private_names_are_not_reported(tree):
    write(
        tree,
        "src/repro/low/used.py",
        "def used_fn():\n    return 1\n\n\ndef _unread():\n    return 4\n",
    )
    assert not any(
        "_unread" in orphan
        for orphan in check_docs.find_orphans(tree, allowlist={})
    )


def test_allowlisted_name_is_not_reported(tree):
    write(
        tree,
        "src/repro/low/used.py",
        "def used_fn():\n    return 1\n\n\ndef unread():\n    return 4\n",
    )
    orphans = check_docs.find_orphans(
        tree, allowlist={"repro.low.used.unread": "an oracle the tests read"}
    )
    assert "repro.low.used.unread" not in orphans
    assert "repro.low.orphan (module)" in orphans


def test_allowlisted_module_covers_its_names(tree):
    orphans = check_docs.find_orphans(
        tree, allowlist={"repro.low.orphan": "a test oracle"}
    )
    assert not any(orphan.startswith("repro.low.orphan") for orphan in orphans)


def test_import_from_a_package_init_is_checked_against_the_layers(tree):
    write(tree, "src/repro/low/__init__.py", "from repro.high.app import main\n")
    assert check_docs.layer_violations(tree, ARCHITECTURE) == [
        "repro.low imports repro.high.app"
    ]


def test_lazy_import_is_checked_against_the_layers(tree):
    write(
        tree,
        "src/repro/low/lazy.py",
        "def late():\n    from repro.high import app\n    return app.main()\n",
    )
    assert check_docs.layer_violations(tree, ARCHITECTURE) == [
        "repro.low.lazy imports repro.high",
        "repro.low.lazy imports repro.high.app",
    ]


def test_package_outside_the_layer_table_is_not_checked(tree):
    write(tree, "src/repro/extra/__init__.py")
    write(tree, "src/repro/extra/glue.py", "from repro.high.app import main\n")
    write(tree, "src/repro/low/ext.py", "from repro.extra.glue import main\n")
    assert check_docs.layer_violations(tree, ARCHITECTURE) == []


def test_architecture_without_a_layer_table_fails(tree):
    with pytest.raises(SystemExit):
        check_docs.layer_violations(tree, "# Architecture\n\nNo table.\n")


def test_markdown_file_found_by_name_anywhere_in_the_repo(tree):
    write(tree, "docs/guide/NOTES.md", "# Notes\n")
    write(tree, "src/repro/low/notes.py", '"""See NOTES.md and docs/guide/NOTES.md."""\n')
    assert check_docs.missing_markdown(tree) == []


def test_markdown_under_a_hidden_directory_does_not_count(tree):
    write(tree, ".github/TEMPLATE.md", "# Template\n")
    write(tree, "src/repro/low/notes.py", '"""See TEMPLATE.md."""\n')
    assert check_docs.missing_markdown(tree) == [
        "src/repro/low/notes.py: TEMPLATE.md"
    ]


def test_text_imports_reads_inline_and_grouped_imports():
    text = (
        "from repro import (Alpha,\n    Beta)\n"
        "from repro.core.fast import gamma as g, delta\n"
        "import repro.other\n"
    )
    assert check_docs.text_imports(text) == {
        ("repro", "Alpha"),
        ("repro", "Beta"),
        ("repro.core.fast", "gamma"),
        ("repro.core.fast", "delta"),
    }


def test_resolves_modules_and_attributes():
    assert check_docs.resolves("repro.core.fast")
    assert check_docs.resolves("repro.retrieval.engine.SearchEngine.search")
    assert not check_docs.resolves("repro.core.no_such_module")
    assert not check_docs.resolves("repro.retrieval.engine.NoSuchName")


def test_class_members_of_src_classes_resolve():
    checked, dead = check_docs.unresolved_members(
        {
            "README.md": (
                "`SearchEngine.search` (a method), `SearchEngine.epoch`"
                " (a property), `SearchEngine.store_path` (a class"
                " attribute), `EngineSnapshot.doc_ids` (a dataclass field"
                " without a default), `StoreBackedSearchEngine.pinned` (an"
                " inherited method), `SnippetExtractor.extract(query, doc_id,"
                " text, title)` (a call) and `Table.column` (no src/ class)"
            ),
        }
    )
    assert (checked, dead) == (6, [])


def test_deleted_class_member_is_reported():
    checked, dead = check_docs.unresolved_members(
        {
            "README.md": "`SearchEngine.search` and `SearchEngine.apply_updates()`",
            "docs/ARCHITECTURE.md": "`DiversificationService._advance_engine`",
        }
    )
    assert checked == 3
    assert dead == [
        "README.md: `SearchEngine.apply_updates`",
        "docs/ARCHITECTURE.md: `DiversificationService._advance_engine`",
    ]


def test_public_classes_are_the_top_level_public_ones(tree):
    write(
        tree,
        "src/repro/low/shapes.py",
        "class Shape:\n    class Inner:\n        pass\n\n\n"
        "class _Hidden:\n    pass\n\n\n"
        "def factory():\n    class Local:\n        pass\n",
    )
    write(tree, "src/repro/high/shapes.py", "class Shape:\n    pass\n")
    assert check_docs.public_classes(tree) == {
        "Shape": ["repro.high.shapes", "repro.low.shapes"]
    }


def test_a_dead_class_member_fails_the_dotted_path_check(capsys):
    documents = {"README.md": "`repro.retrieval.engine` and `SearchEngine.search`"}
    assert check_docs.check_dotted_paths(documents) == 2
    with pytest.raises(SystemExit):
        check_docs.check_dotted_paths(
            {"docs/ARCHITECTURE.md": "`SearchEngine.prepare_epoch`"}
        )
    assert "docs/ARCHITECTURE.md: `SearchEngine.prepare_epoch`" in (
        capsys.readouterr().out
    )


def test_repository_docs_name_only_class_members_that_exist():
    documents = {
        name: (check_docs.ROOT / name).read_text(encoding="utf-8")
        for name in ("README.md", "docs/ARCHITECTURE.md")
    }
    checked, dead = check_docs.unresolved_members(documents)
    assert checked > 0 and dead == []


def test_dead_constructor_keyword_is_reported():
    readme = (
        "Prose `AsyncDiversificationService(service, linger_s=0.002)` "
        "outside a block is not checked.\n\n"
        "```python\n"
        "front = AsyncDiversificationService(\n"
        "    service, max_batch_size=16, linger_s=0.002\n"
        ")\n"
        "engine = repro.SearchEngine(collection, num_partitions=2)\n"
        "table = Table(anything=1)  # no src/ class: not checked\n"
        "server = DiversificationHTTPServer(service, **options)\n"
        "```\n"
    )
    checked, dead = check_docs.dead_keywords({"README.md": readme})
    assert checked == 3
    assert dead == ["README.md: `AsyncDiversificationService(linger_s=...)`"]


def test_a_dead_keyword_fails_the_dotted_path_check(capsys):
    block = "```python\nSearchEngine(collection, {}=1)\n```\n"
    assert check_docs.check_dotted_paths(
        {"README.md": block.format("num_partitions")}
    ) == 1
    with pytest.raises(SystemExit):
        check_docs.check_dotted_paths({"README.md": block.format("shards")})
    assert "README.md: `SearchEngine(shards=...)`" in capsys.readouterr().out


def test_repository_docs_pass_only_keywords_constructors_take():
    documents = {
        name: (check_docs.ROOT / name).read_text(encoding="utf-8")
        for name in ("README.md", "docs/ARCHITECTURE.md")
    }
    checked, dead = check_docs.dead_keywords(documents)
    assert checked > 0 and dead == []


def test_created_table_splits_columns_and_table_clauses():
    name, columns, clauses = check_docs.created_table(
        "CREATE TABLE IF NOT EXISTS postings ("
        " term TEXT NOT NULL, doc INTEGER NOT NULL,"
        " weight REAL DEFAULT (0.5),"
        " PRIMARY KEY (term, doc)) WITHOUT ROWID"
    )
    assert name == "IF"
    name, columns, clauses = check_docs.created_table(
        "CREATE TABLE postings ("
        " term TEXT NOT NULL, doc INTEGER NOT NULL,"
        " weight REAL DEFAULT (0.5),"
        " PRIMARY KEY (term, doc)) WITHOUT ROWID"
    )
    assert name == "postings"
    assert columns == [
        ("term", "TEXT", "NOT NULL"),
        ("doc", "INTEGER", "NOT NULL"),
        ("weight", "REAL", "DEFAULT (0.5)"),
    ]
    assert clauses == ["PRIMARY KEY (term, doc)", "WITHOUT ROWID"]


def test_documented_columns_reads_the_first_table_of_the_section():
    architecture = (
        "## Store\n\n### `postings`\n\nOne row per match.\n\n"
        "| Column | Type | Constraints |\n| --- | --- | --- |\n"
        "| `term` | TEXT | NOT NULL |\n| `doc` | INTEGER | NOT NULL |\n\n"
        "| `other` | TEXT | |\n\n### `next`\n"
    )
    rows, section = check_docs.documented_columns(architecture, "postings")
    assert rows == [("term", "TEXT", "NOT NULL"), ("doc", "INTEGER", "NOT NULL")]
    assert "### `next`" not in section
    with pytest.raises(SystemExit):
        check_docs.documented_columns(architecture, "absent")


def test_repository_src_has_a_caller_for_everything():
    assert check_docs.find_orphans(check_docs.ROOT) == []


def test_repository_imports_follow_the_architecture_layer_table():
    architecture = (check_docs.ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert check_docs.layer_violations(check_docs.ROOT, architecture) == []


def test_repository_src_reads_private_epoch_state_only_in_retrieval():
    assert check_docs.private_epoch_reads(check_docs.ROOT) == []


def test_repository_src_names_only_markdown_files_that_exist():
    assert check_docs.missing_markdown(check_docs.ROOT) == []
