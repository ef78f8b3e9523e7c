"""Smoke tests of ``scripts/layer_probe.py`` at ``QUICK_SCALE`` (~1 s each)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.core.utility import UtilityMatrix

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "layer_probe.py"
_spec = importlib.util.spec_from_file_location("layer_probe", _SCRIPT)
layer_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_probe)


def test_quick_probe_prints_every_layer_and_restores_what_it_timed(capsys):
    build = UtilityMatrix.__dict__["build"]
    assert layer_probe.main(["--quick"]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:7]}
    assert list(rows) == [*layer_probe.LAYERS, "diversify_query"]
    for first, later in rows.values():
        assert float(first) > 0 and float(later) > 0
    assert "index.memory_bytes" in out
    assert out.count("served from the row's kept vector") == 2
    assert UtilityMatrix.__dict__["build"] is build


def test_ingest_probe_reuses_utilities_and_restores_what_it_timed(capsys):
    build = UtilityMatrix.__dict__["build"]
    assert layer_probe.main(["--ingest", "--quick"]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:7]}
    assert list(rows) == [*layer_probe.LAYERS, "diversify_batch"]
    for first, later in rows.values():
        assert float(first) > 0 and float(later) > 0
    assert "store-backed engine" in out
    reuse = [line for line in out.splitlines() if "utility memo reused" in line]
    assert [line.split(":")[0] for line in reuse] == ["first pass", "later passes"]
    assert not reuse[1].split("reused ")[1].startswith("0.0%")
    assert UtilityMatrix.__dict__["build"] is build
