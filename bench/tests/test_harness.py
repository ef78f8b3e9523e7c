"""The benchmark's own arithmetic, checked without building a corpus."""

from __future__ import annotations

import re
import statistics

from bench import compare, harness, reference


def test_percentile_interpolates_like_inclusive_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert harness.percentile(values, 0.5) == statistics.median(values)
    assert abs(harness.percentile(values, 0.9) - deciles[8]) < 1e-12
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert harness.percentile([], 0.9) == 0.0
    assert harness.percentile([4.0], 0.99) == 4.0
    assert harness.percentile(values, 1.5) == 9.0


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.spread(values) == (q3 - q1) / statistics.median(values)
    assert harness.spread([1.0, 2.0]) == 0.0


def _span(span_id, parent, start, end, name="x", **extra):
    return {"op_id": 1, "id": span_id, "name": name, "parent": parent,
            "start": start, "end": end, **extra}


def test_self_time_subtracts_the_interval_children_cover():
    spans = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 0, 3.0, 6.0, "a"),      # overlaps span 1: union is [1, 6]
        _span(3, 1, 2.0, 3.0, "b"),
        _span(4, 0, 9.0, 12.0, "late"),  # clipped to the parent's end
    ]
    own = harness.self_times(spans)
    assert own[0] == 10.0 - 5.0 - 1.0
    assert own[1] == 2.0
    assert own[2] == 3.0
    assert own[3] == 1.0
    totals = harness.layer_totals(spans)
    assert totals["a"]["self_s"] == 5.0 and totals["a"]["spans"] == 2


class _Probe:
    def __init__(self):
        self.state = (0, 0, 0.0)

    def snapshot(self):
        return self.state


def test_tracer_nests_spans_and_folds_probe_work_into_one_child():
    tracer = harness.Tracer(base=1000)
    probe = _Probe()
    with tracer.span("query") as root:
        with tracer.span("surrogate", probe=probe, docs=3) as inner:
            probe.state = (4, 40, 0.0)
    with tracer.span("query") as second:
        pass
    assert root["parent"] is None and inner["parent"] == root["id"]
    assert root["op_id"] == inner["op_id"] != second["op_id"]
    analysis = [s for s in tracer.spans if s["name"] == "analysis"]
    assert len(analysis) == 1
    assert analysis[0]["parent"] == inner["id"]
    assert (analysis[0]["calls"], analysis[0]["tokens"]) == (4, 40)
    assert all(s["id"] >= 1000 for s in tracer.spans)
    assert root["start"] <= inner["start"] <= inner["end"] <= root["end"]
    totals = harness.layer_totals(tracer.spans)
    assert totals["surrogate"]["docs"] == 3


def test_run_passes_keeps_whole_passes_and_honours_both_limits():
    calls = []

    def one_pass(index):
        calls.append(index)
        return harness.PassResult([1.0, 2.0], 0.003)

    assert len(harness.run_passes(one_pass, 0.0, min_passes=3)) == 3
    assert calls == [0, 1, 2]
    assert len(harness.run_passes(one_pass, 60.0, 1, max_passes=2)) == 2


def test_summarize_pooled_and_best_of_passes():
    fast = harness.PassResult([10.0, 20.0], 0.030, extra={"other_ms": [5.0]})
    slow = harness.PassResult([15.0, 18.0], 0.037, extra={"other_ms": [4.0]})
    pooled = harness.summarize([fast, slow], pooled=True)
    assert pooled["latency_p50_ms"] == 16.5
    assert pooled["throughput_ops_s"] == statistics.median([2 / 0.030, 2 / 0.037])
    best = harness.summarize([fast, slow], pooled=False)
    assert best["latency_p50_ms"] == statistics.median([10.0, 18.0])
    assert best["throughput_ops_s"] == 3 / ((10.0 + 18.0 + 4.0) / 1000.0)
    noisy = harness.PassResult([30.0, 20.0], 0.05)
    assert harness.paired_ratio([slow, noisy], [fast]) == statistics.median(
        [15.0 / 10.0, 18.0 / 20.0]
    )


def test_machine_factor_scales_best_of_passes_but_not_pooled_times():
    nominal = reference.NOMINAL_MS
    assert reference.machine_factor([]) == reference.machine_factor([[], []]) == 1.0
    # Two places per pass: each counts with its best pass, then the mean.
    passes = [[nominal * 1.5, nominal * 1.1], [nominal * 1.3, nominal * 1.4], []]
    assert abs(reference.machine_factor(passes) - 1.2) < 1e-12
    assert [p for p in range(25) if reference.due(p, 25)] == [6, 12, 18, 24]
    assert [p for p in range(3) if reference.due(p, 3)] == [0, 1, 2]
    fast = harness.PassResult([10.0, 20.0], 0.030, extra={"other_ms": [5.0]})
    slow = harness.PassResult([15.0, 18.0], 0.037, extra={"other_ms": [4.0]})
    calibrated = harness.summarize([fast, slow], pooled=False, factor=2.0)
    assert calibrated["latency_p50_ms"] == statistics.median([5.0, 9.0])
    assert calibrated["throughput_ops_s"] == 3 / ((5.0 + 9.0 + 2.0) / 1000.0)
    assert harness.summarize([fast, slow], True, 2.0) == harness.summarize(
        [fast, slow], True
    )


def test_reference_op_is_fixed_work_outside_the_system():
    assert reference._work() == reference._work() == 997 * reference._ROUNDS
    assert reference.run() > 0.0
    source = open(reference.__file__).read()
    assert "import repro" not in source and "from repro" not in source


def test_digest_is_canonical_and_golden_is_default_seed_only():
    assert harness.digest({"a": 1, "b": [1, 2]}) == harness.digest({"b": [1, 2], "a": 1})
    assert harness.digest([1, 2]) != harness.digest([2, 1])
    assert harness.check_golden("nope", harness.DEFAULT_SEED + 1, "x", False) == "n/a"
    assert harness.check_golden("nope", harness.DEFAULT_SEED, "x", False) == "mismatch"


def test_compare_verdicts():
    v = compare.verdict
    assert v(100.0, 104.0, "lower", 0.10) == "unchanged"
    assert v(100.0, 111.0, "lower", 0.10) == "regressed"
    assert v(100.0, 80.0, "lower", 0.10) == "improved"
    assert v(100.0, 80.0, "higher", 0.10) == "regressed"
    assert v(100.0, 120.0, "higher", 0.10) == "improved"
    assert v(100.0, 150.0, "lower", 0.10, base_spread=0.2) == "unresolved"
    assert v(0.0, 0.0, "lower", 0.0) == "unchanged"      # error_rate
    assert v(0.0, 0.01, "lower", 0.0) == "regressed"
    assert v(0.85, 0.85, "higher", 1e-9) == "unchanged"  # alpha_ndcg_20
    assert v(0.85, 0.84, "higher", 1e-9) == "regressed"


def _record(p50, error_rate=0.0, values=None):
    metric = {"value": p50, "unit": "ms"}
    if values:
        metric["values"] = values
    return {
        "workloads": {
            "pipeline_cold": {
                "metrics": {
                    "latency_p50_ms": metric,
                    "error_rate": {"value": error_rate, "unit": "ratio"},
                }
            }
        }
    }


def test_compare_rows_use_the_benchmark_bounds():
    spec = harness.load_spec()
    bound = next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "latency_p50_ms"
    )
    rows = compare.compare(_record(100.0), _record(100.0 * (1 + 2 * bound), 0.5), spec)
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["latency_p50_ms"]["verdict"] == "regressed"
    assert by_metric["latency_p50_ms"]["ratio"] == 1 + 2 * bound
    assert by_metric["error_rate"]["verdict"] == "regressed"
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]
    rows = compare.compare(_record(100.0, values=wide), _record(200.0), spec)
    assert rows[0]["verdict"] == "unresolved"


def test_benchmark_json_meets_the_naming_contract():
    spec = harness.load_spec()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(metric["name"]), metric["name"]
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s"
    ).items()
    for name_ in harness.EXTRA_END_TO_END:
        assert name.match(name_)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
