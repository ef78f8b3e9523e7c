"""The one benchmark command.

Driver form (one workload, last stdout line is the result object)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Human form::

    PYTHONPATH=src python -m bench.run --all [--trace] [--quick] --out r.json

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is a separate run that alternates untraced and stepwise-traced passes
and reports the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: sys.path[0] is bench/ itself, whose module names
    # would shadow the standard library's.  Import as a package instead.
    sys.path[0] = str(_ROOT)
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(1, str(_ROOT / "src"))

from bench import harness, reference  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.  Short set-ups
#: (select_scaling's 0.4 s) are repeated up to MAX_SETUP_REPS times while
#: they fit in SETUP_BUDGET_S, because their median is the noisiest.
SETUP_REPS = 3
MAX_SETUP_REPS = 9
SETUP_BUDGET_S = 3.0


def workload_classes() -> dict:
    from bench.ingest_mixed import IngestMixed
    from bench.pipeline_cold import PipelineCold
    from bench.select_scaling import SelectScaling
    from bench.serve_hot_http import ServeHotHTTP

    return {
        cls.name: cls
        for cls in (PipelineCold, ServeHotHTTP, IngestMixed, SelectScaling)
    }


def timed_setup(workload, calibrate: bool) -> tuple[float, float]:
    """One set-up: its seconds, and the machine factor from two reference
    ops on either side of it (1.0 uncalibrated: a traced run reports times
    as measured)."""
    around = [reference.run(), reference.run()] if calibrate else []
    started = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - started
    if calibrate:
        around += [reference.run(), reference.run()]
    return seconds, reference.factor(around)


def measure(
    cls,
    spec: dict,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    update_golden: bool = False,
    startup_s: float = 0.0,
) -> dict:
    """Set up, run passes for *seconds*, check outputs, derive metrics."""
    workload = cls(seed, quick=quick, trace=trace)
    setups: list[tuple[float, float]] = []
    machine: dict = {}
    try:
        while True:
            gc.collect()
            setups.append(timed_setup(workload, calibrate=not trace))
            spent = sum(seconds for seconds, _ in setups)
            if trace or quick or len(setups) >= (
                SETUP_REPS if spent > SETUP_BUDGET_S else MAX_SETUP_REPS
            ):
                break
            workload.teardown()
        min_passes = 1 if quick else workload.min_passes
        max_passes = workload.max_passes
        traced: list[harness.PassResult] = []
        if trace:
            tracer = harness.Tracer()

            # Untraced and traced passes alternate, so slow drift of the
            # machine lands on both sides of trace.overhead_ratio.
            def both(index: int):
                return workload.run_pass(index), workload.traced_pass(index, tracer)

            pairs = harness.run_passes(
                both, seconds, min_passes, max_passes and max_passes // 2
            )
            passes = [plain for plain, _ in pairs]
            traced = [stepwise for _, stepwise in pairs]
            spans = tracer.spans
        else:
            passes = harness.run_passes(
                workload.run_pass, seconds, min_passes, max_passes
            )

        checked, mismatched = workload.check(passes, traced)
        attempted = sum(p.timed_ops for p in passes + traced) + checked
        failed = sum(p.failed for p in passes + traced) + mismatched
        golden = "n/a"
        if not quick:
            golden = harness.check_golden(
                cls.name,
                seed,
                harness.digest(workload.digest_value(passes)),
                update_golden,
            )
        correct = failed == 0 and golden != "mismatch"

        samples = {
            "passes": len(passes),
            "ops": sum(p.ops for p in passes),
            "timed_ops": sum(p.timed_ops for p in passes),
            "traced_passes": len(traced),
            "traced_ops": sum(p.ops for p in traced),
            "setups": len(setups),
        }
        if trace:
            harness.write_trace(cls.name, spans)
            traced_ops = samples["traced_ops"]
            values = dict.fromkeys(
                (metric["name"] for metric in spec["per_layer"]), 0.0
            )
            layers = workload.layers(
                passes, traced, harness.layer_totals(spans), traced_ops
            )
            layers["trace.overhead_ratio"] = harness.paired_ratio(traced, passes)
            unknown = set(layers) - set(values)
            if unknown:
                raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
            values.update(layers)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            factor = reference.machine_factor(p.reference_ms for p in passes)
            values = harness.summarize(passes, workload.pooled, factor)
            # Interpreter start-up and imports ran just before set-up 0.
            values["setup_s"] = startup_s / setups[0][1] + harness.median(
                seconds / around for seconds, around in setups
            )
            values["peak_rss_mb"] = workload.peak_rss_mb()
            raw = harness.summarize(passes, workload.pooled)
            raw["setup_s"] = startup_s + harness.median(s for s, _ in setups)
            machine = {
                "factor": factor,
                "reference_nominal_ms": reference.NOMINAL_MS,
                "raw": raw,
            }
            values["error_rate"] = failed / attempted
            values.update(workload.extras(passes))
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            units.update(
                {n: u for n, (u, _, _) in harness.EXTRA_END_TO_END.items()}
            )
    finally:
        workload.teardown()
    return {
        "workload": cls.name,
        "seed": seed,
        "traced": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "golden": golden,
        "samples": samples,
        "machine": machine,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def driver_line(result: dict, spec: dict) -> str:
    """The result object the driver reads: exactly the declared metrics."""
    declared = spec["per_layer" if result["traced"] else "end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: result["metrics"][m["name"]] for m in declared
            },
        }
    )


def print_table(result: dict) -> None:
    samples = ", ".join(f"{k}={v}" for k, v in result["samples"].items())
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"{'traced' if result['traced'] else 'untraced'}  ({samples})"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    machine = result.get("machine")
    if machine:
        raw = " ".join(f"{k}={v:.6g}" for k, v in machine["raw"].items())
        print(f"  machine factor {machine['factor']:.4f}; as measured: {raw}")
    print(
        f"  attempted={result['attempted']} failed={result['failed']} "
        f"golden={result['golden']} correct={result['correct']}"
    )


def merge_repeats(results: list[dict]) -> dict:
    """Fold ``--repeat`` runs of one workload: each metric keeps every
    value and reports their median."""
    merged = dict(results[0])
    merged["seeds"] = [r["seed"] for r in results]
    merged["correct"] = all(r["correct"] for r in results)
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["failed"] = sum(r["failed"] for r in results)
    merged["metrics"] = {
        name: {
            "value": harness.median(r["metrics"][name]["value"] for r in results),
            "unit": metric["unit"],
            "values": [r["metrics"][name]["value"] for r in results],
        }
        for name, metric in results[0]["metrics"].items()
    }
    return merged


def run_isolated(name: str, seed: int, args) -> dict:
    """One measurement in a fresh process — exactly what the driver runs —
    so ``VmHWM`` and set-up time are that workload's own, not the sum of
    everything ``--all`` / ``--repeat`` ran before it."""
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = harness.OUT_DIR / f"run-{os.getpid()}-{name}-{seed}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]  # fmt: skip
    command += ["--quick"] if args.quick else []
    command += ["--update-golden"] if args.update_golden else []
    try:
        subprocess.run(command, stdout=subprocess.DEVNULL, check=True)
        return json.loads(out.read_text())["workloads"][name]
    finally:
        out.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0
    )
    parser.add_argument("--quick", action="store_true", help="smoke sizes")
    parser.add_argument("--repeat", type=int, default=1, help="seeds per workload")
    parser.add_argument("--out", help="write the full record as JSON")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")
    selected = names if args.all else [args.workload]

    seconds = 2.0 if args.quick else args.seconds
    results: dict[str, dict] = {}
    if len(selected) == 1 and args.repeat == 1:
        try:
            cls = workload_classes()[args.workload]
        except ImportError as exc:
            print(
                f"bench: cannot import the system under test: {exc}",
                file=sys.stderr,
            )
            return 2
        result = measure(
            cls,
            spec,
            args.seed,
            seconds,
            bool(args.trace),
            args.quick,
            args.update_golden,
            # Interpreter start-up plus imports, counted into setup_s.
            startup_s=time.perf_counter() - _PROCESS_START,
        )
        results[args.workload] = result
        print_table(result)
    else:
        for name in selected:
            runs = [
                run_isolated(name, args.seed + offset, args)
                for offset in range(args.repeat)
            ]
            result = runs[0] if len(runs) == 1 else merge_repeats(runs)
            results[name] = result
            print_table(result)
    if args.out:
        record = {
            "schema": "bench/v1",
            "quick": args.quick,
            "traced": bool(args.trace),
            "seed": args.seed,
            "seconds": seconds,
            "env": harness.environment(),
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if len(selected) == 1 and args.repeat == 1:
        print(driver_line(result, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
