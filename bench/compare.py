"""Compare two ``bench.run --out`` records: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with a verdict against the
metric's bound (``BENCHMARK.json``; workload-specific metrics use
``harness.EXTRA_END_TO_END``):

* ``regressed``  — B is worse than A by more than the bound;
* ``improved``   — B is better than A by more than the bound;
* ``unchanged``  — within the bound either way;
* ``unresolved`` — a side's own run-to-run spread (records made with
  ``--repeat`` >= 4) is wider than the bound, so the bound cannot resolve
  a difference.

Every ratio is printed with its base (A).  Exits non-zero on any
``regressed`` row, on a higher ``error_rate``, or when a record is a
``--quick`` smoke run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0] = str(_ROOT)

from bench import harness  # noqa: E402


def metric_rules(spec: dict) -> dict[str, tuple[str, float]]:
    """name -> (better, bound) for every end-to-end metric."""
    rules = {
        m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]
    }
    rules.update(
        {name: (better, bound)
         for name, (_unit, better, bound) in harness.EXTRA_END_TO_END.items()}
    )
    return rules


def verdict(
    base: float,
    new: float,
    better: str,
    bound: float,
    base_spread: float = 0.0,
    new_spread: float = 0.0,
) -> str:
    if max(base_spread, new_spread) > bound > 0:
        return "unresolved"
    worse = (new - base) if better == "lower" else (base - new)
    scale = abs(base) if base else 1.0  # a zero base (error_rate) compares absolutely
    if worse / scale > bound:
        return "regressed"
    if -worse / scale > bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rules = metric_rules(spec)
    rows = []
    for workload, base_run in a["workloads"].items():
        new_run = b["workloads"].get(workload)
        if new_run is None:
            continue
        for name, (better, bound) in rules.items():
            base = base_run["metrics"].get(name)
            new = new_run["metrics"].get(name)
            if base is None or new is None:
                continue
            base_spread = harness.spread(base.get("values", ()))
            new_spread = harness.spread(new.get("values", ()))
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": base["unit"],
                    "base": base["value"],
                    "new": new["value"],
                    "ratio": new["value"] / base["value"] if base["value"] else None,
                    "bound": bound,
                    "spread": max(base_spread, new_spread),
                    "verdict": verdict(
                        base["value"], new["value"], better, bound,
                        base_spread, new_spread,
                    ),
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for path, record in zip(argv, (a, b)):
        if record.get("quick"):
            print(f"{path}: a --quick smoke record is not a measurement",
                  file=sys.stderr)
            return 2
    if a.get("traced") or b.get("traced"):
        print("end-to-end metrics come from untraced records", file=sys.stderr)
        return 2
    rows = compare(a, b, harness.load_spec())
    print(f"{'workload':16s} {'metric':18s} {'A (base)':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'bound':>7s} {'spread':>7s}  verdict")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"x{row['ratio']:.4f}"
        print(
            f"{row['workload']:16s} {row['metric']:18s} "
            f"{row['base']:>10.5g} {row['unit']:<3s} {row['new']:>10.5g} {row['unit']:<3s} "
            f"{ratio:>8s} {row['bound']:>7.2g} {row['spread']:>7.3f}  {row['verdict']}"
        )
    bad = [r for r in rows if r["verdict"] == "regressed"]
    print(f"{len(rows)} rows, {len(bad)} regressed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
