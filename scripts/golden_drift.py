#!/usr/bin/env python
"""Guard for regenerating ``tests/golden/surrogates_seed7.json``.

A change that moves utilities only in their last bits (a different but
fixed summation order — see "The floating-point contract" in
``docs/ARCHITECTURE.md``) may regenerate the golden file, provided this
script passes against the file it replaces::

    git show HEAD:tests/golden/surrogates_seed7.json > /tmp/old.json
    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/retrieval/test_golden_surrogates.py
    python scripts/golden_drift.py /tmp/old.json tests/golden/surrogates_seed7.json

It requires every ``baseline``, every ``vectors`` entry and the *order*
of every ``diversified`` list to be equal, and every utility to differ by
at most ``MAX_ULPS`` units in the last place.
"""

from __future__ import annotations

import json
import math
import sys

MAX_ULPS = 4


def main(old_path: str, new_path: str) -> int:
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    if old.keys() != new.keys():
        print("FAIL: different queries")
        return 1
    cells = moved = 0
    worst = 0.0
    for query, before in old.items():
        after = new[query]
        for part in ("baseline", "vectors"):
            if before[part] != after[part]:
                print(f"FAIL: {query}: {part} changed")
                return 1
        if [d for d, _ in before["diversified"]] != [
            d for d, _ in after["diversified"]
        ]:
            print(f"FAIL: {query}: diversified order changed")
            return 1
        for (_, a), (_, b) in zip(before["diversified"], after["diversified"]):
            cells += 1
            if a != b:
                moved += 1
                worst = max(worst, abs(a - b) / math.ulp(max(a, b)))
        print(
            f"{query}: baseline equal, {len(before['vectors'])} vectors equal,"
            " diversified order equal"
        )
    print(f"utilities: {cells} cells, {moved} moved, max drift {worst:g} ULP")
    if worst > MAX_ULPS:
        print(f"FAIL: drift above {MAX_ULPS} ULP")
        return 1
    print("GUARD OK")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
