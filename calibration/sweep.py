"""False-failure sweep for ``kronval validate``.

Runs a fixed grid of validate configurations over a fixed seed range through
``kronval.harness.run_experiment`` and writes, per criterion, the number of
failed runs, a Wilson 95% interval for the failure rate and the largest
statistic seen.  The grid sits where criteria are weakest: small n, 3 trials,
loops on and off.  Every configuration is a valid one, so each failure is a
false failure of the criterion.

    PYTHONPATH=src python calibration/sweep.py                  # writes CALIBRATION.json
    PYTHONPATH=src python calibration/sweep.py --against OLD.json --out NEW.json

``--against FILE`` prints the two-proportion z of each criterion's failure
rate against the same criterion in FILE (positive: more failures now).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from kronval import KroneckerParams
from kronval.harness import ExperimentConfig, canonical_json, run_experiment

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 200)
WILSON_Z = 1.959963984540054  # two-sided 95%

_SUBGRAPH = KroneckerParams(0.7, 0.5, 0.7, 8)
GRID = {
    **{
        f"hamming-n{n}-{'loops' if loops else 'no-loops'}": dict(
            kind="hamming", params=KroneckerParams(0.7, 0.5, 0.7, n), include_loops=loops
        )
        for n in (6, 8, 10)
        for loops in (True, False)
    },
    "subgraph-cycle3-n8": dict(kind="subgraph", params=_SUBGRAPH, pattern="cycle:3"),
    "subgraph-cycle4-n8": dict(kind="subgraph", params=_SUBGRAPH, pattern="cycle:4"),
    "degrees-n12": dict(kind="degrees", params=KroneckerParams(0.8, 0.5, 0.1, 12), trials=20),
    "thresholds-cycle3-n8": dict(
        kind="thresholds", params=KroneckerParams(0.5, 0.3, 0.5, 8), pattern="cycle:3",
        sweep=(0.2, 0.9, 5),
    ),
}


def wilson(failures: int, runs: int) -> tuple[float, float]:
    """Wilson score 95% interval for a failure rate of failures / runs."""
    if runs == 0:
        return 0.0, 1.0
    rate = failures / runs
    scale = 1.0 + WILSON_Z**2 / runs
    center = (rate + WILSON_Z**2 / (2 * runs)) / scale
    half = WILSON_Z * math.sqrt(rate * (1 - rate) / runs + WILSON_Z**2 / (4 * runs**2)) / scale
    # The bound at 0 (or all) failures is exactly 0 (or 1), not rounding residue.
    lo = 0.0 if failures == 0 else center - half
    hi = 1.0 if failures == runs else center + half
    return lo, hi


def two_proportion_z(k1: int, n1: int, k2: int, n2: int) -> float:
    """Pooled two-proportion z of k2 / n2 against k1 / n1; 0 where both rates
    are 0 or both 1."""
    pooled = (k1 + k2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        return 0.0
    return (k2 / n2 - k1 / n1) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))


def sweep(first: int, last: int) -> dict:
    """Run every grid entry at seeds first..last and tally its criteria."""
    grid = {}
    criteria = {}
    for name, entry in GRID.items():
        entry = {"trials": 3, **entry}
        grid[name] = {**entry, "params": asdict(entry["params"])}
        for seed in range(first, last + 1):
            report = run_experiment(ExperimentConfig(seed=seed, **entry))
            for criterion in report.criteria:
                tally = criteria.setdefault(
                    f"{name}/{criterion.name}", {"runs": 0, "failures": 0, "max_statistic": None}
                )
                tally["runs"] += 1
                tally["failures"] += not criterion.passed
                if not math.isnan(criterion.value) and (
                    tally["max_statistic"] is None or criterion.value > tally["max_statistic"]
                ):
                    tally["max_statistic"] = criterion.value
    for tally in criteria.values():
        tally["wilson_95"] = list(wilson(tally["failures"], tally["runs"]))
    return {"seeds": [first, last], "grid": grid, "criteria": criteria}


def compare(old: dict, new: dict) -> list:
    """One line per criterion in both: failures before and after, and z."""
    lines = []
    for key, tally in new["criteria"].items():
        if key not in old["criteria"]:
            continue
        before = old["criteria"][key]
        z = two_proportion_z(before["failures"], before["runs"], tally["failures"], tally["runs"])
        lines.append(
            f"{key}: {before['failures']}/{before['runs']} -> "
            f"{tally['failures']}/{tally['runs']}  z = {z:+.2f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs=2, type=int, default=SEEDS, metavar=("FIRST", "LAST"))
    parser.add_argument("--out", default=str(ROOT / "CALIBRATION.json"))
    parser.add_argument("--against", default=None, metavar="FILE",
                        help="an earlier sweep's JSON to compare failure rates against")
    args = parser.parse_args(argv)
    result = sweep(*args.seeds)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(canonical_json(result))
    if args.against:
        with open(args.against, encoding="ascii") as fh:
            old = json.load(fh)
        print("\n".join(compare(old, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
