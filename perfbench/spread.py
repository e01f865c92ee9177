"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py
    python3 perfbench/spread.py --record perfbench/baseline.json

It runs every workload with seeds 1 to 10, each run a fresh
``perfbench/run.py`` process, one after another.  For every end-to-end
metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread as a
share of the median, and the metric's bound from BENCHMARK.json; a spread
above a third of its bound is flagged.  ``op_s.p50`` and ``op_s.p90`` are
printed the same way, without a bound, for the workloads whose runs print
them.  ``fail_frac`` is failed ops over attempted ops, summed over the runs.
``--record`` also makes one traced run per workload and writes the set-up,
the input sizes and these figures as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SEEDS = range(1, 11)
_PERCENTILES = re.compile(r" (op_s\.p50|op_s\.p90)=([0-9.]+)")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One run's JSON result and the op latency percentiles its summary line printed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), {k: float(v) for k, v in _PERCENTILES.findall(lines[-2])}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    import numpy
    import scipy

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(pages / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def input_sizes(layers: dict) -> dict:
    """Edges (with loops) per generated graph and bytes per edge-list file,
    from one traced run's counts."""
    value = {name: m["value"] for name, m in layers.items()}
    graphs = value["generate.stratified_calls"] or (1 if value["generate.rmat_s"] else 0)
    sizes = {"edges_per_graph": round(value["generate.edges_out"] / graphs) if graphs else 0}
    if value["edgelist.bytes"]:
        sizes["edgelist_bytes"] = value["edgelist.bytes"] // 2  # written once, read once
    return sizes


def report(name: str, values: list, unit: str, bound=None) -> dict:
    """Print one metric's line and return its figures."""
    f = spread(values) | {"unit": unit}
    flag = "  <-- above bound/3" if bound is not None and f["spread"] > bound / 3 else ""
    print(f"  {name:12s} median={f['median']:.4f} {unit:3s} q1={f['q1']:.4f} q3={f['q3']:.4f}"
          f" spread={f['spread']:.3f} bound={bound}{flag}  [{' '.join(f'{v:.4g}' for v in values)}]")
    return f


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"machine": machine(), "run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [run_once(workload, seed, bench["run_seconds"], 0) for seed in SEEDS]
        results = [result for result, _ in runs]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ops = workloads.build_ops(workload, SEEDS[0], ".perfbench")
        print(f"{workload}: {len(results)} runs of {len(ops)} ops per pass, {attempted} ops,"
              f" fail_frac={failed / attempted:.4g}, correct={all(r['correct'] for r in results)}")
        figures = {
            name: report(name, [r["metrics"][name]["value"] for r in results],
                         results[0]["metrics"][name]["unit"], bound)
            for name, bound in bounds.items()
        }
        for name in runs[0][1]:
            figures[name] = report(name, [printed[name] for _, printed in runs], "s")
        entry = {
            "why": workloads.WHY[workload],
            "cold_state": workloads.COLD_STATE,
            "ops_per_pass": len(ops),
            "ops": [" ".join(op.argv) for op in ops],
            "fail_frac": failed / attempted,
            "end_to_end": figures,
        }
        if args.record:
            traced, _ = run_once(workload, SEEDS[0], bench["run_seconds"], 1)
            entry["input_sizes"] = input_sizes(traced["metrics"])
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
