"""kronval benchmark: drive the ``kronval`` CLI in-process on a fixed workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-n12 --seed 1 --seconds 10 --trace 0

One client runs the workload's op list as a closed loop: each op is one
``kronval.cli.main(argv)`` call, made after the previous one returned, in
this one process and thread.  Every op is timed and its output checked; an
op fails when it raises, exits 2 or fails its check (an exit 1 from
``validate`` or ``certify`` is an answer).  Op outputs (stdout, stderr and
written files) are hashed, and ops with the same argv must give the same
digest throughout one invocation: across passes, between repeated ops of one
pass, and traced against untraced.

``--trace 0`` repeats the op list in whole passes until ``--seconds`` have
been measured, and reports the end-to-end metrics.  A pass of every workload
takes longer than the benchmark's 10 s, so a run makes one pass, and the runs
of all workloads fit the benchmark's time budget.  An op's latency is the
best time of its argv in the run: ops with the same argv do the same work
from the same cold caches, and the best of their timings is moved less by a
slow spell of a shared machine than one timing is.  ``wall_s`` is the sum of
these latencies over the op list, and ``peak_rss_mb`` is the process's peak
RSS after the first pass (one pass peaks as high as one CLI invocation of
each op).  A workload of at least 100 ops also has the percentiles
``op_s.p50`` and ``op_s.p90`` of these latencies printed on the summary line
before the result; they are not in the result, whose metrics every workload
reports alike.
``--trace 1`` runs each op twice in a row, traced and then untraced, and
reports the per-layer metrics and the trace's own overhead; the spans go to
``.perfbench/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
# Ops a pass needs for op_s.p50/op_s.p90 to be printed: ten beyond p90.
PERCENTILE_MIN_OPS = 100

# One process, one thread: no BLAS worker pools.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of a non-empty list: always an
    observed latency, never a blend of two ops of different kinds."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100.0) - 1)]


def best_latencies(ops: list, passes: list) -> list:
    """Per op, the best time of its argv over every pass."""
    best_of = {}
    for latencies in passes:
        for op, seconds in zip(ops, latencies):
            key = tuple(op.argv)
            best_of[key] = min(best_of.get(key, seconds), seconds)
    return [best_of[tuple(op.argv)] for op in ops]


def output_digest(op, result) -> str:
    h = hashlib.sha256()
    h.update(f"{result.rc}\0{result.stdout}\0{result.stderr}\0".encode())
    for path in op.files:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Runner:
    """Runs op lists against ``kronval.cli.main`` and keeps what the metrics need."""

    def __init__(self, ops: list):
        import kronval.cli

        self.main = kronval.cli.main
        self.ops = ops
        self.caches = _kronval_caches()
        self.digests = {}  # argv -> output digest
        self.failures = []
        self.attempted = 0

    def run_op(self, index: int, tracer=None):
        """Run one op from cold caches; return (seconds, OpResult)."""
        op = self.ops[index]
        for cached in self.caches:
            cached.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, ""
        if tracer is not None:
            tracer.op = index
            span = tracer.open("cli.op")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(list(op.argv))
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        return seconds, workloads.OpResult(rc, out.getvalue(), err.getvalue(), error)

    def run_checked(self, index: int, tracer=None) -> float:
        """Run one op and check its output; return its latency."""
        op = self.ops[index]
        seconds, result = self.run_op(index, tracer)
        self.attempted += 1
        problem = op.check(result)
        if problem is None:
            digest = output_digest(op, result)
            if self.digests.setdefault(tuple(op.argv), digest) != digest:
                problem = "output differs from an earlier run of the same argv in this invocation"
        if problem is not None:
            self.failures.append(f"op {index} ({' '.join(op.argv[:3])}): {problem}")
        return seconds

    def run_pass(self) -> list:
        """Run every op once, untraced; return the op latencies."""
        return [self.run_checked(index) for index in range(len(self.ops))]


def _kronval_caches() -> list:
    """Every functools cache in the kronval modules, found before any wrapping."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "kronval" or name.startswith("kronval."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to ``kronval.cli`` imported
    and the op list built, measured on the shared monotonic clock."""
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1]) - start


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    out_dir = OUT / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build_ops(args.workload, args.seed, str(out_dir))
    runner = Runner(ops)
    setup = []
    try:
        if args.trace:
            from spans import Instrumentation, Tracer

            # Each op runs traced, then untraced right after, so that the
            # overhead compares two runs made under the same conditions.
            tracer = Tracer()
            instrumentation = Instrumentation(tracer)
            traced, untraced = [], []
            for index in range(len(ops)):
                with instrumentation:
                    traced.append(runner.run_checked(index, tracer))
                untraced.append(runner.run_checked(index))
            layers = tracer.summary()
            roots = {s[0]: s[4] - s[3] for s in tracer.spans if s[1] == "cli.op"}
            for op, per_layer in tracer.layer_self_per_op().items():
                if abs(sum(per_layer.values()) - roots[op]) > 1e-6:
                    runner.failures.append(f"op {op}: layer self times do not sum to its wall time")
            tracer.dump(str(OUT / f"trace-{args.workload}-{args.seed}.json"))
            metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
            metrics["trace.overhead_frac"] = metric(sum(traced) / sum(untraced) - 1.0, "ratio")
            passes = [untraced]
        else:
            # Set-up probes go before and between passes, so that one slow
            # spell of the machine meets few of them.
            passes, spent = [], 0.0
            setup.append(probe_setup(args.workload, args.seed))
            while not passes or spent < args.seconds:
                start = time.perf_counter()
                passes.append(runner.run_pass())
                spent += time.perf_counter() - start
                if len(passes) == 1:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                setup.append(probe_setup(args.workload, args.seed))
            while len(setup) < SETUP_PROBES:
                setup.append(probe_setup(args.workload, args.seed))
    finally:
        for op in ops:
            for path in op.files:
                if os.path.exists(path):
                    os.remove(path)
        with contextlib.suppress(OSError):
            out_dir.rmdir()
    best = best_latencies(ops, passes)
    if not args.trace:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(sum(best), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    failed = len(runner.failures)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}"
        f" ops={runner.attempted} failed={failed} fail_frac={failed / runner.attempted:.4g}"
        + (f" setup_s={statistics.median(setup):.4f}" if setup else "")
        + f" wall_s={sum(best):.4f}"
        + (f" op_s.p50={percentile(best, 50):.4f} op_s.p90={percentile(best, 90):.4f}"
           if len(best) >= PERCENTILE_MIN_OPS else "")
        + f" ({len(best)} ops)"
    )
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="least time measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "kronval" / "cli.py").is_file():
        print(f"error: no kronval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        import kronval.cli  # noqa: F401

        workloads.build_ops(args.workload, args.seed, str(OUT))
        print(time.monotonic())
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
