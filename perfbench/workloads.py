"""The four benchmark workloads: fixed op lists for the ``kronval`` CLI and
the output check each op must pass.

An op is one ``kronval.cli.main(argv)`` call.  Every op's ``--seed`` is
derived from the workload seed, so one workload seed always gives the same
argv lists and therefore the same output bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

CERTIFY_PARAMS = ["--alpha", "0.6", "--beta", "0.5", "--gamma", "0.6"]
DEGREE_PARAMS = (
    ["--alpha", "0.8", "--beta", "0.5", "--gamma", "0.1"],
    ["--alpha", "0.7", "--beta", "0.3", "--gamma", "0.3"],
)
CERTIFY_PATTERNS = ("cycle:3", "cycle:4", "cycle:5", "star:4", "path:4")
PREDICT_WHATS = ("moments", "degree-counts", "regime", "hamming-profile")
COUNT_PATTERNS = ("cycle:4", "path:3", "star:3", "cycle:3")
RMAT_N = 20
RMAT_EDGES = 2_097_152

# One line each; BENCHMARK.json carries the same text as the workload's "why".
WHY = {
    "small-n12": "100 desk-sized ops at n=12/n=20: fixed per-call cost dominates"
    " (streams, per-class unranking, union enumeration, report emission)",
    "hamming-n20": "one 3.5M-edge hamming validation at n=20: per-edge sampling,"
    " graph assembly, edge_array sort and histograms dominate",
    "count-n13": "subgraph validation at n=13 over all three counting routes"
    " (degree factorials, triangle intersection, backtracking); generation is small",
    "rmat-file-n20": "R-MAT generate to an edge-list file, then measure it: digit"
    " sampling, duplicate merging, file write and read, from_pairs",
}

# A separate CLI invocation starts with empty caches; the benchmark clears
# every functools cache in kronval (enumerate_pair_unions among them) before
# each op, so an in-process op pays what a separate invocation pays.
COLD_STATE = "caches cleared before every op, so each op costs what one CLI invocation costs"


@dataclass
class OpResult:
    """What one op returned: exit code (None when it raised), captured text,
    and the error text when it raised."""

    rc: Optional[int]
    stdout: str
    stderr: str
    error: str = ""


@dataclass
class Op:
    """One CLI call, the check its output must pass, and the files it writes."""

    argv: list
    check: Callable[[OpResult], Optional[str]]
    files: tuple = field(default=())


def op_seed(workload: str, seed: int, index: int) -> int:
    """The op's ``--seed``: a 32-bit hash of (workload, workload seed, op index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _json(result: OpResult):
    try:
        return json.loads(result.stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _check_exit(result: OpResult, allowed) -> Optional[str]:
    if result.rc is None:
        return f"raised: {result.error.strip().splitlines()[-1] if result.error else '?'}"
    if result.rc not in allowed:
        return f"exit {result.rc}, expected one of {sorted(allowed)}"
    return None


def check_validate(kind: str) -> Callable[[OpResult], Optional[str]]:
    """Exit 0 or 1, and the report's ``passed`` field agrees with it."""

    def check(result: OpResult) -> Optional[str]:
        problem = _check_exit(result, {0, 1})
        if problem:
            return problem
        report, problem = _json(result)
        if problem:
            return problem
        if report.get("kind") != kind:
            return f"report kind {report.get('kind')!r}, expected {kind!r}"
        if report.get("passed") is not (result.rc == 0):
            return f"report passed={report.get('passed')!r} disagrees with exit {result.rc}"
        return None

    return check


def check_certify(result: OpResult) -> Optional[str]:
    """Exit 0 or 1, and exit 0 exactly when the status is ``pass``."""
    problem = _check_exit(result, {0, 1})
    if problem:
        return problem
    payload, problem = _json(result)
    if problem:
        return problem
    if (payload.get("status") == "pass") is not (result.rc == 0):
        return f"status {payload.get('status')!r} disagrees with exit {result.rc}"
    if not payload.get("unions"):
        return "certificate lists no unions"
    return None


_PREDICT_KEYS = {
    "moments": "moments",
    "degree-counts": "expected_degree_counts",
    "regime": "regime",
    "hamming-profile": "profile",
}


def check_predict(what: str) -> Callable[[OpResult], Optional[str]]:
    def check(result: OpResult) -> Optional[str]:
        problem = _check_exit(result, {0})
        if problem:
            return problem
        payload, problem = _json(result)
        if problem:
            return problem
        if _PREDICT_KEYS[what] not in payload:
            return f"payload lacks {_PREDICT_KEYS[what]!r}"
        return None

    return check


_WROTE = re.compile(r"wrote (\d+) edges and (\d+) loops to (.+)\n\Z")


class FileRoundTrip:
    """Checks for a ``generate --out F`` op and the ``measure --input F`` op
    after it: the counts the writer reports are the counts the reader sees."""

    def __init__(self, n: int, path: str):
        self.n = n
        self.path = path
        self.written = None

    def check_generate(self, result: OpResult) -> Optional[str]:
        self.written = None
        problem = _check_exit(result, {0})
        if problem:
            return problem
        match = _WROTE.fullmatch(result.stdout)
        if not match or match.group(3) != self.path:
            return f"unexpected generate output {result.stdout[:120]!r}"
        if not os.path.isfile(self.path):
            return "generate wrote no file"
        self.written = (int(match.group(1)), int(match.group(2)))
        return None

    def check_measure(self, result: OpResult) -> Optional[str]:
        problem = _check_exit(result, {0})
        if problem:
            return problem
        payload, problem = _json(result)
        if problem:
            return problem
        if payload.get("n") != self.n:
            return f"measured n={payload.get('n')!r}, expected {self.n}"
        total = sum(payload.get("degree_histogram", {}).values())
        if total != 1 << self.n:
            return f"degree histogram sums to {total}, expected {1 << self.n}"
        seen = (payload.get("edges"), payload.get("loops"))
        if self.written is None:
            return "no generate counts to compare against"
        if seen != self.written:
            return f"measured (edges, loops)={seen}, generate wrote {self.written}"
        return None


def _small_n12(seed: int, out_dir: str) -> list:
    ops = []
    validate = certify = predict = 0
    for index in range(100):
        slot = index % 5
        if slot in (0, 2):
            argv = [
                "validate", "--kind", "degrees", "--n", "12", "--trials", "20",
                *DEGREE_PARAMS[validate % 2],
                "--seed", str(op_seed("small-n12", seed, index)),
            ]
            ops.append(Op(argv, check_validate("degrees")))
            validate += 1
        elif slot in (1, 3):
            pattern = CERTIFY_PATTERNS[certify % len(CERTIFY_PATTERNS)]
            ops.append(Op(["certify", "--pattern", pattern, *CERTIFY_PARAMS], check_certify))
            certify += 1
        else:
            what = PREDICT_WHATS[predict % len(PREDICT_WHATS)]
            argv = ["predict", "--what", what, "--n", "20", "--d", "2", *CERTIFY_PARAMS]
            ops.append(Op(argv, check_predict(what)))
            predict += 1
    return ops


def _hamming_n20(seed: int, out_dir: str) -> list:
    argv = [
        "validate", "--kind", "hamming", "--n", "20",
        "--alpha", "0.6", "--beta", "0.5", "--gamma", "0.6", "--trials", "1",
        "--seed", str(op_seed("hamming-n20", seed, 0)),
    ]
    return [Op(argv, check_validate("hamming"))]


def _count_n13(seed: int, out_dir: str) -> list:
    return [
        Op(
            [
                "validate", "--kind", "subgraph", "--n", "13",
                "--alpha", "0.7", "--beta", "0.5", "--gamma", "0.7", "--trials", "3",
                "--pattern", pattern,
                "--seed", str(op_seed("count-n13", seed, index)),
            ],
            check_validate("subgraph"),
        )
        for index, pattern in enumerate(COUNT_PATTERNS)
    ]


def _rmat_file_n20(seed: int, out_dir: str) -> list:
    path = os.path.join(out_dir, f"rmat-n{RMAT_N}.edges")
    trip = FileRoundTrip(RMAT_N, path)
    generate = [
        "generate", "--generator", "rmat", "--n", str(RMAT_N),
        "--alpha", "0.57", "--beta", "0.19", "--gamma", "0.05",
        "--rmat-edges", str(RMAT_EDGES),
        "--seed", str(op_seed("rmat-file-n20", seed, 0)), "--out", path,
    ]
    measure = ["measure", "--input", path, "--what", "degrees"]
    return [Op(generate, trip.check_generate, files=(path,)), Op(measure, trip.check_measure)]


WORKLOADS = {
    "small-n12": _small_n12,
    "hamming-n20": _hamming_n20,
    "count-n13": _count_n13,
    "rmat-file-n20": _rmat_file_n20,
}


def build_ops(workload: str, seed: int, out_dir: str) -> list:
    """The workload's op list for one workload seed; touches no file."""
    return WORKLOADS[workload](seed, out_dir)
