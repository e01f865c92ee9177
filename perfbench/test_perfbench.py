"""Tests of the benchmark itself: its output checks and its tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Instrumentation, Tracer  # noqa: E402
from workloads import FileRoundTrip, Op, OpResult  # noqa: E402


def _small_ops(tmp_path) -> list:
    """One op of every kind the workloads use, at sizes that run in seconds."""
    path = str(tmp_path / "g.edges")
    trip = FileRoundTrip(10, path)
    degrees = ["--alpha", "0.8", "--beta", "0.5", "--gamma", "0.1"]
    square = ["--alpha", "0.6", "--beta", "0.5", "--gamma", "0.6"]
    return [
        Op(["validate", "--kind", "degrees", "--n", "8", "--trials", "3", *degrees, "--seed", "4"],
           workloads.check_validate("degrees")),
        Op(["validate", "--kind", "subgraph", "--n", "8", "--trials", "2", "--pattern", "cycle:4",
            "--alpha", "0.7", "--beta", "0.5", "--gamma", "0.7", "--seed", "5"],
           workloads.check_validate("subgraph")),
        Op(["validate", "--kind", "hamming", "--n", "10", "--trials", "1", *square, "--seed", "6"],
           workloads.check_validate("hamming")),
        Op(["certify", "--pattern", "cycle:4", *square], workloads.check_certify),
        Op(["predict", "--what", "hamming-profile", "--n", "20", *square], workloads.check_predict("hamming-profile")),
        Op(["generate", "--generator", "rmat", "--n", "10", "--alpha", "0.57", "--beta", "0.19",
            "--gamma", "0.05", "--rmat-edges", "3000", "--seed", "7", "--out", path],
           trip.check_generate, files=(path,)),
        Op(["measure", "--input", path, "--what", "degrees"], trip.check_measure),
    ]


def _measured(edges=5, loops=1, histogram=None) -> OpResult:
    payload = {"n": 3, "edges": edges, "loops": loops, "degree_histogram": histogram or {"0": 2, "2": 6}}
    return OpResult(0, json.dumps(payload), "")


def _round_trip() -> FileRoundTrip:
    trip = FileRoundTrip(3, __file__)
    assert trip.check_generate(OpResult(0, f"wrote 5 edges and 1 loops to {__file__}\n", "")) is None
    return trip


def test_measure_check_accepts_matching_output():
    assert _round_trip().check_measure(_measured()) is None


def test_measure_check_rejects_histogram_off_by_one():
    problem = _round_trip().check_measure(_measured(histogram={"0": 2, "2": 7}))
    assert "sums to 9" in problem


def test_measure_check_rejects_mismatched_edge_counts():
    assert "generate wrote (5, 1)" in _round_trip().check_measure(_measured(edges=6))
    assert "generate wrote (5, 1)" in _round_trip().check_measure(_measured(loops=0))


def test_measure_check_needs_a_successful_generate():
    trip = FileRoundTrip(3, __file__)
    assert trip.check_generate(OpResult(2, "", "error: bad")) is not None
    assert trip.check_measure(_measured()) is not None


@pytest.mark.parametrize(
    "result",
    [
        OpResult(0, json.dumps({"kind": "degrees", "passed": False}), ""),
        OpResult(1, json.dumps({"kind": "degrees", "passed": True}), ""),
        OpResult(0, json.dumps({"kind": "hamming", "passed": True}), ""),
        OpResult(2, "", "error: bad config"),
        OpResult(None, "", "", "Traceback ...\nValueError: boom\n"),
        OpResult(0, "not json", ""),
    ],
)
def test_validate_check_rejects_bad_outputs(result):
    assert workloads.check_validate("degrees")(result) is not None


def test_validate_check_accepts_exit_1_as_an_answer():
    assert workloads.check_validate("degrees")(OpResult(1, json.dumps({"kind": "degrees", "passed": False}), "")) is None


def test_certify_check_ties_status_to_exit_code():
    unions = [{"status": "pass"}]
    assert workloads.check_certify(OpResult(0, json.dumps({"status": "pass", "unions": unions}), "")) is None
    assert workloads.check_certify(OpResult(1, json.dumps({"status": "fail", "unions": unions}), "")) is None
    assert workloads.check_certify(OpResult(0, json.dumps({"status": "fail", "unions": unions}), "")) is not None
    assert workloads.check_certify(OpResult(1, json.dumps({"status": "pass", "unions": unions}), "")) is not None


def test_changed_digest_fails_the_op(tmp_path):
    ops = _small_ops(tmp_path)[:1]
    runner = run.Runner(ops)
    runner.run_pass()
    assert runner.failures == []
    runner.digests[tuple(ops[0].argv)] = "0" * 64
    runner.run_pass()
    assert len(runner.failures) == 1 and "differs" in runner.failures[0]


def test_repeated_argv_in_one_pass_must_give_the_same_output():
    op = Op(["predict", "--what", "regime"], lambda result: None)
    runner = run.Runner([op, op])
    answers = iter("12")
    runner.main = lambda argv: print(next(answers)) or 0
    runner.run_pass()
    assert len(runner.failures) == 1 and "differs" in runner.failures[0]


def test_latency_is_the_best_of_its_argv_over_the_run():
    a, b = Op(["certify", "--pattern", "cycle:3"], None), Op(["certify", "--pattern", "cycle:4"], None)
    assert run.best_latencies([a, b, a], [[3.0, 5.0, 4.0], [6.0, 2.0, 1.0]]) == [1.0, 2.0, 1.0]


def test_outputs_are_byte_identical_with_tracing_on_and_off(tmp_path):
    ops = _small_ops(tmp_path)
    runner = run.Runner(ops)
    tracer = Tracer()
    with Instrumentation(tracer):
        for index in range(len(ops)):
            runner.run_checked(index, tracer)
    traced = dict(runner.digests)
    runner.run_pass()
    assert runner.failures == [] and runner.digests == traced and len(traced) == len(ops)

    per_op = tracer.layer_self_per_op()
    assert sorted(per_op) == list(range(len(ops)))
    roots = {s[0]: s[4] - s[3] for s in tracer.spans if s[1] == "cli.op"}
    for op, layers in per_op.items():
        assert set(layers) == set(LAYERS)
        assert sum(layers.values()) == pytest.approx(roots[op], abs=1e-9)

    metrics = tracer.summary()
    for name in ("streams.generator_calls", "generate.stratified_calls", "generate.rmat_s",
                 "model.from_pairs_s", "edgelist.write_s", "edgelist.read_s", "edgelist.bytes",
                 "measure.count_copies_calls", "measure.concentration_s", "patterns.unions_found",
                 "patterns.base_value_calls", "predict.calls", "harness.run_s"):
        assert metrics[name][0] > 0, name
    assert 0 < metrics["generate.rmat_distinct_frac"][0] <= 1


def test_instrumentation_restores_every_original():
    import kronval.cli
    import kronval.model

    before = (kronval.cli.generate_stratified, kronval.model.SampledGraph.__dict__["edge_array"])
    with Instrumentation(Tracer()):
        assert kronval.cli.generate_stratified is not before[0]
    assert (kronval.cli.generate_stratified, kronval.model.SampledGraph.__dict__["edge_array"]) == before
