import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kronval.generate
import kronval.harness
from kronval import (
    CapacityError,
    ConfigError,
    DimensionError,
    KroneckerParams,
    ParameterError,
    SampledGraph,
    SeedSpec,
    count_labeled_copies,
    edge_probability,
    parse_pattern,
    star,
)
from kronval.cli import build_parser, main, parse_args
from kronval.generate import (
    GENERATE_MEMORY_CEILING,
    RMAT_MAX_EDGES,
    RMAT_PEAK_BYTES_PER_DRAW,
    _unrank_pairs,
    batch_trials,
    edge_sum_moments,
)
from kronval.harness import (
    GENERATORS,
    KINDS,
    ExperimentConfig,
    canonical_json,
    emit_report,
    generate_graph,
    report_json,
    run_experiment,
)

from conftest import traced_peak


def _pair_sums(params: KroneckerParams, include_loops: bool) -> list:
    """(mean, variance) of the total edge distance and of the total degree,
    summed over every pair u <= v: a pair of probability p and weight w adds
    w p and w^2 p (1 - p); the distance weighs a pair by its distance, the
    degree an edge by 2 and a loop by 1."""
    size = params.vertex_count
    pairs = [(u, v) for u in range(size) for v in range(u, size) if include_loops or u != v]
    probs = np.array([edge_probability(params, u, v) for u, v in pairs])
    distances = np.array([bin(u ^ v).count("1") for u, v in pairs])
    ends = np.array([1 if u == v else 2 for u, v in pairs])
    return [
        ((probs * w).sum(), (probs * (1 - probs) * w**2).sum()) for w in (distances, ends)
    ]


def cfg(**overrides):
    defaults = dict(
        params=KroneckerParams(0.7, 0.3, 0.3, 6),
        kind="degrees",
        seed=17,
        trials=6,
        generator="stratified",
        degree_max=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            cfg(kind="nonsense").validate()

    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            cfg(trials=0).validate()

    def test_trials_and_sweep_steps_capped(self):
        cfg(trials=100_000).validate()
        with pytest.raises(ConfigError, match=r"trials must lie in \[1, 100000\]"):
            cfg(trials=100_001).validate()
        thresholds = dict(kind="thresholds", pattern="cycle:4")
        cfg(sweep=(0.3, 0.7, 100_000), **thresholds).validate()
        with pytest.raises(ConfigError, match=r"sweep STEPS must lie in \[2, 100000\]"):
            cfg(sweep=(0.3, 0.7, 100_001), **thresholds).validate()

    def test_hamming_gates_before_generation(self):
        # alpha != gamma never reaches the symmetric-only predictions
        with pytest.raises(ConfigError):
            cfg(kind="hamming", params=KroneckerParams(0.7, 0.5, 0.6, 6)).validate()
        with pytest.raises(ConfigError):
            cfg(kind="hamming", params=KroneckerParams(0.4, 0.5, 0.4, 6)).validate()

    def test_pattern_required_for_subgraph(self):
        with pytest.raises(ConfigError):
            cfg(kind="subgraph").validate()
        cfg(kind="subgraph", pattern="star:2").validate()

    def test_counting_caps_checked_before_generation(self):
        with pytest.raises(CapacityError):
            cfg(kind="subgraph", pattern="cycle:5", params=KroneckerParams(0.7, 0.3, 0.3, 15)).validate()
        with pytest.raises(CapacityError):
            cfg(
                kind="thresholds",
                pattern="cycle:4",
                sweep=(0.3, 0.7, 4),
                params=KroneckerParams(0.7, 0.3, 0.3, 17),
            ).validate()
        cfg(kind="subgraph", pattern="cycle:4", params=KroneckerParams(0.7, 0.3, 0.3, 16)).validate()

    def test_sweep_required_for_thresholds(self):
        with pytest.raises(ConfigError):
            cfg(kind="thresholds", pattern="cycle:4").validate()
        cfg(kind="thresholds", pattern="cycle:4", sweep=(0.3, 0.7, 4)).validate()

    def test_rmat_needs_constraint_and_edges(self, monkeypatch):
        # rmat is generate's alone; its rules hold in the dispatch, before sampling
        monkeypatch.setattr(kronval.harness, "generate_rmat", lambda rmat, seed: rmat)
        rmat_params = KroneckerParams(0.45, 0.2, 0.15, 6)
        with pytest.raises(ConfigError, match="needs --rmat-edges"):
            generate_graph(rmat_params, "rmat", SeedSpec(1))
        with pytest.raises(ConfigError, match="must equal 1"):
            generate_graph(KroneckerParams(0.7, 0.3, 0.3, 6), "rmat", SeedSpec(1), rmat_edges=100)
        assert generate_graph(rmat_params, "rmat", SeedSpec(1), rmat_edges=100).m == 100

    @pytest.mark.parametrize("kind", KINDS)
    def test_rmat_refused_where_judged_by_kronecker_closed_forms(self, kind):
        # R-MAT's merged digit draws miss these closed forms by |z| = 5.48
        # (degree_0_count) and 27.4 (cycle:3 copies) at n = 4, 100 draws.
        params = KroneckerParams(0.6, 0.5, 0.6, 4)
        run = dict(kind=kind, pattern="cycle:3", sweep=(0.3, 0.7, 2), params=params)
        with pytest.raises(ConfigError, match=r"must be one of \('naive', 'stratified'\)"):
            cfg(generator="rmat", **run).validate()
        cfg(**run).validate()

    def test_desk_scale_guards(self):
        naive = KroneckerParams(0.7, 0.3, 0.3, 15)
        with pytest.raises(ConfigError, match="naive generation .* caps at n = 14, got n = 15"):
            cfg(generator="naive", params=naive).validate()
        # Stratified runs past n = 22 need no flag when the graph fits the budget.
        cfg(params=dataclasses.replace(naive, n=23)).validate()

    def test_naive_guard_holds_with_allow_large(self):
        # No option lifts the naive cap: a sparse n = 15 graph that the
        # stratified sampler draws within its budget is still refused.
        sparse = KroneckerParams(0.5, 0.2, 0.3, 15)
        cfg(params=sparse).validate()
        with pytest.raises(ConfigError, match="caps at n = 14, got n = 15"):
            cfg(generator="naive", params=sparse).validate()
        with pytest.raises(TypeError, match="allow_large"):
            cfg(generator="naive", params=sparse, allow_large=True)

    def test_n_capped_per_generator_and_for_regime(self):
        # alpha = gamma and alpha + beta > 1 put every n = 30 hamming graph over the budget
        hamming = KroneckerParams(0.6, 0.45, 0.6, 30)
        with pytest.raises(ConfigError, match="exceeds the budget"):
            cfg(kind="hamming", params=hamming).validate()
        with pytest.raises(ConfigError, match="stratified generation caps at n = 30, got n = 31"):
            cfg(kind="hamming", params=dataclasses.replace(hamming, n=31)).validate()
        # regime samples nothing, so no generator limit applies to it
        regime = KroneckerParams(0.7, 0.3, 0.3, 100_000)
        for generator in ("naive", "stratified"):
            cfg(kind="regime", generator=generator, params=regime).validate()
        with pytest.raises(ConfigError, match="regime table caps at n = 100000"):
            cfg(kind="regime", params=dataclasses.replace(regime, n=100_001)).validate()

    def test_rmat_refuses_no_loops(self, monkeypatch):
        monkeypatch.setattr(kronval.harness, "generate_rmat", lambda rmat, seed: rmat)
        rmat_params = KroneckerParams(0.45, 0.2, 0.15, 6)
        with pytest.raises(ConfigError, match="no-loops"):
            generate_graph(rmat_params, "rmat", SeedSpec(1), include_loops=False, rmat_edges=100)
        generate_graph(rmat_params, "rmat", SeedSpec(1), rmat_edges=100)


class TestReports:
    def test_degrees_report_structure(self):
        report = run_experiment(cfg())
        data = report.to_dict()
        assert data["schema"] == 2
        assert data["kind"] == "degrees"
        assert data["config"]["seed"] == 17
        assert data["table"]["columns"] == [
            "d",
            "empirical_mean_count",
            "predicted_count",
            "z_score",
        ]
        assert len(data["table"]["rows"]) == 4
        assert all("source" in entry for entry in data["analytic"])
        assert report.passed

    def test_hamming_columns(self):
        report = run_experiment(
            cfg(kind="hamming", params=KroneckerParams(0.7, 0.5, 0.7, 8), trials=4)
        )
        assert report.table_columns == ("k", "empirical_mean", "predicted")
        assert len(report.table_rows) == 9

    @pytest.mark.parametrize("include_loops", [True, False])
    def test_hamming_moments_are_sums_over_all_pairs(self, include_loops):
        # Brute force over every pair u <= v at n = 6 (_pair_sums).
        params = KroneckerParams(0.7, 0.5, 0.7, 6)
        moments = edge_sum_moments(params, include_loops)
        for (mean, var), (want_mean, want_var) in zip(moments, _pair_sums(params, include_loops)):
            assert mean == pytest.approx(want_mean, rel=1e-12)
            assert var == pytest.approx(want_var, rel=1e-12)
        report = run_experiment(
            cfg(kind="hamming", params=params, trials=2, include_loops=include_loops)
        )
        assert [c.expected for c in report.criteria] == [mean for mean, _ in moments]
        center = {a.name: a.value for a in report.analytic}["window_center"]
        assert center == 0.5 * 6 / 1.2

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize(
        "entries",
        [
            (0.999, 0.99, 0.95),
            (0.99, 0.999, 0.99),
            (0.9999, 0.9999, 0.9999),
            (1e-3, 0.5, 1e-3),
            (1e-6, 1e-6, 1e-6),
            (0.5, 1e-9, 0.5),
            (1e-300, 0.5, 1e-300),
        ],
    )
    def test_hamming_moments_hold_at_extreme_entries(self, entries, n):
        # The closed forms against every pair.  Near 1, p (1 - p) is the
        # difference of two sums, and both sides lose the digits of 1 - p.
        params = KroneckerParams(*entries, n)
        for include_loops in (True, False):
            moments = edge_sum_moments(params, include_loops)
            for (mean, var), (want_mean, want_var) in zip(
                moments, _pair_sums(params, include_loops)
            ):
                assert mean == pytest.approx(want_mean, rel=1e-12)
                assert var == pytest.approx(want_var, rel=1e-10)

    def test_hamming_trial_without_edges_reads_nan(self):
        # n = 1 without loops: each trial holds its one pair with
        # probability 0.5, and a trial without it has no edge fraction or
        # mean distance, so their means over the run are NaN, quietly.
        config = cfg(kind="hamming", params=KroneckerParams(0.7, 0.5, 0.7, 1), include_loops=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_experiment(config)
        assert report.empirical["mean_degree"] < 1.0  # some trial holds no edge
        assert math.isnan(report.empirical["in_window_fraction"])
        assert math.isnan(report.empirical["mean_edge_distance"])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("loops", ["--loops", "--no-loops"])
    def test_hamming_passes_at_the_smallest_n(self, n, loops):
        # A handful of pairs: fixed relative tolerances and an in-window
        # fraction (a window of zero width at n = 1) fail such runs; a z on
        # the exact moments does not.
        for seed in range(1, 6):
            rc, _, err = _run_cli(
                ["validate", "--kind", "hamming", "--n", str(n), "--alpha", "0.7", "--beta",
                 "0.5", "--gamma", "0.7", "--trials", "1", "--seed", str(seed), loops]
            )
            assert rc == 0, err

    def test_byte_determinism(self, tmp_path):
        config = cfg()
        first = report_json(run_experiment(config))
        second = report_json(run_experiment(config))
        assert first == second
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(run_experiment(config), json_path=a)
        emit_report(run_experiment(config), json_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_emission(self, tmp_path):
        out = tmp_path / "table.csv"
        emit_report(run_experiment(cfg()), csv_path=out)
        lines = out.read_text().splitlines()
        assert lines[0] == "d,empirical_mean_count,predicted_count,z_score"
        assert len(lines) == 5

    def test_edge_dumps(self, tmp_path):
        from kronval import read_edgelist

        prefix = str(tmp_path / "dump")
        run_experiment(cfg(trials=3, dump_edges=prefix))
        files = sorted(tmp_path.iterdir())
        assert [f.name for f in files] == [
            "dump.trial0.edges",
            "dump.trial1.edges",
            "dump.trial2.edges",
        ]
        g = read_edgelist(files[0])
        assert g.n == 6

    def test_threshold_edge_dumps(self, tmp_path):
        prefix = str(tmp_path / "dump")
        run_experiment(
            cfg(kind="thresholds", pattern="star:2", sweep=(0.3, 0.7, 2), trials=2, dump_edges=prefix)
        )
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            f"dump.sweep{i}.trial{t}.edges" for i in range(2) for t in range(2)
        ]

    def test_seed_changes_report(self):
        assert report_json(run_experiment(cfg())) != report_json(
            run_experiment(cfg(seed=18))
        )

    def test_counts_above_2_pow_53_are_exact(self, monkeypatch):
        # a hub joined to 2^15 - 1 leaves holds about 1.2e18 labeled 4-stars,
        # where float64 steps by 256
        params = KroneckerParams(0.7, 0.3, 0.3, 15)
        leaves = np.arange(1, 1 << 15)
        hub = SampledGraph.from_pairs(params, np.zeros_like(leaves), leaves)
        trial_graphs = []

        def fake_degrees(params, include_loops, seeds):
            # The star route reads each trial's loop-free degrees, no graph.
            assert include_loops is False
            trial_graphs.extend([hub] * len(seeds))
            return np.tile(hub.degrees(count_loops=False), (len(seeds), 1))

        monkeypatch.setattr(kronval.harness, "stratified_degrees", fake_degrees)
        report = run_experiment(cfg(kind="subgraph", pattern="star:4", params=params, trials=2))
        count = count_labeled_copies(trial_graphs[0], star(4))
        assert count == math.perm((1 << 15) - 1, 4) and count > 2**53
        assert int(float(count)) != count
        data = json.loads(report_json(report))
        assert data["empirical"]["counts"] == [count, count]
        assert data["table"]["rows"] == [[0, count], [1, count]]

    def test_json_rounds_to_twelve_digits(self):
        data = json.loads(report_json(run_experiment(cfg())))
        value = data["analytic"][0]["value"]
        assert value == float(f"{value:.12g}")


class TestCanonicalJson:
    def test_values(self):
        payload = {"b": (1, 0.1 + 0.2), "a": math.nan, "big": np.int64(2**60 + 1), "f": np.float64(1 / 3)}
        assert canonical_json(payload) == (
            '{\n  "a": null,\n  "b": [\n    1,\n    0.3\n  ],\n'
            '  "big": 1152921504606846977,\n  "f": 0.333333333333\n}\n'
        )

    @pytest.mark.parametrize("value", [math.inf, -math.inf, np.float64("inf")])
    def test_infinity_is_refused(self, value):
        with pytest.raises(ParameterError, match="beyond the float range"):
            canonical_json({"count": [value]})


def _parse_outcome(parser, argv):
    """(exit code, stdout, stderr) of parse_args; exit code None when it parses."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


COMMANDS = ("generate", "predict", "measure", "validate", "certify")
ENTRIES = ["--alpha", "0.6", "--beta", "0.5", "--gamma", "0.6"]


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], ["bogus"], ["--alpha", "0.6", "certify"]]
        + [[command, "--help"] for command in COMMANDS]
        + [[command] for command in COMMANDS]
        + [
            ["certify", "--pattern", "cycle:3", "--alpha", "x", "--beta", "0.5", "--gamma", "0.6"],
            ["certify", "--pattern", "cycle:3", "--n", "4", *ENTRIES],
            ["generate", "--n", "6", *ENTRIES, "--seed", "1", "stray"],
            ["measure", "--input", "x.edges", "--what", "degrees", "--bogus"],
            ["validate", "--n", "6", *ENTRIES, "--kind", "nope", "--seed", "1"],
        ],
    )
    def test_parse_args_texts_match_a_fully_built_parser(self, argv):
        # parse_args builds only the parser of the command argv[0] names.
        lone = types.SimpleNamespace(parse_args=parse_args)
        assert _parse_outcome(lone, argv) == _parse_outcome(build_parser(), argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", *ENTRIES, "--pattern", "cycle:3"],
            ["generate", "--n", "6", *ENTRIES, "--seed", "1", "--out", "g.edges"],
            ["validate", "--n", "6", *ENTRIES, "--kind", "degrees", "--seed", "1"],
        ],
    )
    def test_parse_args_sets_what_the_full_parser_sets(self, argv):
        assert parse_args(argv) == build_parser().parse_args(argv)

    def test_generate_measure_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        rc = main(
            [
                "generate", "--n", "6", "--alpha", "0.6", "--beta", "0.4",
                "--gamma", "0.3", "--seed", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["measure", "--input", str(out), "--what", "degrees"])
        assert rc == 0
        measured = json.loads(capsys.readouterr().out)
        assert measured["n"] == 6
        assert sum(measured["degree_histogram"].values()) == 64
        # determinism: regenerating gives identical bytes
        again = tmp_path / "h.edges"
        main(
            [
                "generate", "--n", "6", "--alpha", "0.6", "--beta", "0.4",
                "--gamma", "0.3", "--seed", "5", "--out", str(again),
            ]
        )
        assert out.read_bytes() == again.read_bytes()

    def test_validate_exit_codes(self, tmp_path):
        args = [
            "validate", "--kind", "degrees", "--alpha", "0.7", "--beta", "0.3",
            "--gamma", "0.3", "--n", "6", "--trials", "5", "--seed", "3",
            "--d-max", "2", "--out-json", str(tmp_path / "r.json"),
            "--out-csv", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["passed"] is True and report["schema"] == 2

    def test_config_error_is_exit_2(self):
        rc = main(
            [
                "validate", "--kind", "hamming", "--alpha", "0.7", "--beta", "0.5",
                "--gamma", "0.6", "--n", "6", "--seed", "3",
            ]
        )
        assert rc == 2

    def test_capacity_error_is_exit_2(self, tmp_path):
        rc = main(
            [
                "generate", "--n", "20", "--alpha", "0.6", "--beta", "0.4",
                "--gamma", "0.3", "--generator", "naive", "--seed", "1",
                "--out", str(tmp_path / "x.edges"),
            ]
        )
        assert rc == 2

    def test_counting_cap_is_exit_2_before_generation(self, monkeypatch, capsys):
        def no_generation(*args, **kwargs):
            raise AssertionError("a trial graph was generated")

        monkeypatch.setattr(kronval.harness, "generate_graph", no_generation)
        for n, pattern in (("17", "cycle:4"), ("15", "cycle:5")):
            rc = main(
                [
                    "validate", "--kind", "subgraph", "--alpha", "0.7", "--beta", "0.5",
                    "--gamma", "0.7", "--n", n, "--pattern", pattern, "--seed", "1",
                ]
            )
            assert rc == 2
            assert "copy counting caps at n = " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "degrees", "--trials", str(10**21)], "trials must lie in [1, 100000]"),
            (
                ["--kind", "thresholds", "--pattern", "cycle:3", "--sweep", "0.1", "0.9", "1e11"],
                "sweep STEPS must lie in [2, 100000]",
            ),
        ],
    )
    def test_trial_and_sweep_counts_past_their_cap_are_exit_2_before_generation(
        self, monkeypatch, capsys, argv, message
    ):
        def no_generation(*args, **kwargs):
            raise AssertionError("a trial graph was generated")

        monkeypatch.setattr(kronval.harness, "generate_graph", no_generation)
        rc = main(
            [
                "validate", "--n", "6", "--alpha", "0.6", "--beta", "0.5", "--gamma", "0.6",
                "--seed", "1", *argv,
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["hamming", "regime"])
    def test_huge_n_is_exit_2_with_nothing_written(self, tmp_path, capsys, kind):
        out = tmp_path / "r.json"
        rc = main(
            [
                "validate", "--kind", kind, "--n", "100000000000000000000",
                "--alpha", "0.5", "--beta", "0.7", "--gamma", "0.5", "--seed", "1",
                "--out-json", str(out),
            ]
        )
        assert rc == 2
        assert "caps at n = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["30", "100000"])
    def test_regime_checks_no_generator_limit(self, monkeypatch, capsys, n):
        monkeypatch.setattr(kronval.harness, "generate_graph", None)  # nothing is sampled
        rc = main(
            [
                "validate", "--kind", "regime", "--n", n, "--alpha", "0.6", "--beta", "0.5",
                "--gamma", "0.6", "--seed", "1",
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["config"]["params"]["n"] == int(n)

    def test_validate_reads_pattern_file(self, tmp_path, capsys):
        spec = tmp_path / "c4.txt"
        spec.write_text("4\n0 1\n1 2\n2 3\n0 3\n", encoding="ascii")
        reports = []
        for pattern in ("cycle:4", f"@{spec}"):
            rc = main(
                [
                    "validate", "--kind", "subgraph", "--alpha", "0.7", "--beta", "0.5",
                    "--gamma", "0.7", "--n", "8", "--trials", "3", "--pattern", pattern,
                    "--seed", "4",
                ]
            )
            assert rc in (0, 1)
            reports.append(json.loads(capsys.readouterr().out))
        by_name, by_file = reports
        assert by_file["empirical"]["counts"] == by_name["empirical"]["counts"]
        assert by_file["table"] == by_name["table"]
        # the report echoes the pattern text, not a path to it
        assert by_file["config"]["pattern"] == spec.read_text(encoding="ascii")
        rc = main(
            [
                "validate", "--kind", "subgraph", "--alpha", "0.7", "--beta", "0.5",
                "--gamma", "0.7", "--n", "8", "--pattern", f"@{tmp_path / 'missing.txt'}",
                "--seed", "4",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--what", "subgraph", "--input", "{edges}"],
            ["certify", "--alpha", "0.6", "--beta", "0.4", "--gamma", "0.3"],
            [
                "validate", "--kind", "subgraph", "--alpha", "0.6", "--beta", "0.4",
                "--gamma", "0.3", "--n", "4", "--seed", "1",
            ],
        ],
        ids=["measure", "certify", "validate"],
    )
    def test_non_ascii_pattern_file_is_exit_2(self, tmp_path, capsys, argv):
        edges = tmp_path / "g.edges"
        edges.write_text("kron n=2 alpha=0.6 beta=0.4 gamma=0.3 loops=1\n00 01\n")
        spec = tmp_path / "p.txt"
        spec.write_bytes("3\n0 1\n1 2\n0 2 \u00e9\n".encode("utf-8"))
        argv = [arg.format(edges=edges) for arg in argv]
        rc = main([*argv, "--pattern", f"@{spec}"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: pattern file {str(spec)!r} is not ASCII\n"

    def test_degrees_past_the_dense_cap_are_exit_2(self, tmp_path, capsys, monkeypatch):
        # A 2^40-vertex degree array would need 8 TiB; the edge-distance
        # histogram of the same file needs none.
        path = tmp_path / "g.edges"
        zero, one = "0" * 40, "0" * 39 + "1"
        path.write_text(f"kron n=40 alpha=0.5 beta=0.2 gamma=0.1 loops=1\n{zero} {one}\n")
        assert main(["measure", "--input", str(path), "--what", "hamming"]) == 0
        capsys.readouterr()
        assert main(["measure", "--input", str(path), "--what", "degrees"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: degree arrays of 2^n int64 counts cap at n = 28"
            " under the memory ceiling, got n = 40\n"
        )

        def no_generation(*args, **kwargs):
            raise AssertionError("a trial graph was generated")

        monkeypatch.setattr(kronval.harness, "generate_graph", no_generation)
        rc = main(
            [
                "validate", "--kind", "degrees", "--n", "29",
                "--alpha", "0.5", "--beta", "0.2", "--gamma", "0.1", "--seed", "1",
            ]
        )
        assert rc == 2 and capsys.readouterr().err == captured.err.replace("n = 40", "n = 29")

    @pytest.mark.parametrize(
        "what, error",
        [
            (
                ["degrees"],
                "degree arrays of 2^n int64 counts cap at n = 28"
                " under the memory ceiling, got n = 40",
            ),
            (["subgraph"], "measure --what subgraph needs --pattern"),
            (["subgraph", "--pattern", "star:3"], "copy counting caps at n = 16"),
            (["subgraph", "--pattern", "bogus:3"], "unknown pattern name 'bogus'"),
            (["subgraph", "--pattern", "cycle:9"], "copy counting caps at 5 pattern vertices"),
        ],
        ids=["degrees", "no-pattern", "n-cap", "unknown-pattern", "vertex-cap"],
    )
    def test_degrees_cap_is_checked_from_the_header_alone(
        self, tmp_path, capsys, monkeypatch, what, error
    ):
        # A valid n = 40 header over a body that is not an edge list: the
        # degree-array cap, and the pattern and its counting caps, answer
        # before the body is read, so the body's fault never shows.
        path = tmp_path / "g.edges"
        path.write_text("kron n=40 alpha=0.5 beta=0.2 gamma=0.1 loops=1\nnot an edge line\n")

        def no_body_read(*args, **kwargs):
            raise AssertionError("the edge-list body was read")

        monkeypatch.setattr(kronval.cli, "read_edgelist", no_body_read)
        assert main(["measure", "--input", str(path), "--what", *what]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        monkeypatch.undo()
        assert main(["measure", "--input", str(path), "--what", "hamming"]) == 2
        assert capsys.readouterr().err.startswith("error: line 2:")

    def test_hamming_profile_overflow_is_exit_2(self, capsys):
        rc = main(
            [
                "predict", "--what", "hamming-profile", "--alpha", "0.6", "--beta", "0.5",
                "--gamma", "0.6", "--n", "100000",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "beyond the largest float" in captured.err

    def test_certify_exit_codes(self, capsys):
        passing = [
            "certify", "--pattern", "star:2", "--alpha", "0.6", "--beta", "0.5",
            "--gamma", "0.4",
        ]
        assert main(passing) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        failing = [
            "certify", "--pattern", "star:2", "--alpha", "0.2", "--beta", "0.2",
            "--gamma", "0.2",
        ]
        assert main(failing) == 1

    def test_certify_takes_no_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--pattern", "cycle:4", "--alpha", "0.6", "--beta", "0.5",
                  "--gamma", "0.6", "--n", "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "usage:" in captured.err and "unrecognized arguments: --n 5" in captured.err

    def test_predict_regime_text(self, capsys):
        rc = main(
            [
                "predict", "--what", "regime", "--alpha", "0.5", "--beta", "0.5",
                "--gamma", "0.5", "--n", "10", "--d", "2",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"]["case_id"] == 6
        assert payload["regime"]["power_law_possible"] is True
        assert "Poisson(1)" in payload["regime"]["text"]

    def test_predict_moments_and_profile(self, capsys):
        assert main(
            [
                "predict", "--what", "moments", "--alpha", "0.6", "--beta", "0.4",
                "--gamma", "0.2", "--n", "3",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["moments"]) == 4
        row = payload["moments"][2]
        assert row["variance"] == pytest.approx(row["mean"] - row["sum_sq_probs"])
        assert main(
            [
                "predict", "--what", "hamming-profile", "--alpha", "0.7",
                "--beta", "0.5", "--gamma", "0.7", "--n", "6",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        total = sum(r["expected_neighbors"] for r in payload["profile"])
        assert total == pytest.approx(1.2**6, rel=1e-9)

    @pytest.mark.parametrize("steps", ["nan", "inf", "3.5"])
    def test_sweep_steps_must_be_a_whole_number(self, capsys, steps):
        rc = main(
            [
                "validate", "--kind", "thresholds", "--alpha", "0.5", "--beta", "0.4",
                "--gamma", "0.5", "--n", "4", "--pattern", "cycle:3", "--seed", "1",
                "--sweep", "0.4", "0.6", steps,
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: sweep STEPS must be a whole number")

    def test_oversized_pattern_is_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        entries = ["--alpha", "0.5", "--beta", "0.4", "--gamma", "0.5"]
        params = ["--n", "4", *entries]
        assert main(["generate", *params, "--seed", "1", "--out", str(graph)]) == 0
        for argv in (
            ["measure", "--input", str(graph), "--what", "subgraph"],
            ["validate", "--kind", "subgraph", *params, "--seed", "1"],
            ["certify", *entries],
        ):
            capsys.readouterr()
            assert main([*argv, "--pattern", "cycle:11"]) == 2
            assert "at most 10 vertices" in capsys.readouterr().err

    def test_degree_table_past_its_cap_is_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(kronval.harness, "generate_graph", None)  # nothing is sampled
        params = ["--n", "6", "--alpha", "0.7", "--beta", "0.3", "--gamma", "0.3"]
        for argv in (
            ["predict", "--what", "degree-counts", *params],
            ["validate", "--kind", "degrees", *params, "--seed", "1"],
        ):
            assert main([*argv, "--d-max", str(10**20)]) == 2
            assert "degree-max must lie in [0, 100000]" in capsys.readouterr().err
        for what in ("moments", "degree-counts", "hamming-profile"):
            argv = ["predict", "--what", what, *params, "--n", str(10**20)]
            assert main(argv) == 2
            assert "tabulates up to n = 100000" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--kind", "degrees"])  # missing required args
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_prediction_is_exit_2_with_nothing_written(self, tmp_path, capsys):
        argv = [
            "predict", "--what", "degree-counts", "--n", "1100", "--alpha", "0.5", "--beta", "0.5",
            "--gamma", "0.5", "--d-max", "0",
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "beyond the float range" in captured.err
        out = tmp_path / "p.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_report_value_writes_no_json_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(
            [
                "validate", "--kind", "regime", "--n", "1100", "--alpha", "0.5", "--beta", "0.5",
                "--gamma", "0.5", "--d-max", "0", "--seed", "1",
                "--out-json", str(out),
            ]
        )
        assert rc == 2 and "beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_report_value_writes_no_csv_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(
            [
                "validate", "--kind", "regime", "--n", "1100", "--alpha", "0.5", "--beta", "0.5",
                "--gamma", "0.5", "--d-max", "0", "--seed", "1",
                "--out-csv", str(out),
            ]
        )
        assert rc == 2 and "beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_report_with_an_infinite_table_cell_opens_no_file(self, tmp_path):
        report = run_experiment(cfg())
        row = report.table_rows[0]
        broken = dataclasses.replace(report, table_rows=((row[0], math.inf, *row[2:]),))
        paths = {"json_path": tmp_path / "r.json", "csv_path": tmp_path / "r.csv"}
        with pytest.raises(ParameterError):
            emit_report(broken, csv_path=paths["csv_path"])
        with pytest.raises(ParameterError):
            emit_report(broken, **paths)
        assert not any(path.exists() for path in paths.values())

    def test_predict_regime_at_large_degree(self, capsys):
        rc = main(
            [
                "predict", "--what", "regime", "--d", "5000", "--alpha", "0.7", "--beta", "0.5",
                "--gamma", "0.7", "--n", "10",
            ]
        )
        assert rc == 0
        regime = json.loads(capsys.readouterr().out)["regime"]
        assert regime["case_id"] == 5 and regime["theta_base"] is None

    @pytest.mark.parametrize("d", ["-1", "100001", "1" + "0" * 400], ids=["-1", "100001", "1e400"])
    def test_predict_regime_degree_past_its_cap_is_exit_2(self, capsys, d):
        rc = main(
            [
                "predict", "--what", "regime", "--n", "10", "--alpha", "0.9", "--beta", "0.5",
                "--gamma", "0.3", "--d", d,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and captured.err == "error: degree must lie in [0, 100000]\n"

    def test_predict_moments_overflow_is_exit_2(self, capsys):
        rc = main(
            [
                "predict", "--what", "moments", "--n", "2000", "--alpha", "0.9", "--beta", "0.9",
                "--gamma", "0.9",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and "beyond the largest float" in captured.err


COUNTS = st.sampled_from(["-1", "0", "1", "2", str(10**21), str(2**63)])


RMAT_EDGES = st.one_of(st.integers(1, 1000), st.sampled_from([None, -1, 0, 10**21]))
SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64]))
# The first entries give every kind a valid configuration; the second, which
# satisfy R-MAT's alpha + 2 beta + gamma = 1, fail hamming's alpha = gamma.
VALIDATE_ENTRIES = st.sampled_from([("0.6", "0.5", "0.6"), ("0.45", "0.2", "0.15")])


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS), n=st.integers(1, 4), trials=COUNTS, steps=COUNTS, d_max=COUNTS,
    generator=st.sampled_from(GENERATORS), rmat_edges=RMAT_EDGES, seed=SEEDS,
    loops=st.booleans(), entries=VALIDATE_ENTRIES, allow_large=st.booleans(),
)
@example(kind="degrees", n=4, trials=str(10**21), steps="2", d_max="2", generator="stratified",
         rmat_edges=None, seed=1, loops=True, entries=("0.6", "0.5", "0.6"), allow_large=False)
@example(kind="thresholds", n=4, trials="1", steps=str(10**21), d_max="2",
         generator="stratified", rmat_edges=None, seed=1, loops=True,
         entries=("0.6", "0.5", "0.6"), allow_large=False)
@example(kind="degrees", n=4, trials="2", steps="2", d_max="2", generator="rmat",
         rmat_edges=10**21, seed=1, loops=True, entries=("0.45", "0.2", "0.15"),
         allow_large=False)
@example(kind="regime", n=4, trials="2", steps="2", d_max="2", generator="rmat",
         rmat_edges=1000, seed=2**64 - 1, loops=True, entries=("0.45", "0.2", "0.15"),
         allow_large=False)
@example(kind="regime", n=4, trials="2", steps="2", d_max="2", generator="stratified",
         rmat_edges=None, seed=1, loops=True, entries=("0.6", "0.5", "0.6"), allow_large=True)
@example(kind="subgraph", n=4, trials="2", steps="2", d_max="2", generator="stratified",
         rmat_edges=None, seed=2**64, loops=True, entries=("0.6", "0.5", "0.6"),
         allow_large=False)
@example(kind="hamming", n=4, trials="2", steps="2", d_max="2", generator="naive",
         rmat_edges=None, seed=-1, loops=False, entries=("0.6", "0.5", "0.6"), allow_large=False)
def test_validate_exit_code_property(
    kind, n, trials, steps, d_max, generator, rmat_edges, seed, loops, entries, allow_large
):
    # n <= 4, at most 2 trials and 2 sweep steps keep every accepted run small
    alpha, beta, gamma = entries
    argv = [
        "validate", "--kind", kind, "--n", str(n), "--alpha", alpha, "--beta", beta,
        "--gamma", gamma, "--seed", str(seed), "--pattern", "cycle:3", "--trials", trials,
        "--sweep", "0.1", "0.9", steps, "--d-max", d_max, "--generator", generator,
        "--loops" if loops else "--no-loops",
    ]
    if rmat_edges is not None:
        argv += ["--rmat-edges", str(rmat_edges)]
    if allow_large:
        argv += ["--allow-large"]
    rc, _, err = _run_cli(argv)
    # validate samples the model alone: rmat and its draw count are not its
    # arguments, and no guard is left for --allow-large to lift.
    usage_error = generator == "rmat" or rmat_edges is not None or allow_large
    assert rc in ((2,) if usage_error else (0, 1, 2))
    assert "Traceback" not in err


# Initiator entries spread evenly in log10 from 1e-300 up to 0.97.
TINY_ENTRIES = st.floats(-300.0, -0.0125).map(lambda e: 10.0**e)


@settings(max_examples=40, deadline=None)
@given(
    alpha=TINY_ENTRIES, beta=TINY_ENTRIES, gamma=TINY_ENTRIES, n=st.integers(1, 6),
    pattern=st.sampled_from(["cycle:3", "path:2", "star:3", "cycle:4", "path:3"]),
)
@example(alpha=1e-200, beta=1e-200, gamma=1e-200, n=4, pattern="cycle:3")
@example(alpha=1e-300, beta=0.9, gamma=1e-300, n=6, pattern="cycle:4")
def test_tiny_entries_exit_code_property(alpha, beta, gamma, n, pattern):
    # Base values underflow to 0 here; their logs do not.
    entries = ["--alpha", repr(alpha), "--beta", repr(beta), "--gamma", repr(gamma)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        validate = main(
            ["validate", "--kind", "subgraph", *entries, "--n", str(n), "--pattern", pattern,
             "--seed", "1", "--trials", "2"]
        )
        certify = main(["certify", *entries, "--pattern", pattern])
    assert validate in (0, 1) and certify in (0, 1)


def test_underflowed_certificate_fails_from_its_logs(capsys):
    # Every base value is 0.0 in floats; in logs each union base
    # 2^v' x^e' exceeds the squared pattern base 4^v x^(2e), since e' < 2e.
    argv = ["certify", "--pattern", "cycle:3", "--alpha", "1e-200", "--beta", "1e-200",
            "--gamma", "1e-200"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pattern_base"] == 0.0 and payload["bound"] == 0.0
    assert payload["status"] == "fail"
    assert [u["status"] for u in payload["unions"]] == ["fail"]
    assert [u["margin"] for u in payload["unions"]] == [0.0]


# Each argument is valid in about half the draws, so runs that generate a
# graph and runs refused at each check both occur.
ENTRY = st.sampled_from(["nan", "inf", "1", "0", "-0.5", "1e-320"])
VALID_ENTRY = st.floats(0.01, 0.6).map(repr)


@settings(max_examples=200, deadline=None)
@given(
    generator=st.sampled_from(["naive", "stratified", "rmat"]),
    n=st.one_of(st.integers(1, 12), st.sampled_from([-1, 0, 15, 31, 62, 63])),
    rmat_edges=RMAT_EDGES,
    seed=SEEDS,
    loops=st.booleans(),
    entries=st.one_of(
        st.tuples(VALID_ENTRY, VALID_ENTRY, VALID_ENTRY),
        # alpha + 2 beta + gamma = 1, as R-MAT needs
        st.sampled_from([("0.45", "0.2", "0.15"), ("0.25", "0.25", "0.25"), ("0.5", "0.2", "0.1")]),
        st.tuples(st.one_of(ENTRY, VALID_ENTRY), st.one_of(ENTRY, VALID_ENTRY), ENTRY),
    ),
    out_is_dir=st.sampled_from([False, False, False, True]),
)
@example(generator="rmat", n=63, rmat_edges=1000, seed=1, loops=True,
         entries=("0.45", "0.2", "0.15"), out_is_dir=False)
@example(generator="rmat", n=12, rmat_edges=1000, seed=2**64 - 1, loops=False,
         entries=("0.45", "0.2", "0.15"), out_is_dir=False)
@example(generator="rmat", n=20, rmat_edges=1000, seed=2**64 - 1, loops=True,
         entries=("0.45", "0.2", "0.15"), out_is_dir=False)
@example(generator="naive", n=12, rmat_edges=None, seed=0, loops=True,
         entries=("0.6", "0.5", "0.6"), out_is_dir=False)
@example(generator="stratified", n=12, rmat_edges=None, seed=1, loops=False,
         entries=("1e-320", "0.5", "0.6"), out_is_dir=True)
def test_generate_exit_code_property(generator, n, rmat_edges, seed, loops, entries, out_is_dir):
    # Entries <= 0.6, n <= 15 below the caps and at most 1000 R-MAT draws keep accepted runs small
    alpha, beta, gamma = entries
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "generate", "--generator", generator, "--n", str(n), "--alpha", alpha,
            "--beta", beta, "--gamma", gamma, "--seed", str(seed),
            "--loops" if loops else "--no-loops",
            "--out", tmp if out_is_dir else os.path.join(tmp, "g.edges"),
        ]
        if rmat_edges is not None:
            argv += ["--rmat-edges", str(rmat_edges)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        written = not out_is_dir and os.path.exists(argv[argv.index("--out") + 1])
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert written == (rc == 0)


EDGE_LIST = (
    b"kron n=3 alpha=0.6 beta=0.4 gamma=0.3 loops=1\n"
    b"000 001\n001 001\n001 011\n010 110\n011 111\n"
)
EDGE_LIST_BYTES = st.one_of(st.sampled_from(b"01 \n=.-+en9\x00\xff"), st.integers(0, 255))


@st.composite
def mutated_edge_lists(draw) -> bytes:
    data = bytearray(EDGE_LIST)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "delete":
            del data[at]
        elif action == "insert":
            data.insert(at, draw(EDGE_LIST_BYTES))
        else:
            data[at] = draw(EDGE_LIST_BYTES)
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(data=mutated_edge_lists(), what=st.sampled_from(["degrees", "hamming"]))
@example(data=b"kron n=44 alpha=0.6 beta=0.4 gamma=0.3 loops=1\n", what="degrees")
@example(data=EDGE_LIST.replace(b"loops=1", b"loops=0"), what="hamming")
def test_measure_exit_code_property_on_mutated_files(data, what):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.edges")
        with open(path, "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["measure", "--input", path, "--what", what])
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()


# Builtins of every size up to 8, malformed text, and @file arguments that
# name a missing file, a non-ASCII file and a valid one.
PATTERN_ARGS = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["star", "cycle", "path"]), st.integers(0, 8)),
    st.sampled_from(
        ["star:", "cycle:x", "blob:3", "", "3\n0 1\n1 1", "2\n0 5", "-1", "11\n0 1",
         "@missing", "@non-ascii", "@square"]
    ),
)


def _pattern_arg(pattern: str, tmp: str) -> str:
    """pattern, with an @name placeholder turned into a file under tmp."""
    if not pattern.startswith("@"):
        return pattern
    path = os.path.join(tmp, pattern[1:] + ".txt")
    if pattern == "@non-ascii":
        with open(path, "wb") as fh:
            fh.write("3\n0 1\n1 2\n0 2 \u00e9\n".encode("utf-8"))
    elif pattern == "@square":
        with open(path, "w") as fh:
            fh.write("4\n0 1\n1 2\n2 3\n3 0\n")
    return "@" + path


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


CERTIFY_ENTRY = st.one_of(
    st.sampled_from(["nan", "inf", "0", "1", "1e-300"]), st.floats(0.01, 0.99).map(repr)
)


@settings(max_examples=150, deadline=None)
@given(
    pattern=PATTERN_ARGS, n=st.one_of(st.none(), st.integers()),
    alpha=CERTIFY_ENTRY, beta=CERTIFY_ENTRY, gamma=CERTIFY_ENTRY,
)
@example(pattern="path:5", n=70, alpha="0.6", beta="0.5", gamma="0.6")
@example(pattern="cycle:8", n=1, alpha="nan", beta="inf", gamma="1e-300")
@example(pattern="@non-ascii", n=-2, alpha="0", beta="1", gamma="0")
@example(pattern="cycle:4", n=None, alpha="0.6", beta="0.5", gamma="0.6")
def test_certify_exit_code_property(pattern, n, alpha, beta, gamma):
    argv = ["--alpha", alpha, "--beta", beta, "--gamma", gamma]
    if n is not None:
        argv += ["--n", str(n)]
    with tempfile.TemporaryDirectory() as tmp:
        rc, out, err = _run_cli(["certify", "--pattern", _pattern_arg(pattern, tmp), *argv])
    # the certificate depends on the entries alone, so --n is not an argument
    assert rc in ((2,) if n is not None else (0, 1, 2))
    assert "Traceback" not in err
    # a certificate is written exactly when one was reached
    assert (out == "") == (rc == 2)


@settings(max_examples=100, deadline=None)
@given(what=st.sampled_from(["degrees", "subgraph", "hamming"]),
       pattern=st.one_of(st.none(), PATTERN_ARGS))
@example(what="subgraph", pattern=None)
@example(what="subgraph", pattern="cycle:5")
@example(what="subgraph", pattern="@square")
def test_measure_exit_code_property(what, pattern):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.edges")
        with open(path, "wb") as fh:
            fh.write(EDGE_LIST)
        argv = ["measure", "--input", path, "--what", what]
        if pattern is not None:
            argv += ["--pattern", _pattern_arg(pattern, tmp)]
        rc, out, err = _run_cli(argv)
    assert rc in (0, 2)
    assert "Traceback" not in err
    assert (out == "") == (rc == 2)


RMAT_ARGS = ["--n", "6", "--alpha", "0.45", "--beta", "0.2", "--gamma", "0.15", "--seed", "2"]


def _no_generation(*args, **kwargs):
    raise AssertionError("a graph was generated")


class TestGeneratorArguments:
    """generate and validate share one limit check per generator: same exit
    code, same message."""

    def _run(self, capsys, argv):
        rc = main(argv)
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--generator", "naive", "--n", "15"],
             "naive generation enumerates all pairs and caps at n = 14, got n = 15;"
             " use the stratified generator"),
            (["--n", "31"], "stratified generation caps at n = 30, got n = 31"),
            (["--n", "14", "--alpha", "0.99", "--beta", "0.99", "--gamma", "0.99"],
             "expected edge count 1.17e+08 exceeds the budget 1.15e+08"),
        ],
        ids=["naive-n15", "stratified-n31", "stratified-budget"],
    )
    def test_generate_and_validate_agree(self, tmp_path, capsys, monkeypatch, extra, message):
        for name in ("generate_naive", "generate_stratified"):
            monkeypatch.setattr(kronval.harness, name, _no_generation)
        args = ["--alpha", "0.6", "--beta", "0.5", "--gamma", "0.6", "--seed", "2", *extra]
        out = tmp_path / "g.edges"
        generated = self._run(capsys, ["generate", *args, "--out", str(out)])
        validated = self._run(capsys, ["validate", "--kind", "degrees", *args])
        assert generated == validated == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--rmat-edges", "0"],
            ["--rmat-edges", "100", "--alpha", "0.5"],  # 0.5 + 0.4 + 0.15 != 1
            ["--rmat-edges", "100", "--no-loops"],
            ["--rmat-edges", "100", "--n", "63"],
        ],
        ids=["missing-edges", "zero-edges", "initiator-sum", "no-loops", "n63"],
    )
    def test_generate_refuses_rmat_arguments(self, monkeypatch, tmp_path, capsys, extra):
        monkeypatch.setattr(kronval.generate, "rmat_pairs", _no_generation)
        out = tmp_path / "g.edges"
        rc, err = self._run(
            capsys, ["generate", "--generator", "rmat", *RMAT_ARGS, *extra, "--out", str(out)]
        )
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_validate_refuses_before_sampling(self, monkeypatch, tmp_path, capsys):
        # Sweep point 0 fits the budget; point 1, alpha = gamma = 0.99, does not.
        monkeypatch.setattr(kronval.harness, "generate_graph", _no_generation)
        prefix = tmp_path / "P"
        rc = main(
            [
                "validate", "--kind", "thresholds", "--n", "14", "--alpha", "0.5",
                "--beta", "0.99", "--gamma", "0.5", "--sweep", "0.01", "0.99", "2",
                "--pattern", "cycle:3", "--trials", "1", "--seed", "1",
                "--dump-edges", str(prefix),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: expected edge count 1.17e+08 exceeds the budget 1.15e+08\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_oversized_rmat_edges_refused_before_sampling(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(kronval.generate, "rmat_pairs", _no_generation)
        rmat_args = [*RMAT_ARGS, "--alpha", "0.25", "--beta", "0.25", "--gamma", "0.25"]
        out = tmp_path / "g.edges"
        for edges in (RMAT_MAX_EDGES + 1, 10**15):
            extra = ["--rmat-edges", str(edges)]
            generated = self._run(
                capsys, ["generate", "--generator", "rmat", *rmat_args, *extra, "--out", str(out)]
            )
            assert generated == (
                2, f"error: rmat generation caps at {RMAT_MAX_EDGES} draws, got {edges}\n",
            )
            assert not out.exists()
        assert RMAT_MAX_EDGES * RMAT_PEAK_BYTES_PER_DRAW <= GENERATE_MEMORY_CEILING


class TestDegreeRoute:
    """validate --kind degrees reads the stratified sampler's degree arrays,
    a batch of trials at a time, with no graph built; a run that dumps its
    edges, or samples naively, reads each trial's graph."""

    def test_refuses_over_the_budget_before_any_stream(self, monkeypatch, capsys):
        monkeypatch.setattr(SeedSpec, "generator", _no_generation)
        entries = ["--alpha", "0.99", "--beta", "0.99", "--gamma", "0.99"]
        rc = main(["validate", "--kind", "degrees", "--n", "14", *entries, "--seed", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: expected edge count 1.17e+08 exceeds the budget 1.15e+08\n"
        )

    def test_unranked_vertices_are_range_checked(self, monkeypatch):
        def too_wide(n, a, b, ranks):
            u, v = _unrank_pairs(n, a, b, ranks)
            return u | (1 << n), v

        monkeypatch.setattr(kronval.harness, "generate_stratified", _no_generation)
        monkeypatch.setattr(kronval.generate, "_unrank_pairs", too_wide)
        with pytest.raises(DimensionError, match="does not fit 6 digits"):
            run_experiment(cfg())

    @pytest.mark.parametrize("include_loops", [True, False])
    def test_dumping_edges_changes_no_report_byte(self, monkeypatch, tmp_path, include_loops):
        # One trial past a batch: 13 trials in batches of 12, then 1.
        params = KroneckerParams(0.8, 0.5, 0.1, 12)
        trials = batch_trials(params, include_loops) + 1
        assert trials == 13
        config = cfg(params=params, trials=trials, include_loops=include_loops, degree_max=8)
        prefix = str(tmp_path / "dump")
        dumped = run_experiment(dataclasses.replace(config, dump_edges=prefix))
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            f"dump.trial{t}.edges" for t in range(trials)
        )
        with monkeypatch.context() as patch:
            patch.setattr(kronval.harness, "generate_stratified", _no_generation)
            plain = run_experiment(config)
        echoed = f'"dump_edges": {json.dumps(prefix)}'
        assert report_json(dumped) == report_json(plain).replace('"dump_edges": null', echoed)
        tables = [tmp_path / "plain.csv", tmp_path / "dumped.csv"]
        emit_report(plain, csv_path=tables[0])
        emit_report(dumped, csv_path=tables[1])
        assert tables[0].read_bytes() == tables[1].read_bytes()

    def test_each_trial_derives_its_own_two_streams(self, monkeypatch):
        derived = []
        generator = SeedSpec.generator

        def spy(spec):
            derived.append(spec.stream)
            return generator(spec)

        monkeypatch.setattr(SeedSpec, "generator", spy)
        params = KroneckerParams(0.8, 0.5, 0.1, 12)
        run_experiment(cfg(params=params, trials=20))
        want = [("trial", t, family) for t in range(20) for family in ("class", "loop_class")]
        assert sorted(derived) == sorted(want)

    def test_naive_runs_read_each_trial_graph(self, monkeypatch):
        built = []
        naive = kronval.harness.generate_naive

        def spy(*args, **kwargs):
            built.append(kwargs["seed"].stream)
            return naive(*args, **kwargs)

        monkeypatch.setattr(kronval.harness, "stratified_degrees", _no_generation)
        monkeypatch.setattr(kronval.harness, "generate_naive", spy)
        report = run_experiment(cfg(generator="naive", trials=4))
        assert built == [("trial", t) for t in range(4)]
        assert report.empirical["trials"] == 4


class TestHammingRoute:
    """validate --kind hamming reads the stratified sampler's edge-distance
    histograms, a batch of trials at a time, with no graph built; a run that
    dumps its edges, or samples naively, reads each trial's graph."""

    def test_stratified_runs_build_no_graph(self, monkeypatch):
        monkeypatch.setattr(kronval.harness, "generate_stratified", _no_generation)
        monkeypatch.setattr(SampledGraph, "from_blocks", _no_generation)
        params = KroneckerParams(0.7, 0.5, 0.7, 8)
        report = run_experiment(cfg(kind="hamming", params=params, trials=5))
        assert report.empirical["trials"] == 5 and report.passed

    @pytest.mark.parametrize("include_loops", [True, False])
    def test_dumping_edges_changes_no_report_byte(self, monkeypatch, tmp_path, include_loops):
        # One trial past a batch of the degree-sized batches.
        params = KroneckerParams(0.7, 0.5, 0.7, 10)
        trials = batch_trials(params, include_loops) + 1
        config = cfg(kind="hamming", params=params, trials=trials, include_loops=include_loops)
        prefix = str(tmp_path / "dump")
        built = []
        graph = kronval.harness.generate_stratified

        def spy(*args, **kwargs):
            built.append(kwargs["seed"].stream)
            return graph(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(kronval.harness, "generate_stratified", spy)
            patch.setattr(kronval.harness, "stratified_distances", _no_generation)
            dumped = run_experiment(dataclasses.replace(config, dump_edges=prefix))
        assert built == [("trial", t) for t in range(trials)]
        with monkeypatch.context() as patch:
            patch.setattr(kronval.harness, "generate_stratified", _no_generation)
            plain = run_experiment(config)
        echoed = f'"dump_edges": {json.dumps(prefix)}'
        assert report_json(dumped) == report_json(plain).replace('"dump_edges": null', echoed)
        tables = [tmp_path / "plain.csv", tmp_path / "dumped.csv"]
        emit_report(plain, csv_path=tables[0])
        emit_report(dumped, csv_path=tables[1])
        assert tables[0].read_bytes() == tables[1].read_bytes()

    def test_naive_runs_read_each_trial_graph(self, monkeypatch):
        built = []
        naive = kronval.harness.generate_naive

        def spy(*args, **kwargs):
            built.append(kwargs["seed"].stream)
            return naive(*args, **kwargs)

        monkeypatch.setattr(kronval.harness, "stratified_distances", _no_generation)
        monkeypatch.setattr(kronval.harness, "generate_naive", spy)
        params = KroneckerParams(0.7, 0.5, 0.7, 6)
        report = run_experiment(cfg(kind="hamming", params=params, generator="naive", trials=4))
        assert built == [("trial", t) for t in range(4)]
        assert report.empirical["trials"] == 4

    def test_a_stratified_run_holds_no_trial_whole(self):
        # Each trial's histogram is read off passes of _UNRANK_BLOCK ranks
        # as they are drawn, so the run peaks at about 2.7 MB here, whatever
        # the edge count: 8.5 MB when each trial's ranks were held whole, and
        # more than 25 B per edge, 18 MB, through its graph.
        params = KroneckerParams(0.6, 0.5, 0.6, 18)
        config = cfg(kind="hamming", params=params, trials=2)
        report, peak = traced_peak(lambda: run_experiment(config))
        assert report.empirical["trials"] == 2 and report.passed
        assert peak <= 4 << 20

    def test_each_trial_is_summarised_by_its_concentration_report(self, monkeypatch):
        # The run's in-window fraction and mean distance are the means of its
        # trials' concentration reports, whichever route made the histograms.
        reports = []
        summarise = kronval.harness.concentration_report

        def spy(*args):
            reports.append(summarise(*args))
            return reports[-1]

        monkeypatch.setattr(kronval.harness, "concentration_report", spy)
        params = KroneckerParams(0.6, 0.5, 0.6, 9)
        for generator in ("stratified", "naive"):
            reports.clear()
            run = run_experiment(cfg(kind="hamming", params=params, generator=generator, trials=3))
            assert len(reports) == 3
            assert run.empirical["mean_edge_distance"] == np.mean(
                [r.mean_edge_distance for r in reports]
            )
            assert run.empirical["in_window_fraction"] == np.mean(
                [r.in_window_edge_fraction for r in reports]
            )

    def test_unranked_vertices_are_range_checked(self, monkeypatch):
        def too_wide(n, a, b, ranks):
            u, v = _unrank_pairs(n, a, b, ranks)
            return u, v | (1 << n)

        monkeypatch.setattr(kronval.harness, "generate_stratified", _no_generation)
        monkeypatch.setattr(kronval.generate, "_unrank_pairs", too_wide)
        with pytest.raises(DimensionError, match="does not fit 6 digits"):
            run_experiment(cfg(kind="hamming", params=KroneckerParams(0.7, 0.5, 0.7, 6)))


class TestStarRoute:
    """validate --kind subgraph counts a star from the stratified sampler's
    loop-free degree arrays, with no graph built; other patterns, naive runs
    and runs that dump their edges count each trial's graph."""

    @pytest.mark.parametrize("pattern", ["star:3", "path:2", "path:1"])
    @pytest.mark.parametrize("include_loops", [True, False])
    def test_star_counts_equal_the_graph_counts(
        self, monkeypatch, tmp_path, pattern, include_loops
    ):
        params = KroneckerParams(0.7, 0.5, 0.7, 9)
        config = cfg(kind="subgraph", pattern=pattern, params=params, trials=4,
                     include_loops=include_loops)
        with monkeypatch.context() as patch:
            patch.setattr(kronval.harness, "generate_stratified", _no_generation)
            plain = run_experiment(config)
        prefix = str(tmp_path / "dump")
        with monkeypatch.context() as patch:
            patch.setattr(kronval.harness, "stratified_degrees", _no_generation)
            dumped = run_experiment(dataclasses.replace(config, dump_edges=prefix))
        echoed = f'"dump_edges": {json.dumps(prefix)}'
        assert report_json(dumped) == report_json(plain).replace('"dump_edges": null', echoed)

    def test_other_patterns_and_naive_runs_read_each_trial_graph(self, monkeypatch):
        monkeypatch.setattr(kronval.harness, "stratified_degrees", _no_generation)
        params = KroneckerParams(0.7, 0.5, 0.7, 6)
        for generator, pattern in (("stratified", "cycle:3"), ("naive", "star:3")):
            report = run_experiment(
                cfg(kind="subgraph", pattern=pattern, params=params, generator=generator, trials=2)
            )
            assert len(report.empirical["counts"]) == 2


class TestThresholdsRoute:
    """validate --kind thresholds reads each sweep point i through the trial
    loop of --kind subgraph, on streams ("sweep", i, "trial", t): a
    stratified star sweep counts from loop-free degree arrays with no graph
    built; other patterns, naive runs and runs that dump their edges count
    each trial's graph."""

    @pytest.mark.parametrize("pattern", ["star:3", "path:2"])
    def test_star_sweeps_build_no_graph(self, monkeypatch, tmp_path, pattern):
        config = cfg(kind="thresholds", pattern=pattern, params=KroneckerParams(0.5, 0.3, 0.5, 9),
                     sweep=(0.3, 0.8, 4), trials=4)
        with monkeypatch.context() as patch:
            patch.setattr(kronval.harness, "generate_stratified", _no_generation)
            plain = run_experiment(config)
        # The sweep runs from absence to presence, so the counts compared vary.
        assert plain.empirical["presence_fraction"][0] < plain.empirical["presence_fraction"][-1]
        prefix = str(tmp_path / "dump")
        with monkeypatch.context() as patch:
            patch.setattr(kronval.harness, "stratified_degrees", _no_generation)
            dumped = run_experiment(dataclasses.replace(config, dump_edges=prefix))
        assert len(list(tmp_path.iterdir())) == 4 * 4
        echoed = f'"dump_edges": {json.dumps(prefix)}'
        assert report_json(dumped) == report_json(plain).replace('"dump_edges": null', echoed)

    def test_other_patterns_and_naive_runs_read_each_trial_graph(self, monkeypatch):
        streams = []
        real = kronval.harness.generate_graph

        def spy(params, generator, seed, *args):
            streams.append(seed.stream)
            return real(params, generator, seed, *args)

        monkeypatch.setattr(kronval.harness, "stratified_degrees", _no_generation)
        monkeypatch.setattr(kronval.harness, "generate_graph", spy)
        params = KroneckerParams(0.5, 0.3, 0.5, 6)
        alphas = np.linspace(0.4, 0.9, 3).tolist()
        for generator, text in (("stratified", "cycle:3"), ("naive", "star:3")):
            streams.clear()
            report = run_experiment(
                cfg(kind="thresholds", pattern=text, params=params, generator=generator,
                    sweep=(0.4, 0.9, 3), trials=2)
            )
            assert streams == [("sweep", i, "trial", t) for i in range(3) for t in range(2)]
            for i, alpha in enumerate(alphas):
                point = KroneckerParams(alpha, 0.3, alpha, 6)
                counts = [
                    count_labeled_copies(
                        real(point, generator, SeedSpec(17).child("sweep", i, "trial", t)),
                        parse_pattern(text),
                    )
                    for t in range(2)
                ]
                assert report.table_rows[i][2] == np.mean(counts)
            assert report.table_rows[-1][2] > 0
