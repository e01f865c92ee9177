import dataclasses
import json
import math

import numpy as np
import pytest

import kronval.harness
from kronval import (
    CapacityError,
    ConfigError,
    KroneckerParams,
    ParameterError,
    SampledGraph,
    count_labeled_copies,
    star,
)
from kronval.cli import main
from kronval.harness import (
    ExperimentConfig,
    canonical_json,
    emit_report,
    report_json,
    run_experiment,
)


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

    def test_rmat_needs_constraint_and_edges(self):
        with pytest.raises(ConfigError):
            cfg(generator="rmat").validate()
        with pytest.raises(ConfigError):
            cfg(
                generator="rmat",
                rmat_edges=100,
                params=KroneckerParams(0.7, 0.3, 0.3, 6),
            ).validate()
        cfg(
            generator="rmat",
            rmat_edges=100,
            params=KroneckerParams(0.45, 0.2, 0.15, 6),
        ).validate()

    def test_desk_scale_guards(self):
        with pytest.raises(ConfigError):
            cfg(generator="naive", params=KroneckerParams(0.7, 0.3, 0.3, 15)).validate()
        with pytest.raises(ConfigError):
            cfg(params=KroneckerParams(0.7, 0.3, 0.3, 23)).validate()
        cfg(params=KroneckerParams(0.7, 0.3, 0.3, 23), allow_large=True).validate()

    def test_naive_guard_holds_with_allow_large(self):
        with pytest.raises(ConfigError, match="guarded at n <= 14"):
            cfg(
                generator="naive", params=KroneckerParams(0.7, 0.3, 0.3, 15), allow_large=True
            ).validate()

    def test_rmat_refuses_no_loops(self):
        rmat = dict(generator="rmat", rmat_edges=100, params=KroneckerParams(0.45, 0.2, 0.15, 6))
        with pytest.raises(ConfigError, match="no-loops"):
            cfg(include_loops=False, **rmat).validate()
        cfg(**rmat).validate()


class TestReports:
    def test_degrees_report_structure(self):
        report = run_experiment(cfg())
        data = report.to_dict()
        assert data["schema"] == 1
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

        def fake_stratified(params, include_loops, seed):
            trial_graphs.append(hub)
            return hub

        monkeypatch.setattr(kronval.harness, "generate_stratified", fake_stratified)
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


class TestCli:
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
        assert report["passed"] is True and report["schema"] == 1

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
                "--gamma", "0.5", "--d-max", "0", "--seed", "1", "--allow-large",
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
                "--gamma", "0.5", "--d-max", "0", "--seed", "1", "--allow-large",
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


RMAT_ARGS = ["--n", "6", "--alpha", "0.45", "--beta", "0.2", "--gamma", "0.15", "--seed", "2"]


class TestGeneratorArguments:
    """generate and validate share one generator check: same exit code, same message."""

    def _run(self, capsys, argv):
        rc = main(argv)
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--rmat-edges", "0"],
            ["--rmat-edges", "100", "--alpha", "0.5"],  # 0.5 + 0.4 + 0.15 != 1
            ["--rmat-edges", "100", "--no-loops"],
        ],
        ids=["missing-edges", "zero-edges", "initiator-sum", "no-loops"],
    )
    def test_generate_and_validate_agree(self, tmp_path, capsys, extra):
        out = tmp_path / "g.edges"
        generated = self._run(
            capsys, ["generate", "--generator", "rmat", *RMAT_ARGS, *extra, "--out", str(out)]
        )
        validated = self._run(
            capsys, ["validate", "--kind", "degrees", "--generator", "rmat", *RMAT_ARGS, *extra]
        )
        assert generated[0] == 2 and generated[1].startswith("error: ")
        assert generated == validated
        assert not out.exists()

    def test_validate_refuses_before_sampling(self, monkeypatch, capsys):
        def no_generation(*args, **kwargs):
            raise AssertionError("a trial graph was generated")

        monkeypatch.setattr(kronval.harness, "generate_rmat", no_generation)
        argv = ["validate", "--kind", "degrees", "--generator", "rmat", *RMAT_ARGS]
        assert main([*argv, "--rmat-edges", "100", "--no-loops"]) == 2
        assert "no-loops" in capsys.readouterr().err
