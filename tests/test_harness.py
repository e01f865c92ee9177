import json
import math

import numpy as np
import pytest

import kronval.harness
from kronval import (
    CapacityError,
    ConfigError,
    KroneckerParams,
    SampledGraph,
    count_labeled_copies,
    star,
)
from kronval.cli import main
from kronval.harness import (
    ExperimentConfig,
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

        monkeypatch.setattr(kronval.harness, "_generate", no_generation)
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
