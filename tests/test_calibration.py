"""A two-seed run of calibration/sweep.py, which keeps the full false-failure
sweep working without running it."""

import importlib.util
import json
from pathlib import Path

import pytest
from scipy.stats import binomtest

SCRIPT = Path(__file__).resolve().parents[1] / "calibration" / "sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("calibration_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_seed_sweep_tallies_every_grid_entry(sweep, tmp_path, capsys):
    out = tmp_path / "calibration.json"
    assert sweep.main(["--seeds", "1", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="ascii"))
    assert result["seeds"] == [1, 2]
    assert set(result["grid"]) == set(sweep.GRID)
    assert {key.split("/")[0] for key in result["criteria"]} == set(sweep.GRID)
    for tally in result["criteria"].values():
        assert tally["runs"] == 2 and 0 <= tally["failures"] <= 2
        lo, hi = tally["wilson_95"]
        assert 0.0 <= lo <= tally["failures"] / 2 <= hi <= 1.0
    # a sweep compared against itself differs nowhere
    assert sweep.main(["--seeds", "1", "2", "--out", str(out), "--against", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(result["criteria"])
    assert all(line.endswith("z = +0.00") for line in lines)


def test_interval_and_z(sweep):
    for failures in (0, 18, 200):
        ci = binomtest(failures, 200).proportion_ci(method="wilson")
        assert sweep.wilson(failures, 200) == pytest.approx((ci.low, ci.high), abs=1e-12)
    # pooled rate 67/400: (0.09 - 0.245) / sqrt(0.1675 * 0.8325 * 2 / 200)
    assert sweep.two_proportion_z(49, 200, 18, 200) == pytest.approx(-4.150803, abs=1e-6)
    assert sweep.two_proportion_z(0, 200, 0, 200) == 0.0
