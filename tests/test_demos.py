"""Each script under demos/ runs to completion and prints exactly its
recorded output, pinned by the sha256 of its stdout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Every demo is deterministic: fixed parameters and seeds.
STDOUT_SHA256 = {
    "degree_distribution": "32384466fe0c84e07f42b018cef9d5da5369a59268f5538ed2467645cbfcaf7c",
    "hamming_neighborhood": "d566a78270d154431b60219a024641d54691f16fb7c3e526bfbca667ed324b25",
    "regime_classification": "92461496da8c822c9d5c7221d80a259e011f5c97e8b27a8a626def298b2bb96c",
    "second_moment_certificates": "031a702cd750dd06850a45b061431e07670dd1e1412231ba34ac5595edba3463",
    "subgraph_thresholds": "d9f2dd33359248e0242f167fad20b72e100014ef73682b10538ff6529326b286",
}


def test_demos_are_found():
    # an empty glob would leave test_demo_runs with no case, silently
    assert [path.stem for path in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)], env=env, cwd=ROOT, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[script.stem]
