"""Golden-bytes determinism: fixed (command, seed) pairs must keep producing
the exact bytes pinned here.  The digests were recorded before the graph
representation moved from frozensets of tuples to sorted int64 arrays, so a
pass means that change, and any later one, left the output bytes alone.  The
two larger stratified cases were recorded before the stratified sampler
pooled its unranking: at n=15 one pair class holds about 105k edges, more
than a pooled pass takes, and at n=18 the pool fills and empties many times.
"""

import hashlib

import pytest

from kronval.cli import main

GOLDEN = {
    "naive-n8": (
        ["generate", "--generator", "naive", "--n", "8", "--alpha", "0.9", "--beta", "0.3",
         "--gamma", "0.6", "--seed", "11"],
        "426283df0cb119a7a784013b480d6798b474e160f8015fcf934650eee3758174",
    ),
    "stratified-n10": (
        ["generate", "--generator", "stratified", "--n", "10", "--alpha", "0.6", "--beta", "0.5",
         "--gamma", "0.6", "--seed", "12"],
        "7a95b4a77e4620dddf09673e43749df2424925dcee7881b692f718406496defe",
    ),
    "stratified-n15-large-class": (
        ["generate", "--generator", "stratified", "--n", "15", "--alpha", "0.7", "--beta", "0.9",
         "--gamma", "0.1", "--seed", "22"],
        "bb4aa786d6e6d8fd6c5175c795199b6f0a9d3965a7440fc1db8c02e53821af28",
    ),
    "stratified-n18": (
        ["generate", "--generator", "stratified", "--n", "18", "--alpha", "0.6", "--beta", "0.5",
         "--gamma", "0.6", "--seed", "21"],
        "3a856ff13e44e0a6b66d510e1259859f1dec2205c740ad1e5d0f60731b4305e6",
    ),
    "rmat-n10": (
        ["generate", "--generator", "rmat", "--n", "10", "--alpha", "0.57", "--beta", "0.19",
         "--gamma", "0.05", "--rmat-edges", "3000", "--seed", "13"],
        "b532079176e2ed4a0228b79f1f9218b0ff8d2705c469efaee3d9b7c1b1e4116c",
    ),
}

DEGREES_REPORT = (
    ["validate", "--kind", "degrees", "--n", "8", "--alpha", "0.7", "--beta", "0.3",
     "--gamma", "0.3", "--trials", "5", "--seed", "14"],
    "62b6a9a8555bc9c92a38f53698f139f80da7542733715adca44f7af614b9b3c2",
)

# Above the old exact-expectation guard ((2^8)^4 vertex maps > 10^7): pins the
# closed-form copies_exact value and the two-sided mean_copies_vs_exact check.
SUBGRAPH_REPORT = (
    ["validate", "--kind", "subgraph", "--n", "8", "--alpha", "0.7", "--beta", "0.5",
     "--gamma", "0.7", "--pattern", "cycle:4", "--trials", "3", "--seed", "15"],
    "b094175ce0a3152c3e7c018840e223bc20e1f7f80b1fe3a46424dbac0f25e9bd",
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generate_file_bytes(tmp_path, capsys, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / "g.edges"
    assert main(argv + ["--out", str(out)]) == 0
    assert _sha256(out) == digest
    capsys.readouterr()


def test_degrees_report_bytes(tmp_path, capsys):
    argv, digest = DEGREES_REPORT
    out = tmp_path / "report.json"
    assert main(argv + ["--out-json", str(out)]) == 0
    assert _sha256(out) == digest
    capsys.readouterr()


def test_subgraph_report_bytes(tmp_path, capsys):
    argv, digest = SUBGRAPH_REPORT
    out = tmp_path / "report.json"
    assert main(argv + ["--out-json", str(out)]) == 0
    assert _sha256(out) == digest
    capsys.readouterr()
