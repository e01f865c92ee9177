"""Golden-bytes determinism: fixed (command, seed) pairs must keep producing
the exact bytes pinned here.

The R-MAT digests were recorded before the graph representation
moved from frozensets of tuples to sorted int64 arrays, and the two R-MAT
cases before edges were canonicalized through packed int64 pair keys: at
n=16, 200000 draws merge into 190467 distinct edges, and at n=40, past the
packed key's n <= 31, the lexsort route merges about 2650 repeated draws and
keeps 191 loops.  A pass means those changes, and any later one, left these
bytes alone.

The three stratified digests and the two validate reports, which sample
with the default stratified generator, were re-recorded when the stratified
sampler moved from one random stream per class to one stream for all pair
classes and one for all loop classes.  That change keeps the sampler's law
but not its draws.  At n=15 one pair class holds about 105k edges, more than
one unranking pass takes, and at n=18 the passes fill and empty many times.

The stratified-n30 digest (12146 edges) was recorded with the digit walk
that unranked all n digits, before _unrank_pairs read the top 16 digits from
a subset table and walked only the 14 below them.  It is the one stratified
graph above n = 18 pinned here, so a pass means the table route left the
bytes above the table's 16 digits alone.

The naive digest was re-recorded (426283df... -> 662c5408...) when the
naive sampler moved from one stream per 128-row block plus a separate
per-vertex loop draw to one stream for every pair u <= v, the diagonal
included, so that a loop is the drawn pair u = v.  The law is the same; the
draws are not.  R-MAT moved to one stream for all its draws at the same
time, under the label of its old first 2^20-draw chunk, so the R-MAT
digests, each of at most 2^20 draws, did not move.

The three validate reports were re-recorded when their config echo lost
the allow_large and rmat_edges keys, with schema 1 -> 2; nothing sampled
moved.  The hamming report moved once more: its mean-distance criterion
now expects the edge-and-loop-weighted center / (1 + r^n), r =
alpha / (alpha + beta), instead of the neighbor-entry center.  It moved
again (b0b67480... -> aa971474...) when its three criteria, relative errors
of the mean degree and mean distance and the in-window edge fraction, gave
way to two |z| criteria on the total edge distance and the total degree,
judged by their exact class-sum moments.  Only the criteria entries
changed; the config echo, the analytic and empirical values and the
profile table kept their bytes.

The loop-free hamming report was recorded when each trial still counted a
degree array and the run summed six per-trial float arrays, before the run
aggregated one stacked array of the trials' edge-distance histograms.
"""

import hashlib

import pytest

from kronval.cli import main

GOLDEN = {
    "naive-n8": (
        ["generate", "--generator", "naive", "--n", "8", "--alpha", "0.9", "--beta", "0.3",
         "--gamma", "0.6", "--seed", "11"],
        "662c5408bd5f8ef7743293bcb8b05b13f457df2721634414185d5eb323725f36",
    ),
    "stratified-n10": (
        ["generate", "--generator", "stratified", "--n", "10", "--alpha", "0.6", "--beta", "0.5",
         "--gamma", "0.6", "--seed", "12"],
        "923d75d2196542b240338c2e63fe0f24d100dfe79f31420899f12e46a22e2766",
    ),
    "stratified-n15-large-class": (
        ["generate", "--generator", "stratified", "--n", "15", "--alpha", "0.7", "--beta", "0.9",
         "--gamma", "0.1", "--seed", "22"],
        "4b72cc1f65d6545835d5034676e938f7ed7fc1749af8cef52921ede19bdbe131",
    ),
    "stratified-n18": (
        ["generate", "--generator", "stratified", "--n", "18", "--alpha", "0.6", "--beta", "0.5",
         "--gamma", "0.6", "--seed", "21"],
        "56f884279580b85eda461bb2ad9971935a0fd579678f1311782d58912941acef",
    ),
    "stratified-n30": (
        ["generate", "--generator", "stratified", "--n", "30", "--alpha", "0.3", "--beta", "0.4",
         "--gamma", "0.3", "--seed", "3"],
        "d3a44164b80fc27df4ccc6a7a2fbd31462578198ae2111a9fb515c1e24a09375",
    ),
    "rmat-n10": (
        ["generate", "--generator", "rmat", "--n", "10", "--alpha", "0.57", "--beta", "0.19",
         "--gamma", "0.05", "--rmat-edges", "3000", "--seed", "13"],
        "b532079176e2ed4a0228b79f1f9218b0ff8d2705c469efaee3d9b7c1b1e4116c",
    ),
    "rmat-n16-duplicates": (
        ["generate", "--generator", "rmat", "--n", "16", "--alpha", "0.57", "--beta", "0.19",
         "--gamma", "0.05", "--rmat-edges", "200000", "--seed", "31"],
        "c37b8f2a01b1e5dbbe9267317a10d94ad501d8043162c922f6db0216eac0e7b7",
    ),
    "rmat-n40-lexsort": (
        ["generate", "--generator", "rmat", "--n", "40", "--alpha", "0.9", "--beta", "0.04",
         "--gamma", "0.02", "--rmat-edges", "20000", "--seed", "32"],
        "dbca77961befcea51b87dd8b678b64a9a7987224994fae25164f2de3f762b067",
    ),
}

DEGREES_REPORT = (
    ["validate", "--kind", "degrees", "--n", "8", "--alpha", "0.7", "--beta", "0.3",
     "--gamma", "0.3", "--trials", "5", "--seed", "14"],
    "b44eb72fe52f89a7c2b2cdf9e0434b700f0839ad1bd043416e26fd968c492dce",
)

# Above the old exact-expectation guard ((2^8)^4 vertex maps > 10^7): pins the
# closed-form copies_exact value and the two-sided mean_copies_vs_exact check.
SUBGRAPH_REPORT = (
    ["validate", "--kind", "subgraph", "--n", "8", "--alpha", "0.7", "--beta", "0.5",
     "--gamma", "0.7", "--pattern", "cycle:4", "--trials", "3", "--seed", "15"],
    "95db5b9aaf4e92d150d4a9aac0f7b4bde8f0cdf6b1ab4c07cfb83745e71d06a4",
)

# Pins the per-trial edge-distance profile next to the concentration criteria.
HAMMING_REPORT = (
    ["validate", "--kind", "hamming", "--n", "10", "--alpha", "0.7", "--beta", "0.5",
     "--gamma", "0.7", "--trials", "3", "--seed", "16"],
    "aa9714740a040cb776bdd7d5dfae705483341d09c812a9cbb6bd2de5e1cb84d0",
)

# Pins the aggregation without loops: no neighbor entry at distance 0.
HAMMING_NO_LOOPS_REPORT = (
    ["validate", "--kind", "hamming", "--n", "9", "--alpha", "0.7", "--beta", "0.5",
     "--gamma", "0.7", "--trials", "3", "--no-loops", "--seed", "4"],
    "eef241793a8af2a38fca49cc539d39e585a0f87ec9aa85cec8aa1f17411a1662",
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


def test_hamming_report_bytes(tmp_path, capsys):
    argv, digest = HAMMING_REPORT
    out = tmp_path / "report.json"
    assert main(argv + ["--out-json", str(out)]) == 0
    assert _sha256(out) == digest
    capsys.readouterr()


def test_hamming_no_loops_report_bytes(tmp_path, capsys):
    argv, digest = HAMMING_NO_LOOPS_REPORT
    out = tmp_path / "report.json"
    assert main(argv + ["--out-json", str(out)]) == 0
    assert _sha256(out) == digest
    capsys.readouterr()
