"""Golden-bytes determinism: fixed (command, seed) pairs must keep producing
the exact bytes pinned here.

The R-MAT digests were recorded before the graph representation
moved from frozensets of tuples to sorted int64 arrays, and the two R-MAT
cases before edges were canonicalized through packed int64 pair keys: at
n=16, 200000 draws merge into 190467 distinct edges, and at n=40, past the
packed key's n <= 31, about 2650 repeated draws merge and 191 loops are
kept.  The n=40 digest was recorded while the builder ordered such rows with
np.lexsort, as its key's name says; it now sorts them as big-endian V16
records in its one buffer.  A pass means those changes, and any later one,
left these bytes alone.

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

Every stratified digest, the four generate files and the four validate
reports, was re-recorded when the stratified sampler stopped drawing a
binomial count and then that many distinct uniform ranks per class, and
walked each class by geometric gaps instead.  Each pair is still an
independent Bernoulli coin of its class's probability; the draws are new.
The naive and R-MAT digests did not move.  Old -> new sha256:
  stratified-n10   923d75d2... -> fc1352e9...
  stratified-n15   4b72cc1f... -> d24d4ecb...
  stratified-n18   56f88427... -> c8d3b8b5...
  stratified-n30   d3a44164... -> e1764121...
  degrees report   b44eb72f... -> 0353fad9...
  subgraph report  95db5b9a... -> ea80e6c7...
  hamming report   aa971474... -> 636066f2...
  hamming, no loops  eef24179... -> 74fbfb66...
The demo digests of degree_distribution (7d9ac172... -> 32384466...),
hamming_neighborhood (aafe2033... -> d566a782...) and subgraph_thresholds
(86a3f324... -> d9f2dd33...) in test_demos.py moved with them.

The naive hamming report and the stratified star subgraph report were
recorded when the stratified hamming and star runs stopped building a graph
per trial: the first pins the graph route the naive sampler still takes,
the second the star counts read off the sampler's degree arrays.  Both
digests are the bytes the graph route gave before that change.
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
        "fc1352e9b015a5e86e68a964b80598d691019771a7cd1a799e782ea22e692b42",
    ),
    "stratified-n15-large-class": (
        ["generate", "--generator", "stratified", "--n", "15", "--alpha", "0.7", "--beta", "0.9",
         "--gamma", "0.1", "--seed", "22"],
        "d24d4ecba3c72245ee4940ea6308b7f69df14096395fc2216511a7ab05aba610",
    ),
    "stratified-n18": (
        ["generate", "--generator", "stratified", "--n", "18", "--alpha", "0.6", "--beta", "0.5",
         "--gamma", "0.6", "--seed", "21"],
        "c8d3b8b536d19691a6e38662a17a4cf625857a0ab363ac42c5d43de6876a5486",
    ),
    "stratified-n30": (
        ["generate", "--generator", "stratified", "--n", "30", "--alpha", "0.3", "--beta", "0.4",
         "--gamma", "0.3", "--seed", "3"],
        "e1764121836fb1ea6f85741952cbee09ee876fbd9330fe14a8355c38de4a9dfd",
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
    "0353fad92f182258da46a387d752c8cb7a7363952f96f1a9cd61bd173eb2d4f8",
)

# Above the old exact-expectation guard ((2^8)^4 vertex maps > 10^7): pins the
# closed-form copies_exact value and the two-sided mean_copies_vs_exact check.
SUBGRAPH_REPORT = (
    ["validate", "--kind", "subgraph", "--n", "8", "--alpha", "0.7", "--beta", "0.5",
     "--gamma", "0.7", "--pattern", "cycle:4", "--trials", "3", "--seed", "15"],
    "ea80e6c76e59536142574a4f1cd5741baecc59fb178679425af04dcb859348ab",
)

# Pins the per-trial edge-distance profile next to the concentration criteria.
HAMMING_REPORT = (
    ["validate", "--kind", "hamming", "--n", "10", "--alpha", "0.7", "--beta", "0.5",
     "--gamma", "0.7", "--trials", "3", "--seed", "16"],
    "636066f2a47f952eab1493eb4f2c6e956a3781c940d80eca321920396752195e",
)

# Pins the aggregation without loops: no neighbor entry at distance 0.
HAMMING_NO_LOOPS_REPORT = (
    ["validate", "--kind", "hamming", "--n", "9", "--alpha", "0.7", "--beta", "0.5",
     "--gamma", "0.7", "--trials", "3", "--no-loops", "--seed", "4"],
    "74fbfb66404ea77f61e0172d6aed4ce01930b34a9ae230262a81b1523cb887c2",
)

# Pins the graph route of the hamming kind: each naive trial's graph.
HAMMING_NAIVE_REPORT = (
    ["validate", "--kind", "hamming", "--generator", "naive", "--n", "8", "--alpha", "0.7",
     "--beta", "0.5", "--gamma", "0.7", "--trials", "3", "--seed", "18"],
    "3c70dc7b500e6e5edcc0652e390b0757015a819d916fdcc2d8ce95ed217c24e9",
)

# Pins star counts from the stratified sampler's loop-free degree arrays.
STAR_REPORT = (
    ["validate", "--kind", "subgraph", "--pattern", "star:3", "--n", "10", "--alpha", "0.7",
     "--beta", "0.5", "--gamma", "0.7", "--trials", "3", "--seed", "19"],
    "2f21f9cc02e2a5765dfafa28652f3ac61ed6cd299b4de29993ebfc7f387bdf18",
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


@pytest.mark.parametrize(
    "report", [HAMMING_NAIVE_REPORT, STAR_REPORT], ids=["hamming-naive", "star"]
)
def test_route_report_bytes(tmp_path, capsys, report):
    argv, digest = report
    out = tmp_path / "report.json"
    assert main(argv + ["--out-json", str(out)]) == 0
    assert _sha256(out) == digest
    capsys.readouterr()
