"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; seeds are fixed so each criterion is a deterministic check.
"""

import math

import networkx as nx
import numpy as np
from scipy.stats import chi2_contingency

from kronval import (
    KroneckerParams,
    PatternGraph,
    SeedSpec,
    base_value,
    critical_fraction,
    cycle,
    cycle_base_value,
    degree_moments,
    edge_distance_histogram,
    edge_probability,
    expected_copies_asymptotic,
    expected_copies_exact,
    generate_naive,
    generate_stratified,
    overlap_cycle_base_value,
    overlap_cycles,
    pair_classes,
    path,
    psi,
    rmat_pairs,
    second_moment_certificate,
    star,
    star_base_value,
    tree_base_value,
    count_labeled_copies,
    expected_degree_count,
    RmatParams,
)


from conftest import (
    PARAM_GRID,
    SYMMETRIC_GRID,
    base_value_from_edge_labelings,
    pair_class,
    to_networkx,
)


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_criterion_1_degree_moment_oracle():
    # closed-form mean / sum of squares / variance vs the literal sum over
    # all 2^n vertices, for every weight, on a 10-point grid
    n = 12
    worst = 0.0
    vertices = np.arange(1 << n, dtype=np.uint64)
    for alpha, beta, gamma in PARAM_GRID:
        p = KroneckerParams(alpha, beta, gamma, n)
        for w in range(n + 1):
            u = (1 << w) - 1
            probs = edge_probability(p, np.full(1 << n, u, dtype=np.uint64), vertices)
            moments = degree_moments(p, w)
            worst = max(
                worst,
                abs(moments.mean - probs.sum()),
                abs(moments.sum_sq_probs - (probs * probs).sum()),
                abs(moments.variance - (probs.sum() - (probs * probs).sum())),
            )
    ok = worst <= 1e-10
    assert _report(1, "degree-moment oracle", ok, f"max abs err {worst:.3e} (tol 1e-10)")


def test_criterion_2_case6_poisson_law():
    p = KroneckerParams(0.5, 0.5, 0.5, 14)
    trials = 20
    d_cap = 6
    max_d = 64
    pooled = np.zeros(max_d + 1)
    per_trial = np.zeros((trials, d_cap + 1))
    for t in range(trials):
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(2025).child("t", t))
        degrees = g.degrees(count_loops=True)
        binned = np.bincount(degrees, minlength=max_d + 1)
        assert len(binned) <= max_d + 1, "unexpectedly large degree"
        pooled[: len(binned)] += binned
        per_trial[t] = binned[: d_cap + 1]
    total = pooled.sum()
    empirical = pooled / total
    poisson = np.array([math.exp(-1) / math.factorial(d) for d in range(max_d + 1)])
    tv = 0.5 * np.abs(empirical - poisson).sum() + 0.5 * (1.0 - poisson.sum())
    ok_tv = tv <= 0.02

    worst_z = 0.0
    for d in range(d_cap + 1):
        predicted = 2**14 * math.exp(-1) / math.factorial(d)
        mean = per_trial[:, d].mean()
        se = max(per_trial[:, d].std(ddof=1), 1e-12) / math.sqrt(trials)
        worst_z = max(worst_z, abs(mean - predicted) / se)
    ok_z = worst_z <= 4.0
    ok = ok_tv and ok_z
    assert _report(
        2,
        "double-boundary Poisson(1) law",
        ok,
        f"TV {tv:.4f} (tol 0.02), worst |z| {worst_z:.2f} for d<=6 (tol 4)",
    )


def test_criterion_3_degree_count_predictor():
    p = KroneckerParams(0.7, 0.3, 0.3, 12)
    trials = 50
    counts = np.zeros((trials, 4))
    for t in range(trials):
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(333).child("t", t))
        binned = np.bincount(g.degrees(count_loops=True), minlength=4)
        counts[t] = binned[:4]
    worst_z = 0.0
    for d in range(4):
        predicted = expected_degree_count(p, d)
        se = counts[:, d].std(ddof=1) / math.sqrt(trials)
        worst_z = max(worst_z, abs(counts[:, d].mean() - predicted) / se)
    ok = worst_z <= 4.0
    assert _report(
        3, "degree-count predictor", ok, f"worst |z| {worst_z:.2f} over d in 0..3 (tol 4)"
    )


def test_criterion_4_base_value_identities():
    worst_closed = 0.0
    worst_dual = 0.0
    star_patterns = [(star(k), "star") for k in range(1, 9)]
    trees = [
        (PatternGraph.from_edges(v, t.edges()), "tree")
        for v in range(2, 7)
        for t in nx.nonisomorphic_trees(v)
    ]
    cycles = [(cycle(k), "cycle") for k in range(3, 9)]

    for alpha, beta, gamma in PARAM_GRID:
        p = KroneckerParams(alpha, beta, gamma, 1)
        for pattern, _ in star_patterns:
            closed = star_base_value(p, pattern.edge_count)
            worst_closed = max(worst_closed, abs(closed - base_value(p, pattern)))
    for alpha, beta in SYMMETRIC_GRID:
        p = KroneckerParams(alpha, beta, alpha, 1)
        for group in (star_patterns, trees, cycles):
            for pattern, kind in group:
                enumerated = base_value(p, pattern)
                if kind == "tree" or kind == "star":
                    closed = tree_base_value(p, pattern.edge_count)
                else:
                    closed = cycle_base_value(p, pattern.edge_count)
                worst_closed = max(worst_closed, abs(closed - enumerated))
                dual = base_value_from_edge_labelings(p, pattern)
                worst_dual = max(worst_dual, abs(dual - enumerated))
    ok = worst_closed <= 1e-12 and worst_dual <= 1e-12
    assert _report(
        4,
        "base-value identities",
        ok,
        f"closed-form err {worst_closed:.2e}, edge-labeling route err {worst_dual:.2e} (tol 1e-12)",
    )


def test_criterion_5_exact_expectation_oracle():
    trials = 220
    worst_z = 0.0
    for n, seed in ((3, 501), (4, 502)):
        p = KroneckerParams(0.6, 0.45, 0.35, n)
        patterns = [star(1), path(2), cycle(3)]
        counts = {id(pattern): np.zeros(trials) for pattern in patterns}
        for t in range(trials):
            g = generate_naive(p, include_loops=True, seed=SeedSpec(seed).child("t", t))
            for pattern in patterns:
                counts[id(pattern)][t] = count_labeled_copies(g, pattern)
        for pattern in patterns:
            sample = counts[id(pattern)]
            exact = expected_copies_exact(p, pattern)
            se = max(sample.std(ddof=1) / math.sqrt(trials), 1e-12)
            worst_z = max(worst_z, abs(sample.mean() - exact) / se)
    ok_mc = worst_z <= 4.0

    ratios = []
    for n in range(2, 7):
        p = KroneckerParams(0.6, 0.45, 0.35, n)
        ratios.append(
            expected_copies_exact(p, path(2)) / expected_copies_asymptotic(p, path(2))
        )
    ok_ratio = all(a < b for a, b in zip(ratios, ratios[1:])) and ratios[-1] < 1.0
    ok = ok_mc and ok_ratio
    assert _report(
        5,
        "exact-expectation oracle",
        ok,
        f"worst |z| {worst_z:.2f} (tol 4); ratio path {ratios[0]:.3f}->{ratios[-1]:.3f} increasing={ok_ratio}",
    )


def _star_grid():
    grid = []
    for alpha in (0.55, 0.65, 0.75, 0.85, 0.95):
        for beta in (0.5, 0.6):
            for gamma in (0.45, 0.65):
                grid.append((alpha, beta, gamma))
    return grid  # 20 points


def _cycle_grid():
    grid = []
    for alpha in (0.55, 0.65, 0.75, 0.85):
        for beta in (0.52, 0.55, 0.6, 0.65, 0.7):
            grid.append((alpha, beta))
    return grid  # 20 points


def test_criterion_6_second_moment_certificates():
    checked = 0
    formula_err = 0.0
    for k in range(1, 5):
        for alpha, beta, gamma in _star_grid():
            p = KroneckerParams(alpha, beta, gamma, 1)
            assert star_base_value(p, k) > 1.0, "grid must sit above the threshold"
            report = second_moment_certificate(p, star(k))
            assert report.passes, (k, alpha, beta, gamma)
            checked += len(report.entries)
    for k in range(3, 7):
        for alpha, beta in _cycle_grid():
            p = KroneckerParams(alpha, beta, alpha, 1)
            assert cycle_base_value(p, k) > 1.0, "grid must sit above the threshold"
            report = second_moment_certificate(p, cycle(k))
            assert report.passes, (k, alpha, beta)
            checked += len(report.entries)
            # consecutive-overlap unions must match their closed form
            for l in range(1, k - 1):
                target = overlap_cycles(k, l)
                enumerated = [
                    e
                    for e in report.entries
                    if e.union.graph.edge_count == target.edge_count
                    and e.union.graph.vertex_count == target.vertex_count
                    and nx.is_isomorphic(
                        to_networkx(e.union.graph), to_networkx(target)
                    )
                ]
                assert enumerated, (k, l)
                formula = overlap_cycle_base_value(p, k, l)
                formula_err = max(
                    formula_err, abs(enumerated[0].union_base - formula)
                )
    ok = formula_err <= 1e-12
    assert _report(
        6,
        "second-moment certificates",
        ok,
        f"{checked} union comparisons all strict; overlap closed-form err {formula_err:.2e}",
    )


def test_criterion_7_hamming_concentration():
    p = KroneckerParams(0.7, 0.5, 0.7, 14)
    trials = 30
    expected_degree = 1.2**14
    center = 0.5 * 14 / 1.2
    half = math.sqrt(2 * 0.5 / 1.2) * math.log(14) * math.sqrt(14)
    degree_errs = np.zeros(trials)
    fractions = np.zeros(trials)
    distances = np.zeros(trials)
    for t in range(trials):
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(777).child("t", t))
        degrees = g.degrees(count_loops=True)
        degree_errs[t] = abs(degrees.mean() - expected_degree) / expected_degree
        arr = g.edge_array
        dist = np.bitwise_count((arr[:, 0] ^ arr[:, 1]).astype(np.uint64)).astype(float)
        dist = np.concatenate([dist, np.zeros(len(g.loops))])
        fractions[t] = ((dist >= center - half) & (dist <= center + half)).mean()
        distances[t] = dist.mean()
    mean_err = degree_errs.mean()
    mean_fraction = fractions.mean()
    dist_err = abs(distances.mean() - center) / center
    ok = mean_err <= 0.10 and mean_fraction >= 0.99 and dist_err <= 0.02
    assert _report(
        7,
        "hamming concentration",
        ok,
        f"mean degree rel err {mean_err:.4f} (tol 0.1), window fraction {mean_fraction:.4f}"
        f" (min 0.99), distance rel err {dist_err:.4f} (tol 0.02)",
    )


def test_criterion_8_critical_fraction():
    # psi root accuracy and side over a 20-point grid
    grid = [(a, b) for a in (0.30, 0.35, 0.40, 0.45) for b in (0.72, 0.80, 0.88)]
    grid += [(a, b) for a in (0.75, 0.85) for b in (0.30, 0.35, 0.40, 0.45)]
    assert len(grid) == 20
    worst_root = 0.0
    for alpha, beta in grid:
        p = KroneckerParams(alpha, beta, alpha, 14)
        res = critical_fraction(p)
        worst_root = max(worst_root, abs(psi(p, res.c) - 0.5))
        peak = beta / (alpha + beta)
        if alpha < 0.5:
            assert res.side == "below" and 0 < res.c < peak
        else:
            assert res.side == "above" and peak < res.c < 1
    ok_root = worst_root <= 1e-9

    # edges below the cutoff: expected count, exact closed form
    p = KroneckerParams(0.4, 0.7, 0.4, 14)
    cutoff = critical_fraction(p).c * 14
    expected_violations = sum(
        2**13 * math.comb(14, i) * 0.4 ** (14 - i) * 0.7**i
        for i in range(1, math.floor(cutoff) + 1)
    )
    ok_expected = expected_violations < 1e-3

    offending_total = 0
    min_distances = []
    below = np.arange(15) < cutoff
    for t in range(50):
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(888).child("t", t))
        hist = edge_distance_histogram(g)
        hist[0] = 0  # the loops; no edge lies at distance 0
        offending_total += int(hist[below].sum())
        min_distances.append(int(np.flatnonzero(hist)[0]))
    ok_scan = offending_total == 0
    # the closest edges cluster just above the cutoff, far below the
    # typical-distance window center beta*n/(alpha+beta)
    window_center = 0.7 * 14 / 1.1
    ok_cluster = float(np.mean(min_distances)) < window_center / 2
    ok = ok_root and ok_expected and ok_scan and ok_cluster
    assert _report(
        8,
        "critical fraction",
        ok,
        f"worst |psi(c)-1/2| {worst_root:.2e} (tol 1e-9); expected violations"
        f" {expected_violations:.2e} (<1e-3); offending edges {offending_total};"
        f" mean min distance {float(np.mean(min_distances)):.2f} near cutoff"
        f" {cutoff:.2f}, window center {window_center:.2f}",
    )


def test_criterion_9_generator_equivalence():
    # two-sample chi-square over per-class edge counts, naive vs stratified
    p = KroneckerParams(0.55, 0.35, 0.45, 6)
    trials = 500
    keys = [(a, b, c) for a, b, c, _ in pair_classes(6)]
    index = {key: i for i, key in enumerate(keys)}
    table = np.zeros((2, len(keys)))
    for row, generator, seed in ((0, generate_naive, 91), (1, generate_stratified, 92)):
        for t in range(trials):
            g = generator(p, include_loops=False, seed=SeedSpec(seed).child("t", t))
            for u, v in g.edges:
                table[row, index[tuple(pair_class(u, v, 6))]] += 1
    # merge sparse cells so the chi-square approximation is sound
    col_totals = table.sum(axis=0)
    dense = table[:, col_totals >= 10]
    sparse = table[:, col_totals < 10].sum(axis=1, keepdims=True)
    if sparse.sum() > 0:
        dense = np.hstack([dense, sparse])
    _, p_value, _, _ = chi2_contingency(dense)
    ok_chi = p_value > 0.01

    # digit-outcome frequencies across 1e5 digit draws
    r = RmatParams(base=KroneckerParams(0.57, 0.19, 0.05, 10), m=10_000)
    u, v = rmat_pairs(r, seed=SeedSpec(93))
    draws = r.m * 10
    observed = np.zeros(4)
    for k in range(10):
        ub = (u >> k) & 1
        vb = (v >> k) & 1
        observed[0] += int(((ub == 1) & (vb == 1)).sum())
        observed[1] += int(((ub == 1) & (vb == 0)).sum())
        observed[2] += int(((ub == 0) & (vb == 1)).sum())
        observed[3] += int(((ub == 0) & (vb == 0)).sum())
    expected = np.array([0.57, 0.19, 0.19, 0.05])
    worst_sigma = 0.0
    for obs, prob in zip(observed, expected):
        sigma = math.sqrt(draws * prob * (1 - prob))
        worst_sigma = max(worst_sigma, abs(obs - draws * prob) / sigma)
    ok_rmat = worst_sigma <= 3.0
    ok = ok_chi and ok_rmat
    assert _report(
        9,
        "generator equivalence",
        ok,
        f"chi-square p {p_value:.3f} (reject below 0.01); digit draws worst"
        f" deviation {worst_sigma:.2f} sigma (tol 3)",
    )
