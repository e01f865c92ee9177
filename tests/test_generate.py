import collections
import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import kronval.generate
from kronval import (
    CapacityError,
    DimensionError,
    KroneckerParams,
    ParameterError,
    RmatParams,
    SampledGraph,
    SeedSpec,
    degree_histogram,
    edge_distance_histogram,
    edge_probability,
    expected_edge_count,
    generate_naive,
    generate_rmat,
    generate_stratified,
    pair_classes,
    read_edgelist,
    rmat_pairs,
    write_edgelist,
)
from kronval.generate import (
    _BYTE_DEPOSIT,
    _COMB,
    _RMAT_SUBBLOCK,
    _TABLE_MAX_N,
    RMAT_MAX_EDGES,
    RMAT_PEAK_BYTES_PER_DRAW,
    STRATIFIED_MAX_N,
    _class_probabilities,
    _class_table,
    _deposit,
    _draw_ranks,
    _subset_table,
    _unrank_pairs,
    batch_trials,
    stratified_degrees,
    stratified_distances,
)
from kronval.model import pairs_ascend

from conftest import (
    CountingGenerator,
    FixedDraws,
    gap_ranks_oracle,
    lex_subset,
    pair_class,
    rmat_pairs_oracle,
    traced_peak,
    unrank_pair_oracle,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_pair_class_sizes_cover_all_pairs():
    for n in range(1, 9):
        total = sum(size for *_, size in pair_classes(n))
        assert total == 2 ** (n - 1) * (2**n - 1)


def test_naive_single_pair_frequency():
    # n=1 without loops leaves a single possible edge {0, 1}, present w.p. beta
    p = KroneckerParams(alpha=0.6, beta=0.4, gamma=0.2, n=1)
    hits = sum(
        len(generate_naive(p, include_loops=False, seed=SeedSpec(1).child("t", t)).edges) > 0
        for t in range(3000)
    )
    sigma = math.sqrt(3000 * 0.4 * 0.6)
    assert abs(hits - 3000 * 0.4) <= 3 * sigma


def test_stratified_single_pair_frequency():
    p = KroneckerParams(alpha=0.6, beta=0.4, gamma=0.2, n=1)
    hits = sum(
        len(generate_stratified(p, include_loops=False, seed=SeedSpec(2).child("t", t)).edges) > 0
        for t in range(3000)
    )
    sigma = math.sqrt(3000 * 0.4 * 0.6)
    assert abs(hits - 3000 * 0.4) <= 3 * sigma


def test_naive_uniform_entries_reduce_to_binomial_graph():
    # alpha = beta = gamma = q gives every pair the same probability q^n,
    # i.e. the binomial random graph on 2^n vertices
    q = 0.55
    p = KroneckerParams(alpha=q, beta=q, gamma=q, n=5)
    pair_count = 2**4 * (2**5 - 1)
    trials = 400
    total = sum(
        len(generate_naive(p, include_loops=False, seed=SeedSpec(44).child("t", t)).edges)
        for t in range(trials)
    )
    prob = q**5
    draws = trials * pair_count
    sigma = math.sqrt(draws * prob * (1 - prob))
    assert abs(total - draws * prob) <= 3 * sigma


def test_naive_per_class_inclusion_frequencies():
    # pooled per pair class, 200 seeded trials, 3-sigma binomial bands
    p = KroneckerParams(alpha=0.55, beta=0.4, gamma=0.3, n=8)
    trials = 200
    class_hits = {}
    for t in range(trials):
        g = generate_naive(p, include_loops=False, seed=SeedSpec(5).child("t", t))
        for u, v in g.edges:
            key = tuple(pair_class(u, v, 8))
            class_hits[key] = class_hits.get(key, 0) + 1
    for a, b, c, size in pair_classes(8):
        prob = edge_probability(p, (1 << a) - 1, ((1 << a) - 1) ^ ((1 << (a + b)) - (1 << a)))
        # probability from any representative pair of the class
        draws = trials * size
        expected = draws * prob
        sigma = math.sqrt(draws * prob * (1 - prob))
        observed = class_hits.get((a, b, c), 0)
        assert abs(observed - expected) <= 3 * sigma + 1e-9, (a, b, c)


def _pair_classes_of(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of each edge row: both-one and mixed digit counts."""
    u, v = edges[:, 0], edges[:, 1]
    return np.bitwise_count(u & v).astype(np.int64), np.bitwise_count(u ^ v).astype(np.int64)


def test_stratified_per_class_inclusion_frequencies():
    # At (0.9, 0.7, 0.7), n = 8, the pair classes range from under one
    # expected edge to (6, 1, 1), (6, 2, 0) and (7, 1, 0), each with over a
    # quarter of its pairs drawn, and (2, 4, 2), about 320 of 3360.
    p = KroneckerParams(alpha=0.9, beta=0.7, gamma=0.7, n=8)
    trials = 200
    # Every pair u < v of class (1, 2, 5), 336 pairs, as u << 8 | v.
    u, v = np.triu_indices(256, 1)
    all_pairs = np.column_stack([u, v])
    a, b = _pair_classes_of(all_pairs)
    watched = np.sort((u << 8 | v)[(a == 1) & (b == 2)])
    watched_hits = np.zeros(len(watched), dtype=np.int64)
    class_hits = collections.Counter()
    for t in range(trials):
        g = generate_stratified(p, include_loops=False, seed=SeedSpec(5).child("t", t))
        a, b = _pair_classes_of(g.edges)
        class_hits.update(zip(a.tolist(), b.tolist()))
        keys = (g.edges[:, 0] << 8 | g.edges[:, 1])[(a == 1) & (b == 2)]
        watched_hits[np.searchsorted(watched, keys)] += 1
    for a, b, c, size in pair_classes(8):
        prob = p.alpha**a * p.beta**b * p.gamma**c
        draws = trials * size
        sigma = math.sqrt(draws * prob * (1 - prob))
        assert abs(class_hits[a, b] - draws * prob) <= 3 * sigma + 1e-9, (a, b, c)
    # Within the class every pair is equally likely.
    assert len(watched) == 336 and watched_hits.sum() == class_hits[1, 2]
    assert chisquare(watched_hits).pvalue > 1e-4


def test_generators_deterministic_and_loop_toggle_stable():
    p = KroneckerParams(alpha=0.6, beta=0.4, gamma=0.3, n=7)
    seed = SeedSpec(31)
    for gen in (generate_naive, generate_stratified):
        g1 = gen(p, include_loops=True, seed=seed)
        g2 = gen(p, include_loops=True, seed=seed)
        assert g1 == g2
        assert all(0 <= u < v < 128 for u, v in g1.edges)
        assert all(0 <= v < 128 for v in g1.loops)
        g3 = gen(p, include_loops=False, seed=seed)
        # naive always draws the diagonal and stratified loops draw from
        # their own stream, so the edges are unaffected
        assert np.array_equal(g3.edges, g1.edges)
        assert len(g3.loops) == 0
        assert gen(p, include_loops=True, seed=SeedSpec(32)) != g1


@pytest.mark.parametrize("include_loops", [True, False])
def test_stratified_derives_one_stream_per_class_family(monkeypatch, include_loops):
    derived = []
    generator = SeedSpec.generator

    def spy(spec):
        derived.append(spec.stream)
        return generator(spec)

    monkeypatch.setattr(SeedSpec, "generator", spy)
    seed = SeedSpec(4).child("trial", 2)
    p = KroneckerParams(alpha=0.6, beta=0.4, gamma=0.3, n=9)
    g = generate_stratified(p, include_loops=include_loops, seed=seed)
    assert len(g.edges) > 0
    families = [("class",), ("loop_class",)] if include_loops else [("class",)]
    assert derived == [("trial", 2) + family for family in families]
    # The naive sampler and R-MAT draw every pair, loops included, from one stream.
    derived.clear()
    assert len(generate_naive(p, include_loops=include_loops, seed=seed).edges) > 0
    assert derived == [("trial", 2, "pairs")]
    if include_loops:  # R-MAT always keeps its loops
        derived.clear()
        # 2^20 + 1 draws, which once took two streams of 2^20 draws each
        rmat = RmatParams(base=KroneckerParams(0.45, 0.2, 0.15, 2), m=(1 << 20) + 1)
        assert len(rmat_pairs(rmat, seed)[0]) == rmat.m
        assert derived == [("trial", 2, "pairs", 0)]


def test_stratified_graph_makes_a_few_rng_calls(monkeypatch):
    # One standard_exponential call per family and round, not a call for
    # each of the 78 pair and 13 loop classes at n = 12.
    calls = {}
    generator = SeedSpec.generator

    def spy(spec):
        calls[spec.stream[-1]] = []
        return CountingGenerator(generator(spec), calls[spec.stream[-1]])

    monkeypatch.setattr(SeedSpec, "generator", spy)
    p = KroneckerParams(alpha=0.8, beta=0.5, gamma=0.1, n=12)
    g = generate_stratified(p, seed=SeedSpec(1))
    assert len(g.edges) > 500
    assert set(calls) == {"class", "loop_class"}
    assert set(calls["class"]) == set(calls["loop_class"]) == {"standard_exponential"}
    assert sum(map(len, calls.values())) <= 6, calls


@pytest.mark.parametrize("n", [1, 5, 12, 30])
def test_expected_edge_count_sums_the_classes(n):
    for alpha, beta, gamma in [(0.6, 0.4, 0.2), (0.9, 1e-9, 0.7), (1e-300, 0.5, 1e-300)]:
        p = KroneckerParams(alpha, beta, gamma, n)
        pairs = sum(
            size * alpha**a * beta**b * gamma**c for a, b, c, size in pair_classes(n)
        )
        loops = sum(math.comb(n, w) * alpha**w * gamma ** (n - w) for w in range(n + 1))
        assert expected_edge_count(p, include_loops=False) == pytest.approx(pairs, rel=1e-12)
        assert expected_edge_count(p) == pytest.approx(pairs + loops, rel=1e-12)


def test_stratified_matches_naive_mean_edge_count():
    p = KroneckerParams(alpha=0.6, beta=0.4, gamma=0.3, n=6)
    trials = 300
    naive_counts = np.array(
        [len(generate_naive(p, False, seed=SeedSpec(8).child("t", t)).edges) for t in range(trials)]
    )
    strat_counts = np.array(
        [len(generate_stratified(p, False, seed=SeedSpec(9).child("t", t)).edges) for t in range(trials)]
    )
    expected = expected_edge_count(p, include_loops=False)
    for counts in (naive_counts, strat_counts):
        se = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - expected) <= 4 * se
    pooled_se = math.sqrt(
        naive_counts.var(ddof=1) / trials + strat_counts.var(ddof=1) / trials
    )
    assert abs(naive_counts.mean() - strat_counts.mean()) <= 4 * pooled_se


def test_loop_frequencies():
    p = KroneckerParams(alpha=0.5, beta=0.4, gamma=0.4, n=4)
    trials = 2000
    for gen in (generate_naive, generate_stratified):
        loop_hits = np.zeros(16)
        for t in range(trials):
            g = gen(p, include_loops=True, seed=SeedSpec(3).child("t", t))
            for v in g.loops:
                loop_hits[v] += 1
        for v in range(16):
            prob = edge_probability(p, v, v)
            sigma = math.sqrt(trials * prob * (1 - prob))
            assert abs(loop_hits[v] - trials * prob) <= 4 * sigma, (gen.__name__, v)


class TestRmat:
    def test_constraint_checked(self):
        with pytest.raises(ParameterError):
            RmatParams(base=KroneckerParams(0.5, 0.3, 0.2, 4), m=10)
        RmatParams(base=KroneckerParams(0.5, 0.2, 0.1, 4), m=10)

    def test_limits_checked_at_construction(self):
        # No RmatParams past R-MAT's limits exists, so rmat_pairs never sees one.
        base = KroneckerParams(0.25, 0.25, 0.25, 62)
        RmatParams(base=base, m=RMAT_MAX_EDGES)
        with pytest.raises(CapacityError, match=f"caps at {RMAT_MAX_EDGES} draws"):
            RmatParams(base=base, m=RMAT_MAX_EDGES + 1)
        with pytest.raises(CapacityError, match="caps at n = 62, got n = 63"):
            RmatParams(base=dataclasses.replace(base, n=63), m=1)
        with pytest.raises(ParameterError, match="at least 1 draw"):
            RmatParams(base=base, m=0)

    def test_single_digit_outcomes(self):
        # uniform initiator, one digit: edge {0,1} w.p. 1/2, each loop w.p. 1/4
        r = RmatParams(base=KroneckerParams(0.25, 0.25, 0.25, 1), m=1)
        edge = loop0 = loop1 = 0
        trials = 4000
        for t in range(trials):
            g = generate_rmat(r, seed=SeedSpec(6).child("t", t))
            if len(g.edges):
                edge += 1
            if 0 in g.loops:
                loop0 += 1
            if 1 in g.loops:
                loop1 += 1
        for hits, prob in ((edge, 0.5), (loop0, 0.25), (loop1, 0.25)):
            sigma = math.sqrt(trials * prob * (1 - prob))
            assert abs(hits - trials * prob) <= 3.5 * sigma

    def test_digit_outcome_frequencies(self):
        r = RmatParams(base=KroneckerParams(0.45, 0.2, 0.15, 5), m=20_000)
        u, v = rmat_pairs(r, seed=SeedSpec(11))
        draws = r.m * 5
        counts = {"one_one": 0, "u_one": 0, "v_one": 0, "zero_zero": 0}
        for k in range(5):
            ub = (u >> k) & 1
            vb = (v >> k) & 1
            counts["one_one"] += int(((ub == 1) & (vb == 1)).sum())
            counts["u_one"] += int(((ub == 1) & (vb == 0)).sum())
            counts["v_one"] += int(((ub == 0) & (vb == 1)).sum())
            counts["zero_zero"] += int(((ub == 0) & (vb == 0)).sum())
        expected = {"one_one": 0.45, "u_one": 0.2, "v_one": 0.2, "zero_zero": 0.15}
        for key, prob in expected.items():
            sigma = math.sqrt(draws * prob * (1 - prob))
            assert abs(counts[key] - draws * prob) <= 3 * sigma, key

    def test_digit_positions_independent(self):
        # outcomes at different digit positions are uncorrelated
        r = RmatParams(base=KroneckerParams(0.45, 0.2, 0.15, 6), m=20_000)
        u, v = rmat_pairs(r, seed=SeedSpec(12))
        codes = np.stack([2 * ((u >> k) & 1) + ((v >> k) & 1) for k in range(6)])
        bound = 4 / math.sqrt(r.m)
        corr = np.corrcoef(codes.astype(float))
        off_diag = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off_diag).max() < bound

    def test_collisions_at_linear_edge_count(self):
        # m = Theta(2^n) draws collide, so the merged simple graph is smaller
        n = 12
        r = RmatParams(base=KroneckerParams(0.45, 0.2, 0.15, n), m=4 * (1 << n))
        u, v = rmat_pairs(r, seed=SeedSpec(13))
        ordered = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
        distinct = len(np.unique(ordered, axis=0))
        assert distinct < r.m  # duplicates exist in the multiset
        g = generate_rmat(r, seed=SeedSpec(13))
        assert len(g.edges) + len(g.loops) == distinct
        assert len(g.edges) < r.m

    @pytest.mark.parametrize("n", [20, 62])
    def test_sub_blocks_match_one_shot_draw(self, n):
        # one rng.random call per chunk, as the sampler did before sub-blocks
        r = RmatParams(base=KroneckerParams(0.57, 0.19, 0.05, n), m=_RMAT_SUBBLOCK + 5)
        u, v = rmat_pairs(r, seed=SeedSpec(14))
        want_u, want_v = rmat_pairs_oracle(r, SeedSpec(14))
        assert np.array_equal(u, want_u)
        assert np.array_equal(v, want_v)

    # m at and around one sub-block, and many sub-blocks and a bit; the ends
    # come in the narrowest unsigned type that holds a vertex below 2^n.
    @pytest.mark.parametrize("m", [1, _RMAT_SUBBLOCK - 1, _RMAT_SUBBLOCK + 1, (1 << 17) + 3])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 31, 32, 62])
    def test_matches_the_matmul_oracle(self, n, m):
        r = RmatParams(base=KroneckerParams(0.45, 0.2, 0.15, n), m=m)
        u, v = rmat_pairs(r, seed=SeedSpec(15))
        want_u, want_v = rmat_pairs_oracle(r, SeedSpec(15))
        assert u.dtype == v.dtype == np.min_scalar_type((1 << n) - 1)
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)

    # The thresholds alpha, alpha + beta and alpha + 2 beta as rounded: three
    # exact doubles; the lower two equal (0.5 + 2^-54 ties to 0.5, while
    # 0.5 + 2^-53 is exact); all three equal (0.5 + 2^-60 rounds to 0.5, and
    # so does 0.5 - 2^-59 for gamma).  The draws sit on and beside each.
    @pytest.mark.parametrize(
        "alpha, beta, gamma",
        [(0.5, 0.125, 0.25), (0.5, 2.0**-54, 0.5 - 2.0**-53), (0.5, 2.0**-60, 0.5 - 2.0**-59)],
    )
    def test_draws_on_a_threshold_match_the_matmul_oracle(self, alpha, beta, gamma):
        thresholds = [alpha, alpha + beta, alpha + 2.0 * beta]
        near = [np.nextafter(t, side) for t in thresholds for side in (0.0, 1.0)]
        values = np.array(thresholds + near + [0.0, np.nextafter(1.0, 0.0), 0.3, 0.9])
        r = RmatParams(base=KroneckerParams(alpha, beta, gamma, 9), m=_RMAT_SUBBLOCK + 7)
        u, v = rmat_pairs(r, seed=FixedDraws(values))
        want_u, want_v = rmat_pairs_oracle(r, FixedDraws(values))
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)

    def test_holds_no_int64_digit_block(self):
        # A sub-block's doubles take 8n B per row; the matmul packing made an
        # int64 copy of its digits, another 8n B per row, on top of them.
        n, rows = 20, _RMAT_SUBBLOCK
        r = RmatParams(base=KroneckerParams(0.57, 0.19, 0.05, n), m=2 * rows)
        (u, v), peak = traced_peak(lambda: rmat_pairs(r, seed=SeedSpec(16)))
        doubles = rows * n * 8
        assert peak - u.nbytes - v.nbytes - doubles < rows * n * 8

    def test_from_pairs_holds_one_key_buffer_beyond_the_ends(self):
        # Beyond the caller's uint32 ends, from_pairs holds one buffer of two
        # int64 per draw, the keys and then the rows, and one block's
        # temporaries: 16.2 B per draw.  A key per draw, a copy without
        # loops, a bool per key, a copy without repeats and separate rows
        # held 33.6 B per draw, and an int64 copy of both ends 32.1 B.
        r = RmatParams(base=KroneckerParams(0.57, 0.19, 0.05, 20), m=1 << 21)
        u, v = rmat_pairs(r, seed=SeedSpec(1))
        assert u.dtype == v.dtype == np.uint32
        g, peak = traced_peak(lambda: SampledGraph.from_pairs(r.base, u, v))
        assert len(g.edges) > 0.9 * r.m
        assert peak <= 18 * r.m

    def test_generate_holds_the_narrow_ends_and_one_key_buffer(self):
        # The uint32 ends, 8 B per draw, beside from_pairs' buffer of 16 B:
        # 24.2 B per draw, against 32.1 B with int64 ends.
        r = RmatParams(base=KroneckerParams(0.57, 0.19, 0.05, 20), m=1 << 21)
        g, peak = traced_peak(lambda: generate_rmat(r, SeedSpec(1)))
        assert len(g.edges) > 0.9 * r.m
        assert peak <= 25 * r.m

    def test_deterministic(self):
        r = RmatParams(base=KroneckerParams(0.45, 0.2, 0.15, 8), m=5000)
        assert generate_rmat(r, SeedSpec(21)) == generate_rmat(r, SeedSpec(21))


class TestDegreeHistogram:
    def test_empty_graph(self):
        p = KroneckerParams(0.5, 0.4, 0.3, 5)
        g = SampledGraph.from_pairs(p, [], include_loops=False)
        assert degree_histogram(g) == {0: 32}

    def test_single_edge(self):
        p = KroneckerParams(0.5, 0.4, 0.3, 4)
        g = SampledGraph.from_pairs(p, [(0, 1)])
        assert degree_histogram(g) == {0: 14, 1: 2}

    def test_handshake_identity(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 8)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(77))
        hist = degree_histogram(g)
        assert sum(hist.values()) == 256
        assert sum(d * c for d, c in hist.items()) == 2 * len(g.edges) + len(g.loops)


class TestCapacity:
    def test_naive_cap_names_alternative(self):
        p = KroneckerParams(0.5, 0.4, 0.3, 15)
        with pytest.raises(CapacityError, match="stratified"):
            generate_naive(p, seed=SeedSpec(1))

    def test_stratified_budget(self):
        p = KroneckerParams(0.9, 0.8, 0.9, 24)
        with pytest.raises(CapacityError, match="budget"):
            generate_stratified(p, seed=SeedSpec(1))

    def test_default_budget_refuses_before_sampling(self, monkeypatch):
        gen = kronval.generate
        assert gen.DEFAULT_EDGE_BUDGET * gen.STRATIFIED_PEAK_BYTES_PER_EDGE <= 3 << 30

        def sampled(*args, **kwargs):
            raise AssertionError("a class was sampled")

        monkeypatch.setattr(SeedSpec, "generator", sampled)
        monkeypatch.setattr(gen, "_draw_ranks", sampled)
        p = KroneckerParams(0.99, 0.99, 0.99, 14)  # about 117M expected edges
        assert expected_edge_count(p) > gen.DEFAULT_EDGE_BUDGET
        with pytest.raises(CapacityError, match="budget"):
            generate_stratified(p, seed=SeedSpec(1))


class TestPackedKeys:
    def test_peak_stays_within_the_budget_per_edge(self, stratified_n16):
        # The ranks become the keys in one buffer, which grows to hold the
        # (E, 2) rows in place only once the passes are done: 22.8 B per
        # edge here, against 25.3 while the keys, a bool per key and
        # separate rows were held at once, and 42 when the two int64 end
        # arrays were kept for from_pairs.
        p = stratified_n16.params
        g, peak = traced_peak(lambda: generate_stratified(p, seed=SeedSpec(1)))
        assert g == stratified_n16
        assert peak <= 28 * len(g.edges)

    @pytest.mark.parametrize("p", [0.2, 0.1])
    def test_large_class_draws_stay_within_the_budget_per_edge(self, p):
        # Class (0, 22, 0), 2^21 pairs of edge probability p, holds about
        # 97% of the edges, and draws over about 7 and 4 rounds.  The first
        # call makes the allocations a process makes once.
        params = KroneckerParams(0.001, p ** (1 / 22), 0.001, 22)
        generate_stratified(params, seed=SeedSpec(1))
        g, peak = traced_peak(lambda: generate_stratified(params, seed=SeedSpec(1)))
        assert peak <= 28 * len(g.edges)

    def test_unranked_vertices_are_range_checked(self, monkeypatch):
        def too_wide(n, a, b, ranks):
            u, v = _unrank_pairs(n, a, b, ranks)
            return u | (1 << n), v

        monkeypatch.setattr(kronval.generate, "_unrank_pairs", too_wide)
        with pytest.raises(DimensionError, match="does not fit 6 digits"):
            generate_stratified(KroneckerParams(0.9, 0.5, 0.7, 6), seed=SeedSpec(1))


def _read_back(graph, tmp_path):
    path = tmp_path / "g.edges"
    write_edgelist(graph, path)
    return read_edgelist(path)


@pytest.mark.parametrize("build", ["naive", "stratified", "rmat", "read"])
def test_every_graph_views_a_buffer_of_exactly_its_rows(tmp_path, build):
    # Each generator and the reader feed SampledGraph.from_blocks, whose
    # key buffer becomes the rows, trimmed to their 2E slots.
    p = KroneckerParams(0.6, 0.5, 0.6, 12)
    rmat = RmatParams(base=KroneckerParams(0.57, 0.19, 0.05, 12), m=20_000)
    graph = {
        "naive": lambda: generate_naive(p, seed=SeedSpec(3)),
        "stratified": lambda: generate_stratified(p, seed=SeedSpec(3)),
        "rmat": lambda: generate_rmat(rmat, SeedSpec(3)),
        "read": lambda: _read_back(generate_stratified(p, seed=SeedSpec(3)), tmp_path),
    }[build]()
    assert len(graph.edges) > 1000 and len(graph.loops) > 0
    buf = graph.edges.base
    assert buf.base is None and buf.size == 2 * len(graph.edges)


def test_rmat_past_packed_keys_peaks_within_its_declared_bytes_per_draw():
    # Above n = 31 the builder joins its blocks' ends, frees the blocks and
    # lexsorts the rows: 65.0 B per draw here, with the ends 8 B each past
    # n = 32.  Keeping the blocks alive through the lexsort read 89.1 B per
    # draw, past the declared 80.
    r = RmatParams(base=KroneckerParams(0.57, 0.19, 0.05, 40), m=1 << 21)
    g, peak = traced_peak(lambda: generate_rmat(r, SeedSpec(1)))
    assert len(g.edges) > 0.9 * r.m
    assert peak <= RMAT_PEAK_BYTES_PER_DRAW * r.m


@st.composite
def _bounded_params(draw):
    """Params at n = 1-14 whose graphs hold at most about 1,000 expected
    edges and loops: the entries are scaled down until
    (alpha + 2 beta + gamma)^n, which bounds that count, is at most 1,000."""
    n = draw(st.integers(1, 14))
    alpha, beta, gamma = (draw(st.floats(0.01, 0.99)) for _ in range(3))
    scale = min(1.0, 1000 ** (1 / n) / (alpha + 2 * beta + gamma))
    return KroneckerParams(alpha * scale, beta * scale, gamma * scale, n)


@settings(max_examples=60, deadline=None)
@given(params=_bounded_params(), include_loops=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(params=KroneckerParams(0.9, 0.9, 0.9, 1), include_loops=True, seed=0)
@example(params=KroneckerParams(0.6, 0.3, 0.6, 14), include_loops=False, seed=1)
def test_stratified_graph_is_canonical(params, include_loops, seed):
    # Blocks of 7 ranks mix pair and loop classes within one pass.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kronval.generate, "_UNRANK_BLOCK", 7)
        g = generate_stratified(params, include_loops=include_loops, seed=SeedSpec(seed))
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    assert g.edges.dtype == g.loops.dtype == np.int64
    assert (lo < hi).all() and pairs_ascend(lo, hi).all()
    assert (np.diff(g.loops) > 0).all() and (include_loops or not len(g.loops))
    vertices = np.concatenate([g.edges.ravel(), g.loops])
    assert ((vertices >= 0) & (vertices < params.vertex_count)).all()
    # its own rows and loops, shuffled and half of them flipped
    rng = np.random.default_rng(seed)
    pairs = np.concatenate([g.edges, np.column_stack([g.loops, g.loops])])
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    pairs = pairs[rng.permutation(len(pairs))]
    assert SampledGraph.from_pairs(params, pairs, include_loops=include_loops) == g


def _class_size(n: int, a: int, b: int) -> int:
    """Pairs of digit class (a, b); class (w, 0) is the C(n, w) loops."""
    return math.comb(n, a) * math.comb(n - a, b) << max(b - 1, 0)


@st.composite
def _class_ranks(draw, n: int):
    a = draw(st.integers(0, n))
    b = draw(st.integers(0, n - a))
    return a, b, draw(st.integers(0, _class_size(n, a, b) - 1))


class TestPooledUnranking:
    def test_oracle_subsets_follow_itertools_combinations(self):
        for m in range(7):
            for k in range(m + 1):
                combos = [list(c) for c in itertools.combinations(range(m), k)]
                assert [lex_subset(range(m), k, r) for r in range(len(combos))] == combos

    @pytest.mark.parametrize("n", range(1, 7))
    def test_oracle_ranks_each_class_onto_its_pairs(self, n):
        members = {}
        for u, v in itertools.combinations_with_replacement(range(1 << n), 2):
            a, b, _ = pair_class(u, v, n)
            members.setdefault((a, b), set()).add((u, v))
        assert len(members) == (n + 1) * (n + 2) // 2
        for (a, b), pairs in members.items():
            assert _class_size(n, a, b) == len(pairs)
            got = {tuple(sorted(unrank_pair_oracle(n, a, b, r))) for r in range(len(pairs))}
            assert got == pairs

    def test_every_class_matches_oracle_in_one_call(self):
        for n in range(1, 8):
            cases = [
                (a, b, r)
                for a in range(n + 1)
                for b in range(n - a + 1)
                for r in range(_class_size(n, a, b))
            ]
            # every pair and loop class of this n, interleaved in one call
            cases = [cases[i] for i in np.random.default_rng(n).permutation(len(cases))]
            a, b, ranks = np.array(cases, dtype=np.int64).T
            u, v = _unrank_pairs(n, a, b, ranks)
            assert list(zip(u.tolist(), v.tolist())) == [unrank_pair_oracle(n, *c) for c in cases]

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.integers(1, 30).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(_class_ranks(n), min_size=1, max_size=16))
        )
    )
    @example(case=(30, [(0, 30, (1 << 29) - 1), (30, 0, 0), (0, 0, 0), (15, 0, math.comb(30, 15) - 1)]))
    @example(case=(30, [(14, 16, _class_size(30, 14, 16) - 1), (0, 1, 29), (29, 1, 0)]))
    def test_matches_oracle_property(self, case):
        n, cases = case
        a, b, ranks = np.array(cases, dtype=np.int64).T
        u, v = _unrank_pairs(n, a, b, ranks)
        assert list(zip(u.tolist(), v.tolist())) == [unrank_pair_oracle(n, *c) for c in cases]

    @settings(max_examples=100, deadline=None)
    @given(
        case=st.integers(1, 10).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(_class_ranks(n), min_size=1, max_size=16))
        )
    )
    @example(case=(10, [(0, 10, (1 << 9) - 1), (3, 4, 0), (10, 0, 0), (4, 0, 209), (2, 5, 10079)]))
    def test_every_table_split_matches_oracle(self, case):
        # Every split of the n digits into walked low digits and table
        # digits, from all walked (cap 0) to none (cap n).
        n, cases = case
        a, b, ranks = np.array(cases, dtype=np.int64).T
        want = [unrank_pair_oracle(n, *c) for c in cases]
        for cap in range(n + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kronval.generate, "_TABLE_MAX_N", cap)
                u, v = _unrank_pairs(n, a, b, ranks)
            assert list(zip(u.tolist(), v.tolist())) == want

    @pytest.mark.parametrize("m", range(11))
    def test_subset_table_blocks_follow_combinations_order(self, m):
        table = _subset_table(m)
        assert len(table.masks) == 1 << m
        for w in range(m + 1):
            block = table.masks[table.start[w] :][: math.comb(m, w)]
            want = [sum(1 << p for p in lex_subset(range(m), w, r)) for r in range(math.comb(m, w))]
            assert block.tolist() == want

    def test_subset_table_holds_every_smaller_digit_count(self):
        # The w-subsets of m' <= m digits are the last C(m', w) masks of
        # weight block w of table m, shifted right by m - m', and start
        # points at them.
        for m in range(13):
            table = _subset_table(m)
            for m_small in range(m + 1):
                small = _subset_table(m_small)
                for w in range(m_small + 1):
                    count = math.comb(m_small, w)
                    at = table.start[(m - m_small) * (m + 1) + w]
                    assert at + count == table.start[w] + math.comb(m, w)
                    suffix = table.masks[at : at + count] >> (m - m_small)
                    assert suffix.tolist() == small.masks[small.start[w] :][:count].tolist()

    def test_walk_fits_int32_lanes(self):
        # The walk's ranks are below the largest C(i, j) it can read, its
        # orientations and vertices below 2^STRATIFIED_MAX_N.  The table's
        # masks are below 2^_TABLE_MAX_N, and so is every index it is read
        # at, a start plus a rank; its deposits, shifted up past the walked
        # digits, stay below 2^STRATIFIED_MAX_N.  Raising either cap past
        # what int32 holds must fail here rather than wrap.
        assert _TABLE_MAX_N <= STRATIFIED_MAX_N <= 30
        table = [
            [math.comb(i, j) for j in range(STRATIFIED_MAX_N + 2)]
            for i in range(STRATIFIED_MAX_N + 1)
        ]
        assert max(map(max, table)) < 1 << 31
        assert _COMB.dtype == np.int32
        assert _COMB[:-1].tolist() == table and not _COMB[-1].any()
        m = _TABLE_MAX_N
        subsets = _subset_table(m)
        assert subsets.masks.dtype == subsets.start.dtype == np.int32
        assert sorted(subsets.masks.tolist()) == list(range(1 << m))
        for a in range(m + 1):
            for b in range(m + 1 - a):
                assert subsets.start[a * (m + 1) + b] + math.comb(m - a, b) <= 1 << m
        assert _BYTE_DEPOSIT.dtype == np.uint8 and _BYTE_DEPOSIT.shape == (1 << 16,)
        full = np.array([(1 << m) - 1], dtype=np.int32)
        widest = _deposit(full, full, m) << (STRATIFIED_MAX_N - m)
        assert widest.dtype == np.int32
        assert widest.tolist() == [(1 << STRATIFIED_MAX_N) - (1 << (STRATIFIED_MAX_N - m))]
        # every cached table is read-only, as the class table is
        for array in (subsets.masks, subsets.start, _BYTE_DEPOSIT):
            assert not array.flags.writeable

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("include_loops", [True, False])
    def test_pool_size_leaves_graph_unchanged(self, monkeypatch, n, include_loops):
        # Block 7 splits the larger classes across passes and mixes classes
        # within one; at n = 12 block 1 would cost about 47.6k one-rank passes.
        p = KroneckerParams(0.9, 0.5, 0.7, n)
        graphs = []
        for block in (1, 7, 1 << 40) if n == 8 else (7, 1 << 40):
            monkeypatch.setattr(kronval.generate, "_UNRANK_BLOCK", block)
            graphs.append(generate_stratified(p, include_loops=include_loops, seed=SeedSpec(9)))
        assert len(graphs[0].edges) > 0
        assert (len(graphs[0].loops) > 0) == include_loops
        assert all(g == graphs[0] for g in graphs[1:])


def _sparse_params(n: int, alpha: float, beta: float, gamma: float, edges: float):
    """The entries scaled by one factor so that about `edges` edges and
    loops are expected: (alpha + 2 beta + gamma)^n / 2 of them, roughly."""
    scale = (2 * edges) ** (1 / n) / (alpha + 2 * beta + gamma)
    return KroneckerParams(alpha * scale, beta * scale, gamma * scale, n)


def _collected(blocks) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, lanes) of a whole _draw_ranks stream, its blocks joined in
    order, once its blocks are checked: consecutive slices of
    _UNRANK_BLOCK ranks, only the last one short, each with a lane per
    rank."""
    blocks = list(blocks)
    if not blocks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    ranks, lanes = zip(*blocks)
    sizes = [len(x) for x in ranks]
    block = kronval.generate._UNRANK_BLOCK
    assert sizes == [len(x) for x in lanes]
    assert all(size == block for size in sizes[:-1]) and all(0 < size <= block for size in sizes)
    assert all(x.dtype == np.int64 for x in ranks)
    return np.concatenate(ranks), np.concatenate(lanes)


def _draw(params: KroneckerParams, include_loops: bool = True, seed=None):
    """The collected _draw_ranks stream of params, and the class table it
    drew from."""
    table = _class_table(params.n, include_loops)
    return _collected(_draw_ranks(params, table, seed or SeedSpec(1))), table


def _check_ranks(ranks: np.ndarray, class_of: np.ndarray, table) -> None:
    """Every rank lies in its class, and each class's ranks ascend."""
    sizes = table.size[class_of]
    assert ((ranks >= 0) & (ranks < sizes)).all()
    order = np.argsort(class_of, kind="stable")
    same = class_of[order][1:] == class_of[order][:-1]
    assert (np.diff(ranks[order])[same] > 0).all()


class TestDrawRanks:
    @pytest.mark.parametrize("n", [20, 26, 30])
    def test_unranked_pairs_lie_in_their_classes(self, n):
        # Ranks reach the unranker in ascending order within each class, and
        # no report number would catch a pair unranked into the wrong class.
        params = _sparse_params(n, 0.9, 0.25, 0.6, 1e5)  # 36-634 loops expected
        (ranks, class_of), table = _draw(params)
        pairs = np.count_nonzero(table.b[class_of])
        assert 0 < pairs < len(ranks) and 50_000 < len(ranks) < 200_000
        assert (table.b[class_of[:pairs]] > 0).all() and not table.b[class_of[pairs:]].any()
        a, b = table.a[class_of], table.b[class_of]
        u, v = _unrank_pairs(n, a, b, ranks)
        assert (np.bitwise_count(u & v) == a).all() and (np.bitwise_count(u ^ v) == b).all()
        keys = np.minimum(u, v).astype(np.int64) << n | np.maximum(u, v)
        assert len(np.unique(keys)) == len(keys)

    # Entries of 1e-300 at n = 30: p underflows to 0 wherever a + c >= 2,
    # and is subnormal (about 1.9e-309) at a + c = 1.  5e-324 as alpha
    # makes the loop class w = 1 of n = 1 subnormal.  Entries of 1 - 2^-53
    # put every class within 1e-15 of 1.  Every class of n = 1 holds one
    # pair or loop.
    @pytest.mark.parametrize(
        "params",
        [
            KroneckerParams(1e-300, 0.5, 1e-300, 30),
            KroneckerParams(5e-324, 0.5, 5e-324, 30),
            KroneckerParams(5e-324, 0.5, 0.5, 1),
            KroneckerParams(1 - 2.0**-53, 1 - 2.0**-53, 1 - 2.0**-53, 3),
            KroneckerParams(0.9, 0.9, 0.9, 1),
            KroneckerParams(0.6, 0.4, 0.2, 1),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_extreme_probabilities_draw_silently_within_their_classes(self, params):
        for seed in range(20):
            (ranks, class_of), table = _draw(params, seed=SeedSpec(seed))
            _check_ranks(ranks, class_of, table)
            probs = _class_probabilities(params, table)
            assert (probs[class_of] > 0).all()
            if params.alpha == 1 - 2.0**-53:  # p within 1e-15 of 1: every pair and loop is drawn
                pairs = np.count_nonzero(table.b[class_of])
                assert len(ranks) == table.size.sum() and pairs == table.size[table.b > 0].sum()
        if params.n == 30:
            assert probs.min() == 0 and (probs[table.a + table.c == 1] < np.finfo(float).tiny).all()

    def test_steps_at_the_cap_keep_no_wrapped_position(self):
        # Every exponential is inf, so every step is 2 size + 1 and each
        # class leaves at its first step.  A batch's later positions wrap
        # int64 at n = 30, where class sizes reach 2^52, and any of them
        # read as a rank would show here.
        class InfiniteDraws:
            def child(self, *labels):
                return self

            def generator(self):
                return self

            def standard_exponential(self, size):
                return np.full(size, np.inf)

        params = _sparse_params(30, 0.6, 0.5, 0.6, 1e5)
        (ranks, class_of), table = _draw(params, seed=InfiniteDraws())
        assert len(ranks) == len(class_of) == 0
        assert table.size.max() >= 1 << 52

    # Rounds of 5 steps split most classes; the default round holds each
    # graph whole.  The last two put the subnormal and the near-1 classes
    # through the same arithmetic as the oracle.
    @pytest.mark.parametrize("round_size", [5, 64, None])
    @pytest.mark.parametrize(
        "params",
        [
            KroneckerParams(0.9, 0.7, 0.7, 6),
            KroneckerParams(0.6, 0.4, 0.2, 9),
            KroneckerParams(1e-300, 0.5, 1e-300, 30),
            KroneckerParams(1 - 2.0**-53, 1 - 2.0**-53, 1 - 2.0**-53, 3),
        ],
    )
    def test_matches_the_gap_oracle(self, monkeypatch, params, round_size):
        if round_size:
            monkeypatch.setattr(kronval.generate, "_GAP_ROUND", round_size)
        table = _class_table(params.n, True)
        probs = _class_probabilities(params, table)
        for seed in range(3):
            ranks, class_of = _collected(_draw_ranks(params, table, SeedSpec(seed)))
            want = gap_ranks_oracle(
                table.size, probs, table.families, SeedSpec(seed), kronval.generate._GAP_ROUND
            )
            assert list(zip(class_of.tolist(), ranks.tolist())) == want

    def test_class_over_several_rounds_keeps_its_binomial_law(self, monkeypatch):
        # Rounds of 64 steps split class (2, 4, 2) of n = 8, 3360 pairs of
        # p = 0.0953, over about 6 rounds, resumed from its last rank.
        monkeypatch.setattr(kronval.generate, "_GAP_ROUND", 64)
        params = KroneckerParams(0.9, 0.7, 0.7, 8)
        table = _class_table(8, True)
        watched = next(i for i in range(len(table.a)) if (table.a[i], table.b[i]) == (2, 4))
        size, p = int(table.size[watched]), 0.9**2 * 0.7**4 * 0.7**2
        trials = 300
        counts = np.zeros(trials, dtype=np.int64)
        hits = np.zeros(size, dtype=np.int64)
        for t in range(trials):
            stream = _draw_ranks(params, table, SeedSpec(6).child("t", t))
            ranks, class_of = _collected(stream)
            _check_ranks(ranks, class_of, table)
            mine = ranks[class_of == watched]
            counts[t] = len(mine)
            hits[mine] += 1
        mean, var = size * p, size * p * (1 - p)
        assert abs(counts.mean() - mean) <= 3 * math.sqrt(var / trials)
        # the sample variance against its binomial value, sd about var sqrt(2 / T)
        assert abs(counts.var(ddof=1) - var) <= 3 * var * math.sqrt(2 / (trials - 1))
        # every pair of the class equally likely, across the round boundaries
        assert chisquare(hits).pvalue > 1e-4

    @pytest.mark.parametrize("include_loops", [True, False])
    def test_grown_buffer_gives_the_same_graph(self, monkeypatch, include_loops):
        # A reserve of 16 ranks grows about 14 times for these ~150k.
        params = KroneckerParams(0.6, 0.5, 0.6, 16)
        want = generate_stratified(params, include_loops=include_loops, seed=SeedSpec(3))
        monkeypatch.setattr(kronval.generate, "expected_edge_count", lambda *args: 0.0)
        (ranks, _), _ = _draw(params, include_loops, seed=SeedSpec(3))
        assert len(ranks) == len(want.edges) + len(want.loops) > 100_000
        got = generate_stratified(params, include_loops=include_loops, seed=SeedSpec(3))
        assert got == want

    @pytest.mark.parametrize("entry", ["1e-300", "5e-324"])
    def test_generate_at_subnormal_products_raises_no_warning(self, tmp_path, entry):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["generate", "--n", "30", "--alpha", entry, "--beta", "0.5", "--gamma", entry,
                "--seed", "1", "--out", str(tmp_path / "g.edges")]
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "kronval.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


def _graph_degrees(params: KroneckerParams, include_loops: bool, seeds) -> np.ndarray:
    """The degree arrays of the graphs of the seeds, one row each."""
    return np.array(
        [generate_stratified(params, include_loops, seed=seed).degrees() for seed in seeds],
        dtype=np.int64,
    ).reshape(len(seeds), params.vertex_count)


class TestStratifiedDegrees:
    @pytest.mark.parametrize("n", [1, 5, 8, 12, 14])
    @pytest.mark.parametrize("include_loops", [True, False])
    def test_rows_equal_the_graph_degrees(self, n, include_loops):
        # Batches of 1, batch and batch + 1 trials; at n = 1 and 5 a batch
        # holds over a thousand trials, so 7 stand in for it there.
        params = KroneckerParams(0.8, 0.5, 0.4, n)
        batch = batch_trials(params, include_loops)
        assert (batch == 1) == (n == 14)
        for trials in (1, 7) if batch > 200 else (1, batch, batch + 1):
            seeds = [SeedSpec(5).child("trial", t) for t in range(trials)]
            got = stratified_degrees(params, include_loops, seeds=seeds)
            assert got.dtype == np.int64
            assert np.array_equal(got, _graph_degrees(params, include_loops, seeds))

    @pytest.mark.parametrize("include_loops", [True, False])
    def test_rounds_that_end_apart_in_each_trial_give_the_same_rows(
        self, monkeypatch, include_loops
    ):
        # Rounds of 64 steps split the classes of these ~300-edge graphs
        # over several rounds, a different number in each trial.
        monkeypatch.setattr(kronval.generate, "_GAP_ROUND", 64)
        params = KroneckerParams(0.9, 0.7, 0.7, 8)
        seeds = [SeedSpec(2).child("trial", t) for t in range(9)]
        got = stratified_degrees(params, include_loops, seeds=seeds)
        assert np.array_equal(got, _graph_degrees(params, include_loops, seeds))
        assert got.sum() > 9 * 300

    # 1e-300 underflows p to 0 where a + c >= 2 and makes it subnormal at
    # a + c = 1; 5e-324 makes the loop class w = 1 of n = 1 subnormal.
    @pytest.mark.parametrize(
        "params",
        [
            KroneckerParams(1e-300, 0.5, 1e-300, 12),
            KroneckerParams(5e-324, 0.5, 5e-324, 12),
            KroneckerParams(5e-324, 0.5, 0.5, 1),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_extreme_entries_give_the_same_rows(self, params):
        seeds = [SeedSpec(3).child("trial", t) for t in range(12)]
        got = stratified_degrees(params, seeds=seeds)
        assert np.array_equal(got, _graph_degrees(params, True, seeds))

    def test_refuses_over_the_budget_before_any_stream(self, monkeypatch):
        def derived(*args, **kwargs):
            raise AssertionError("a stream was derived")

        monkeypatch.setattr(SeedSpec, "generator", derived)
        p = KroneckerParams(0.99, 0.99, 0.99, 14)  # about 117M expected edges
        with pytest.raises(CapacityError, match="budget"):
            stratified_degrees(p, seeds=[SeedSpec(1)])

    def test_unranked_vertices_are_range_checked(self, monkeypatch):
        def too_wide(n, a, b, ranks):
            u, v = _unrank_pairs(n, a, b, ranks)
            return u, v | (1 << n)

        monkeypatch.setattr(kronval.generate, "_unrank_pairs", too_wide)
        with pytest.raises(DimensionError, match="does not fit 6 digits"):
            stratified_degrees(KroneckerParams(0.9, 0.5, 0.7, 6), seeds=[SeedSpec(1)] * 3)

    def test_one_trial_peaks_below_its_graph(self, stratified_n16):
        # No keys are packed, sorted or split into rows: the ranks, a byte
        # of lane each and the 2^16 counts, against 25 B per edge.
        p = stratified_n16.params
        rows, peak = traced_peak(lambda: stratified_degrees(p, seeds=[SeedSpec(1)]))
        assert np.array_equal(rows[0], stratified_n16.degrees())
        _, graph_peak = traced_peak(lambda: generate_stratified(p, seed=SeedSpec(1)))
        assert peak < graph_peak

    @pytest.mark.parametrize("entries", [(0.8, 0.5, 0.1), (0.7, 0.3, 0.3)])
    def test_batches_of_a_run_stay_within_their_ranks_and_counts(self, entries):
        # 20 trials at n = 12, in batches of batch_trials: each stays
        # within 8 B per rank and 8 2^n per trial, and 1 MiB for one pass
        # of _unranked, about 47 B for each of its _UNRANK_BLOCK ranks.
        # All 20 trials of (0.8, 0.5, 0.1) in one batch peak near the
        # bound of a batch of 12, 0.3 MB above it when a batch held all its
        # ranks at once.
        params = KroneckerParams(*entries, 12)
        seeds = [SeedSpec(1).child("trial", t) for t in range(20)]
        step = batch_trials(params)
        assert 10 <= step <= 16
        table = _class_table(12, True)
        for s in range(0, 20, step):
            batch = seeds[s : s + step]
            ranks = len(_collected(_draw_ranks(params, table, *batch))[0])
            rows, peak = traced_peak(lambda: stratified_degrees(params, seeds=batch))
            assert rows.sum() > 0
            assert peak <= 8 * ranks + 8 * len(batch) * params.vertex_count + (1 << 20)


def _graph_distances(params: KroneckerParams, include_loops: bool, seeds) -> np.ndarray:
    """The edge-distance histograms of the graphs of the seeds, one row each."""
    return np.array(
        [
            edge_distance_histogram(generate_stratified(params, include_loops, seed=seed))
            for seed in seeds
        ],
        dtype=np.int64,
    ).reshape(len(seeds), params.n + 1)


@settings(max_examples=60, deadline=None)
@given(
    params=_bounded_params(),
    include_loops=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 4),
)
@example(params=KroneckerParams(0.9, 0.9, 0.9, 1), include_loops=True, seed=0, trials=3)
@example(params=KroneckerParams(0.6, 0.3, 0.6, 14), include_loops=False, seed=1, trials=2)
def test_stratified_distances_are_the_graph_histograms(params, include_loops, seed, trials):
    # Blocks of 7 ranks mix pair and loop classes, and trials, within one pass.
    seeds = [SeedSpec(seed).child("trial", t) for t in range(trials)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kronval.generate, "_UNRANK_BLOCK", 7)
        batch = stratified_distances(params, include_loops, seeds=seeds)
        single = [stratified_distances(params, include_loops, seeds=[s])[0] for s in seeds]
    assert batch.dtype == np.int64 and batch.shape == (trials, params.n + 1)
    assert np.array_equal(batch, np.array(single))
    assert np.array_equal(batch, _graph_distances(params, include_loops, seeds))
    assert include_loops or not batch[:, 0].any()


class TestStratifiedDistances:
    def test_refuses_over_the_budget_before_any_stream(self, monkeypatch):
        def derived(*args, **kwargs):
            raise AssertionError("a stream was derived")

        monkeypatch.setattr(SeedSpec, "generator", derived)
        p = KroneckerParams(0.99, 0.99, 0.99, 14)  # about 117M expected edges
        with pytest.raises(CapacityError, match="budget"):
            stratified_distances(p, seeds=[SeedSpec(1)])

    def test_unranked_vertices_are_range_checked(self, monkeypatch):
        def too_wide(n, a, b, ranks):
            u, v = _unrank_pairs(n, a, b, ranks)
            return u, v | (1 << n)

        monkeypatch.setattr(kronval.generate, "_unrank_pairs", too_wide)
        with pytest.raises(DimensionError, match="does not fit 6 digits"):
            stratified_distances(KroneckerParams(0.7, 0.5, 0.7, 6), seeds=[SeedSpec(1)] * 3)

    def test_one_trial_peaks_at_its_ranks(self):
        # No keys are packed, sorted or split into rows, and no rank is kept
        # past its pass: one gap round, fewer than _UNRANK_BLOCK held ranks
        # and one unranking pass, about 2.7 MB here, whatever the edge
        # count (8.5 MB when the ranks of the trial were held whole).  The
        # graph holds about 25 B per edge.
        p = KroneckerParams(0.6, 0.5, 0.6, 18)
        expected = expected_edge_count(p)
        rows, peak = traced_peak(lambda: stratified_distances(p, seeds=[SeedSpec(1)]))
        assert rows.sum() > 0.99 * expected
        assert peak <= 4 << 20
        hist, graph_peak = traced_peak(lambda: _graph_distances(p, True, [SeedSpec(1)]))
        assert np.array_equal(rows, hist)
        assert graph_peak > 20 * expected


def _oracle_pairs(params: KroneckerParams, include_loops: bool, seed, round_size: int) -> list:
    """(u, v) of every rank one trial draws, in draw order, one at a time:
    the (class, rank) of gap_ranks_oracle, each unranked by
    unrank_pair_oracle."""
    table = _class_table(params.n, include_loops)
    probs = _class_probabilities(params, table)
    drawn = gap_ranks_oracle(table.size, probs, table.families, seed, round_size)
    return [unrank_pair_oracle(params.n, int(table.a[i]), int(table.b[i]), r) for i, r in drawn]


class TestStream:
    """The sampler core hands its ranks out a block at a time, and every
    consumer reads each block as it arrives."""

    # Rounds of 5 steps end inside every 7-rank block of a trial, and a
    # block holds the last pairs and the first loops in some batch of each
    # grid point with loops; the default round and block hold each graph
    # of about 400 ranks whole.
    @pytest.mark.parametrize("round_size", [5, 64, None])
    @pytest.mark.parametrize("block", [7, None])
    @pytest.mark.parametrize("include_loops", [True, False])
    def test_consumers_match_the_one_at_a_time_oracle(
        self, monkeypatch, round_size, block, include_loops
    ):
        if round_size:
            monkeypatch.setattr(kronval.generate, "_GAP_ROUND", round_size)
        if block:
            monkeypatch.setattr(kronval.generate, "_UNRANK_BLOCK", block)
        params = KroneckerParams(0.9, 0.7, 0.7, 6)
        n = params.n
        table = _class_table(n, include_loops)
        split = False  # a block held both pairs and loops
        for trials in range(1, 5):
            seeds = [SeedSpec(4).child("trial", t) for t in range(trials)]
            drawn = [
                _oracle_pairs(params, include_loops, seed, kronval.generate._GAP_ROUND)
                for seed in seeds
            ]
            degrees = np.zeros((trials, 1 << n), dtype=np.int64)
            distances = np.zeros((trials, n + 1), dtype=np.int64)
            for t, pairs in enumerate(drawn):
                for u, v in pairs:
                    degrees[t, u] += 1
                    degrees[t, v] += u != v
                    distances[t, (u ^ v).bit_count()] += 1
            got = stratified_degrees(params, include_loops, seeds=seeds)
            assert np.array_equal(got, degrees)
            got = stratified_distances(params, include_loops, seeds=seeds)
            assert np.array_equal(got, distances)
            g = generate_stratified(params, include_loops, seed=seeds[-1])
            pairs = drawn[-1]
            assert g.edges.tolist() == sorted([min(u, v), max(u, v)] for u, v in pairs if u != v)
            assert g.loops.tolist() == sorted(u for u, v in pairs if u == v)
            blocks = list(_draw_ranks(params, table, *seeds))
            assert sum(len(ranks) for ranks, _ in blocks) == sum(map(len, drawn))
            assert block is None or len(blocks) > 2 * trials
            looped = [table.b[lanes % len(table.b)] == 0 for _, lanes in blocks]
            split |= any(loop.any() and not loop.all() for loop in looped)
        assert split == include_loops

    @pytest.mark.parametrize("include_loops", [True, False])
    def test_consumers_read_loops_anywhere_in_the_stream(self, monkeypatch, include_loops):
        # Every consumer knows a loop by lo == hi alone, so a stream that
        # hands out its blocks, and the ranks within each, in reverse order
        # gives the same degrees, histograms and graph.  Blocks of 7 then
        # put loops before pairs within one block.
        monkeypatch.setattr(kronval.generate, "_UNRANK_BLOCK", 7)
        params = KroneckerParams(0.9, 0.7, 0.7, 6)
        seeds = [SeedSpec(8).child("trial", t) for t in range(3)]
        calls = {
            "degrees": lambda: stratified_degrees(params, include_loops, seeds=seeds),
            "distances": lambda: stratified_distances(params, include_loops, seeds=seeds),
            "graph": lambda: generate_stratified(params, include_loops, seed=seeds[0]),
        }
        want = {name: call() for name, call in calls.items()}
        assert (len(want["graph"].loops) > 0) == include_loops
        loops_first = []  # per block read: a loop comes before a pair in it

        def reversed_stream(params, table, *seeds):
            for ranks, lanes in reversed(list(_draw_ranks(params, table, *seeds))):
                loop = table.b[lanes[::-1] % len(table.b)] == 0
                loops_first.append(bool((loop[:-1] & ~loop[1:]).any()))
                yield ranks[::-1], lanes[::-1]

        monkeypatch.setattr(kronval.generate, "_draw_ranks", reversed_stream)
        got = {name: call() for name, call in calls.items()}
        assert np.array_equal(got["degrees"], want["degrees"])
        assert np.array_equal(got["distances"], want["distances"])
        assert got["graph"] == want["graph"]
        assert any(loops_first) == include_loops

    @pytest.mark.parametrize("block", [7, None])
    def test_each_call_runs_one_pass_per_block(self, monkeypatch, block):
        # A batch of fewer ranks than a block pays one pass, and no call
        # pays a pass for a block it did not fill.
        if block:
            monkeypatch.setattr(kronval.generate, "_UNRANK_BLOCK", block)
        block = kronval.generate._UNRANK_BLOCK
        passes = []

        def counted(n, a, b, ranks):
            passes.append(len(ranks))
            return _unrank_pairs(n, a, b, ranks)

        monkeypatch.setattr(kronval.generate, "_unrank_pairs", counted)
        cases = [
            (KroneckerParams(0.7, 0.3, 0.3, 12), 15),  # about 2,000 ranks
            (KroneckerParams(0.8, 0.5, 0.1, 12), 12),  # about 13,000
            (KroneckerParams(0.9, 0.7, 0.7, 8), 1),  # about 3,400
        ]
        if block > 7:
            cases.append((KroneckerParams(0.6, 0.5, 0.6, 16), 1))  # about 150,000
        for params, trials in cases:
            seeds = [SeedSpec(2).child("trial", t) for t in range(trials)]
            table = _class_table(params.n, True)
            ranks = len(_collected(_draw_ranks(params, table, *seeds))[0])
            want = [block] * (ranks // block) + [ranks % block] * (ranks % block > 0)
            calls = [stratified_degrees, stratified_distances]
            if trials == 1:
                calls.append(lambda params, seeds: generate_stratified(params, seed=seeds[0]))
            for call in calls:
                passes.clear()
                call(params, seeds=seeds)
                assert passes == want
                assert len(passes) == -(-ranks // block)
