import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import kronval.generate
from kronval import (
    CapacityError,
    KroneckerParams,
    ParameterError,
    RmatParams,
    SampledGraph,
    SeedSpec,
    degree_histogram,
    edge_probability,
    expected_edge_count,
    generate_naive,
    generate_rmat,
    generate_stratified,
    pair_class,
    pair_classes,
    rmat_pairs,
)
from kronval.generate import (
    _COMB,
    _RANK_BATCH_MAX,
    RMAT_MAX_EDGES,
    STRATIFIED_MAX_N,
    _draw_sparse_run,
    _sample_distinct,
    _unrank_pairs,
)

from conftest import (
    CountingGenerator,
    lex_subset,
    sample_distinct_oracle,
    sparse_run_oracle,
    unrank_pair_oracle,
)


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


def test_stratified_per_class_inclusion_frequencies(monkeypatch):
    # At (0.9, 0.7, 0.7), n = 8, the pair classes take all three rank routes:
    # (6, 1, 1), (6, 2, 0) and (7, 1, 0) are dense (4k >= size), (2, 4, 2),
    # (2, 5, 1), (3, 3, 2) and (3, 4, 1) hold over _RANK_BATCH_MAX edges, and
    # the rest draw in batched runs, (4, 3, 1) refilling in about 2 of 5.
    p = KroneckerParams(alpha=0.9, beta=0.7, gamma=0.7, n=8)
    trials = 200
    routes = collections.Counter()
    sample_distinct, sparse_run = kronval.generate._sample_distinct, _draw_sparse_run

    def alone(rng, size, k):
        routes["dense" if 4 * k >= size else "large"] += 1
        return sample_distinct(rng, size, k)

    def batched(rng, sizes, counts, starts):
        routes["batched"] += 1
        return sparse_run(rng, sizes, counts, starts)

    monkeypatch.setattr(kronval.generate, "_sample_distinct", alone)
    monkeypatch.setattr(kronval.generate, "_draw_sparse_run", batched)
    # Every pair u < v of batched class (1, 2, 5), 336 pairs, as u << 8 | v.
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
    assert routes["dense"] and routes["large"] and routes["batched"]
    for a, b, c, size in pair_classes(8):
        prob = p.alpha**a * p.beta**b * p.gamma**c
        draws = trials * size
        sigma = math.sqrt(draws * prob * (1 - prob))
        assert abs(class_hits[a, b] - draws * prob) <= 3 * sigma + 1e-9, (a, b, c)
    # Within the class every pair is equally likely.
    assert len(watched) == 336 and watched_hits.sum() == class_hits[1, 2]
    assert chisquare(watched_hits).pvalue > 1e-4


def test_refilled_class_keeps_a_uniform_subset():
    # 256 + 16 draws from 1025 ranks repeat about 34 times, so this class
    # at the batch bound almost always draws again; keep the runs that did.
    size, k = 1025, _RANK_BATCH_MAX
    hits = np.zeros(size, dtype=np.int64)
    refilled = 0
    for seed in range(1000):
        calls = []
        rng = CountingGenerator(np.random.default_rng(seed), calls)
        ranks = _draw_sparse_run(rng, np.array([size]), np.array([k]), np.array([0]))
        assert len(np.unique(ranks)) == k
        if len(calls) > 1:
            refilled += 1
            hits[ranks] += 1
    assert refilled > 900
    assert chisquare(hits).pvalue > 1e-4


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
    # One binomial call per family and one integers call per run of small
    # sparse classes, not two calls for each of the 78 pair and 13 loop
    # classes at n = 12.
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
    assert calls["class"][0] == "binomial" and calls["loop_class"][0] == "binomial"
    assert sum(map(len, calls.values())) <= 6, calls


def test_array_binomial_equals_scalar_calls():
    # The stratified sampler's one call per family yields the counts one
    # scalar call per class, in class order, would.
    sizes = np.array([1, 12, 336, 50688, 1 << 40, (1 << 59) - 1], dtype=np.int64)
    probs = np.array([0.069, 0.5, 0.0741, 2e-3, 1e-9, 3e-17])
    batch, scalar = np.random.default_rng(7), np.random.default_rng(7)
    counts = batch.binomial(sizes, probs)
    assert counts.tolist() == [int(scalar.binomial(int(n), float(q))) for n, q in zip(sizes, probs)]
    assert batch.bit_generator.state == scalar.bit_generator.state


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
        from kronval.generate import _RMAT_SUBBLOCK

        r = RmatParams(base=KroneckerParams(0.57, 0.19, 0.05, n), m=_RMAT_SUBBLOCK + 5)
        x = SeedSpec(14).child("pairs", 0).generator().random((r.m, n))
        u_bits = x < 0.57 + 0.19
        v_bits = (x < 0.57) | ((x >= 0.57 + 0.19) & (x < 0.57 + 2 * 0.19))
        powers = np.int64(1) << np.arange(n, dtype=np.int64)
        u, v = rmat_pairs(r, seed=SeedSpec(14))
        assert np.array_equal(u, u_bits.astype(np.int64) @ powers)
        assert np.array_equal(v, v_bits.astype(np.int64) @ powers)

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
        monkeypatch.setattr(gen, "_sample_distinct", sampled)
        p = KroneckerParams(0.99, 0.99, 0.99, 14)  # about 117M expected edges
        assert expected_edge_count(p) > gen.DEFAULT_EDGE_BUDGET
        with pytest.raises(CapacityError, match="budget"):
            generate_stratified(p, seed=SeedSpec(1))


def _class_size(n: int, a: int, b: int) -> int:
    """Pairs of digit class (a, b); class (w, 0) is the C(n, w) loops."""
    return math.comb(n, a) * math.comb(n - a, b) << max(b - 1, 0)


@st.composite
def _class_ranks(draw, n: int):
    a = draw(st.integers(0, n))
    b = draw(st.integers(0, n - a))
    return a, b, draw(st.integers(0, _class_size(n, a, b) - 1))


@st.composite
def _sparse_runs(draw):
    """(sizes, counts) of a run of sparse classes: 4k < size, k <= the bound."""
    sizes = draw(st.lists(st.one_of(st.integers(1, 2000), st.integers(1, 1 << 58)), max_size=8))
    counts = [draw(st.integers(0, min(_RANK_BATCH_MAX, (s - 1) // 4))) for s in sizes]
    return sizes, counts


class TestSparseRun:
    @settings(max_examples=150, deadline=None)
    @given(run=_sparse_runs(), seed=st.integers(0, 2**32 - 1))
    # At the bound, refilled (test_refilled_class_keeps_a_uniform_subset).
    @example(run=([1025], [_RANK_BATCH_MAX]), seed=0)
    @example(run=([7, 100, 3, 1 << 58], [0, 5, 0, 0]), seed=1)  # zero counts draw nothing
    @example(run=([900, 41, 1025, 5], [200, 10, 256, 1]), seed=2)  # refills amid others
    def test_matches_per_class_oracle(self, run, seed):
        sizes, counts = (np.array(column, dtype=np.int64) for column in run)
        starts = np.cumsum(sizes) - sizes
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_sparse_run(rng, sizes, counts, starts)
        want = sparse_run_oracle(oracle_rng, sizes, counts)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        # the same draws were made: both generators end in the same state
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


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

    def test_walk_fits_int32_lanes(self):
        # The walk's ranks are below the largest C(i, j) it can read, its
        # orientations and vertices below 2^STRATIFIED_MAX_N; raising the
        # cap past 30 must fail here rather than wrap.
        assert STRATIFIED_MAX_N <= 30
        table = [
            [math.comb(i, j) for j in range(STRATIFIED_MAX_N + 2)]
            for i in range(STRATIFIED_MAX_N + 1)
        ]
        assert max(map(max, table)) < 1 << 31
        assert _COMB.dtype == np.int32
        assert _COMB[:-1].tolist() == table and not _COMB[-1].any()

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


class TestSampleDistinct:
    @settings(max_examples=150, deadline=None)
    @given(
        case=st.integers(4, 10_000).flatmap(
            lambda size: st.tuples(st.just(size), st.integers(0, size // 4 - 1))
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(case=(10_000, 2_499), seed=0)  # 292 repeats in the first 2,515 draws: refills
    @example(case=(4, 0), seed=1)
    @example(case=(1 << 40, 5_000), seed=2)  # no repeat at all
    def test_matches_unique_oracle(self, case, seed):
        size, k = case
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_distinct(rng, size, k)
        want = sample_distinct_oracle(oracle_rng, size, k)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        # the same draws were made: both generators end in the same state
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
