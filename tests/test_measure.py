import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronval.measure
from kronval.measure import _count_backtracking
from kronval import (
    CapacityError,
    KroneckerParams,
    ParameterError,
    SampledGraph,
    SeedSpec,
    concentration_report,
    count_labeled_copies,
    critical_fraction,
    cycle,
    degree_moments,
    edge_distance_histogram,
    expected_copies_exact,
    extremal_edge_scan,
    generate_naive,
    generate_stratified,
    hamming,
    neighbor_hamming_histogram,
    parse_pattern,
    path,
    star,
)
from conftest import falling_factorial


def complete_graph(params, vertices):
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    return SampledGraph.from_pairs(params, pairs)


class TestCountLabeledCopies:
    def test_single_edge_counts_orientations(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 4)
        g = SampledGraph.from_pairs(p, [(0, 1), (2, 5), (7, 9), (3, 3)])
        assert count_labeled_copies(g, star(1)) == 6
        assert count_labeled_copies(g, star(1)) // 2 == len(g.edges)

    def test_triangle_in_complete_host(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 3)
        g = complete_graph(p, [0, 1, 2, 3])
        assert count_labeled_copies(g, cycle(3)) == 24

    def test_loops_never_participate(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 3)
        g = SampledGraph.from_pairs(p, [(0, 1), (0, 0), (1, 1)])
        assert count_labeled_copies(g, path(2)) == 0
        assert count_labeled_copies(g, star(1)) == 2

    def test_shortcuts_match_generic(self):
        p = KroneckerParams(0.55, 0.45, 0.35, 7)
        hosts = [
            generate_stratified(p, include_loops=True, seed=SeedSpec(19)),
            generate_stratified(
                KroneckerParams(0.9, 0.6, 0.4, 6), include_loops=True, seed=SeedSpec(3)
            ),
            complete_graph(p, [0, 1, 2, 5, 9]),
            SampledGraph.from_pairs(
                p, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 1), (7, 7), (0, 0), (3, 3)]
            ),
            SampledGraph.from_pairs(p, [(0, 0), (5, 5), (6, 6)]),
            SampledGraph.from_pairs(p, [], include_loops=False),
        ]
        patterns = (
            star(1), star(2), star(3), cycle(3), cycle(4), path(3),
            # C4 and P3 in the numeric format, with their vertices relabelled
            parse_pattern("4\n0 2\n2 1\n1 3\n3 0\n"),
            parse_pattern("4\n2 0\n0 3\n3 1\n"),
        )
        for g in hosts:
            for pattern in patterns:
                auto = count_labeled_copies(g, pattern)
                assert auto == _count_backtracking(g, pattern)
        assert count_labeled_copies(hosts[1], cycle(4)) > 0
        assert count_labeled_copies(hosts[1], path(3)) > 0

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=6),
    )
    def test_kernels_match_generic_on_random_pairs(self, data, n):
        vertex = st.integers(min_value=0, max_value=(1 << n) - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=60))
        g = SampledGraph.from_pairs(KroneckerParams(0.6, 0.4, 0.3, n), pairs)
        for pattern in (cycle(3), cycle(4), path(3)):
            assert count_labeled_copies(g, pattern) == _count_backtracking(g, pattern)

    def test_counts_do_not_depend_on_block_size(self, monkeypatch):
        p = KroneckerParams(0.7, 0.5, 0.7, 8)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(5))
        patterns = (cycle(3), cycle(4), path(3))
        wide = [count_labeled_copies(g, pattern) for pattern in patterns]
        monkeypatch.setattr(kronval.measure, "_WEDGE_BLOCK", 1)
        assert [count_labeled_copies(g, pattern) for pattern in patterns] == wide

    def test_kernel_routes_build_no_neighbor_sets(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 8)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(7))
        for pattern in (star(2), cycle(3), cycle(4), path(3)):
            count_labeled_copies(g, pattern)
        assert "neighbor_sets" not in g.__dict__
        count_labeled_copies(g, cycle(5))
        assert "neighbor_sets" in g.__dict__

    def test_kernel_count_beyond_backtracking_cap(self):
        # K_{2,m} on Z_2^15: C4 has 8 automorphisms and K_{2,m} holds
        # binom(m, 2) of them, so 4 m (m - 1) labeled copies
        p = KroneckerParams(0.6, 0.4, 0.3, 15)
        m = 300
        leaves = np.arange(1, m + 1)
        hubs = np.repeat([0, (1 << 15) - 1], m)
        g = SampledGraph.from_pairs(p, hubs, np.tile(leaves, 2))
        assert count_labeled_copies(g, cycle(4)) == 4 * m * (m - 1)
        with pytest.raises(CapacityError):
            count_labeled_copies(g, cycle(5))

    def test_star_shortcut_is_falling_factorial(self):
        p = KroneckerParams(0.55, 0.45, 0.35, 6)
        g = generate_stratified(p, include_loops=False, seed=SeedSpec(23))
        degrees = g.degrees(count_loops=False)
        for k in (1, 2, 3):
            expected = sum(falling_factorial(int(d), k) for d in degrees)
            assert count_labeled_copies(g, star(k)) == expected

    def test_star_count_beyond_int64(self):
        from kronval.measure import _count_star

        # one hub joined to every other vertex of Z_2^17
        p = KroneckerParams(0.6, 0.4, 0.3, 17)
        leaves = np.arange(1, 1 << 17)
        g = SampledGraph.from_pairs(p, np.zeros_like(leaves), leaves)
        expected = falling_factorial((1 << 17) - 1, 4)
        assert expected > 2**63
        assert _count_star(g, 4) == expected
        assert _count_star(g, 1) == 2 * len(leaves)

    def test_path_count_by_hand(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 3)
        g = SampledGraph.from_pairs(p, [(0, 1), (1, 2), (1, 3)])
        # middle vertex 1 has degree 3: ordered pairs of distinct neighbors
        assert count_labeled_copies(g, path(2)) == 6

    def test_monte_carlo_mean_matches_exact(self):
        p = KroneckerParams(0.6, 0.45, 0.35, 4)
        trials = 250
        patterns = {"edge": star(1), "path2": path(2), "triangle": cycle(3)}
        counts = {name: np.zeros(trials) for name in patterns}
        for t in range(trials):
            g = generate_naive(p, include_loops=True, seed=SeedSpec(29).child("t", t))
            for name, pattern in patterns.items():
                counts[name][t] = count_labeled_copies(g, pattern)
        for name, pattern in patterns.items():
            exact = expected_copies_exact(p, pattern)
            sample = counts[name]
            se = max(sample.std(ddof=1) / math.sqrt(trials), 1e-9)
            assert abs(sample.mean() - exact) <= 4 * se, name

    def test_capacity_guards(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 3)
        g = SampledGraph.from_pairs(p, [(0, 1)])
        with pytest.raises(CapacityError):
            count_labeled_copies(g, path(5))  # six pattern vertices


class TestNeighborHistogram:
    def test_isolated_vertex(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 4)
        g = SampledGraph.from_pairs(p, [(1, 2)])
        assert neighbor_hamming_histogram(g, 0).sum() == 0

    def test_loop_counts_at_zero(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 4)
        g = SampledGraph.from_pairs(p, [(5, 5)])
        hist = neighbor_hamming_histogram(g, 5)
        assert hist[0] == 1 and hist.sum() == 1

    def test_sums_to_degree_and_double_counts_edges(self):
        p = KroneckerParams(0.6, 0.4, 0.4, 6)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(31))
        degrees = g.degrees(count_loops=True)
        totals = np.zeros(7, dtype=np.int64)
        for u in range(64):
            hist = neighbor_hamming_histogram(g, u)
            assert hist.sum() == degrees[u]
            totals += hist
        edge_hist = edge_distance_histogram(g)
        for k in range(1, 7):
            assert totals[k] == 2 * edge_hist[k]
        assert totals[0] == edge_hist[0] == len(g.loops)

    def test_matches_neighbor_set_definition(self):
        # reference: neighbors from a plain loop over the edges, then distances
        for n, seed in ((4, 1), (6, 2), (7, 3)):
            p = KroneckerParams(0.6, 0.5, 0.4, n)
            g = generate_stratified(p, include_loops=True, seed=SeedSpec(seed))
            neighbors = [set() for _ in range(1 << n)]
            for u, v in g.edges.tolist():
                neighbors[u].add(v)
                neighbors[v].add(u)
            loops = set(g.loops.tolist())
            for u in range(1 << n):
                expected = np.zeros(n + 1, dtype=np.int64)
                for w in neighbors[u]:
                    expected[hamming(u, w)] += 1
                expected[0] += u in loops
                assert np.array_equal(neighbor_hamming_histogram(g, u), expected)


class TestConcentrationReport:
    def test_gates(self):
        p_bad = KroneckerParams(0.7, 0.5, 0.6, 6)
        g = generate_stratified(p_bad, seed=SeedSpec(1))
        with pytest.raises(ParameterError):
            concentration_report(g)
        p_sparse = KroneckerParams(0.4, 0.5, 0.4, 6)
        with pytest.raises(ParameterError):
            concentration_report(generate_stratified(p_sparse, seed=SeedSpec(1)))

    def test_window_and_degree_fields(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 10)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(37))
        report = concentration_report(g)
        assert report.window_center == pytest.approx(0.5 * 10 / 1.2)
        assert report.expected_degree == pytest.approx(1.2**10)
        assert report.degree_min <= report.degree_mean <= report.degree_max
        assert 0.95 <= report.in_window_edge_fraction <= 1.0
        assert report.include_loops is True
        hist = edge_distance_histogram(g)
        assert report.distance_histogram == tuple(hist.tolist())
        assert report.distance_histogram[0] == len(g.loops) > 0

    def test_symmetric_window_center(self):
        p = KroneckerParams(0.6, 0.6, 0.6, 8)
        g = generate_stratified(p, seed=SeedSpec(41))
        report = concentration_report(g)
        assert report.window_center == pytest.approx(4.0)  # beta/(alpha+beta) = 1/2


class TestExtremalScan:
    def test_low_alpha_side(self):
        p = KroneckerParams(0.4, 0.7, 0.4, 12)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(43))
        scan = extremal_edge_scan(g)
        assert scan.side == "below"
        assert scan.cutoff == pytest.approx(critical_fraction(p).c * 12)
        assert scan.offending == ()
        assert scan.min_distance >= 1  # loops are not edges

    def test_low_beta_mirror_side(self):
        p = KroneckerParams(0.7, 0.4, 0.7, 12)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(47))
        scan = extremal_edge_scan(g)
        assert scan.side == "above"
        # offending edges are exactly those beyond the cutoff
        assert all(
            bin(u ^ v).count("1") > scan.cutoff for u, v in scan.offending
        )

    def test_gate_requires_small_entry(self):
        p = KroneckerParams(0.6, 0.6, 0.6, 8)
        g = generate_stratified(p, seed=SeedSpec(53))
        with pytest.raises(ParameterError):
            extremal_edge_scan(g)


class TestDegreeNormalization:
    def test_standardized_degree_of_heaviest_vertex(self):
        # degree of the all-ones vertex, standardized by the closed-form
        # mean and variance, should have mean ~0 and variance ~1
        p = KroneckerParams(0.8, 0.5, 0.1, 12)
        trials = 2000
        target = (1 << 12) - 1
        moments = degree_moments(p, 12)
        values = np.zeros(trials)
        for t in range(trials):
            g = generate_stratified(p, include_loops=True, seed=SeedSpec(59).child("t", t))
            values[t] = g.degrees(count_loops=True)[target]
        standardized = (values - moments.mean) / math.sqrt(moments.variance)
        assert abs(standardized.mean()) < 0.1
        assert abs(standardized.var(ddof=1) - 1.0) < 0.15
