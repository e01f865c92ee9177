import itertools
import math
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronval.measure
from kronval.measure import _count_backtracking, star_arms, star_count
from kronval.patterns import PatternGraph
from kronval import (
    CapacityError,
    KroneckerParams,
    ParameterError,
    SampledGraph,
    SeedSpec,
    concentration_report,
    count_labeled_copies,
    cycle,
    degree_moments,
    edge_distance_histogram,
    expected_copies_exact,
    generate_naive,
    generate_stratified,
    neighbor_hamming_histogram,
    parse_pattern,
    path,
    star,
)
from conftest import (
    falling_factorial,
    from_networkx,
    sparse_cycle4_count,
    sparse_triangle_count,
    traced_peak,
)


def brute_labeled_copies(graph, pattern) -> int:
    """Injective edge-preserving maps, one per tuple of distinct host
    vertices; tiny hosts only."""
    host = {(int(u), int(v)) for u, v in graph.edges}
    host |= {(v, u) for u, v in host}
    return sum(
        all((image[u], image[v]) in host for u, v in pattern.edge_list)
        for image in itertools.permutations(range(graph.vertex_count), pattern.vertex_count)
    )


def complete_graph(params, vertices):
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    return SampledGraph.from_pairs(params, pairs)


def ring(vertices):
    return list(zip(vertices, vertices[1:] + vertices[:1]))


# Hosts on Z_2^5 where the kernels' (degree, index) order decides which
# vertex a copy is counted at: hubs above low-degree leaves (the wheel's hub
# has the lowest index and the highest degree), every degree tied, mostly
# isolated vertices, and loops on the hubs and leaves alike.
ORDER_HOSTS = {
    "star": [(0, v) for v in range(1, 20)],
    "k2m": [(hub, v) for hub in (3, 30) for v in range(5, 25)],
    "hub-ring": [(0, v) for v in range(1, 13)] + ring(list(range(1, 13))),
    "cycle": ring(list(range(32))),
    "k8": [(u, v) for u in range(8) for v in range(u + 1, 8)],
    "isolated": [(2, 9), (9, 17), (17, 2), (20, 21), (21, 22), (22, 23), (23, 20), (23, 29)],
    "loops": [(v, v) for v in range(0, 32, 3)]
    + [(0, v) for v in range(1, 9)]
    + ring(list(range(4, 12)))
    + [(1, 2), (2, 3)],
}


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

    @pytest.mark.parametrize("block", [1, kronval.measure._WEDGE_BLOCK])
    @pytest.mark.parametrize("host", sorted(ORDER_HOSTS))
    def test_kernels_match_backtracking_where_degree_order_matters(
        self, monkeypatch, host, block
    ):
        monkeypatch.setattr(kronval.measure, "_WEDGE_BLOCK", block)
        g = SampledGraph.from_pairs(KroneckerParams(0.6, 0.4, 0.3, 5), ORDER_HOSTS[host])
        for pattern in (star(2), cycle(3), cycle(4), path(3)):
            assert count_labeled_copies(g, pattern) == _count_backtracking(g, pattern)

    def test_cycle4_widens_past_int32(self):
        # K_{2,m} on Z_2^16: the hub pair shares m leaves, and
        # m (m - 1) = 2,147,534,622 passes 2^31 - 1
        p = KroneckerParams(0.6, 0.4, 0.3, 16)
        m = 46_342
        assert m * (m - 1) > 2**31 - 1
        leaves = np.arange(1, m + 1)
        hubs = np.repeat([0, (1 << 16) - 1], m)
        g = SampledGraph.from_pairs(p, hubs, np.tile(leaves, 2))
        assert count_labeled_copies(g, cycle(4)) == 4 * m * (m - 1)

    def test_kernel_routes_build_no_neighbor_sets(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 8)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(7))
        for pattern in (star(2), cycle(3), cycle(4), path(3)):
            count_labeled_copies(g, pattern)
        assert "neighbor_sets" not in g.__dict__
        count_labeled_copies(g, cycle(5))
        assert "neighbor_sets" in g.__dict__

    @pytest.mark.parametrize("pattern", [cycle(3), cycle(4), path(3)], ids=["C3", "C4", "P3"])
    def test_kernel_routes_take_one_degree_pass(self, monkeypatch, pattern):
        g = generate_stratified(KroneckerParams(0.7, 0.5, 0.7, 8), seed=SeedSpec(7))
        expected = _count_backtracking(g, pattern)
        calls = []
        degrees = SampledGraph.degrees

        def counted(graph, *args, **kwargs):
            calls.append(graph)
            return degrees(graph, *args, **kwargs)

        monkeypatch.setattr(SampledGraph, "degrees", counted)
        assert count_labeled_copies(g, pattern) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("host", ["n13", "n16", "k2m"])
    def test_kernels_match_the_sparse_products(self, stratified_n16, host):
        # sizes backtracking cannot reach; K_{2,m}'s hub pair shares all m
        # leaves, past int32 once c (c - 1) is formed
        if host == "n13":
            g = generate_stratified(KroneckerParams(0.7, 0.5, 0.7, 13), seed=SeedSpec(1))
        elif host == "n16":
            g = stratified_n16
        else:
            m = 46_342
            hubs = np.repeat([0, (1 << 16) - 1], m)
            g = SampledGraph.from_pairs(
                KroneckerParams(0.6, 0.4, 0.3, 16), hubs, np.tile(np.arange(1, m + 1), 2)
            )
        assert count_labeled_copies(g, cycle(3)) == sparse_triangle_count(g)
        assert count_labeled_copies(g, cycle(4)) == sparse_cycle4_count(g)

    @pytest.mark.parametrize("pattern", [cycle(3), cycle(4)], ids=["C3", "C4"])
    def test_wedge_blocks_bound_memory(self, monkeypatch, stratified_n16, pattern):
        # blocks of 64 2-paths must peak below one unblocked pass over all
        # of them; the blocked pass runs first, so one-time allocations
        # would count against it
        monkeypatch.setattr(kronval.measure, "_WEDGE_BLOCK", 64)
        count, blocked = traced_peak(lambda: count_labeled_copies(stratified_n16, pattern))
        monkeypatch.setattr(kronval.measure, "_WEDGE_BLOCK", 1 << 62)
        whole, unblocked = traced_peak(lambda: count_labeled_copies(stratified_n16, pattern))
        assert count == whole > 0
        assert blocked < unblocked

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
        assert star_count(g.degrees(count_loops=False), 4) == expected

    def test_star_arms_name_the_star_route(self):
        # Stars under any labelling, the single edge and path:2 among them;
        # a star with an isolated vertex, and non-stars, are not.
        for text, arms in [("star:1", 1), ("star:4", 4), ("path:2", 2), ("path:1", 1),
                           ("cycle:3", None), ("path:3", None), ("cycle:4", None)]:
            assert star_arms(parse_pattern(text)) == arms, text
        assert star_arms(PatternGraph.from_edges(4, [(2, 0), (2, 3)])) is None
        assert star_arms(PatternGraph.from_edges(3, [(2, 0), (2, 1)])) == 2

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

    def test_atlas_patterns_match_backtracking_and_brute_force(self):
        # every graph of 1-5 vertices: the degree-sequence routes, the
        # disconnected shapes and the isolated vertices
        patterns = [from_networkx(g) for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 5]
        small = [
            generate_stratified(
                KroneckerParams(0.9, 0.7, 0.5, n), include_loops=True, seed=SeedSpec(n)
            )
            for n in (1, 2, 3)
        ]
        small.append(complete_graph(KroneckerParams(0.6, 0.4, 0.3, 3), [0, 1, 2, 3, 5, 6]))
        larger = generate_stratified(
            KroneckerParams(0.9, 0.6, 0.4, 6), include_loops=True, seed=SeedSpec(3)
        )
        for pattern in patterns:
            for g in small:
                count = count_labeled_copies(g, pattern)
                assert count == _count_backtracking(g, pattern) == brute_labeled_copies(g, pattern)
            assert count_labeled_copies(larger, pattern) == _count_backtracking(larger, pattern)

    def test_isolated_vertices_are_counted_not_walked(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 10)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(1))
        start = time.perf_counter()
        assert count_labeled_copies(g, parse_pattern("3\n")) == 1024 * 1023 * 1022
        edge_and_two = count_labeled_copies(g, parse_pattern("4\n0 1\n"))
        # a full walk takes about 1024^3 steps
        assert time.perf_counter() - start < 1.0
        assert edge_and_two == 2 * len(g.edges) * 1022 * 1021


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

    def test_refuses_non_integer_vertices(self):
        # 1.5 would be searched between the rows of vertices 1 and 2 and get
        # a profile no vertex has
        p = KroneckerParams(0.6, 0.4, 0.3, 3)
        g = SampledGraph.from_pairs(p, [(0, 1), (1, 2), (2, 4), (2, 7)])
        assert neighbor_hamming_histogram(g, 1).tolist() == [0, 1, 1, 0]
        assert neighbor_hamming_histogram(g, np.int64(1)).tolist() == [0, 1, 1, 0]
        for u in (1.5, 1.0, "1"):
            with pytest.raises(ParameterError):
                neighbor_hamming_histogram(g, u)

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
                    expected[bin(u ^ w).count("1")] += 1
                expected[0] += u in loops
                assert np.array_equal(neighbor_hamming_histogram(g, u), expected)


class TestEdgeDistances:
    def test_histogram_does_not_copy_the_edges(self, stratified_n16):
        # One int64 distance per edge, half the (E, 2) array's bytes.
        g = stratified_n16
        want = np.bincount(np.bitwise_count(g.edges[:, 0] ^ g.edges[:, 1]), minlength=g.n + 1)
        want[0] += len(g.loops)
        hist, peak = traced_peak(lambda: edge_distance_histogram(g))
        assert np.array_equal(hist, want)
        assert peak < g.edges.nbytes

    def test_empty_graph(self):
        p = KroneckerParams(0.4, 0.7, 0.4, 5)
        g = SampledGraph.from_pairs(p, [(3, 3)])
        assert edge_distance_histogram(g).tolist() == [1, 0, 0, 0, 0, 0]


def _report(graph):
    """The concentration report of a graph, from its edge-distance histogram."""
    return concentration_report(graph.params, edge_distance_histogram(graph), graph.include_loops)


class TestConcentrationReport:
    def test_gates(self):
        p_bad = KroneckerParams(0.7, 0.5, 0.6, 6)
        g = generate_stratified(p_bad, seed=SeedSpec(1))
        with pytest.raises(ParameterError):
            _report(g)
        p_sparse = KroneckerParams(0.4, 0.5, 0.4, 6)
        with pytest.raises(ParameterError):
            _report(generate_stratified(p_sparse, seed=SeedSpec(1)))

    def test_histogram_shape_and_loops_are_checked(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 4)
        for hist in ([1, 2, 3, 4], [1, 2, 3, 4, 5, 6], [0.0, 1.0, 2.0, 0.0, 0.0]):
            with pytest.raises(ParameterError, match="n \\+ 1 = 5 integer counts"):
                concentration_report(p, hist, True)
        with pytest.raises(ParameterError, match="loop-free"):
            concentration_report(p, [1, 2, 3, 0, 0], False)
        report = concentration_report(p, [0, 2, 3, 0, 0], False)
        assert (report.edge_count, report.loop_count, report.include_loops) == (5, 0, False)

    def test_window_and_degree_fields(self):
        p = KroneckerParams(0.7, 0.5, 0.7, 10)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(37))
        report = _report(g)
        assert report.window_center == pytest.approx(0.5 * 10 / 1.2)
        assert report.expected_degree == pytest.approx(1.2**10)
        degrees = g.degrees(count_loops=True)
        assert report.degree_mean == degrees.mean()
        assert degrees.min() <= report.degree_mean <= degrees.max()
        assert 0.95 <= report.in_window_edge_fraction <= 1.0
        assert report.include_loops is True
        hist = edge_distance_histogram(g)
        assert report.distance_histogram == tuple(hist.tolist())
        assert report.distance_histogram[0] == report.loop_count == len(g.loops) > 0
        assert report.edge_count == len(g.edges)
        distances = np.bitwise_count(g.edges[:, 0] ^ g.edges[:, 1])
        assert report.mean_edge_distance == distances.sum() / (len(g.edges) + len(g.loops))

    def test_report_allocates_no_vertex_array(self, stratified_n16):
        # The report reads only the n + 1 counts of the histogram.
        g = stratified_n16
        hist = edge_distance_histogram(g)
        report, peak = traced_peak(lambda: concentration_report(g.params, hist, True))
        assert report.distance_histogram == tuple(hist.tolist())
        assert peak < g.vertex_count

    def test_no_edges_read_nan(self):
        report = concentration_report(KroneckerParams(0.7, 0.5, 0.7, 3), [0] * 4, True)
        assert report.degree_mean == 0.0 and report.edge_count == 0
        assert math.isnan(report.in_window_edge_fraction)
        assert math.isnan(report.mean_edge_distance)

    def test_symmetric_window_center(self):
        p = KroneckerParams(0.6, 0.6, 0.6, 8)
        g = generate_stratified(p, seed=SeedSpec(41))
        report = _report(g)
        assert report.window_center == pytest.approx(4.0)  # beta/(alpha+beta) = 1/2


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
