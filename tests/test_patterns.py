import collections
import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kronval.patterns
from kronval import (
    CapacityError,
    KroneckerParams,
    ParameterError,
    PatternGraph,
    UnionPattern,
    base_value,
    cycle,
    cycle_base_value,
    enumerate_pair_unions,
    expected_copies_asymptotic,
    expected_copies_exact,
    overlap_cycle_base_value,
    overlap_cycles,
    parse_pattern,
    path,
    second_moment_certificate,
    star,
    star_base_value,
    tree_base_value,
)
from kronval.cli import main
from kronval.patterns import (
    _isomorphic,
    _isomorphisms,
    _iso_bucket_key,
    _labeling_sum,
    _log_base_value,
)
from conftest import (
    PARAM_GRID,
    SYMMETRIC_GRID,
    base_value_from_edge_labelings,
    brute_base_value,
    brute_expected_copies,
    edge_labeling_from_vertex_labeling,
    from_networkx,
    identify_vertices,
    relabel,
    to_networkx,
    valid_edge_labelings,
)


def nonisomorphic_trees(max_vertices):
    for v in range(2, max_vertices + 1):
        for tree in nx.nonisomorphic_trees(v):
            yield PatternGraph.from_edges(v, tree.edges())


class TestPatternGraph:
    def test_rejects_loops_and_bad_indices(self):
        with pytest.raises(ParameterError):
            PatternGraph.from_edges(3, [(1, 1)])
        with pytest.raises(ParameterError):
            PatternGraph.from_edges(3, [(0, 3)])

    def test_builders(self):
        assert star(3).edge_list == ((0, 1), (0, 2), (0, 3))
        assert cycle(3).edge_list == ((0, 1), (0, 2), (1, 2))
        assert path(2).edge_list == ((0, 1), (1, 2))
        assert path(2).vertex_count == 3

    def test_parse_named_and_numeric(self):
        assert parse_pattern("star:4") == star(4)
        assert parse_pattern("cycle:5") == cycle(5)
        assert parse_pattern("path:3") == path(3)
        numeric = parse_pattern("3\n0 1\n1 2\n")
        assert numeric == path(2)
        with pytest.raises(ParameterError):
            parse_pattern("blob:3")
        with pytest.raises(ParameterError):
            parse_pattern("3\n0 1 2\n")

    def test_oversized_patterns_are_refused_before_they_are_built(self, monkeypatch):
        import kronval.patterns

        def no_build(*args, **kwargs):
            raise AssertionError("an oversized pattern was built")

        for name in ("star", "cycle", "path"):
            monkeypatch.setattr(kronval.patterns, name, no_build)
        monkeypatch.setattr(kronval.patterns.PatternGraph, "from_edges", no_build)
        for text in ("cycle:999999999999", "cycle:11", "star:10", "path:10", "11\n0 1\n"):
            with pytest.raises(ParameterError, match="at most 10 vertices"):
                parse_pattern(text)

    def test_connectivity(self):
        assert cycle(4).is_connected()
        assert not PatternGraph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
        assert not PatternGraph.from_edges(3, [(0, 1)]).is_connected()  # isolated 2

    def test_masks_are_the_stored_form(self):
        assert cycle(4) == PatternGraph((0b1010, 0b0101, 0b1010, 0b0101))
        assert PatternGraph((0,)).is_connected()
        assert PatternGraph((0,)).edge_list == ()

    @pytest.mark.parametrize(
        "masks, message",
        [
            ((), "1..12 vertices"),
            ((0,) * 13, "1..12 vertices"),
            ((0b1000, 0, 0), "bit at or above 3"),
            ((-1, 0), "bit at or above 2"),
            ((0b01, 0b00), "own bit"),
            ((0b10, 0b00), "disagree"),
            ((0b110, 0b001, 0b000), "disagree"),
        ],
    )
    def test_refuses_masks_that_are_not_a_simple_graph(self, masks, message):
        with pytest.raises(ParameterError, match=message):
            PatternGraph(masks)

    def test_agrees_with_networkx_on_the_atlas(self):
        rng = random.Random(5)
        patterns, edge_sets = [], []
        for g in nx.graph_atlas_g():
            v = g.number_of_nodes()
            if not 1 <= v <= 6:
                continue
            for _ in range(2):
                images = list(range(v))
                rng.shuffle(images)
                h = nx.relabel_nodes(g, dict(enumerate(images)))
                pattern = PatternGraph.from_edges(v, h.edges())
                assert pattern.vertex_count == v
                assert pattern.edge_list == tuple(sorted(tuple(sorted(e)) for e in h.edges()))
                assert pattern.degrees == tuple(h.degree(u) for u in range(v))
                assert pattern.edge_count == h.number_of_edges()
                assert pattern.is_connected() == nx.is_connected(h)
                patterns.append(pattern)
                edge_sets.append((v, frozenset(frozenset(e) for e in h.edges())))
        for (a, a_edges), (b, b_edges) in itertools.product(zip(patterns, edge_sets), repeat=2):
            assert (a == b) == (a_edges == b_edges)
            if a == b:
                assert hash(a) == hash(b)


def fraction_labeling_sum(params, vertex_count, edges) -> Fraction:
    """The labeling sum in exact rationals, by plain loops; edges may be
    loops or repeat."""
    gamma, beta, alpha = (Fraction(x) for x in (params.gamma, params.beta, params.alpha))
    matrix = [[gamma, beta], [beta, alpha]]
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=vertex_count):
        term = Fraction(1)
        for u, v in edges:
            term *= matrix[bits[u]][bits[v]]
        total += term
    return total


# Log-uniform over [1e-300, 0.97], so underflowing base values are common.
tiny_to_large = st.floats(min_value=math.log(1e-300), max_value=math.log(0.97)).map(math.exp)


@st.composite
def small_patterns(draw):
    """A random simple graph of 1 to 6 vertices."""
    v = draw(st.integers(min_value=1, max_value=6))
    pairs = list(itertools.combinations(range(v), 2))
    return PatternGraph.from_edges(v, draw(st.sets(st.sampled_from(pairs))) if pairs else [])


class TestBaseValue:
    @settings(max_examples=150, deadline=None)
    @given(g=small_patterns(), entries=st.tuples(tiny_to_large, tiny_to_large, tiny_to_large))
    @example(g=cycle(4), entries=(1e-300, 0.9, 1e-300))
    @example(g=cycle(4), entries=(1e-200, 1e-200, 1e-200))
    def test_correctly_rounded(self, g, entries):
        p = KroneckerParams(*entries, 1)
        exact = fraction_labeling_sum(p, g.vertex_count, g.edge_list)
        value = base_value(p, g)
        assert value == float(exact)
        if exact < sys.float_info.min:
            log_exact = math.log(exact.numerator) - math.log(exact.denominator)
            assert _log_base_value(p, g, value) == pytest.approx(log_exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "vertex_count,edges",
        [
            (2, [(0, 0), (0, 1), (0, 1)]),  # a triangle with two vertices merged
            (2, [(0, 1), (1, 0)]),  # path:2 with its ends merged
            (3, []),
        ],
    )
    @pytest.mark.parametrize(
        "entries", [(0.7, 0.5, 0.7), (0.6, 0.4, 0.3), (1e-300, 0.5, 1e-300), (0.9, 1e-300, 0.2)]
    )
    def test_labeling_sum_of_multigraph_quotients(self, vertex_count, edges, entries):
        p = KroneckerParams(*entries, 1)
        (num,), den = _labeling_sum(p, vertex_count, edges)
        assert Fraction(num, den) == fraction_labeling_sum(p, vertex_count, edges)

    def test_single_edge(self):
        for alpha, beta, gamma in PARAM_GRID:
            p = KroneckerParams(alpha, beta, gamma, 1)
            assert base_value(p, star(1)) == pytest.approx(alpha + 2 * beta + gamma, rel=1e-12)

    def test_triangle_symmetric_closed_form(self):
        p = KroneckerParams(0.4, 0.3, 0.4, 1)
        assert base_value(p, cycle(3)) == pytest.approx(0.7**3 + 0.1**3, rel=1e-12)
        assert base_value(p, cycle(3)) == pytest.approx(0.344, abs=1e-12)

    def test_three_leaf_star_value(self):
        p = KroneckerParams(0.5, 0.3, 0.2, 1)
        assert base_value(p, star(3)) == pytest.approx(0.8**3 + 0.5**3, rel=1e-12)
        assert base_value(p, star(3)) == pytest.approx(0.637, abs=1e-12)

    def test_matches_plain_loop_oracle(self):
        rng = np.random.default_rng(3)
        for alpha, beta, gamma in PARAM_GRID[:5]:
            p = KroneckerParams(alpha, beta, gamma, 1)
            for _ in range(4):
                v = int(rng.integers(2, 7))
                possible = list(itertools.combinations(range(v), 2))
                take = rng.random(len(possible)) < 0.5
                edges = [e for e, keep in zip(possible, take) if keep]
                g = PatternGraph.from_edges(v, edges)
                assert base_value(p, g) == pytest.approx(
                    brute_base_value(p, v, edges), rel=1e-12
                )

    def test_disjoint_union_factorizes(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 1)
        two_edges = PatternGraph.from_edges(4, [(0, 1), (2, 3)])
        assert base_value(p, two_edges) == pytest.approx(
            base_value(p, star(1)) ** 2, rel=1e-12
        )

    def test_isomorphism_invariance(self):
        p = KroneckerParams(0.55, 0.35, 0.25, 1)
        g = PatternGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        relabeled = relabel(g, (2, 0, 3, 1))
        assert base_value(p, g) == pytest.approx(base_value(p, relabeled), rel=1e-12)

    def test_entry_swap_symmetry(self):
        for alpha, beta, gamma in PARAM_GRID[:5]:
            p = KroneckerParams(alpha, beta, gamma, 1)
            q = KroneckerParams(gamma, beta, alpha, 1)
            for g in (star(3), cycle(4), path(3)):
                assert base_value(p, g) == pytest.approx(base_value(q, g), rel=1e-12)

    def test_capacity(self):
        big = PatternGraph.from_edges(11, [(i, i + 1) for i in range(10)])
        with pytest.raises(CapacityError):
            base_value(KroneckerParams(0.5, 0.4, 0.3, 1), big)


class TestExpectedCopies:
    def test_asymptotic_uniform_case(self):
        q = 0.3
        p = KroneckerParams(q, q, q, 5)
        assert expected_copies_asymptotic(p, star(1)) == pytest.approx(
            (4 * q) ** 5, rel=1e-12
        )

    def test_asymptotic_power(self):
        p = KroneckerParams(0.4, 0.3, 0.4, 3)
        assert expected_copies_asymptotic(p, cycle(3)) == pytest.approx(
            (0.7**3 + 0.1**3) ** 3, rel=1e-12
        )
        p1 = KroneckerParams(0.4, 0.3, 0.4, 1)
        assert expected_copies_asymptotic(p1, cycle(3)) == pytest.approx(
            base_value(p1, cycle(3)), rel=1e-12
        )

    def test_exact_single_edge_n1(self):
        p = KroneckerParams(0.6, 0.4, 0.2, 1)
        assert expected_copies_exact(p, star(1)) == pytest.approx(2 * 0.4, rel=1e-12)

    def test_exact_below_asymptotic(self):
        for n in (2, 3, 4, 8, 12, 16):
            p = KroneckerParams(0.6, 0.4, 0.3, n)
            for g in (star(1), path(2), cycle(3)):
                assert expected_copies_exact(p, g) < expected_copies_asymptotic(p, g)

    def test_ratio_increases_with_n(self):
        ratios = []
        for n in range(2, 17):
            p = KroneckerParams(0.6, 0.4, 0.3, n)
            ratios.append(
                expected_copies_exact(p, path(2)) / expected_copies_asymptotic(p, path(2))
            )
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1

    def test_exact_capacity(self):
        p = KroneckerParams(0.6, 0.4, 0.3, 62)
        assert 0 < expected_copies_exact(p, path(5)) < expected_copies_asymptotic(p, path(5))
        with pytest.raises(CapacityError):
            expected_copies_exact(p, path(6))  # seven pattern vertices
        with pytest.raises(CapacityError):
            expected_copies_exact(KroneckerParams(0.6, 0.4, 0.3, 63), star(1))

    # The exact sum is rounded once, so these floats may not move by a bit,
    # not even at 1e-300 entries, where they sit near or below the float range.
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((0.7, 0.5, 0.7, 13), {
                "C3": 1295.8716092632174,
                "C4": 13179.917673189873,
                "P3": 10001633.393063478,
                "K13": 10001190.610832077,
            }),
            ((1e-300, 0.5, 1e-300, 6), {
                "C3": 0.0, "C4": 0.0, "P3": 2.9296875e-303, "K13": 0.0,
            }),
        ],
    )
    def test_exact_pinned(self, entries, expected):
        p = KroneckerParams(*entries)
        patterns = {"C3": cycle(3), "C4": cycle(4), "P3": path(3), "K13": star(3)}
        assert {name: expected_copies_exact(p, g) for name, g in patterns.items()} == expected

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=4),
        entries=st.tuples(*[st.floats(min_value=0.01, max_value=0.99)] * 3),
    )
    def test_exact_matches_injective_map_oracle(self, data, n, entries):
        v = data.draw(st.integers(min_value=1, max_value=5))
        pairs = list(itertools.combinations(range(v), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        p = KroneckerParams(*entries, n)
        exact = expected_copies_exact(p, PatternGraph.from_edges(v, edges))
        oracle = brute_expected_copies(p, v, edges)
        if v > p.vertex_count:
            assert exact == oracle == 0.0
        else:
            assert exact == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestClosedForms:
    def test_star_k1_is_edge(self):
        for alpha, beta, gamma in PARAM_GRID[:5]:
            p = KroneckerParams(alpha, beta, gamma, 1)
            assert star_base_value(p, 1) == pytest.approx(alpha + 2 * beta + gamma, rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_star_matches_enumeration(self, k):
        for alpha, beta, gamma in PARAM_GRID[:6]:
            p = KroneckerParams(alpha, beta, gamma, 1)
            assert star_base_value(p, k) == pytest.approx(base_value(p, star(k)), abs=1e-12)

    def test_symmetric_star_equals_tree_form(self):
        for alpha, beta in SYMMETRIC_GRID:
            p = KroneckerParams(alpha, beta, alpha, 1)
            for k in (1, 2, 4, 7):
                assert star_base_value(p, k) == pytest.approx(
                    tree_base_value(p, k), rel=1e-12
                )

    def test_tree_shape_independence(self):
        for alpha, beta in SYMMETRIC_GRID[:4]:
            p = KroneckerParams(alpha, beta, alpha, 1)
            assert base_value(p, path(2)) == pytest.approx(base_value(p, star(2)), rel=1e-12)
            for tree in nonisomorphic_trees(6):
                assert base_value(p, tree) == pytest.approx(
                    tree_base_value(p, tree.edge_count), abs=1e-12
                )

    def test_tree_gate(self):
        with pytest.raises(ParameterError):
            tree_base_value(KroneckerParams(0.5, 0.4, 0.3, 1), 2)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_cycle_matches_enumeration(self, k):
        for alpha, beta in SYMMETRIC_GRID:
            p = KroneckerParams(alpha, beta, alpha, 1)
            assert cycle_base_value(p, k) == pytest.approx(base_value(p, cycle(k)), abs=1e-12)

    def test_cycle_alpha_equals_beta(self):
        p = KroneckerParams(0.45, 0.45, 0.45, 1)
        assert cycle_base_value(p, 5) == pytest.approx(0.9**5, rel=1e-12)

    def test_odd_cycle_with_large_beta_sits_below_even_power(self):
        p = KroneckerParams(0.3, 0.6, 0.3, 1)
        assert cycle_base_value(p, 5) < 0.9**5  # negative second term

    def test_cycle_gate(self):
        with pytest.raises(ParameterError):
            cycle_base_value(KroneckerParams(0.5, 0.4, 0.3, 1), 4)

    @pytest.mark.parametrize("k,l", [(k, l) for k in range(3, 7) for l in range(1, k - 1)])
    def test_overlap_formula_matches_enumeration(self, k, l):
        union = overlap_cycles(k, l)
        assert union.edge_count == 2 * k - l
        assert union.vertex_count == 2 * k - l - 1
        for alpha, beta in SYMMETRIC_GRID:
            p = KroneckerParams(alpha, beta, alpha, 1)
            assert overlap_cycle_base_value(p, k, l) == pytest.approx(
                base_value(p, union), abs=1e-12
            )

    def test_overlap_alpha_equals_beta(self):
        p = KroneckerParams(0.45, 0.45, 0.45, 1)
        assert overlap_cycle_base_value(p, 5, 2) == pytest.approx(
            0.5 * 0.9**8, rel=1e-12
        )

    def test_overlap_below_squared_cycle_above_threshold(self):
        for alpha, beta in SYMMETRIC_GRID:
            p = KroneckerParams(alpha, beta, alpha, 1)
            for k in range(3, 7):
                if cycle_base_value(p, k) <= 1:
                    continue
                bound = cycle_base_value(p, k) ** 2
                for l in range(1, k):
                    assert overlap_cycle_base_value(p, k, l) < bound


class TestEdgeLabelings:
    def test_triangle_has_even_parity_labelings(self):
        labs = valid_edge_labelings(cycle(3))
        assert len(labs) == 4
        assert all(bin(lab).count("1") % 2 == 0 for lab in labs)

    def test_trees_accept_everything(self):
        for tree in nonisomorphic_trees(6):
            assert len(valid_edge_labelings(tree)) == 2**tree.edge_count

    def test_even_cycle_counts(self):
        labs = valid_edge_labelings(cycle(4))
        assert len(labs) == 8  # even-weight subsets of 4 edges

    def test_two_vertex_labelings_per_valid_edge_labeling(self):
        for g in (cycle(3), cycle(5), path(3), star(3)):
            preimages = {}
            for vl in range(1 << g.vertex_count):
                preimages.setdefault(edge_labeling_from_vertex_labeling(g, vl), 0)
                preimages[edge_labeling_from_vertex_labeling(g, vl)] += 1
            valid = valid_edge_labelings(g)
            assert set(preimages) == valid
            assert all(count == 2 for count in preimages.values())

    def test_dual_route_base_value(self):
        graphs = [cycle(k) for k in range(3, 7)] + list(nonisomorphic_trees(5))
        for alpha, beta in SYMMETRIC_GRID[:5]:
            p = KroneckerParams(alpha, beta, alpha, 1)
            for g in graphs:
                assert base_value_from_edge_labelings(p, g) == pytest.approx(
                    base_value(p, g), abs=1e-12
                )

    def test_disconnected_rejected(self):
        with pytest.raises(ParameterError):
            valid_edge_labelings(PatternGraph.from_edges(4, [(0, 1), (2, 3)]))


class TestPairUnions:
    def test_single_edge_has_no_unions(self):
        assert enumerate_pair_unions(star(1)) == ()

    def test_two_leaf_star_family(self):
        unions = enumerate_pair_unions(star(2))
        graphs = [u.graph for u in unions]
        shapes = sorted((g.vertex_count, g.edge_count) for g in graphs)
        assert shapes == [(3, 3), (4, 3), (4, 3)]
        nx_graphs = [to_networkx(g) for g in graphs]
        assert any(nx.is_isomorphic(g, to_networkx(star(3))) for g in nx_graphs)
        assert any(nx.is_isomorphic(g, to_networkx(path(3))) for g in nx_graphs)
        assert any(nx.is_isomorphic(g, to_networkx(cycle(3))) for g in nx_graphs)

    def test_edge_count_bounds(self):
        for g in (star(2), star(3), path(2), cycle(4)):
            for union in enumerate_pair_unions(g):
                assert g.edge_count < union.graph.edge_count < 2 * g.edge_count
                assert union.graph.vertex_count <= 2 * g.vertex_count - 2

    def test_maps_reconstruct_union(self):
        for union in enumerate_pair_unions(cycle(4)):
            first = set(cycle(4).edge_list)  # the first copy is embedded identically
            second = {
                tuple(sorted((union.map_b[u], union.map_b[v])))
                for u, v in cycle(4).edge_list
            }
            assert first != second and (first & second)
            assert first | second == set(union.graph.edge_list)

    def test_cycle_unions_include_consecutive_overlaps(self):
        unions = enumerate_pair_unions(cycle(5))
        targets = [to_networkx(overlap_cycles(5, l)) for l in range(1, 4)]
        for target in targets:
            assert any(
                nx.is_isomorphic(to_networkx(u.graph), target) for u in unions
            )

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_pair_unions(cycle(7))


PAW = PatternGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
DIAMOND = PatternGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
K4 = PatternGraph.from_edges(4, itertools.combinations(range(4), 2))
# Named patterns of the pinned families that parse_pattern's names do not
# cover; the two disjoint edges make a disconnected pattern.
NAMED = {"paw": PAW, "two-edges": parse_pattern("4\n0 1\n2 3")}

# Union count and sha256 of the representatives (vertex count, edges, maps)
# per pattern, recorded before placements that repeat an earlier union's
# edge set were skipped.
UNION_FAMILIES = {
    "cycle:3": (1, "5473e0d376143c7f0e2cbdf516e5b14f98fc06a5548e399af68f14daf7a98dae"),
    "cycle:4": (4, "9c5a3701a3cc1c3b7a344f4d0811b64984cc21eaaa4345b9e88206ecf88fd4b4"),
    "cycle:5": (13, "7fab0bd78a5e38a6cb9de9a0e25f89f94e670837b59d89c9bdfe8f9c1ba302d9"),
    "star:3": (5, "9ad572dbaf28e7616a692f21f5507d51cd3974730f776d304885fc29e103714e"),
    "star:4": (7, "d48127c92c2fc18cb711cfaca40e0561320d5b5290561dbfd31d2830e338d2f2"),
    "path:3": (13, "52c761440215890f93609b77dcccd9eef847d3c1560d6945f8b8b3686c4e3331"),
    "path:4": (67, "c123bcd327a00d23e7f9732a88b532e5d9242dea286b7ec704f99ce6837f0cf5"),
    "paw": (18, "b7591408035941e8419605e558d9d6ef18f83c7daefa5365e39614779a05e433"),
    # Added later, pinned at the same code: a 6-vertex walk, |Aut| = 120 and
    # a disconnected pattern.
    "cycle:6": (58, "e74ea1ee67b7bfeb42e97934edf92636df0f93203ee0d625e86cb42231b6fa94"),
    "star:5": (9, "0d43eb26c5e698758ac66f38d439c0f3c6536152cbb4b2c332eb218d8207c5cb"),
    "two-edges": (2, "c29a43c305861f36cf8daeb535c2ac7e6f949117db3c74fc52f9bd4010d6cbdd"),
}

# sha256 of `certify --pattern P --alpha 0.6 --beta 0.5 --gamma 0.6` stdout,
# recorded at the same point.  A name "P at A, B, G" runs P at those entries
# instead: at 1e-300 some union base values underflow, so it pins the logs
# taken from the exact sums.
CERTIFY_DIGESTS = {
    "cycle:3": "f17d492bb89dfd4f8806d5c3ff397915334eb130c7248de62df3fc5b152bb450",
    "cycle:4": "42d191659cee0ae45a9d5839b5dc672ab076f42fb4c729410d320f554b42e861",
    "cycle:5": "2df75dc53bb3299c383f156554dad99e9fc7b6bb93d51f977581f3d567ddf2b7",
    "star:4": "0d4498474dcb20f82868889a6645831f8eb6f83e7064ace0397d329ecda60c1c",
    "path:4": "fdcc06a279e28fc245603b8f098af7df9f049d3c81602ef98c74516c4561a8c8",
    "cycle:6": "84e7df6c8bbfe463b7bb907f42536eb3585bdc3d7f97e047ddeab5c572eee3d2",
    "cycle:4 at 1e-300, 0.9, 1e-300": (
        "e85a9920f03fc79af75584abf38b1bdfbd6d3f2d793a8116bf62e443aadbf11c"
    ),
}


def _placements(pattern):
    """(vertex count, union edge set, map_b) of every placement of a second
    copy that overlaps the first without coinciding, in enumeration order."""
    v = pattern.vertex_count
    first = frozenset(pattern.edge_list)
    for shared_count in range(v + 1):
        for shared in itertools.combinations(range(v), shared_count):
            for targets in itertools.permutations(range(v), shared_count):
                image = dict(zip(shared, targets))
                map_b = []
                fresh = v
                for w in range(v):
                    if w in image:
                        map_b.append(image[w])
                    else:
                        map_b.append(fresh)
                        fresh += 1
                second = frozenset(
                    (min(map_b[a], map_b[b]), max(map_b[a], map_b[b]))
                    for a, b in pattern.edge_list
                )
                if second != first and second & first:
                    yield fresh, first | second, tuple(map_b)


def _unions_without_skipping(pattern):
    """Reference family: isomorphism-test every placement, keep the first of each class."""
    kept = []
    for vertex_count, edges, map_b in _placements(pattern):
        union = PatternGraph.from_edges(vertex_count, edges)
        union_nx = to_networkx(union)
        if not any(nx.is_isomorphic(union_nx, to_networkx(other.graph)) for other in kept):
            kept.append(UnionPattern(graph=union, map_b=map_b))
    kept.sort(key=lambda up: (up.graph.vertex_count, up.graph.edge_count, up.graph.edge_list))
    return tuple(kept)


class TestUnionFamilies:
    @pytest.mark.parametrize("name", sorted(UNION_FAMILIES))
    def test_family_pinned(self, name):
        pattern = NAMED[name] if name in NAMED else parse_pattern(name)
        unions = enumerate_pair_unions(pattern)
        # The pins were taken with the first copy's map, always the identity.
        identity = tuple(range(pattern.vertex_count))
        digest = hashlib.sha256(
            repr(
                [(u.graph.vertex_count, u.graph.edge_list, identity, u.map_b) for u in unions]
            ).encode()
        ).hexdigest()
        assert (len(unions), digest) == UNION_FAMILIES[name]

    @pytest.mark.parametrize("name", sorted(CERTIFY_DIGESTS))
    def test_certify_bytes(self, capsys, name):
        pattern, _, entries = name.partition(" at ")
        alpha, beta, gamma = entries.split(", ") if entries else ("0.6", "0.5", "0.6")
        argv = ["certify", "--pattern", pattern, "--alpha", alpha, "--beta", beta, "--gamma", gamma]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == CERTIFY_DIGESTS[name]

    @pytest.mark.parametrize(
        "pattern", [star(2), star(3), path(3), cycle(3), cycle(4), PAW, DIAMOND, K4]
    )
    def test_skipping_repeated_unions_changes_nothing(self, pattern):
        unions = enumerate_pair_unions(pattern)
        assert unions == _unions_without_skipping(pattern)
        # every placement's union is isomorphic to exactly one representative
        representatives = [to_networkx(u.graph) for u in unions]
        for vertex_count, edges, _ in _placements(pattern):
            union_nx = to_networkx(PatternGraph.from_edges(vertex_count, edges))
            assert sum(nx.is_isomorphic(union_nx, r) for r in representatives) == 1


def _unions_by_networkx(pattern):
    """Reference family: the placements in enumeration order, a repeated
    union edge set skipped, each new union tested with networkx against the
    earlier representatives that share its bucket key."""
    found = {}
    seen = set()
    for vertex_count, edges, map_b in _placements(pattern):
        if (vertex_count, edges) in seen:
            continue
        seen.add((vertex_count, edges))
        union = PatternGraph.from_edges(vertex_count, edges)
        bucket = found.setdefault(_iso_bucket_key(union.masks), [])
        union_nx = to_networkx(union)
        if not any(nx.is_isomorphic(union_nx, other) for other, _ in bucket):
            bucket.append((union_nx, UnionPattern(graph=union, map_b=map_b)))
    kept = [up for bucket in found.values() for _, up in bucket]
    kept.sort(key=lambda up: (up.graph.vertex_count, up.graph.edge_count, up.graph.edge_list))
    return tuple(kept)


# Every graph of 2 to 5 vertices, disconnected and edgeless ones included,
# one per isomorphism class, by its index in networkx's graph atlas; and
# cycle:6, whose unions reach 10 vertices.
ATLAS_2_TO_5 = {
    f"atlas{i}": from_networkx(g)
    for i, g in enumerate(nx.graph_atlas_g())
    if 2 <= g.number_of_nodes() <= 5
}
ATLAS_2_TO_5["cycle:6"] = cycle(6)


def _cycles(*lengths):
    """Disjoint cycles of the given lengths as one pattern."""
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return PatternGraph.from_edges(start, edges)


# Both cubic and triangle-free on 8 vertices, so they share a bucket key.
CUBE = PatternGraph.from_edges(
    8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1]
)
WAGNER = PatternGraph.from_edges(
    8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
)


@st.composite
def bucket_pairs(draw):
    """(g, h): a random graph of up to 9 vertices and a relabeled copy with
    up to three degree-preserving edge swaps (ab, cd -> ad, cb)."""
    v = draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(v), 2))
    g = PatternGraph.from_edges(v, draw(st.sets(st.sampled_from(pairs))))
    h_edges = set(relabel(g, draw(st.permutations(range(v)))).edge_list)
    for _ in range(draw(st.integers(0, 3))):
        if len(h_edges) < 2:
            break
        (a, b), (c, d) = draw(st.permutations(sorted(h_edges)))[:2]
        swapped = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not swapped & h_edges:
            h_edges = h_edges - {(a, b), (c, d)} | swapped
    return g, PatternGraph.from_edges(v, h_edges)


def _brute_automorphisms(pattern):
    """Every vertex permutation that maps the pattern's edge set onto itself."""
    edges = set(pattern.edge_list)
    return [
        image
        for image in itertools.permutations(range(pattern.vertex_count))
        if {tuple(sorted((image[a], image[b]))) for a, b in edges} == edges
    ]


def _brute_orbit(placement, automorphisms):
    """A placement's orbit under Aut(G) x Aut(G) and the swap of the two
    copies; a placement is its frozenset of (second, first) vertex pairs."""
    return {
        frozenset(pairs)
        for sigma in automorphisms
        for tau in automorphisms
        for pairs in (
            ((sigma[s], tau[t]) for s, t in placement),
            ((sigma[t], tau[s]) for s, t in placement),
        )
    }


def _overlapping_placements(pattern):
    """Every placement, as its frozenset of (second, first) vertex pairs,
    whose second copy shares some but not all of the first copy's edges."""
    v, first = pattern.vertex_count, set(pattern.edge_list)
    found = set()
    for shared_count in range(2, v + 1):
        for shared in itertools.combinations(range(v), shared_count):
            for targets in itertools.permutations(range(v), shared_count):
                image = dict(zip(shared, targets))
                overlap = sum(
                    a in image and b in image and tuple(sorted((image[a], image[b]))) in first
                    for a, b in pattern.edge_list
                )
                if 0 < overlap < len(first):
                    found.add(frozenset(image.items()))
    return found


class TestPlacementOrbits:
    @pytest.mark.parametrize("name", [name for name in sorted(ATLAS_2_TO_5) if name != "cycle:6"])
    def test_marked_orbits_are_the_brute_force_orbits(self, monkeypatch, name):
        pattern = ATLAS_2_TO_5[name]
        cover = kronval.patterns._cover_orbit
        orbits = []  # (first placement, its marked orbit over every target tuple)

        def spy(covered, placement, automorphisms, least):
            orbit = set()
            cover(orbit, placement, automorphisms, least)
            covered |= orbit
            tuples_of = collections.defaultdict(list)  # least targets -> its Aut(G) class
            for targets, first in least.items():
                tuples_of[first].append(targets)
            expanded = {
                frozenset(zip(shared, targets))
                for shared, first in orbit
                for targets in tuples_of[first]
            }
            orbits.append((frozenset(zip(*placement)), expanded))

        monkeypatch.setattr(kronval.patterns, "_cover_orbit", spy)
        enumerate_pair_unions.__wrapped__(pattern)
        automorphisms = _brute_automorphisms(pattern)
        marked = set()
        for placement, orbit in orbits:
            assert orbit == _brute_orbit(placement, automorphisms)
            assert not orbit & marked
            marked |= orbit
        assert marked == _overlapping_placements(pattern)


class TestIsomorphism:
    @pytest.mark.parametrize("name", sorted(ATLAS_2_TO_5))
    def test_unions_equal_the_networkx_reference(self, name):
        pattern = ATLAS_2_TO_5[name]
        assert enumerate_pair_unions(pattern) == _unions_by_networkx(pattern)

    def test_automorphism_counts_match_networkx(self):
        for g in [g for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 6]:
            masks = from_networkx(g).masks
            v = len(masks)
            automorphisms = list(_isomorphisms(masks, masks))
            matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
            assert len(automorphisms) == len(set(automorphisms))
            assert len(automorphisms) == sum(1 for _ in matcher.isomorphisms_iter())
            for image in automorphisms:
                # the images of u's neighbours are exactly image[u]'s neighbours
                moved = [sum(1 << image[w] for w in range(v) if m >> w & 1) for m in masks]
                assert moved == [masks[image[u]] for u in range(v)]

    @settings(max_examples=300, deadline=None)
    @given(pair=bucket_pairs())
    @example(pair=(_cycles(8), _cycles(4, 4)))
    @example(pair=(_cycles(9), _cycles(4, 5)))
    @example(pair=(CUBE, WAGNER))
    @example(pair=(WAGNER, relabel(WAGNER, [3, 0, 7, 5, 1, 6, 2, 4])))
    def test_agrees_with_networkx_within_a_bucket(self, pair):
        g, h = pair
        assume(_iso_bucket_key(g.masks) == _iso_bucket_key(h.masks))
        assert _isomorphic(g.masks, h.masks) == nx.is_isomorphic(to_networkx(g), to_networkx(h))

    def test_agrees_with_networkx_on_regular_graphs(self):
        # Regular graphs of 8-10 vertices share degree profiles, so their
        # buckets hold non-isomorphic pairs the bucket key cannot separate.
        graphs = [
            from_networkx(nx.random_regular_graph(d, v, seed=s))
            for v in (8, 9, 10) for d in (2, 3, 4) if v * d % 2 == 0 for s in range(12)
        ]
        buckets = collections.defaultdict(list)
        for g in graphs:
            buckets[_iso_bucket_key(g.masks)].append(g)
        outcomes = collections.Counter()
        for bucket in buckets.values():
            for g, h in itertools.combinations(bucket, 2):
                expected = nx.is_isomorphic(to_networkx(g), to_networkx(h))
                assert _isomorphic(g.masks, h.masks) == expected
                outcomes[expected] += 1
        assert outcomes[True] and outcomes[False]

    def test_relabeled_copies_are_isomorphic(self):
        rng = random.Random(0)
        for g in nx.graph_atlas_g()[1:]:
            pattern = from_networkx(g)
            images = list(range(pattern.vertex_count))
            rng.shuffle(images)
            assert _isomorphic(pattern.masks, relabel(pattern, images).masks)

    def test_different_vertex_counts_are_not_isomorphic(self):
        assert not _isomorphic(path(2).masks, star(3).masks)


class TestIdentifyVertices:
    def test_refuses_adjacent_or_shared_neighbor(self):
        assert identify_vertices(cycle(3), 0, 1) is None  # adjacent
        assert identify_vertices(path(2), 0, 2) is None  # common neighbor

    def test_merge_never_increases_base_value(self):
        # surjective vertex map with injective edge map
        p = KroneckerParams(0.55, 0.4, 0.3, 1)
        candidates = [path(3), path(4), path(5), cycle(4), star(3), cycle(6)]
        checked = 0
        for g in candidates:
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    merged = identify_vertices(g, u, v)
                    if merged is None:
                        continue
                    checked += 1
                    assert base_value(p, merged) <= base_value(p, g) + 1e-12
        assert checked > 5


class TestCertificates:
    def test_star_above_threshold_passes(self):
        p = KroneckerParams(0.6, 0.5, 0.4, 1)  # (1.1)^2 + (0.9)^2 > 1
        report = second_moment_certificate(p, star(2))
        assert report.passes
        assert len(report.entries) == 3
        assert all(e.margin > 0 for e in report.entries)

    def test_vacuous_certificate_for_single_edge(self):
        report = second_moment_certificate(KroneckerParams(0.6, 0.5, 0.4, 1), star(1))
        assert report.passes and report.entries == ()

    def test_sparse_tree_regime_fails(self):
        # far below the threshold a longer tree union dominates the square
        p = KroneckerParams(0.2, 0.2, 0.2, 1)
        report = second_moment_certificate(p, star(2))
        assert not report.passes
        assert any(e.status == "fail" for e in report.entries)
