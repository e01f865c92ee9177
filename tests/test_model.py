import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronval import (
    DimensionError,
    KroneckerParams,
    ParameterError,
    SampledGraph,
    edge_probability,
    edge_probability_array,
    hamming,
    log_edge_probability,
    pair_class,
    weight,
)
from conftest import brute_edge_probability, lexsort_canonical


class TestParams:
    def test_rejects_boundary_probabilities(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                KroneckerParams(alpha=bad, beta=0.5, gamma=0.5, n=2)
            with pytest.raises(ParameterError):
                KroneckerParams(alpha=0.5, beta=bad, gamma=0.5, n=2)
            with pytest.raises(ParameterError):
                KroneckerParams(alpha=0.5, beta=0.5, gamma=bad, n=2)

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            KroneckerParams(alpha=0.5, beta=0.5, gamma=0.5, n=0)

    def test_no_ordering_required_between_alpha_and_gamma(self):
        KroneckerParams(alpha=0.2, beta=0.5, gamma=0.9, n=4)  # gamma > alpha is fine


class TestVertexOps:
    def test_weight(self):
        assert weight(0b0000) == 0
        assert weight(0b1011) == 3
        assert weight(0b1111) == 4

    def test_hamming(self):
        assert hamming(0b1010, 0b1010) == 0
        assert hamming(0b1010, 0b0101) == 4
        assert hamming(0b1100, 0b1010) == 2

    def test_hamming_rejects_negative(self):
        with pytest.raises(DimensionError):
            hamming(-1, 3)

    def test_pair_class(self):
        assert pair_class(0b11, 0b10, 2) == (1, 1, 0)
        assert pair_class(0b1100, 0b1100, 4) == (2, 0, 2)
        assert pair_class(0b111, 0b000, 3) == (0, 3, 0)

    def test_pair_class_counts_sum_to_n(self):
        pc = pair_class(0b1011, 0b0110, 4)
        assert sum(pc) == 4
        assert pc.mixed == hamming(0b1011, 0b0110)

    def test_pair_class_dimension_error(self):
        with pytest.raises(DimensionError):
            pair_class(0b100, 0b01, 2)  # first vertex has a digit beyond n


class TestEdgeProbability:
    def test_uniform_entries_give_power(self):
        # alpha = beta = gamma collapses every pair to the same probability
        q = 0.37
        p = KroneckerParams(alpha=q, beta=q, gamma=q, n=6)
        for u, v in [(0, 63), (5, 9), (21, 21)]:
            assert edge_probability(p, u, v) == pytest.approx(q**6, rel=1e-12)

    def test_two_digit_product(self):
        p = KroneckerParams(alpha=0.5, beta=0.3, gamma=0.2, n=2)
        assert edge_probability(p, 0b11, 0b10) == pytest.approx(0.15, rel=1e-12)

    def test_matches_digit_by_digit_oracle(self, small_params):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = rng.integers(0, 8, size=2)
            fast = edge_probability(small_params, int(u), int(v))
            slow = brute_edge_probability(small_params, int(u), int(v))
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_symmetry(self, small_params):
        for u in range(8):
            for v in range(8):
                assert edge_probability(small_params, u, v) == pytest.approx(
                    edge_probability(small_params, v, u), rel=1e-15
                )

    def test_log_space_survives_large_n(self):
        p = KroneckerParams(alpha=0.01, beta=0.02, gamma=0.015, n=64)
        lo = log_edge_probability(p, (1 << 64) - 1, 0)
        assert lo == pytest.approx(64 * math.log(0.02), rel=1e-12)
        assert edge_probability(p, (1 << 64) - 1, 0) == pytest.approx(
            math.exp(lo), rel=1e-12
        )

    def test_dimension_error(self, small_params):
        with pytest.raises(DimensionError):
            edge_probability(small_params, 8, 1)

    def test_array_path_matches_scalar(self, small_params):
        us = np.arange(8).repeat(8)
        vs = np.tile(np.arange(8), 8)
        arr = edge_probability_array(small_params, us, vs)
        for u, v, value in zip(us, vs, arr):
            assert value == pytest.approx(edge_probability(small_params, int(u), int(v)))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=10),
    )
    def test_depends_only_on_pair_class(self, data, n):
        # simultaneously permuting the digit positions of u and v leaves
        # the probability unchanged
        p = KroneckerParams(alpha=0.61, beta=0.33, gamma=0.27, n=n)
        u = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        v = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        perm = data.draw(st.permutations(range(n)))
        pu = sum(((u >> k) & 1) << perm[k] for k in range(n))
        pv = sum(((v >> k) & 1) << perm[k] for k in range(n))
        assert edge_probability(p, u, v) == pytest.approx(
            edge_probability(p, pu, pv), rel=1e-12
        )

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_row_sum_identity(self, n):
        # summing the probability over every v (including v = u) gives
        # (alpha+beta)^w (beta+gamma)^(n-w)
        p = KroneckerParams(alpha=0.6, beta=0.4, gamma=0.2, n=n)
        for w in range(n + 1):
            u = (1 << w) - 1
            vs = np.arange(1 << n)
            total = edge_probability_array(p, np.full(1 << n, u), vs).sum()
            closed = (0.6 + 0.4) ** w * (0.4 + 0.2) ** (n - w)
            assert total == pytest.approx(closed, abs=1e-10)


class TestSampledGraph:
    def test_from_pairs_canonicalizes(self, small_params):
        g = SampledGraph.from_pairs(small_params, [(3, 1), (1, 3), (2, 2), (5, 5)])
        assert g.edges.tolist() == [[1, 3]]
        assert g.loops.tolist() == [2, 5]

    def test_from_pairs_validates_range(self, small_params):
        for u, v in ([0], [8]), ([-1], [2]), ([0, 8], [1, 8]), ([0], [2**70]):
            with pytest.raises(DimensionError):
                SampledGraph.from_pairs(small_params, u, v)
            with pytest.raises(DimensionError):
                SampledGraph.from_pairs(small_params, list(zip(u, v)))

    def test_arrays_are_read_only(self, small_params):
        g = SampledGraph.from_pairs(small_params, [(3, 1), (0, 2), (5, 5)])
        for array in (g.edges, g.loops, g.edge_array):
            with pytest.raises(ValueError):
                array[0] = 7
        assert g.edge_array is g.edges

    def test_equality_across_construction_routes(self, tmp_path):
        from kronval import SeedSpec, generate_stratified, read_edgelist, write_edgelist

        p = KroneckerParams(alpha=0.7, beta=0.6, gamma=0.5, n=5)
        g = generate_stratified(p, include_loops=True, seed=SeedSpec(3))
        assert len(g.edges) > 2 and len(g.loops) > 1
        flipped = g.edges[::-1, ::-1]  # reversed rows, each pair as (hi, lo)
        again = SampledGraph.from_pairs(
            p,
            np.concatenate([flipped[:, 0], g.loops[::-1]]),
            np.concatenate([flipped[:, 1], g.loops[::-1]]),
            include_loops=True,
        )
        doubled = SampledGraph.from_pairs(
            p,
            np.concatenate([g.edges, flipped, np.column_stack([g.loops, g.loops])]).tolist(),
        )
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        assert again == g and doubled == g and read_edgelist(path) == g
        loop_pairs = np.column_stack([g.loops, g.loops])
        assert SampledGraph.from_pairs(p, np.concatenate([g.edges, loop_pairs[1:]])) != g
        assert SampledGraph.from_pairs(
            p, np.concatenate([g.edges, loop_pairs]), include_loops=False
        ) != g
        with pytest.raises(TypeError):
            hash(g)

    def test_degrees_loop_convention(self, small_params):
        g = SampledGraph.from_pairs(small_params, [(0, 1), (0, 0)])
        with_loops = g.degrees(count_loops=True)
        without = g.degrees(count_loops=False)
        assert with_loops[0] == 2 and without[0] == 1
        assert with_loops[1] == without[1] == 1

    def test_edge_array_sorted(self, small_params):
        g = SampledGraph.from_pairs(small_params, [(5, 2), (0, 1), (3, 4)])
        arr = g.edge_array
        assert arr.tolist() == sorted(arr.tolist())


@st.composite
def pair_lists(draw):
    """Pairs for canonicalization at either side of the packed-key range:
    repeats, both orientations, loops and the extreme vertices 0 and 2^n - 1."""
    n = draw(st.sampled_from([1, 2, 30, 31, 32, 62]))
    top = (1 << n) - 1
    # Drawn integers lean small, so half the vertices count down from the top.
    vertex = st.builds(lambda high, x: top - x if high else x, st.booleans(), st.integers(0, top))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    flipped = [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))] if pairs else []
    loops = [(w, w) for w in draw(st.lists(vertex, max_size=5))]
    pairs = draw(st.permutations(pairs + repeats + flipped + loops))
    return n, pairs, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(case=pair_lists())
@example(case=(31, [(2**31 - 1, 2**31 - 2), (2**31 - 2, 2**31 - 1), (0, 5), (0, 0)], False))
@example(case=(32, [(2**32 - 2, 2**32 - 1), (0, 2**32 - 1), (0, 0)], True))
def test_from_pairs_matches_lexsort_oracle(case):
    n, pairs, include_loops = case
    p = KroneckerParams(alpha=0.5, beta=0.25, gamma=0.125, n=n)
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    g = SampledGraph.from_pairs(p, u, v, include_loops=include_loops)
    edges, all_loops = lexsort_canonical(u, v, include_loops)
    assert g.edges.dtype == np.int64 and g.edges.shape == edges.shape
    assert np.array_equal(g.edges, edges) and np.array_equal(g.loops, all_loops)


def test_packed_key_route_never_calls_lexsort(monkeypatch, tmp_path):
    from kronval import read_edgelist, write_edgelist

    def no_lexsort(*args, **kwargs):
        raise AssertionError("np.lexsort was called")

    monkeypatch.setattr(np, "lexsort", no_lexsort)
    for n in (1, 12, 31):
        top = (1 << n) - 1
        p = KroneckerParams(alpha=0.5, beta=0.25, gamma=0.125, n=n)
        g = SampledGraph.from_pairs(p, [top, 0, top, 0, 0], [0, top, 0, top, 0])
        assert g.edges.tolist() == [[0, top]] and g.loops.tolist() == [0]
        write_edgelist(g, tmp_path / "g.edges")
        assert read_edgelist(tmp_path / "g.edges") == g
    with pytest.raises(AssertionError, match="lexsort"):
        SampledGraph.from_pairs(KroneckerParams(alpha=0.5, beta=0.25, gamma=0.125, n=32), [0], [1])
