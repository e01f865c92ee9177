import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronval import model
from kronval import (
    DimensionError,
    KroneckerParams,
    ParameterError,
    SampledGraph,
    edge_probability,
)
from conftest import brute_edge_probability, lexsort_canonical, traced_peak


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
        assert edge_probability(p, (1 << 64) - 1, 0) == pytest.approx(
            math.exp(64 * math.log(0.02)), rel=1e-12
        )

    def test_dimension_error(self, small_params):
        with pytest.raises(DimensionError):
            edge_probability(small_params, 8, 1)
        for u in (9, -1, [0, 8], np.array([1, 9], dtype=np.uint64)):
            with pytest.raises(DimensionError):
                edge_probability(small_params, u, 0)

    def test_non_integer_vertices_are_refused(self, small_params):
        for u in (1.5, [0.0, 1.0], True):
            with pytest.raises(ParameterError):
                edge_probability(small_params, u, 0)

    def test_array_path_matches_scalar(self, small_params):
        us = np.arange(8).repeat(8)
        vs = np.tile(np.arange(8), 8)
        arr = edge_probability(small_params, us, vs)
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
            total = edge_probability(p, np.full(1 << n, u), vs).sum()
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

    def test_from_pairs_refuses_non_integer_vertices(self, small_params):
        # truncating would read (1.7, 2.2) as the edge (1, 2) and (3, 3.9) as a loop
        for pairs in ([(1.7, 2.2), (3, 3.9)], [(True, False)]):
            with pytest.raises(ParameterError):
                SampledGraph.from_pairs(small_params, pairs)
        with pytest.raises(ParameterError):
            SampledGraph.from_pairs(small_params, [1.0, 2.0], [3, 4])

    def test_from_pairs_refuses_ends_of_unequal_length(self, small_params):
        # broadcasting would read [1, 2] against [3] as the edges (1, 3) and (2, 3)
        for u, v in ([1, 2], [3]), ([1], []), ([[1, 2]], [[3, 4]]):
            with pytest.raises(DimensionError):
                SampledGraph.from_pairs(small_params, u, v)

    def test_from_pairs_refuses_a_flat_pair_list(self, small_params):
        with pytest.raises(DimensionError):
            SampledGraph.from_pairs(small_params, [1, 2, 3, 4])

    def test_from_pairs_refuses_pairs_of_other_widths(self, small_params):
        for pairs in ([(1, 2, 3)], [(1,), (2,)], [(1, 2), (3,)]):
            with pytest.raises(DimensionError):
                SampledGraph.from_pairs(small_params, pairs)

    def test_from_pairs_takes_empty_input(self, small_params):
        for g in (
            SampledGraph.from_pairs(small_params, []),
            SampledGraph.from_pairs(small_params, [], []),
            SampledGraph.from_pairs(small_params, np.empty((0, 2), dtype=np.int64)),
        ):
            assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
            assert g.loops.tolist() == []

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

    def test_degrees_do_not_copy_the_edges(self, stratified_n16):
        # np.bincount copies a read-only input whole, and edges is read-only.
        g = stratified_n16
        want = np.bincount(g.edges.ravel(), minlength=g.vertex_count)
        want[g.loops] += 1
        got, peak = traced_peak(g.degrees)
        assert np.array_equal(got, want)
        assert peak < g.edges.nbytes

    def test_degrees_of_few_edges_allocate_one_degree_array(self):
        # 200 edges among 2^16 vertices: the ends fit one block, so the
        # counts are the one vertex-sized array bincount returns.
        g = SampledGraph.from_pairs(
            KroneckerParams(0.6, 0.5, 0.6, 16), [(3 * i, 3 * i + 1) for i in range(200)]
        )
        got, peak = traced_peak(g.degrees)
        assert got.sum() == 400 and got.dtype == np.int64
        assert peak < 1.25 * got.nbytes

    def test_from_blocks_canonicalizes_in_its_own_buffer(self, small_params):
        # Four pairs and three loops in two blocks; the rows of the 3
        # distinct pairs take 6 of the 8 reserved slots, trimmed to them.
        blocks = [
            (np.array([3, 1, 5]), np.array([4, 3, 5])),
            (np.array([0, 2, 1, 5]), np.array([7, 2, 3, 5])),
        ]
        g = SampledGraph.from_blocks(small_params, iter(blocks), 8)
        assert g.edges.tolist() == [[0, 7], [1, 3], [3, 4]]
        assert g.loops.tolist() == [2, 5]
        buf = g.edges.base
        assert buf.base is None and buf.tolist() == [0, 7, 1, 3, 3, 4]
        assert not buf.flags.writeable
        assert SampledGraph.from_pairs(small_params, [(4, 3), (3, 1), (7, 0), (2, 2), (5, 5)]) == g
        none = SampledGraph.from_blocks(small_params, iter(blocks), 8, include_loops=False)
        assert none.loops.tolist() == [] and np.array_equal(none.edges, g.edges)

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


B = model._KEY_BLOCK
BLOCK_COUNTS = [0, 1, B - 1, B, B + 1, 3 * B + 5]


def unique_rows(keys, n: int) -> np.ndarray:
    """The (lo, hi) rows of the distinct packed keys, by np.unique."""
    keys = np.unique(np.asarray(keys, dtype=np.int64))
    return np.column_stack((keys >> n, keys & ((1 << n) - 1))).reshape(-1, 2)


def unique_canonical(u, v, n: int, include_loops: bool):
    """(edges, loops) of the pairs (u[i], v[i]) by np.unique of their keys."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    proper = u != v
    keys = np.minimum(u, v)[proper] * (1 << n) + np.maximum(u, v)[proper]
    loops = np.unique(u[~proper]) if include_loops else np.empty(0, dtype=np.int64)
    return unique_rows(keys, n), loops


def key_blocks(keys, n: int, size: int):
    """The (lo, hi) blocks of ``size`` packed keys at a time."""
    keys = np.asarray(keys, dtype=np.int64)
    for s in range(0, len(keys), size):
        block = keys[s : s + size]
        yield block >> n, block & ((1 << n) - 1)


def pair_blocks(u, v, size: int):
    """The (min, max) blocks of ``size`` pairs at a time."""
    for s in range(0, len(u), size):
        a, b = u[s : s + size], v[s : s + size]
        yield np.minimum(a, b), np.maximum(a, b)


def assert_split_in_place(g, count: int):
    """The edges view a buffer of exactly their own 2E int64 slots."""
    assert g.edges.base is not None and g.edges.base.size == g.edges.size
    assert g.edges.base.size <= 2 * count and not g.edges.flags.writeable


class TestKeyCanonicalizer:
    """``from_blocks`` writes each block's keys into its buffer and sorts,
    merges and splits them there, a block of ``_KEY_BLOCK`` keys at a
    time, and ``from_pairs`` feeds it a block of pairs at a time: both
    against an np.unique oracle."""

    N = 12

    def params(self, n=N):
        return KroneckerParams(0.6, 0.5, 0.6, n)

    def random_pairs(self, count: int, seed: int, n: int = N):
        """count pairs over about count / 2 distinct ones, a few loops."""
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 1 << n, size=(max(count // 2, 1), 2))
        pairs = pool[rng.integers(0, len(pool), size=count)]
        flip = rng.random(count) < 0.5
        pairs[flip] = pairs[flip, ::-1]
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_from_blocks_matches_unique(self, count):
        # Blocks of 1000 pairs, so that they straddle the canonicalizer's
        # blocks, and a last block of two loops at one vertex.
        u, v = self.random_pairs(count, count)
        proper = u != v
        u, v = u[proper], v[proper]
        want = unique_rows(np.minimum(u, v) << self.N | np.maximum(u, v), self.N)
        blocks = [*pair_blocks(u, v, 1000), (np.array([3, 3]), np.array([3, 3]))]
        g = SampledGraph.from_blocks(self.params(), iter(blocks), 2 * len(u))
        assert np.array_equal(g.edges, want) and g.loops.tolist() == [3]
        assert_split_in_place(g, len(u))

    @pytest.mark.parametrize("n", [N, 40])
    @pytest.mark.parametrize("include_loops", [True, False])
    def test_from_blocks_matches_lexsort_at_either_route(self, n, include_loops):
        u, v = self.random_pairs(3 * B + 5, n, n)
        u[::97] = v[::97]
        g = SampledGraph.from_blocks(
            self.params(n), pair_blocks(u, v, 777), 2 * len(u), include_loops
        )
        edges, loops = lexsort_canonical(u, v, include_loops)
        assert np.array_equal(g.edges, edges) and np.array_equal(g.loops, loops)
        assert g.edges.dtype == g.loops.dtype == np.int64 and not g.edges.flags.writeable

    @pytest.mark.parametrize("n", [N, 40])
    @pytest.mark.parametrize("reserve", [0, 10])
    def test_no_blocks_give_the_empty_graph(self, n, reserve):
        g = SampledGraph.from_blocks(self.params(n), iter(()), reserve)
        assert g.edges.shape == (0, 2) and g.edges.dtype == g.loops.dtype == np.int64
        assert g.loops.shape == (0,)
        assert g == SampledGraph.from_pairs(self.params(n), [])

    @pytest.mark.parametrize("share", [0, 0.01, 0.5, 1, 2, 3])
    def test_any_reserve_gives_the_same_rows_in_2e_slots(self, share):
        # A reserve below the key count makes the buffer double while the
        # blocks arrive; one of 0 grows it from nothing.
        count = 3 * B + 5
        u, v = self.random_pairs(count, 17)
        g = SampledGraph.from_blocks(self.params(), pair_blocks(u, v, B // 3), int(share * count))
        edges, loops = unique_canonical(u, v, self.N, True)
        assert np.array_equal(g.edges, edges) and np.array_equal(g.loops, loops)
        assert g.edges.base.size == 2 * len(g.edges) and g.edges.base.base is None

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("include_loops", [True, False])
    def test_from_pairs_matches_unique(self, count, include_loops):
        u, v = self.random_pairs(count, count + 1)
        g = SampledGraph.from_pairs(self.params(), u, v, include_loops=include_loops)
        edges, loops = unique_canonical(u, v, self.N, include_loops)
        assert np.array_equal(g.edges, edges) and np.array_equal(g.loops, loops)
        assert g.edges.dtype == g.loops.dtype == np.int64
        assert_split_in_place(g, count)

    @pytest.mark.parametrize("span", [(B - 1, B + 1), (B - 5, 2 * B + 5), (0, 3 * B)])
    def test_repeats_across_block_boundaries(self, span):
        # After the sort one key fills positions span[0] to span[1] - 1, so
        # its run starts in one block and ends in a later one (or is all).
        # Distinct keys of pairs lo < 2^11 <= hi, ascending, and then the run.
        i = np.arange(3 * B, dtype=np.int64)
        keys = (i >> 11) << self.N | (1 << 11) + (i & 2047)
        keys[span[0] : span[1]] = keys[span[0]]
        keys = np.random.default_rng(span[1]).permutation(keys)
        g = SampledGraph.from_blocks(self.params(), key_blocks(keys, self.N, B), len(keys))
        assert np.array_equal(g.edges, unique_rows(keys, self.N))
        assert len(g.edges) == 3 * B - (span[1] - span[0]) + 1

    @pytest.mark.parametrize("row", ["first", "last", "both"])
    def test_loops_at_the_first_and_last_row_of_blocks(self, row):
        count = 3 * B + 5
        u, v = self.random_pairs(count, 7)
        v[u == v] ^= 1  # the given loops alone
        first, last = [0, B, 2 * B, 3 * B], [B - 1, 2 * B - 1, 3 * B - 1, count - 1]
        at = {"first": first, "last": last, "both": first + last}[row]
        v[at] = u[at]
        g = SampledGraph.from_pairs(self.params(), u, v)
        edges, loops = unique_canonical(u, v, self.N, True)
        assert np.array_equal(g.edges, edges) and np.array_equal(g.loops, loops)
        assert set(u[at].tolist()) <= set(g.loops.tolist())

    @pytest.mark.parametrize("include_loops", [True, False])
    def test_all_loop_input(self, include_loops):
        w = np.arange(B + 3, dtype=np.int64)[::-1] % 100
        g = SampledGraph.from_pairs(self.params(), w, w, include_loops=include_loops)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        assert g.loops.tolist() == (list(range(100)) if include_loops else [])

    @pytest.mark.parametrize("form", ["ends", "rows"])
    def test_from_pairs_leaves_the_callers_arrays_alone(self, form):
        u, v = self.random_pairs(2 * B + 3, 11)
        u[::50] = v[::50]
        before = u.copy(), v.copy()
        if form == "ends":
            SampledGraph.from_pairs(self.params(), u, v)
        else:
            rows = np.column_stack((u, v))
            copy = rows.copy()
            SampledGraph.from_pairs(self.params(), rows)
            assert np.array_equal(rows, copy)
        assert np.array_equal(u, before[0]) and np.array_equal(v, before[1])

    @pytest.mark.parametrize(
        "n, dtype",
        [(8, np.uint8), (8, np.uint16), (8, np.uint32), (8, np.uint64), (8, np.int64),
         (40, np.uint64), (62, np.uint64)],
    )
    @pytest.mark.parametrize("form", ["ends", "rows"])
    def test_from_pairs_takes_ends_of_any_integer_type(self, n, dtype, form):
        # Each block of ends is taken as int64 on its own; the top vertex
        # of n = 62 sets bit 61 of uint64 ends.
        u, v = self.random_pairs(3 * B + 5, n, n)
        u[::97] = v[::97]
        u[5] = (1 << n) - 1
        want = lexsort_canonical(u, v, True)
        u, v = u.astype(dtype), v.astype(dtype)
        if form == "ends":
            g = SampledGraph.from_pairs(self.params(n), u, v)
        else:
            g = SampledGraph.from_pairs(self.params(n), np.column_stack((u, v)))
        assert np.array_equal(g.edges, want[0]) and np.array_equal(g.loops, want[1])
        assert g == SampledGraph.from_pairs(self.params(n), u.astype(np.int64), v.astype(np.int64))

    def test_repeated_draws_keep_16_bytes_per_edge(self):
        # 90% of the pairs repeat: the buffer of 2 x count slots is trimmed
        # to the 2E slots of the rows.
        count = 5 * B
        u, v = self.random_pairs(count // 10, 13)
        u, v = np.tile(u, 10), np.tile(v, 10)
        g = SampledGraph.from_pairs(self.params(), u, v)
        assert len(g.edges) <= count // 10
        assert g.edges.base.size == g.edges.size == 2 * len(g.edges)
