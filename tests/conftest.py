"""Shared helpers: independent brute-force oracles used across the suite.

These are deliberately written as plain loops over digit positions and
labelings, independent of the library's vectorized paths, so that agreement
between the two is evidence rather than tautology.
"""

import itertools
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from scipy import sparse

from kronval import (
    CapacityError,
    KroneckerParams,
    ParameterError,
    PatternGraph,
    SampledGraph,
    SeedSpec,
    generate_stratified,
)


def brute_edge_probability(params: KroneckerParams, u: int, v: int) -> float:
    """Literal digit-by-digit product over initiator entries."""
    matrix = [[params.gamma, params.beta], [params.beta, params.alpha]]
    out = 1.0
    for k in range(params.n):
        out *= matrix[(u >> k) & 1][(v >> k) & 1]
    return out


def brute_base_value(params: KroneckerParams, vertex_count: int, edges) -> float:
    """Sum over all 0/1 vertex labelings, evaluated with plain loops."""
    matrix = [[params.gamma, params.beta], [params.beta, params.alpha]]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=vertex_count):
        term = 1.0
        for u, v in edges:
            term *= matrix[bits[u]][bits[v]]
        total += term
    return total


def pair_class(u: int, v: int, n: int) -> tuple[int, int, int]:
    """Digit-position counts of the pair {u, v}: both one, mixed, both zero."""
    a, b = (u & v).bit_count(), (u ^ v).bit_count()
    return a, b, n - a - b


# Edge-labeling oracles: the dual route to the vertex-labeling sum, and the
# vertex identification behind the base-value monotonicity test.
EDGE_LABELING_MAX_EDGES = 20


def edge_labeling_from_vertex_labeling(pattern: PatternGraph, g: int) -> int:
    """The labeling each edge inherits as the digit difference |g(u)-g(v)|."""
    labeling = 0
    for index, (u, v) in enumerate(pattern.edge_list):
        if ((g >> u) ^ (g >> v)) & 1:
            labeling |= 1 << index
    return labeling


def valid_edge_labelings(pattern: PatternGraph) -> frozenset:
    """All edge labelings realizable as digit differences of a vertex labeling.

    Decided by the cycle-parity criterion: vertex labels are propagated
    along a spanning tree and every non-tree edge must agree, which holds
    exactly when each cycle carries an even number of 1-labels.  Requires a
    connected pattern (each valid labeling then has exactly two vertex
    labelings above it).  Bit i of a labeling refers to edge_list[i].
    """
    if not pattern.is_connected():
        raise ParameterError("edge labelings are only supported for connected patterns")
    e = pattern.edge_count
    if e > EDGE_LABELING_MAX_EDGES:
        raise CapacityError(
            f"edge-labeling enumeration caps at {EDGE_LABELING_MAX_EDGES} edges, got {e}"
        )
    edge_index = {edge: i for i, edge in enumerate(pattern.edge_list)}

    tree_steps = []  # (child, parent, edge bit index) in BFS order
    tree_edges = set()
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop(0)
        for w in range(pattern.vertex_count):
            if pattern.masks[u] >> w & 1 and w not in seen:
                seen.add(w)
                edge = (u, w) if u < w else (w, u)
                tree_steps.append((w, u, edge_index[edge]))
                tree_edges.add(edge)
                frontier.append(w)

    candidates = np.arange(1 << e, dtype=np.int64)
    labels = np.zeros((pattern.vertex_count, len(candidates)), dtype=np.int8)
    for child, parent, bit in tree_steps:
        labels[child] = labels[parent] ^ ((candidates >> bit) & 1).astype(np.int8)
    ok = np.ones(len(candidates), dtype=bool)
    for edge in pattern.edge_list:
        if edge in tree_edges:
            continue
        u, v = edge
        bit = edge_index[edge]
        ok &= (labels[u] ^ labels[v]) == ((candidates >> bit) & 1).astype(np.int8)
    return frozenset(int(x) for x in candidates[ok])


def base_value_from_edge_labelings(params: KroneckerParams, pattern: PatternGraph) -> float:
    """Base value computed over valid edge labelings (requires alpha = gamma).

    Equals 2 * sum over valid labelings of alpha^(#0-labels) beta^(#1-labels),
    the dual route to the vertex-labeling sum for connected patterns.
    """
    if not params.alpha_equals_gamma:
        raise ParameterError("the edge-labeling route requires alpha = gamma")
    e = pattern.edge_count
    total = 0.0
    for labeling in valid_edge_labelings(pattern):
        ones = labeling.bit_count()
        total += params.alpha ** (e - ones) * params.beta**ones
    return 2.0 * total


def identify_vertices(pattern: PatternGraph, u: int, v: int):
    """Merge vertex v into u; None when the result would not be simple.

    The merge is the standard surjective-homomorphism step: it is usable
    for base-value comparisons only when no loop (u adjacent to v) and no
    doubled edge (a common neighbor) would arise.
    """
    if u == v:
        raise ParameterError("cannot identify a vertex with itself")
    if pattern.masks[u] >> v & 1:
        return None
    if pattern.masks[u] & pattern.masks[v]:
        return None
    mapping = []
    for w in range(pattern.vertex_count):
        if w == v:
            mapping.append(None)
        else:
            mapping.append(w - (1 if w > v else 0))
    mapping[v] = mapping[u]
    return PatternGraph.from_edges(
        pattern.vertex_count - 1,
        ((mapping[a], mapping[b]) for a, b in pattern.edge_list),
    )


def to_networkx(pattern: PatternGraph) -> nx.Graph:
    """The pattern as a networkx graph on vertices 0..vertex_count-1, for
    networkx's isomorphism test and tree enumeration as oracles."""
    g = nx.Graph()
    g.add_nodes_from(range(pattern.vertex_count))
    g.add_edges_from(pattern.edge_list)
    return g


def from_networkx(graph: nx.Graph) -> PatternGraph:
    """A networkx graph on vertices 0..k-1 as a pattern."""
    return PatternGraph.from_edges(graph.number_of_nodes(), graph.edges())


def relabel(pattern: PatternGraph, mapping) -> PatternGraph:
    """Apply a vertex bijection given as a sequence of images."""
    return PatternGraph.from_edges(
        pattern.vertex_count, ((mapping[u], mapping[v]) for u, v in pattern.edge_list)
    )


def brute_degree_moments(params: KroneckerParams, w: int):
    """(mean, sum of squared probabilities) by summing over all 2^n vertices."""
    v = (1 << w) - 1  # any representative of the weight class
    mean = 0.0
    sum_sq = 0.0
    for u in range(params.vertex_count):
        p = brute_edge_probability(params, u, v)
        mean += p
        sum_sq += p * p
    return mean, sum_sq


def brute_expected_copies(params: KroneckerParams, vertex_count: int, edges) -> float:
    """Expected labeled copies as the literal sum over all injective maps of
    the pattern into Z_2^n, one (2^n)^v array of maps; tiny n only."""
    size = params.vertex_count
    maps = np.indices((size,) * vertex_count).reshape(vertex_count, -1).astype(np.uint64)
    injective = np.ones(maps.shape[1], dtype=bool)
    for x, y in itertools.combinations(range(vertex_count), 2):
        injective &= maps[x] != maps[y]
    maps = maps[:, injective]
    la, lb, lg = params.log_entries()
    log_prob = np.zeros(maps.shape[1])
    for u, v in edges:
        a = np.bitwise_count(maps[u] & maps[v]).astype(np.int64)
        b = np.bitwise_count(maps[u] ^ maps[v]).astype(np.int64)
        log_prob += a * la + b * lb + (params.n - a - b) * lg
    return float(np.exp(log_prob).sum())


def lexsort_canonical(u, v, include_loops: bool):
    """(edges, loops) in the canonical form of ``SampledGraph.from_pairs``,
    by a lexsort of the (lo, hi) rows: sorted, distinct, lo < hi; the pairs
    u = v are the loops."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    proper = u != v
    lo, hi = np.minimum(u, v)[proper], np.maximum(u, v)[proper]
    order = np.lexsort((hi, lo))
    rows = np.column_stack((lo[order], hi[order]))
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    if include_loops:
        all_loops = np.unique(u[~proper])
    else:
        all_loops = np.empty(0, dtype=np.int64)
    return rows[keep].reshape(-1, 2), all_loops


def lex_subset(items, k: int, rank: int) -> list:
    """The rank-th k-subset of ``items`` in lexicographic order: take each
    item while the rank falls below the count of subsets that contain it."""
    chosen = []
    for i, item in enumerate(items):
        if len(chosen) == k:
            break
        with_item = math.comb(len(items) - i - 1, k - len(chosen) - 1)
        if rank < with_item:
            chosen.append(item)
        else:
            rank -= with_item
    return chosen


def unrank_pair_oracle(n: int, a: int, b: int, rank: int) -> tuple[int, int]:
    """(u, v) of the rank-th pair of digit class (a, b), one rank at a time.

    rank = (ones rank * C(n - a, b) + mixed rank) * 2^(b - 1) + orientation:
    the ones rank picks the a one digits among all n, the mixed rank the b
    mixed digits among the rest, and orientation bit j sends mixed digit
    j + 1 (in increasing order) to u when set; the lowest mixed digit always
    goes to u.  Class (w, 0) yields the loop u = v = the rank-th weight-w
    vertex.
    """
    rest, orientation = divmod(rank, 1 << (b - 1) if b else 1)
    ones_rank, mixed_rank = divmod(rest, math.comb(n - a, b))
    ones = lex_subset(range(n), a, ones_rank)
    mixed = lex_subset([p for p in range(n) if p not in ones], b, mixed_rank)
    u = v = sum(1 << p for p in ones)
    for j, p in enumerate(mixed):
        if j == 0 or (orientation >> (j - 1)) & 1:
            u |= 1 << p
        else:
            v |= 1 << p
    return u, v


def gap_ranks_oracle(sizes, probs, families, seed, round_size: int) -> list:
    """(class, rank) of every rank the stratified sampler draws, one gap at
    a time.  Per family, from its stream: each round, the classes still
    drawing take, in class order, batches of min(floor(mean + 4 sqrt(mean)
    + 2), left + 1) exponentials, mean = left * p and left the pairs past
    the class's last rank, until round_size are taken; the round draws them
    in one call.  A class steps from its last rank by floor(min(E, 2 size
    rate) / rate) + 1, rate = -log1p(-p), and stops at the first step that
    leaves it; a class whose batch stays inside is drawn again next round."""
    out = []
    for label, part in families:
        rng = seed.child(label).generator()
        classes = [i for i in range(part.start, part.stop) if probs[i] > 0]
        last = {i: -1 for i in classes}
        while classes:
            batches, budget = [], round_size
            for i in classes:
                left = int(sizes[i]) - 1 - last[i]
                mean = left * float(probs[i])
                take = min(int(mean + 4 * math.sqrt(mean) + 2), left + 1, budget)
                if not take:
                    break
                batches.append((i, take))
                budget -= take
            draws = iter(rng.standard_exponential(sum(take for _, take in batches)).tolist())
            going = []
            for i, take in batches:
                size, rate = int(sizes[i]), -math.log1p(-float(probs[i]))
                steps = [int(min(next(draws), 2.0 * size * rate) / rate) + 1 for _ in range(take)]
                for step in steps:
                    last[i] += step
                    if last[i] >= size:
                        break
                    out.append((i, last[i]))
                else:
                    going.append(i)
            classes = going + classes[len(batches):]
    return out


def rmat_pairs_oracle(rmat, seed) -> tuple[np.ndarray, np.ndarray]:
    """``rmat_pairs`` as first written: all m rows of n doubles in one draw,
    u_k = x < alpha + beta and v_k = x < alpha or alpha + beta <= x <
    alpha + 2 beta, each packed by an int64 matmul with the digit weights."""
    n, alpha, beta = rmat.base.n, rmat.base.alpha, rmat.base.beta
    x = seed.child("pairs", 0).generator().random((rmat.m, n))
    u_bits = x < alpha + beta
    v_bits = (x < alpha) | ((x >= alpha + beta) & (x < alpha + 2.0 * beta))
    powers = np.int64(1) << np.arange(n, dtype=np.int64)
    return u_bits.astype(np.int64) @ powers, v_bits.astype(np.int64) @ powers


class CountingGenerator:
    """A numpy Generator that records the name of every method called on it."""

    def __init__(self, rng: np.random.Generator, calls: list):
        self._rng = rng
        self._calls = calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


class FixedDraws:
    """A stand-in seed whose every child stream hands out the given doubles
    in turn, round and round, from ``random(size)`` or ``random(out=...)``."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self._at = 0

    def child(self, *labels):
        return self

    def generator(self):
        return self

    def random(self, size=None, out=None):
        shape = out.shape if out is not None else size
        count = math.prod(shape)
        draws = np.resize(np.roll(self._values, -self._at), count).reshape(shape)
        self._at = (self._at + count) % len(self._values)
        if out is None:
            return draws
        out[...] = draws
        return out


def falling_factorial(d: int, k: int) -> int:
    out = 1
    for step in range(k):
        out *= d - step
    return out


def _oriented_edges(graph: SampledGraph):
    """(rank, low, high): each vertex's key under the order (loop-free
    degree, index), and each edge's lower- and higher-ranked end."""
    rank = graph.degrees(count_loops=False) * graph.vertex_count
    rank += np.arange(graph.vertex_count)
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    up = rank[u] < rank[v]
    return rank, np.where(up, u, v), np.where(up, v, u)


def _csr(rows, cols, size: int):
    """The size x size 0/1 int32 CSR matrix with ones at (rows[i], cols[i])."""
    ones = np.ones(len(rows), dtype=np.int32)
    return sparse.csr_matrix((ones, (rows, cols)), shape=(size, size))


def sparse_triangle_count(graph: SampledGraph) -> int:
    """Labeled triangles as ``6 * sum((U @ U) * U)`` over the upward-oriented
    adjacency U: each triangle once, at its lowest-ranked vertex."""
    _, low, high = _oriented_edges(graph)
    upper = _csr(low, high, graph.vertex_count)
    return 6 * int(upper.multiply(upper @ upper).sum(dtype=np.int64))


def sparse_cycle4_count(graph: SampledGraph) -> int:
    """Labeled 4-cycles as ``4 * sum(c * (c - 1))`` over the entries c of
    ``L @ A`` at (u, w) with w ranked below u, L the downward-oriented
    adjacency: c counts the common neighbours of u and w below u."""
    rank, low, high = _oriented_edges(graph)
    lower = _csr(high, low, graph.vertex_count)
    codeg = (lower @ (lower + lower.T)).tocoo()
    c = codeg.data[rank[codeg.col] < rank[codeg.row]].astype(np.int64)
    return 4 * int((c * (c - 1)).sum())


def traced_peak(call):
    """(call(), the peak bytes it had allocated at once beyond what was
    allocated when it started), by tracemalloc, which sees numpy's buffers."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="session")
def stratified_n16() -> SampledGraph:
    """A stratified graph of about 150k edges at n = 16, (0.6, 0.5, 0.6)."""
    return generate_stratified(KroneckerParams(0.6, 0.5, 0.6, 16), seed=SeedSpec(1))


@pytest.fixture
def small_params():
    return KroneckerParams(alpha=0.6, beta=0.4, gamma=0.2, n=3)


PARAM_GRID = [
    (0.6, 0.4, 0.2),
    (0.5, 0.3, 0.2),
    (0.7, 0.3, 0.3),
    (0.8, 0.45, 0.15),
    (0.35, 0.6, 0.55),
    (0.9, 0.2, 0.7),
    (0.25, 0.5, 0.75),
    (0.55, 0.55, 0.55),
    (0.4, 0.7, 0.4),
    (0.65, 0.25, 0.85),
]

SYMMETRIC_GRID = [
    (0.30, 0.25),
    (0.45, 0.35),
    (0.55, 0.50),
    (0.40, 0.70),
    (0.70, 0.50),
    (0.60, 0.45),
    (0.25, 0.60),
    (0.50, 0.30),
]
