"""Shared helpers: independent brute-force oracles used across the suite.

These are deliberately written as plain loops over digit positions and
labelings, independent of the library's vectorized paths, so that agreement
between the two is evidence rather than tautology.
"""

import itertools
import math

import networkx as nx
import numpy as np
import pytest

from kronval import KroneckerParams, PatternGraph


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


def to_networkx(pattern: PatternGraph) -> nx.Graph:
    """The pattern as a networkx graph on vertices 0..vertex_count-1, for
    networkx's isomorphism test and tree enumeration as oracles."""
    g = nx.Graph()
    g.add_nodes_from(range(pattern.vertex_count))
    g.add_edges_from(pattern.edges)
    return g


def from_networkx(graph: nx.Graph) -> PatternGraph:
    """A networkx graph on vertices 0..k-1 as a pattern."""
    return PatternGraph.from_edges(graph.number_of_nodes(), graph.edges())


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


def sample_distinct_oracle(rng: np.random.Generator, size: int, k: int) -> np.ndarray:
    """The first k distinct values of rng.integers(0, size) draws, in draw
    order, found with np.unique(return_index=True): 16 spare draws, then
    k - distinct + 16 more per refill, as the stratified sampler draws them
    where 4k < size."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    draws = rng.integers(0, size, size=k + 16, dtype=np.int64)
    while True:
        unique, first_seen = np.unique(draws, return_index=True)
        if len(unique) >= k:
            return draws[np.sort(first_seen)[:k]]
        more = rng.integers(0, size, size=k - len(unique) + 16, dtype=np.int64)
        draws = np.concatenate([draws, more])


def sparse_run_oracle(rng: np.random.Generator, sizes, counts) -> np.ndarray:
    """The ranks of a run of sparse classes, one class at a time: class i
    draws counts[i] + 16 values (none at a zero count), then, round by
    round, every class with fewer than counts[i] distinct values draws
    counts[i] - distinct + 16 more, appended after its earlier draws; each
    class keeps its first counts[i] distinct values in draw order."""
    sizes, counts = [int(s) for s in sizes], [int(k) for k in counts]
    draws = [rng.integers(0, s, size=k + 16).tolist() if k else [] for s, k in zip(sizes, counts)]
    while True:
        short = [i for i, k in enumerate(counts) if len(set(draws[i])) < k]
        if not short:
            break
        for i in short:
            more = counts[i] - len(set(draws[i])) + 16
            draws[i] += rng.integers(0, sizes[i], size=more).tolist()
    kept = []
    for class_draws, k in zip(draws, counts):
        kept += list(dict.fromkeys(class_draws))[:k]
    return np.array(kept, dtype=np.int64)


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


def falling_factorial(d: int, k: int) -> int:
    out = 1
    for step in range(k):
        out *= d - step
    return out


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
