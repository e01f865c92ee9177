"""Graph realization strategies: naive pairwise Bernoulli, stratified
class-based sampling, and the recursive digit-sampling (R-MAT) procedure.

All three are deterministic functions of a :class:`SeedSpec`, and all three
make a loop as the pair u = v, which ``SampledGraph.from_pairs`` keeps, or
drops without loops.  The naive sampler (diagonal included) and R-MAT draw
every pair from one stream; the stratified sampler draws every pair class
from one stream and every loop class from another.  So switching loops off
leaves the edges unchanged.  Per family, the stratified sampler draws every
class's edge count in one binomial call and the ranks of each run of small
sparse classes in one integers call, so a small graph costs a handful of
numpy calls rather than two per class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import CapacityError, ParameterError
from .model import (
    GRAPH_MAX_N, PROB_TOL, KroneckerParams, SampledGraph, edge_probability_array
)
from .streams import SeedSpec

NAIVE_MAX_N = 14
STRATIFIED_MAX_N = 30
# The stratified sampler's default budget is a memory ceiling over its
# measured peak resident bytes per edge.  The peak is in from_pairs, which
# holds the two int64 end arrays, the packed keys and the (E, 2) result at
# once (40 B per edge); the ranks' int16 class index (2 B per edge) is freed
# before it.  At (0.99, 0.99, 0.99), n = 13, the whole process peaked at
# 1270 MiB for 29.4M edges, 45.2 B per edge with the interpreter.
GENERATE_MEMORY_CEILING = 3 << 30  # bytes
STRATIFIED_PEAK_BYTES_PER_EDGE = 48
DEFAULT_EDGE_BUDGET = GENERATE_MEMORY_CEILING // STRATIFIED_PEAK_BYTES_PER_EDGE
# R-MAT's cap on draws is the same ceiling over its peak per draw, measured
# the same way at its worst, from_pairs' lexsort route: at n = 40, `generate`
# of 16M distinct draws peaked at 1220 MiB, 80.0 B per draw with the
# interpreter (48.0 B at n = 20).
RMAT_PEAK_BYTES_PER_DRAW = 80
RMAT_MAX_EDGES = GENERATE_MEMORY_CEILING // RMAT_PEAK_BYTES_PER_DRAW
_NAIVE_ROW_BLOCK = 128
_RMAT_SUBBLOCK = 1 << 16  # rows per rng.random call: 32 MB of doubles at n = 62
# Ranks per stratified unranking pass, any mix of classes.  A pass holds
# 3n int32 digit masks per rank: 1.2 MiB at n = 13, 2.8 MiB at n = 30.  A
# pass four times that size raised count-n13's peak RSS by about 2 MB.
_UNRANK_BLOCK = 1 << 13
# Draws a sparse class makes beyond its count before it looks for repeats.
_SPARE_DRAWS = 16
# Sparse classes (4k < size) of at most this many edges draw their ranks
# together, one rng.integers call per run of consecutive such classes
# (_draw_sparse_run); a run of the 496 classes at n = 30 holds at most
# 135k draws.  Larger classes draw alone, through _sample_distinct's
# bounded memory.
_RANK_BATCH_MAX = 1 << 8

# Binomial coefficients C[i, j] for i, j <= STRATIFIED_MAX_N, exact in int32
# (C(30, 15) < 2^31), with a zero last row and column so that index -1
# reads C = 0.
_COMB = np.array(
    [[math.comb(i, j) for j in range(STRATIFIED_MAX_N + 2)] for i in range(STRATIFIED_MAX_N + 1)]
    + [[0] * (STRATIFIED_MAX_N + 2)],
    dtype=np.int32,
)


@dataclass(frozen=True)
class RmatParams:
    """Digit-sampling parameters: the initiator entries must satisfy
    alpha + 2*beta + gamma = 1, and m is the number of generated pairs, at
    most RMAT_MAX_EDGES, with n <= GRAPH_MAX_N (CapacityError past either)."""

    base: KroneckerParams
    m: int

    def __post_init__(self) -> None:
        total = self.base.alpha + 2.0 * self.base.beta + self.base.gamma
        if abs(total - 1.0) > PROB_TOL:
            raise ParameterError(
                f"alpha + 2*beta + gamma must equal 1, got {total!r}"
            )
        if self.m < 1:
            raise ParameterError(f"rmat generation needs at least 1 draw, got {self.m}")
        if self.m > RMAT_MAX_EDGES:
            raise CapacityError(f"rmat generation caps at {RMAT_MAX_EDGES} draws, got {self.m}")
        if self.base.n > GRAPH_MAX_N:
            raise CapacityError(f"rmat generation caps at n = {GRAPH_MAX_N}, got n = {self.base.n}")


def pair_classes(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (a, b, c, size): unordered-pair counts per digit class.

    a both-one digits, b >= 1 mixed digits, c both-zero digits; the sizes
    over all classes add up to 2^(n-1) (2^n - 1).
    """
    for a in range(n + 1):
        for b in range(1, n - a + 1):
            c = n - a - b
            size = math.comb(n, a) * math.comb(n - a, b) * (1 << (b - 1))
            yield a, b, c, size


class _ClassTable(NamedTuple):
    """Read-only int64 columns over the classes the stratified sampler
    draws, pair classes first, then loop class w as pair class (w, 0)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    size: np.ndarray
    start: np.ndarray  # the class's first key: the sizes before it, summed
    families: tuple  # (stream label, slice of its classes) per family


@functools.lru_cache(maxsize=None)
def _class_table(n: int, include_loops: bool) -> _ClassTable:
    """The class table of n, built once per (n, include_loops).  Keys
    start + rank stay below the 2^(n-1) (2^n + 1) pairs u <= v, under 2^60
    at n = 30."""
    rows = list(pair_classes(n))
    families = [("class", slice(0, len(rows)))]
    if include_loops:
        families.append(("loop_class", slice(len(rows), len(rows) + n + 1)))
        rows += [(w, 0, n - w, math.comb(n, w)) for w in range(n + 1)]
    columns = np.array(rows, dtype=np.int64).T.copy()
    start = np.cumsum(columns[3]) - columns[3]
    columns.flags.writeable = start.flags.writeable = False
    return _ClassTable(*columns, start, tuple(families))


def expected_edge_count(params: KroneckerParams, include_loops: bool = True) -> float:
    """Expected number of distinct edges (plus loops when enabled).

    The ordered pairs (u, v) sum to (alpha + 2 beta + gamma)^n and the
    diagonal to (alpha + gamma)^n, so the pairs u < v give
    ((alpha + 2 beta + gamma)^n - (alpha + gamma)^n) / 2.  The difference
    goes through the ratio of the two, 1 / (1 + 2 beta / (alpha + gamma)),
    and expm1, so that a small beta loses no precision and a tiny
    alpha + gamma neither overflows nor divides by zero.
    """
    n, beta = params.n, params.beta
    loop_base = params.alpha + params.gamma
    ordered = (loop_base + 2.0 * beta) ** n
    pairs = -ordered * math.expm1(-n * math.log1p(2.0 * beta / loop_base)) / 2.0
    return pairs + loop_base**n if include_loops else pairs


def check_naive(params: KroneckerParams) -> None:
    """Raise CapacityError where generate_naive refuses params."""
    if params.n > NAIVE_MAX_N:
        raise CapacityError(
            f"naive generation enumerates all pairs and caps at n = {NAIVE_MAX_N},"
            f" got n = {params.n}; use the stratified generator"
        )


def check_stratified(params: KroneckerParams, include_loops: bool = True) -> None:
    """Raise CapacityError where generate_stratified refuses params."""
    n = params.n
    if n > STRATIFIED_MAX_N:
        raise CapacityError(f"stratified generation caps at n = {STRATIFIED_MAX_N}, got n = {n}")
    expected = expected_edge_count(params, include_loops)
    if expected > DEFAULT_EDGE_BUDGET:
        raise CapacityError(
            f"expected edge count {expected:.3g} exceeds the budget {DEFAULT_EDGE_BUDGET:.3g}"
        )


def generate_naive(
    params: KroneckerParams, include_loops: bool = True, seed: SeedSpec = SeedSpec(0)
) -> SampledGraph:
    """Independent Bernoulli draw for each of the 2^(n-1) (2^n + 1) vertex
    pairs u <= v, the diagonal included.

    The reference generator: distributionally the model itself.  Rows are
    scanned in blocks of 128, every pair from the stream seed.child("pairs"),
    and a drawn pair u = v is a loop, which from_pairs drops without
    include_loops.  Capped at n = 14; use generate_stratified beyond that.
    """
    check_naive(params)
    size = params.vertex_count
    rng = seed.child("pairs").generator()
    us = []
    vs = []
    for block_start in range(0, size, _NAIVE_ROW_BLOCK):
        rows = np.arange(block_start, min(block_start + _NAIVE_ROW_BLOCK, size))
        u_arr = np.repeat(rows, size - rows).astype(np.uint64)
        v_arr = np.concatenate([np.arange(r, size, dtype=np.uint64) for r in rows])
        prob = edge_probability_array(params, u_arr, v_arr)
        keep = rng.random(len(prob)) < prob
        us.append(u_arr[keep].astype(np.int64))
        vs.append(v_arr[keep].astype(np.int64))
    return SampledGraph.from_pairs(
        params, np.concatenate(us), np.concatenate(vs), include_loops=include_loops
    )


def _unrank_pairs(n: int, a, b, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of the rank-th pairs of classes (a, b), given per rank.

    rank = (ones rank * C(n - a, b) + mixed rank) * 2^(b - 1) + orientation,
    where the ones rank picks the a one digits among all n and the mixed rank
    the b mixed digits among the other n - a, both as lexicographic subsets
    (Kreher and Stinson, Combinatorial Algorithms, 1999, 2.3).  One pass over
    the digits walks both subsets; mixed digits take the bits of
    (orientation << 1) | 1 in turn, 1 sending the digit to u, so the lowest
    mixed digit goes to u.  Class (w, 0) is loop class w: u = v = the
    rank-th vertex of weight w.  Decisions are -1/0 masks, and index -1
    reads _COMB's zero row or column, so exhausted subsets need no branch.

    Only the split of the int64 rank is 64-bit.  For n <= 30 the walk's
    state fits int32 lanes: both subset ranks are below C(30, 15) < 2^31,
    (orientation << 1) | 1 and the vertices below 2^30.  The vertices come
    back as int32.
    """
    rest, orient = np.divmod(ranks, np.maximum(np.left_shift(np.int64(1), b) >> 1, 1))
    r_ones, r_mixed = np.divmod(rest, _COMB[n - a, b])
    r_ones = r_ones.astype(np.int32)
    r_mixed = r_mixed.astype(np.int32)
    orient = orient.astype(np.int32)
    orient <<= 1
    orient |= 1
    ones_left = np.broadcast_to(a - 1, ranks.shape).astype(np.int32)
    # Flat _COMB index of C(free digits left - 1, mixed digits left - 1).
    cell = np.broadcast_to((n - 1 - a) * _COMB.shape[1] + b - 1, ranks.shape).astype(np.int32)
    # Per digit: one-digit mask, mixed-digit mask, to-u bit.
    digits = np.empty((3, n, len(ranks)), dtype=np.int32)
    for p in range(n):
        count = _COMB[n - 1 - p].take(ones_left)
        r_ones -= count
        one = np.right_shift(r_ones, 31, out=digits[0, p])
        r_ones += count & one
        ones_left += one
        free = ~one
        count = _COMB.take(cell)
        count &= free
        r_mixed -= count
        is_mixed = np.right_shift(r_mixed, 31, out=digits[1, p])
        r_mixed += count & is_mixed
        cell -= free & _COMB.shape[1]
        cell += is_mixed
        shift = -is_mixed  # 1 where digit p is mixed: its orientation bit is used up
        np.bitwise_and(orient, shift, out=digits[2, p])
        orient >>= shift
    powers = np.left_shift(1, np.arange(n, dtype=np.int32))[:, None]
    digits[:2] &= powers
    digits[2] *= powers
    ones, mixed, to_u = np.bitwise_or.reduce(digits, axis=1)
    return ones | to_u, ones | (mixed ^ to_u)


def _sample_distinct(rng: np.random.Generator, size: int, k: int) -> np.ndarray:
    """k distinct uniform ranks from [0, size)."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if 4 * k >= size and size <= (1 << 24):
        return rng.permutation(size)[:k].astype(np.int64)
    if 2 * k > size:
        # would need a materialized permutation beyond the memory cap
        raise CapacityError(
            f"cannot sample {k} distinct ranks from a class of size {size}"
        )
    # Keep the first k distinct values in draw order; unlike trimming a
    # sorted pool, this leaves the subset exactly uniform.
    draws = rng.integers(0, size, size=k + _SPARE_DRAWS, dtype=np.int64)
    while True:
        ordered = np.sort(draws)
        repeats = ordered[1:][ordered[1:] == ordered[:-1]]
        distinct = len(draws) - len(repeats)
        if distinct >= k:
            break
        more = rng.integers(0, size, size=k - distinct + _SPARE_DRAWS, dtype=np.int64)
        draws = np.concatenate([draws, more])
    if len(repeats):
        # Drop every occurrence of a repeated value but its first.
        at = np.flatnonzero(np.isin(draws, repeats))
        _, first = np.unique(draws[at], return_index=True)
        draws = np.delete(draws, np.delete(at, first))
    return draws[:k]


def _draw_sparse_run(
    rng: np.random.Generator, sizes: np.ndarray, counts: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """counts[i] distinct uniform ranks of [0, sizes[i]) per class i, in
    class order, for a run of sparse classes.

    Class i draws counts[i] + _SPARE_DRAWS ranks, or none at a zero count,
    and the whole run draws in one rng.integers call, which yields what
    consecutive per-class calls would.  Repeats are found over the keys
    starts[i] + rank, distinct across classes, by one stable sort.  Each
    class keeps its first counts[i] distinct ranks in draw order, as
    _sample_distinct does, which leaves its subset exactly uniform.  Every
    class left short draws counts[i] - distinct + _SPARE_DRAWS more, all in
    one call, after the whole run's first draws, until none is short.
    """
    cls = np.repeat(np.arange(len(sizes)), np.where(counts > 0, counts + _SPARE_DRAWS, 0))
    ranks = rng.integers(0, sizes[cls], dtype=np.int64)
    refilled = False
    while True:
        keys = starts[cls] + ranks
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[order[1:]] = keys[1:] != keys[:-1]
        distinct = np.bincount(cls[first], minlength=len(sizes))
        short = np.flatnonzero(distinct < counts)
        if not len(short):
            break
        more = np.repeat(short, counts[short] - distinct[short] + _SPARE_DRAWS)
        cls = np.concatenate([cls, more])
        ranks = np.concatenate([ranks, rng.integers(0, sizes[more], dtype=np.int64)])
        refilled = True
    cls, ranks = cls[first], ranks[first]
    if refilled:
        # Refills sit after the run's first draws: regroup by class, in draw order.
        order = np.argsort(cls, kind="stable")
        cls, ranks = cls[order], ranks[order]
    place = np.arange(len(cls)) - (np.cumsum(distinct) - distinct)[cls]
    return ranks[place < counts[cls]]


def _draw_class_ranks(
    rng: np.random.Generator, sizes: np.ndarray, counts: np.ndarray, starts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write counts[i] distinct uniform ranks of [0, sizes[i]) for every
    class i into out, in class order, all from rng.

    Each run of consecutive sparse classes (4k < size) of at most
    _RANK_BATCH_MAX edges draws in one go (_draw_sparse_run).  Every other
    class, dense or large, draws alone through _sample_distinct, in class
    order between the runs.
    """
    offsets = [0] + np.cumsum(counts).tolist()
    alone = np.flatnonzero((4 * counts >= sizes) | (counts > _RANK_BATCH_MAX)).tolist()
    run = 0
    for i in alone + [len(sizes)]:
        if offsets[run] < offsets[i]:
            out[offsets[run] : offsets[i]] = _draw_sparse_run(
                rng, sizes[run:i], counts[run:i], starts[run:i]
            )
        if i < len(sizes):
            out[offsets[i] : offsets[i + 1]] = _sample_distinct(rng, int(sizes[i]), int(counts[i]))
        run = i + 1


def generate_stratified(
    params: KroneckerParams,
    include_loops: bool = True,
    seed: SeedSpec = SeedSpec(0),
) -> SampledGraph:
    """Class-based sampler with the same output distribution as generate_naive.

    Pairs are grouped by digit class (a, b, c); each class draws a binomial
    edge count and then that many distinct uniform pair ranks, so the joint
    law over all pairs is exactly independent Bernoulli.  Loops are drawn
    the same way per weight class w, as pair class (w, 0), whose pairs
    u == v from_pairs keeps as loops.  Every pair class draws from the
    stream seed.child("class") and every loop class from
    seed.child("loop_class"), so the edges do not depend on include_loops.
    The class table of each (n, include_loops) is built once.  Per family,
    one rng.binomial call draws every class's count, and then the ranks are
    drawn in class order: one rng.integers call per run of small sparse
    classes, one _sample_distinct call per dense or large class
    (_draw_class_ranks).  The ranks go into the edge array itself, allocated
    at its final size, and are unranked in place by _unrank_pairs,
    _UNRANK_BLOCK ranks per vectorized pass with each rank's class as its
    key, so a small graph pays one pass rather than one per class; the
    blocking consumes no randomness and leaves the output unchanged.  Past
    n = 30 or DEFAULT_EDGE_BUDGET expected edges, check_stratified refuses
    the graph before any class is sampled.
    """
    n = params.n
    check_stratified(params, include_loops)
    table = _class_table(n, include_loops)
    la, lb, lg = params.log_entries()
    probs = np.exp(table.a * la + table.b * lb + table.c * lg)
    families = [(seed.child(label).generator(), part) for label, part in table.families]
    counts = [rng.binomial(table.size[part], probs[part]) for rng, part in families]
    edge_u = np.empty(sum(int(family_counts.sum()) for family_counts in counts), dtype=np.int64)
    at = 0
    for (rng, part), family_counts in zip(families, counts):
        stop = at + int(family_counts.sum())
        _draw_class_ranks(rng, table.size[part], family_counts, table.start[part], edge_u[at:stop])
        at = stop
    # n <= 30 gives at most 465 pair classes and 31 loop classes, 496 in all.
    class_of = np.repeat(np.arange(len(table.size), dtype=np.int16), np.concatenate(counts))
    edge_v = np.empty_like(edge_u)
    # Each slice of ranks is read whole before its vertices overwrite it.
    for s in range(0, len(edge_u), _UNRANK_BLOCK):
        e = s + _UNRANK_BLOCK
        a, b = table.a[class_of[s:e]], table.b[class_of[s:e]]
        edge_u[s:e], edge_v[s:e] = _unrank_pairs(n, a, b, edge_u[s:e])
    del class_of  # the loop keeps no view of it, so from_pairs runs without it
    return SampledGraph.from_pairs(params, edge_u, edge_v, include_loops=include_loops)


def rmat_pairs(rmat: RmatParams, seed: SeedSpec = SeedSpec(0)) -> tuple[np.ndarray, np.ndarray]:
    """The m raw ordered vertex pairs, drawn digit by digit.

    Per digit, (u_k, v_k) is (1,1) with probability alpha, (0,0) with
    probability gamma, and each mixed outcome with probability beta,
    independently across digits and pairs.  All m pairs come from one
    stream; duplicates are not merged here.
    """
    params = rmat.base
    n = params.n
    alpha, beta = params.alpha, params.beta
    powers = (np.int64(1) << np.arange(n, dtype=np.int64)).astype(np.int64)
    us = np.empty(rmat.m, dtype=np.int64)
    vs = np.empty(rmat.m, dtype=np.int64)
    # Labelled as the first of the 2^20-draw chunks that once had a stream
    # each, so graphs of at most 2^20 draws keep their bytes.
    rng = seed.child("pairs", 0).generator()
    # Consecutive rng.random((rows, n)) calls yield the same doubles as one
    # call for all m rows, so sub-blocks only bound the memory.
    for block in range(0, rmat.m, _RMAT_SUBBLOCK):
        rows = min(_RMAT_SUBBLOCK, rmat.m - block)
        x = rng.random((rows, n))
        u_bits = x < alpha + beta
        v_bits = (x < alpha) | ((x >= alpha + beta) & (x < alpha + 2.0 * beta))
        us[block : block + rows] = u_bits.astype(np.int64) @ powers
        vs[block : block + rows] = v_bits.astype(np.int64) @ powers
    return us, vs


def generate_rmat(rmat: RmatParams, seed: SeedSpec = SeedSpec(0)) -> SampledGraph:
    """Merge the m digit-sampled pairs into a simple unordered edge set.

    Multi-edges collapse, pairs are symmetrized, and u = v draws are kept
    in the loops field rather than being discarded.
    """
    u, v = rmat_pairs(rmat, seed)
    return SampledGraph.from_pairs(rmat.base, u, v, include_loops=True)


def degree_histogram(graph: SampledGraph, count_loops: bool = True) -> dict:
    """Map degree -> number of vertices; counts sum to 2^n.

    With count_loops a self-loop adds 1 to its vertex's degree, matching the
    convention under which the closed-form degree moments are exact.
    """
    degrees = graph.degrees(count_loops=count_loops)
    counts = np.bincount(degrees)
    return {int(d): int(c) for d, c in enumerate(counts) if c > 0}
