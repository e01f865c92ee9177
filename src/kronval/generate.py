"""Graph realization strategies: naive pairwise Bernoulli, stratified
class-based sampling, and the recursive digit-sampling (R-MAT) procedure.

All three are deterministic functions of a :class:`SeedSpec`, and all three
make a loop as the pair u = v, which the graph keeps, or drops without
loops.  The naive sampler (diagonal included) and R-MAT draw
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

from .errors import CapacityError, DimensionError, ParameterError
from .model import (
    GRAPH_MAX_N,
    PROB_TOL,
    KroneckerParams,
    SampledGraph,
    _pack_digits,
    edge_probability,
)
from .streams import SeedSpec

NAIVE_MAX_N = 14
STRATIFIED_MAX_N = 30
# The stratified sampler's default budget is a memory ceiling over its
# measured peak resident bytes per edge.  The ranks are unranked in place
# into packed pair keys, so the peak is in SampledGraph.from_keys, which
# holds the keys, a bool per key and the (E, 2) result at once (25 B per
# edge); the ranks' int16 class index (2 B per edge) is freed before it.
# Rank draws hold the keys and at most about 18 B per rank of their class
# (_sample_distinct), or a permutation of at most 2^24 ranks.  The whole
# process peaked at 27.3 B per edge at (0.99, 0.99, 0.99), n = 13 (29.4M
# edges, permutations), 26.7 B at (0.001, 0.968, 0.001), n = 27 (28.7M,
# a bool per rank) and 26.5 B at (0.001, 0.9305, 0.001), n = 29 (34.3M,
# a sorted copy of the draws), with the interpreter and the heap the rank
# draws leave behind.
GENERATE_MEMORY_CEILING = 3 << 30  # bytes
STRATIFIED_PEAK_BYTES_PER_EDGE = 28
DEFAULT_EDGE_BUDGET = GENERATE_MEMORY_CEILING // STRATIFIED_PEAK_BYTES_PER_EDGE
# R-MAT's cap on draws is the same ceiling over its peak per draw, measured
# the same way at its worst, from_pairs' lexsort route: at n = 40, `generate`
# of 16M distinct draws peaked at 1220 MiB, 80.0 B per draw with the
# interpreter (48.0 B at n = 20).
RMAT_PEAK_BYTES_PER_DRAW = 80
RMAT_MAX_EDGES = GENERATE_MEMORY_CEILING // RMAT_PEAK_BYTES_PER_DRAW
_NAIVE_ROW_BLOCK = 128
_RMAT_SUBBLOCK = 1 << 16  # rows per rng.random call: 32 MB of doubles at n = 62
# Ranks per stratified unranking pass, any mix of classes.  A pass peaks
# at about 88 B per rank at n <= 16 (0.7 MiB), mostly int32 lanes, and
# 12 B more per walked digit for its three masks: 164 B at n = 20 and
# 284 B (2.3 MiB) at n = 30.  Passes of 2^15 ranks kept count-n13's wall
# time and raised its peak RSS by 0.1 MB (medians of 6 alternating pairs);
# they cut hamming-n20's wall time 7% but raised its peak RSS 1.3%.
_UNRANK_BLOCK = 1 << 13
# Digits unranked from one _subset_table: 2^16 int32 masks, 256 KiB.
# _unrank_pairs walks only the digits below the top _TABLE_MAX_N.  A 2^20
# table sped hamming-n20 further but was still resident, 4 MiB, when
# from_keys peaks.
_TABLE_MAX_N = 16
# Draws a sparse class makes beyond its count before it looks for repeats.
_SPARE_DRAWS = 16
# Draws _keep_first_distinct reads per pass.
_WALK_BLOCK = 1 << 13
# Sparse classes (4k < size) of at most this many edges draw their ranks
# together, one rng.integers call per run of consecutive such classes
# (_draw_sparse_run); a run of the 496 classes at n = 30 holds at most
# 135k draws.  Larger classes draw alone, through _sample_distinct, at
# most about 18 B per rank.
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


def _class_probabilities(params: KroneckerParams, table: _ClassTable) -> np.ndarray:
    """The edge probability alpha^a beta^b gamma^c of each class of the table."""
    la, lb, lg = params.log_entries()
    return np.exp(table.a * la + table.b * lb + table.c * lg)


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


def edge_sum_moments(
    params: KroneckerParams, include_loops: bool = True
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact (mean, variance) of two sums over one graph, for n <= 30:
    the total edge distance D and the total degree T = 2 edges + loops.

    Both are sums w(u, v) X_uv over the independent pair indicators X_uv,
    u <= v, where w is the distance for D, and 2 for a pair or 1 for a loop
    for T; loops enter only with include_loops.  All pairs of a class share
    its probability p and weight, so each sum runs over the classes of the
    stratified sampler's table: mean sum(size p w), variance
    sum(size p (1 - p) w^2).
    """
    table = _class_table(params.n, include_loops)
    p = _class_probabilities(params, table)
    mean = table.size * p  # expected edges per class
    var = mean * (1.0 - p)
    ends = np.where(table.b > 0, 2, 1)
    distance = (float((mean * table.b).sum()), float((var * table.b**2).sum()))
    degree = (float((mean * ends).sum()), float((var * ends**2).sum()))
    return distance, degree


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
    params: KroneckerParams, include_loops: bool = True, *, seed: SeedSpec
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
        prob = edge_probability(params, u_arr, v_arr)
        keep = rng.random(len(prob)) < prob
        us.append(u_arr[keep].astype(np.int64))
        vs.append(v_arr[keep].astype(np.int64))
    return SampledGraph.from_pairs(
        params, np.concatenate(us), np.concatenate(vs), include_loops=include_loops
    )


class _SubsetTable(NamedTuple):
    """Read-only int32 lookup of the lexicographic subsets of m digits."""

    masks: np.ndarray  # all 2^m masks: by weight, each weight in combinations order
    # start[a * (m + 1) + b]: where the b-subsets of the top m - a digits
    # begin in masks, the last C(m - a, b) masks of weight b; a = 0 gives
    # the start of weight block b.
    start: np.ndarray


@functools.lru_cache(maxsize=None)
def _subset_table(m: int) -> _SubsetTable:
    """The subset table of m <= _TABLE_MAX_N digits, built once per m.

    Within a weight, lexicographic order (digit i as bit i, the
    itertools.combinations order) is the descending order of the
    bit-reversed masks, so the masks are the bit reversals of
    2^m - 1, ..., 0, stable-sorted by weight.  The b-subsets of the top
    m - a digits, shifted right by a, are the b-subsets of m - a digits in
    that same order.
    """
    reversed_masks = np.zeros(1, dtype=np.int32)
    for _ in range(m):
        reversed_masks <<= 1
        reversed_masks = np.concatenate([reversed_masks, reversed_masks | 1])
    reversed_masks = reversed_masks[::-1]
    masks = reversed_masks[np.argsort(np.bitwise_count(reversed_masks), kind="stable")]
    weights = np.arange(m + 1)
    block_end = np.cumsum(_COMB[m, weights])
    start = (block_end - _COMB[m - weights[:, None], weights]).astype(np.int32).ravel()
    masks.flags.writeable = start.flags.writeable = False
    return _SubsetTable(masks, start)


def _byte_deposit_table() -> np.ndarray:
    """Flat uint8 table: entry mask << 8 | x deposits the low bits of x, in
    order, at the set bits of the byte mask (pdep).  The rows of the masks
    with bit i set are those without it, plus the next bit of x at digit i."""
    x = np.arange(256, dtype=np.uint8)
    table = np.zeros((1, 256), dtype=np.uint8)
    used = np.zeros((1, 1), dtype=np.uint8)  # bits of x each row deposits
    for i in range(8):
        table = np.concatenate([table, table | ((x >> used) & 1) << i])
        used = np.concatenate([used, used + 1])
    table = table.ravel()
    table.flags.writeable = False
    return table


_BYTE_DEPOSIT = _byte_deposit_table()


def _deposit(x: np.ndarray, mask: np.ndarray, digits: int) -> np.ndarray:
    """pdep per lane, in int32: the low bits of x, in order, at the set bits
    of mask, a byte of mask at a time over its low ceil(digits / 8) bytes.
    x must hold no more bits than mask sets below 2^digits, so that any
    mask bit set above 2^digits in the last byte takes a zero."""
    byte = mask & 255
    out = _BYTE_DEPOSIT.take(byte << 8 | (x & 255)).astype(np.int32)
    for shift in range(8, digits, 8):
        x = x >> np.bitwise_count(byte)
        byte = (mask >> shift) & 255
        out |= np.left_shift(_BYTE_DEPOSIT.take(byte << 8 | (x & 255)), shift, dtype=np.int32)
    return out


def _unrank_pairs(
    n: int, a: np.ndarray, b: np.ndarray, ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of the rank-th pairs of classes (a, b), all three int64
    arrays with an entry per rank.

    rank = (ones rank * C(n - a, b) + mixed rank) * 2^(b - 1) + orientation,
    where the ones rank picks the a one digits among all n and the mixed rank
    the b mixed digits among the other n - a, both as lexicographic subsets
    (Kreher and Stinson, Combinatorial Algorithms, 1999, 2.3).  Mixed digits
    take the bits of (orientation << 1) | 1 in turn, 1 sending the digit to
    u, so the lowest mixed digit goes to u.  Class (w, 0) is loop class w:
    u = v = the rank-th vertex of weight w.

    Lexicographic order decides the lowest digit first.  Above
    _TABLE_MAX_N digits, the low k = n - _TABLE_MAX_N are walked one at a
    time: a digit is a one if the ones rank falls below the count of
    subsets that hold it, else mixed if the mixed rank does.  The decisions
    are -1/0 masks, and index -1 reads _COMB's zero row or column, so
    exhausted subsets need no branch.  The walk leaves the ones and mixed
    digits still to place among the top m = n - k digits, and their ranks
    there.  Those read _subset_table(m): the ones straight from their
    weight block, the mixed digits as a subset of the top digits that are
    not ones, deposited into them (_deposit).  The orientation bits left
    are deposited into the mixed digits.  At n <= _TABLE_MAX_N no digit is
    walked.

    Only the split of the int64 rank is 64-bit.  For n <= 30 every lane
    fits int32: the walked subset ranks are below C(30, 15) < 2^31, table
    indices below 2^_TABLE_MAX_N, (orientation << 1) | 1 and the vertices
    below 2^30.  The vertices come back as int32.
    """
    orient_bits = np.maximum(b - 1, 0)
    rest = ranks >> orient_bits
    orient = (ranks - (rest << orient_bits)).astype(np.int32)
    r_ones, r_mixed = np.divmod(rest, _COMB.take((n - a) * _COMB.shape[1] + b))
    r_ones = r_ones.astype(np.int32)
    r_mixed = r_mixed.astype(np.int32)
    orient <<= 1
    orient |= 1
    m = min(n, _TABLE_MAX_N)
    k = n - m
    ones_left = a.astype(np.int32)  # ones and mixed digits among the top m
    mixed_left = b.astype(np.int32)
    if k:
        # Flat _COMB index of C(free digits left - 1, mixed digits left - 1).
        cell = (n - 1 - ones_left) * _COMB.shape[1] + mixed_left - 1
        ones_left -= 1
        # Per walked digit: one-digit mask, mixed-digit mask, to-u bit.
        digits = np.empty((3, k, len(ranks)), dtype=np.int32)
        for p in range(k):
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
        powers = np.left_shift(1, np.arange(k, dtype=np.int32))[:, None]
        digits[:2] &= powers
        digits[2] *= powers
        low = np.bitwise_or.reduce(digits, axis=1)
        ones_left += 1
        # cell + 1 = (free digits left - 1) * width + mixed digits left
        mixed_left = (cell + 1) % _COMB.shape[1]
    table = _subset_table(m)
    ones = table.masks.take(table.start.take(ones_left) + r_ones)
    mixed = table.masks.take(table.start.take(ones_left * (m + 1) + mixed_left) + r_mixed)
    mixed = _deposit(mixed >> ones_left, ~ones, m)
    to_u = _deposit(orient, mixed, m)
    if k:
        ones = ones << k | low[0]
        mixed = mixed << k | low[1]
        to_u = to_u << k | low[2]
    return ones | to_u, ones | (mixed ^ to_u)


def _sample_distinct(rng: np.random.Generator, size: int, k: int) -> np.ndarray:
    """k distinct uniform ranks from [0, size).

    A dense class (4k >= size) of at most 2^24 ranks takes the head of a
    random int64 permutation, a view that holds 8 B per rank of the class
    until the caller drops it.  Any other class keeps the first k distinct values
    of a stream of uniform draws, in draw order, which leaves the subset
    exactly uniform: it draws k + _SPARE_DRAWS ranks, and while fewer than
    k are distinct, k - distinct + _SPARE_DRAWS more.  When the class has at
    most 8k ranks, a bool per rank marks those kept, and each batch of draws
    is walked once and dropped.  Otherwise repeats are rare, and a sorted
    copy of the draws, freed before any refill, finds them.  Either way the
    call peaks at about 18 B per rank or less, its result included.
    """
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if 4 * k >= size and size <= (1 << 24):
        return rng.permutation(size)[:k]
    draws = rng.integers(0, size, size=k + _SPARE_DRAWS, dtype=np.int64)
    if size <= 8 * k:
        seen = np.zeros(size, dtype=bool)
        got = _keep_first_distinct(draws, None, seen, draws[:k], 0)
        while got < k:
            more = rng.integers(0, size, size=k - got + _SPARE_DRAWS, dtype=np.int64)
            got = _keep_first_distinct(more, None, seen, draws[:k], got)
        return draws[:k]
    while True:
        ordered = np.sort(draws)
        repeats = ordered[1:][ordered[1:] == ordered[:-1]]
        del ordered  # freed before a refill copies the draws
        distinct = len(draws) - len(repeats)
        if distinct >= k:
            break
        more = rng.integers(0, size, size=k - distinct + _SPARE_DRAWS, dtype=np.int64)
        draws = np.concatenate([draws, more])
    if len(repeats):
        _keep_first_distinct(draws, repeats, np.zeros(len(repeats), dtype=bool), draws[:k], 0)
    return draws[:k]


def _keep_first_distinct(
    draws: np.ndarray, repeats: np.ndarray | None, seen: np.ndarray, out: np.ndarray, got: int
) -> int:
    """Copy into out[got:], in draw order, each draw whose value no earlier
    draw had, until out is full, and return how many values out then holds.

    seen marks the values kept so far: seen[value], or, when repeats (sorted)
    holds every value that can recur, seen[i] for value repeats[i], any
    other value being kept at once.  The draws are read _WALK_BLOCK at a
    time, and out may be their own head: a block is copied before any of it
    is overwritten.
    """
    for start in range(0, len(draws), _WALK_BLOCK):
        if got == len(out):
            break
        block = draws[start : start + _WALK_BLOCK]
        if repeats is None:
            slot, hit = block, np.arange(len(block))
        else:
            # Once repeats outgrow the block, searches for sorted keys are
            # cache-friendly enough to pay for sorting the block.
            if len(repeats) > _WALK_BLOCK:
                order = np.argsort(block, kind="stable")
            else:
                order = np.arange(len(block))
            ordered = block[order]
            slot = np.searchsorted(repeats, ordered)
            found = repeats.take(slot, mode="clip") == ordered
            hit, slot = order[found], slot[found]
        slot, first = np.unique(slot, return_index=True)
        keep = np.ones(len(block), dtype=bool)
        keep[hit] = False
        keep[hit[first[~seen[slot]]]] = True
        seen[slot] = True
        kept = block[keep][: len(out) - got]
        out[got : got + len(kept)] = kept
        got += len(kept)
    return got


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
    params: KroneckerParams, include_loops: bool = True, *, seed: SeedSpec
) -> SampledGraph:
    """Class-based sampler with the same output distribution as generate_naive.

    Pairs are grouped by digit class (a, b, c); each class draws a binomial
    edge count and then that many distinct uniform pair ranks, so the joint
    law over all pairs is exactly independent Bernoulli.  Loops are drawn
    the same way per weight class w, as pair class (w, 0), whose pairs are
    u == v.  Every pair class draws from the stream seed.child("class") and
    every loop class from seed.child("loop_class"), so the edges do not
    depend on include_loops.  The class table of each (n, include_loops) is
    built once.  Per family, one rng.binomial call draws every class's count,
    and then the ranks are drawn in class order: one rng.integers call per
    run of small sparse classes, one _sample_distinct call per dense or large
    class (_draw_class_ranks).  The ranks go into one int64 array, allocated
    at its final size, and _unrank_pairs turns them in place into packed pair
    keys min(u, v) << n | max(u, v), _UNRANK_BLOCK ranks per vectorized pass
    with each rank's class as its key, so a small graph pays one pass rather
    than one per class; the blocking consumes no randomness and leaves the
    output unchanged.  Each pass reads the subsets of the top
    min(n, _TABLE_MAX_N) digits from one subset table, built once per digit
    count, and walks only the digits below them, none at n <= 16.  Each pass
    checks that its vertices fit n digits (DimensionError).  Pair classes
    come before loop classes, so the leading keys are the edges, which
    SampledGraph.from_keys sorts in place and splits into rows, and the
    trailing keys v << n | v name the loops.  The graph then costs its keys,
    a bool per key and its (E, 2) rows at the peak.  Past n = 30 or
    DEFAULT_EDGE_BUDGET expected edges, check_stratified refuses the graph
    before any class is sampled.
    """
    n = params.n
    check_stratified(params, include_loops)
    table = _class_table(n, include_loops)
    probs = _class_probabilities(params, table)
    families = [(seed.child(label).generator(), part) for label, part in table.families]
    counts = [rng.binomial(table.size[part], probs[part]) for rng, part in families]
    sizes = [int(family_counts.sum()) for family_counts in counts]
    keys = np.empty(sum(sizes), dtype=np.int64)
    at = 0
    for (rng, part), family_counts, size in zip(families, counts, sizes):
        ranks = keys[at : at + size]
        _draw_class_ranks(rng, table.size[part], family_counts, table.start[part], ranks)
        at += size
    # n <= 30 gives at most 465 pair classes and 31 loop classes, 496 in all.
    class_of = np.repeat(np.arange(len(table.size), dtype=np.int16), np.concatenate(counts))
    # Each slice of ranks is read whole before its keys overwrite it.
    for s in range(0, len(keys), _UNRANK_BLOCK):
        e = s + _UNRANK_BLOCK
        a, b = table.a[class_of[s:e]], table.b[class_of[s:e]]
        u, v = _unrank_pairs(n, a, b, keys[s:e])
        hi = np.maximum(u, v)
        if hi.max() >> n:
            raise DimensionError(f"a vertex does not fit {n} digits")
        np.left_shift(np.minimum(u, v), n, out=keys[s:e], dtype=np.int64)
        keys[s:e] |= hi
    del class_of  # the loop keeps no view of it, so the sort runs without it
    # Pair classes come first: the rest are loop keys v << n | v.
    pairs = sizes[0]
    return SampledGraph.from_keys(params, keys[:pairs], keys[pairs:] >> n, include_loops)


def rmat_pairs(rmat: RmatParams, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """The m raw ordered vertex pairs, drawn digit by digit.

    Per digit, (u_k, v_k) is (1,1) with probability alpha, (0,0) with
    probability gamma, and each mixed outcome with probability beta,
    independently across digits and pairs.  All m pairs come from one
    stream; duplicates are not merged here.

    One double x per digit decides it: u_k = [x < alpha + beta], and v_k is
    the parity of [x < alpha], [x < alpha + beta] and [x < alpha + 2 beta].
    The rounded thresholds never descend, so that parity is exactly
    [x < alpha or alpha + beta <= x < alpha + 2 beta].  Each sub-block's
    digit bytes are packed eight per multiply (``model._pack_digits``).
    """
    params = rmat.base
    n = params.n
    alpha, beta = params.alpha, params.beta
    us = np.empty(rmat.m, dtype=np.int64)
    vs = np.empty(rmat.m, dtype=np.int64)
    # Labelled as the first of the 2^20-draw chunks that once had a stream
    # each, so graphs of at most 2^20 draws keep their bytes.
    rng = seed.child("pairs", 0).generator()
    # Consecutive rng.random calls on (rows, n) yield the same doubles as one
    # call for all m rows, so sub-blocks only bound the memory.  They reuse
    # one buffer of doubles.
    draws = np.empty((min(_RMAT_SUBBLOCK, rmat.m), n))
    for block in range(0, rmat.m, _RMAT_SUBBLOCK):
        rows = min(_RMAT_SUBBLOCK, rmat.m - block)
        pairs = _rmat_block(rng.random(out=draws[:rows]), alpha, beta)
        us[block : block + rows] = pairs[:, 0]
        vs[block : block + rows] = pairs[:, 1]
    return us, vs


def _rmat_block(x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """``(rows, 2)`` int64 pairs ``(u, v)`` of a ``(rows, n)`` block of draws.

    Its temporaries, a byte per digit and 8 bytes per word of the digits,
    are freed on return, before the next block's are made.
    """
    rows, n = x.shape
    u_bits = x < alpha + beta
    v_bits = x < alpha
    v_bits ^= u_bits
    v_bits ^= x < alpha + 2.0 * beta
    digits = np.zeros((rows, 2, -(-n // 8) * 8), dtype=np.uint8)
    digits[:, 0, :n] = u_bits
    digits[:, 1, :n] = v_bits
    return _pack_digits(digits, lsb_first=True)


def generate_rmat(rmat: RmatParams, seed: SeedSpec) -> SampledGraph:
    """Merge the m digit-sampled pairs into a simple unordered edge set.

    Multi-edges collapse, pairs are symmetrized, and u = v draws are kept
    in the loops field rather than being discarded.
    """
    u, v = rmat_pairs(rmat, seed)
    return SampledGraph.from_pairs(rmat.base, u, v, include_loops=True)


def degree_histogram(graph: SampledGraph) -> dict:
    """Map degree -> number of vertices; counts sum to 2^n.

    A self-loop adds 1 to its vertex's degree, matching the convention under
    which the closed-form degree moments are exact.
    """
    degrees = graph.degrees()
    counts = np.bincount(degrees)
    return {int(d): int(c) for d, c in enumerate(counts) if c > 0}
