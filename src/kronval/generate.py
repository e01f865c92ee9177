"""Graph realization strategies: naive pairwise Bernoulli, stratified
class-based sampling, and the recursive digit-sampling (R-MAT) procedure.

All three are deterministic functions of a :class:`SeedSpec`, and all three
make a loop as the pair u = v, which the graph keeps, or drops without
loops.  The naive sampler (diagonal included) and R-MAT draw
every pair from one stream; the stratified sampler draws every pair class
from one stream and every loop class from another.  So switching loops off
leaves the edges unchanged.  The stratified sampler walks each class by
geometric gaps, a round of many classes per numpy call, so a small graph
costs a handful of numpy calls rather than a few per class.

The stratified sampler is one core, _draw_ranks and then the unranking
passes of _unranked, with two consumers: generate_stratified packs the
pairs into a sorted graph, and stratified_degrees counts the degrees of a
batch of trials, whose ranks the core draws together, with no graph built.
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
# edge); the ranks' class index (1-2 B per edge) is freed before it.
# The rank draws hold the keys and class indices as reserved, and one
# round of at most _GAP_ROUND steps, about 24 B per step at its peak.
# The whole process peaked at 26.4 B per edge at (0.99, 0.99, 0.99),
# n = 13 (29.5M edges), 26.4 B at (0.001, 0.968, 0.001), n = 27 (28.7M)
# and 26.2 B at (0.001, 0.9305, 0.001), n = 29 (34.3M), with the
# interpreter.
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
# Steps per rng.standard_exponential call of _draw_ranks, over every class
# still drawing.  Rounds of 2^20 steps drew the ranks of the n = 20 graph
# in 118-128 ms, against 76-98 ms with 2^16.
_GAP_ROUND = 1 << 16

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
    families: tuple  # (stream label, slice of its classes) per family


@functools.lru_cache(maxsize=None)
def _class_table(n: int, include_loops: bool) -> _ClassTable:
    """The class table of n, built once per (n, include_loops)."""
    rows = list(pair_classes(n))
    families = [("class", slice(0, len(rows)))]
    if include_loops:
        families.append(("loop_class", slice(len(rows), len(rows) + n + 1)))
        rows += [(w, 0, n - w, math.comb(n, w)) for w in range(n + 1)]
    columns = np.array(rows, dtype=np.int64).T.copy()
    columns.flags.writeable = False
    return _ClassTable(*columns, tuple(families))


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


def _draw_ranks(
    params: KroneckerParams, table: _ClassTable, *seeds: SeedSpec
) -> tuple[np.ndarray, np.ndarray, int]:
    """(ranks, lanes, pair count) of one trial per seed: the ranks every
    pair class draws, then those every loop class draws, trial t's from
    seeds[t].child("class") and seeds[t].child("loop_class").  A rank's
    lane is t * classes + its class, so with one seed the lanes are the
    class indices; they are unsigned, of the fewest bytes that hold every
    lane.

    Each pair of a class of probability p is an independent Bernoulli(p)
    coin, so a class is walked by geometric gaps (Batagelj and Brandes,
    "Efficient generation of large random networks", Phys. Rev. E 71,
    036113, 2005): for E standard exponential, G = floor(E / -log1p(-p))
    has P(G >= g) = (1 - p)^g, so a step of G + 1 passes G undrawn pairs
    and lands on a drawn one.  From rank -1, the positions below the class
    size are its ranks, distinct and ascending.  Classes of p = 0 draw
    nothing.  A family walks the lanes of every trial together, trial by
    trial in each round.  In a round each trial draws at most _GAP_ROUND
    steps in one standard_exponential call on its own stream: a batch of
    about mean + 4 sqrt(mean) + 2 steps for each of its classes still
    drawing, in class order, mean being the class's expected ranks past
    its last one, and at most enough to leave it.  A class whose batch
    stays inside draws again, from its last rank, in a later round.  So a
    trial's ranks, their classes and their order do not depend on the
    other seeds.  Each step is capped at 2 size, and a class keeps its
    leading positions below its size, which a capped batch that wraps
    int64 past them cannot disturb.  The ranks and lanes go straight into
    two buffers reserved for the expected count plus a margin, grown only
    if the draws pass it.
    """
    classes = len(table.size)
    probs = np.tile(_class_probabilities(params, table), len(seeds))
    rates = -np.log1p(-probs)  # finite, as every entry, and so every p, is below 1
    sizes = np.tile(table.size, len(seeds))
    reserve = len(seeds) * expected_edge_count(params, len(table.families) > 1)
    reserve = int(reserve + 4 * math.sqrt(reserve)) + 16
    ranks = np.empty(reserve, dtype=np.int64)
    lane_of = np.empty(reserve, dtype=np.min_scalar_type(len(sizes) - 1))
    family_ends = []
    at = 0
    for label, part in table.families:
        rngs = [seed.child(label).generator() for seed in seeds]
        lanes = np.add.outer(np.arange(0, len(sizes), classes), np.arange(part.start, part.stop))
        lanes = lanes[probs[lanes] > 0]  # trial by trial, in class order
        last = np.full(len(lanes), -1, dtype=np.int64)
        while len(lanes):
            size = sizes[lanes]
            left = size - 1 - last
            mean = left * probs[lanes]
            batch = np.minimum((mean + 4 * np.sqrt(mean) + 2).astype(np.int64), left + 1)
            # Each trial's batches run on from the start of its first lane;
            # the lanes that start before _GAP_ROUND draw now.
            trial = lanes // classes
            starts = np.cumsum(batch) - batch
            starts -= starts[np.searchsorted(trial, trial)]
            now = starts < _GAP_ROUND
            take = np.minimum(starts + batch, _GAP_ROUND)[now] - starts[now]
            drawn, trial = lanes[now], trial[now]
            ends = np.cumsum(take)
            starts = ends - take
            gaps = np.empty(ends[-1])
            first = np.flatnonzero(np.diff(trial, prepend=-1))
            cuts = np.append(starts[first], ends[-1]).tolist()
            for t, s, e in zip(trial[first].tolist(), cuts[:-1], cuts[1:]):
                gaps[s:e] = rngs[t].standard_exponential(e - s)
            size, rate = sizes[drawn], rates[drawn]
            # G = E / rate, capped at 2 size in E: a subnormal rate then
            # neither overflows nor makes 0 * inf.
            np.minimum(gaps, np.repeat(2.0 * size * rate, take), out=gaps)
            gaps /= np.repeat(rate, take)
            # Truncated in place: the int64 view takes each double as it is read.
            pos = gaps.view(np.int64)
            np.copyto(pos, gaps, casting="unsafe")
            del gaps
            pos += 1
            np.cumsum(pos, out=pos)
            # Each lane's positions run on from its last rank, less its size,
            # so a position inside the class is negative.
            pos += np.repeat(last[now] - size - np.concatenate(([0], pos[starts[1:] - 1])), take)
            # A lane's ranks are its positions before the first one at or
            # past its size; those after that one may have wrapped int64.
            outside = np.append(np.flatnonzero(pos >= 0), ends[-1])
            count = np.minimum(outside[np.searchsorted(outside, starts)], ends) - starts
            del outside
            kept = int(count.sum())
            if at + kept > len(ranks):
                extra = max(len(ranks), at + kept - len(ranks))
                ranks, lane_of = (
                    np.concatenate([x, np.empty_like(x, shape=extra)]) for x in (ranks, lane_of)
                )
            inside = np.repeat(starts - np.cumsum(count) + count, count)
            inside += np.arange(kept)
            ranks[at : at + kept] = pos[inside]
            ranks[at : at + kept] += np.repeat(size, count)
            lane_of[at : at + kept] = np.repeat(drawn, count)
            at += kept
            last[now] = pos[ends - 1] + size
            del pos, inside  # before the next round's draws
            going = ~now
            going[now] = count == take
            lanes, last = lanes[going], last[going]
        family_ends.append(at)
    return ranks[:at], lane_of[:at], family_ends[0]


def _unranked(
    n: int, a: np.ndarray, b: np.ndarray, ranks: np.ndarray, lanes: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(start, lo, hi) per pass of _UNRANK_BLOCK ranks from start: the ends
    min(u, v) and max(u, v) of each rank's pair, read in lane (a, b) of the
    per-lane columns a and b.  A pass mixes any classes, so a small graph
    pays one pass rather than one per class.  Each pass reads the subsets
    of the top min(n, _TABLE_MAX_N) digits from one subset table, built
    once per digit count, and walks only the digits below them, none at
    n <= 16, and peaks at about 88 B per rank there.  It checks that its
    vertices fit n digits (DimensionError), and reads its slice of ranks
    whole before it yields, so a consumer may overwrite it."""
    for s in range(0, len(ranks), _UNRANK_BLOCK):
        part = lanes[s : s + _UNRANK_BLOCK]
        u, v = _unrank_pairs(n, a[part], b[part], ranks[s : s + _UNRANK_BLOCK])
        hi = np.maximum(u, v)
        if hi.max() >> n:
            raise DimensionError(f"a vertex does not fit {n} digits")
        yield s, np.minimum(u, v), hi


def generate_stratified(
    params: KroneckerParams, include_loops: bool = True, *, seed: SeedSpec
) -> SampledGraph:
    """Class-based sampler with the same output distribution as generate_naive.

    Pairs are grouped by digit class (a, b, c), whose pairs share one edge
    probability; loops are grouped per weight class w, as pair class (w, 0),
    whose pairs are u == v.  _draw_ranks walks each class by geometric gaps,
    which draws each of its pairs by an independent coin, so the joint law
    over all pairs is exactly independent Bernoulli.  Every pair class draws
    from the stream seed.child("class") and every loop class from
    seed.child("loop_class"), so the edges do not depend on include_loops.
    The class table of each (n, include_loops) is built once.  The ranks go
    into one int64 array, and the passes of _unranked turn them in place
    into packed pair keys min(u, v) << n | max(u, v); the passes consume no
    randomness and leave the output unchanged.  Pair classes come before
    loop classes, so the leading keys are the edges, which
    SampledGraph.from_keys sorts in place and splits into rows, and the
    trailing keys v << n | v name the loops.  The graph then costs its keys,
    a bool per key and its (E, 2) rows at the peak.  Past n = 30 or
    DEFAULT_EDGE_BUDGET expected edges, check_stratified refuses the graph
    before any class is sampled.  stratified_degrees reads the same ranks
    for degree arrays alone.
    """
    n = params.n
    check_stratified(params, include_loops)
    table = _class_table(n, include_loops)
    keys, class_of, pairs = _draw_ranks(params, table, seed)
    for s, lo, hi in _unranked(n, table.a, table.b, keys, class_of):
        np.left_shift(lo, n, out=keys[s : s + len(lo)], dtype=np.int64)
        keys[s : s + len(lo)] |= hi
    del class_of  # the loop keeps no view of it, so the sort runs without it
    # Pair classes come first: the rest are loop keys v << n | v.
    return SampledGraph.from_keys(params, keys[:pairs], keys[pairs:] >> n, include_loops)


def degree_batch_trials(params: KroneckerParams, include_loops: bool = True) -> int:
    """Trials per stratified_degrees call that hold about _GAP_ROUND
    expected ranks and counts together: 1 at n >= 16, and 12 and 15 at
    n = 12 for (0.8, 0.5, 0.1) and (0.7, 0.3, 0.3), about 1,100 and 140
    ranks per trial."""
    per_trial = int(expected_edge_count(params, include_loops)) + params.vertex_count
    return max(1, _GAP_ROUND // per_trial)


def stratified_degrees(
    params: KroneckerParams, include_loops: bool = True, *, seeds
) -> np.ndarray:
    """(len(seeds), 2^n) int64 degrees: row t is
    generate_stratified(params, include_loops, seed=seeds[t]).degrees(),
    and no graph is built.

    _draw_ranks draws every trial's ranks from its own streams, and the
    passes of _unranked add a count at t << n | vertex for both ends of a
    pair and the one vertex of a loop.  Stratified pairs are distinct, so
    nothing is sorted or merged.  The call holds 8 B per rank, a lane of
    1-4 B per rank, and the counts; degree_batch_trials sizes the batches
    of a run of many trials.  check_stratified refuses before any stream
    is made.
    """
    n = params.n
    check_stratified(params, include_loops)
    table = _class_table(n, include_loops)
    ranks, lanes, pairs = _draw_ranks(params, table, *seeds)
    offset = np.repeat(np.arange(len(seeds), dtype=np.int64) << n, len(table.size))
    counts = np.zeros(len(seeds) << n, dtype=np.int64)
    a, b = np.tile(table.a, len(seeds)), np.tile(table.b, len(seeds))
    for s, lo, hi in _unranked(n, a, b, ranks, lanes):
        at = offset[lanes[s : s + len(lo)]]
        np.add.at(counts, at + hi, 1)
        # Pair classes come first: a loop's lo is its hi, counted once.
        paired = max(pairs - s, 0)
        np.add.at(counts, at[:paired] + lo[:paired], 1)
    return counts.reshape(len(seeds), 1 << n)


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
