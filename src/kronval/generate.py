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

The stratified sampler is one core, a stream: _draw_ranks hands out its
ranks a block of _UNRANK_BLOCK at a time, and _unranked unranks each block
as it arrives into the pairs (lo, hi), lo <= hi, a loop being lo == hi.
It has three consumers, and each knows a loop by lo == hi alone, not by
where it sits in the stream.  generate_stratified feeds each pass's pairs
to SampledGraph.from_blocks.  stratified_degrees and stratified_distances
reduce each pass of a batch of trials, drawn together (_trial_passes),
into degree arrays and edge-distance histograms and drop it, so they hold
one gap round, one pass and their counts, whatever the edge count, and
build no graph.
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
# measured peak resident bytes per edge.  SampledGraph.from_blocks writes
# each unranking pass's packed pair keys into one int64 buffer, reserved
# for the expected count plus 4 standard deviations.  While the passes run,
# the call holds that buffer, one round of at most _GAP_ROUND steps (about
# 24 B per step at its peak), fewer than _UNRANK_BLOCK ranks held for the
# next block and one pass.  Only then does the buffer grow to two slots per
# edge, in which the builder sorts the keys and splits them into the (E, 2)
# rows, so the peak is 16 B per edge and the loop vertices.  The whole
# process peaked at 17.4 B per edge at (0.99, 0.99, 0.99), n = 13 (29.4M
# edges), 17.4 B at (0.001, 0.968, 0.001), n = 27 (28.7M) and 17.2 B at
# (0.001, 0.9305, 0.001), n = 29 (34.3M), with the interpreter; 26.4, 26.4
# and 26.2 B while the keys, a bool per key and separate rows were held at
# once.
GENERATE_MEMORY_CEILING = 3 << 30  # bytes
STRATIFIED_PEAK_BYTES_PER_EDGE = 28
DEFAULT_EDGE_BUDGET = GENERATE_MEMORY_CEILING // STRATIFIED_PEAK_BYTES_PER_EDGE
# R-MAT's cap on draws is the same ceiling over its peak per draw, measured
# the same way at its worst, the graph builder's lexsort route: at n = 40,
# `generate` of 16M distinct draws peaked at 1220 MiB, 80.0 B per draw with
# the interpreter, while the builder kept its blocks through the sort
# (under tracemalloc, 2^21 draws read 74.0 B then and 65.0 B now, with
# its ends 8 B each past n = 32).  At n = 20 the packed keys route peaks at
# 26.4 B per draw (16M uniform draws, 422 MiB): the two uint32 ends and
# from_pairs' buffer of two int64 per draw; 34.8 B (557 MiB) with int64 ends.
RMAT_PEAK_BYTES_PER_DRAW = 80
RMAT_MAX_EDGES = GENERATE_MEMORY_CEILING // RMAT_PEAK_BYTES_PER_DRAW
_NAIVE_ROW_BLOCK = 128
# Rows per rng.random call of rmat_pairs: one buffer of 8n B per row, reused
# by every sub-block, 1.3 MB at n = 20 and 4.1 MB at n = 62.  Rows of 2^16
# (10.5 MB at n = 20) left rmat-file-n20 about 7 MB higher in peak RSS with
# its vertex arrays narrowed, though the doubles are freed before from_pairs
# runs.
_RMAT_SUBBLOCK = 1 << 13
# Ranks per block of the stratified rank stream and per unranking pass, any
# mix of classes.  A pass peaks at about 47 B per rank at n <= 16
# (0.37 MiB), where the int64 ranks are split, and at about 66 B (0.52 MiB)
# past n = 16, in the digit walk, however many digits it walks, since each
# walked digit is or-ed into three int32 lanes.  Passes of 2^15 ranks kept
# count-n13's wall time and raised its peak RSS by 0.1 MB (medians of 6
# alternating pairs); they cut hamming-n20's wall time 7% but raised its
# peak RSS 1.3%.
_UNRANK_BLOCK = 1 << 13
# Digits unranked from one _subset_table: 2^16 int32 masks, 256 KiB.
# _unrank_pairs walks only the digits below the top _TABLE_MAX_N.  A 2^20
# table sped hamming-n20 further but was still resident, 4 MiB, when
# the graph builder peaks.
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
    pairs = _pair_sum(params.n, params.alpha + params.gamma, params.beta)
    return pairs + (params.alpha + params.gamma) ** params.n if include_loops else pairs


def _pair_sum(n: int, loop_base: float, beta: float) -> float:
    """((loop_base + 2 beta)^n - loop_base^n) / 2, through expm1; a
    loop_base that underflowed to 0 leaves half the first power."""
    ordered = (loop_base + 2.0 * beta) ** n
    ratio = 2.0 * beta / loop_base if loop_base else math.inf
    return -ordered * math.expm1(-n * math.log1p(ratio)) / 2.0


def edge_sum_moments(
    params: KroneckerParams, include_loops: bool = True
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact (mean, variance) of two sums over one graph: the total edge
    distance D and the total degree T = 2 edges + loops.

    Both are sums w(u, v) X_uv over the independent pair indicators X_uv,
    u <= v, where w is the distance for D, and 2 for a pair or 1 for a loop
    for T; loops enter only with include_loops.  Each has mean sum(w p) and
    variance sum(w^2 p) - sum(w^2 p^2), in closed forms that read no class
    table, so they stay an oracle for the sampler's.  Over the ordered
    pairs, p x^b sums to (L + 2 beta x)^n, b being the distance, with
    L = alpha + gamma and S = L + 2 beta; the pairs u < v take half of it
    less the diagonal: sum p = (S^n - L^n) / 2 (as expected_edge_count),
    sum b p = n beta S^(n-1) and sum b^2 p = n beta S^(n-1)
    + 2 n (n-1) beta^2 S^(n-2).  The p^2 sums are the same with every
    entry squared.  The loops add L^n to sum p and its square's power to
    sum p^2, at distance 0.
    """
    n = params.n

    def sums(alpha, beta, gamma):
        """(sum p, sum b p, sum b^2 p) over the pairs u < v, and sum p over
        the loops."""
        spread = alpha + 2.0 * beta + gamma
        linear = n * beta * spread ** (n - 1)
        square = linear + 2 * n * (n - 1) * beta**2 * spread ** max(n - 2, 0)
        return _pair_sum(n, alpha + gamma, beta), linear, square, (alpha + gamma) ** n

    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    p, bp, b2p, loops = sums(alpha, beta, gamma)
    p2, _, b2p2, loops2 = sums(alpha**2, beta**2, gamma**2)
    if not include_loops:
        loops = loops2 = 0.0
    return (bp, b2p - b2p2), (2.0 * p + loops, 4.0 * (p - p2) + loops - loops2)


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
    each block's drawn pairs go to SampledGraph.from_blocks, and a drawn
    pair u = v is a loop, which the graph drops without include_loops.
    Capped at n = 14; use generate_stratified beyond that.
    """
    check_naive(params)
    size = params.vertex_count
    rng = seed.child("pairs").generator()

    def blocks():
        for block_start in range(0, size, _NAIVE_ROW_BLOCK):
            rows = np.arange(block_start, min(block_start + _NAIVE_ROW_BLOCK, size))
            u_arr = np.repeat(rows, size - rows).astype(np.uint64)
            v_arr = np.concatenate([np.arange(r, size, dtype=np.uint64) for r in rows])
            prob = edge_probability(params, u_arr, v_arr)
            keep = rng.random(len(prob)) < prob
            yield u_arr[keep].astype(np.int64), v_arr[keep].astype(np.int64)

    return SampledGraph.from_blocks(
        params, blocks(), _key_reserve(params, include_loops), include_loops
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
    """(u, v) of the rank-th pairs of classes (a, b): ranks is int64, and a
    and b any integer type, each with an entry per rank.

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
    exhausted subsets need no branch.  Each walked digit's one, mixed and
    to-u bits are or-ed into three int32 lanes as it is decided.  The walk
    leaves the ones and mixed digits still to place among the top
    m = n - k digits, and their ranks there.  Those read _subset_table(m):
    the ones straight from their weight block, the mixed digits as a subset
    of the top digits that are not ones, deposited into them (_deposit).
    The orientation bits left are deposited into the mixed digits.  At
    n <= _TABLE_MAX_N no digit is walked.

    Only the split of the int64 rank is 64-bit.  For n <= 30 every lane
    fits int32: the walked subset ranks are below C(30, 15) < 2^31, table
    indices below 2^_TABLE_MAX_N, (orientation << 1) | 1 and the vertices
    below 2^30.  Each temporary is freed once read.  The vertices come back
    as int32.
    """
    ones_left = a.astype(np.int32)  # ones and mixed digits among the top m
    mixed_left = b.astype(np.int32)
    orient_bits = np.maximum(mixed_left - 1, 0)
    rest = ranks >> orient_bits
    orient = (ranks - (rest << orient_bits)).astype(np.int32)
    del orient_bits
    orient <<= 1
    orient |= 1
    cell = n - ones_left  # flat _COMB index of C(n - a, b)
    cell *= _COMB.shape[1]
    cell += mixed_left
    # rest becomes the ones rank in place, beside the mixed rank.
    r_mixed = np.empty_like(rest)
    np.divmod(rest, _COMB.take(cell), out=(rest, r_mixed))
    r_mixed = r_mixed.astype(np.int32)
    r_ones = rest.astype(np.int32)
    del rest
    m = min(n, _TABLE_MAX_N)
    k = n - m
    if k:
        del mixed_left  # the walk leaves it in cell
        # Flat _COMB index of C(free digits left - 1, mixed digits left - 1).
        cell -= _COMB.shape[1] + 1
        ones_left -= 1
        low = np.zeros((3, len(ranks)), dtype=np.int32)  # walked one, mixed, to-u bits
        for p in range(k):
            count = _COMB[n - 1 - p].take(ones_left)
            r_ones -= count
            one = r_ones >> 31
            r_ones += count & one
            ones_left += one
            low[0] |= one & (1 << p)
            free = ~one
            count = _COMB.take(cell)
            count &= free
            r_mixed -= count
            is_mixed = r_mixed >> 31
            r_mixed += count & is_mixed
            cell -= free & _COMB.shape[1]
            cell += is_mixed
            low[1] |= is_mixed & (1 << p)
            shift = -is_mixed  # 1 where digit p is mixed: its orientation bit is used up
            low[2] |= (orient & shift) << p
            orient >>= shift
        del count, one, free, is_mixed, shift
        ones_left += 1
        # cell + 1 = (free digits left - 1) * width + mixed digits left
        mixed_left = (cell + 1) % _COMB.shape[1]
    del cell
    table = _subset_table(m)
    index = table.start.take(ones_left)
    index += r_ones
    del r_ones
    ones = table.masks.take(index)
    index = ones_left * (m + 1)
    index += mixed_left
    del mixed_left
    index = table.start.take(index)
    index += r_mixed
    del r_mixed
    mixed = table.masks.take(index)
    del index
    mixed >>= ones_left
    del ones_left
    mixed = _deposit(mixed, ~ones, m)
    to_u = _deposit(orient, mixed, m)
    del orient
    if k:
        ones <<= k
        ones |= low[0]
        mixed <<= k
        mixed |= low[1]
        to_u <<= k
        to_u |= low[2]
        del low
    mixed ^= to_u
    to_u |= ones
    mixed |= ones
    return to_u, mixed


def _draw_ranks(
    params: KroneckerParams, table: _ClassTable, *seeds: SeedSpec
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(ranks, lanes) per block of the ranks of one trial per seed,
    in order: the ranks every pair class draws, then those every loop class
    draws, trial t's from seeds[t].child("class") and
    seeds[t].child("loop_class").  A rank's lane is t * classes + its
    class, so with one seed the lanes are the class indices; they are
    unsigned, of the fewest bytes that hold every lane.  The blocks are the
    consecutive _UNRANK_BLOCK slices of that sequence, the last one short.

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
    int64 past them cannot disturb.

    The draw is a stream.  A round's temporaries are freed before any
    block leaves.  The blocks the round fills leave as views of its ranks,
    the first topped up with the ranks held from earlier rounds, and the
    rest of its ranks is held for the next block, copied only if a later
    round follows, so that no view keeps the whole round alive.  So the
    call holds one round and fewer than _UNRANK_BLOCK held ranks,
    whatever the rank count, and copies no rank of a round that fills
    whole blocks or ends the draw.
    """
    classes = len(table.size)
    probs = np.tile(_class_probabilities(params, table), len(seeds))
    rates = -np.log1p(-probs)  # finite, as every entry, and so every p, is below 1
    sizes = np.tile(table.size, len(seeds))
    lane_type = np.min_scalar_type(len(sizes) - 1)
    held, held_count = [], 0  # the next block so far: (ranks, lanes) pieces
    for f, (label, part) in enumerate(table.families):
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
            inside = np.repeat(starts - np.cumsum(count) + count, count)
            inside += np.arange(kept)
            ranks = pos[inside]
            del inside
            ranks += np.repeat(size, count)
            lane_of = np.repeat(drawn.astype(lane_type), count)
            last[now] = pos[ends - 1] + size
            going = ~now
            going[now] = count == take
            lanes, last = lanes[going], last[going]
            # Free the round's temporaries before any block leaves.
            del pos, size, left, mean, batch, trial, starts, now, take, drawn, ends, first
            del cuts, rate, count, going
            s = 0
            while held_count + kept - s >= _UNRANK_BLOCK:
                e = s + _UNRANK_BLOCK - held_count
                held.append((ranks[s:e], lane_of[s:e]))
                block = _joined(held)
                held, held_count, s = [], 0, e
                yield block
            if s < kept:
                piece = ranks[s:], lane_of[s:]
                if s and (len(lanes) or f + 1 < len(table.families)):
                    piece = tuple(x.copy() for x in piece)  # so the round can go
                held.append(piece)
                held_count += kept - s
                del piece  # held alone keeps it, until its block is joined
            del ranks, lane_of
    if held:
        block = _joined(held)
        del held  # the pieces, which block copied if there were several
        yield block


def _joined(pieces: list) -> tuple[np.ndarray, np.ndarray]:
    """The ranks and the lanes of the (ranks, lanes) pieces of a block, each
    in one array; a block of one piece is that piece, uncopied."""
    if len(pieces) == 1:
        return pieces[0]
    ranks, lanes = zip(*pieces)
    return np.concatenate(ranks), np.concatenate(lanes)


def _unranked(
    params: KroneckerParams, table: _ClassTable, *seeds: SeedSpec
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(lanes, lo, hi) per block of _draw_ranks(params, table, *seeds),
    unranked as it arrives: lo and hi are the ends min(u, v) and max(u, v)
    of each rank's pair, equal for a loop, whose class (a, b) is gathered
    per rank from int8 columns over the lanes.  A pass mixes any classes,
    so a small graph pays one pass rather than one per class.  Each pass
    reads the subsets of the top min(n, _TABLE_MAX_N) digits from one
    subset table, built once per digit count, and walks only the digits
    below them; its temporaries peak at about 47 B per rank at n <= 16 and
    66 B past it.  It checks that its vertices fit n digits
    (DimensionError).  A consumer that drops each pass before the next
    holds one pass and one round."""
    n = params.n
    a, b = (np.tile(column.astype(np.int8), len(seeds)) for column in (table.a, table.b))
    for ranks, lanes in _draw_ranks(params, table, *seeds):
        u, v = _unrank_pairs(n, a[lanes], b[lanes], ranks)
        hi = np.maximum(u, v)
        if hi.max() >> n:
            raise DimensionError(f"a vertex does not fit {n} digits")
        yield lanes, np.minimum(u, v), hi


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
    The class table of each (n, include_loops) is built once.  The pairs
    of each pass of _unranked go to SampledGraph.from_blocks, which packs
    them into one key buffer reserved for the expected count plus 4
    standard deviations; the passes consume no randomness, and their size
    leaves the output unchanged.  Only once the passes are done, and their
    temporaries with them, does the buffer grow to two slots per key, in
    which the keys are split into the (E, 2) rows: the graph costs 16 B per
    edge at its peak.  Past n = 30 or DEFAULT_EDGE_BUDGET expected edges,
    check_stratified refuses the graph before any class is sampled.
    stratified_degrees and stratified_distances read the same passes for
    degree arrays and edge-distance histograms alone.
    """
    check_stratified(params, include_loops)
    table = _class_table(params.n, include_loops)
    return SampledGraph.from_blocks(
        params,
        ((lo, hi) for _, lo, hi in _unranked(params, table, seed)),
        _key_reserve(params, include_loops),
        include_loops,
    )


def _key_reserve(params: KroneckerParams, include_loops: bool) -> int:
    """Key slots for a sampled graph: its expected edges plus 4 sd and 16."""
    expected = expected_edge_count(params, include_loops)
    return int(expected + 4 * math.sqrt(expected)) + 16


def batch_trials(params: KroneckerParams, include_loops: bool = True) -> int:
    """Trials per stratified_degrees or stratified_distances call whose
    expected ranks and degree counts come to about _GAP_ROUND together, so
    that a batch draws each family in about one gap round and its counts
    stay that small: 1 at n >= 16, and 12 and 15 at n = 12 for
    (0.8, 0.5, 0.1) and (0.7, 0.3, 0.3), about 1,100 and 140 ranks per
    trial."""
    per_trial = int(expected_edge_count(params, include_loops)) + params.vertex_count
    return max(1, _GAP_ROUND // per_trial)


def _trial_passes(
    params: KroneckerParams, include_loops: bool, seeds, stride: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(at, lo, hi) per pass of _unranked over the ranks of one trial per
    seed, drawn together as one stream: at is t * stride for each rank of
    trial t, and lo <= hi are the ends of its pair, equal for a loop.  The
    reductions of stratified_degrees and stratified_distances index their
    counts by at.  check_stratified refuses before any stream is made."""
    n = params.n
    check_stratified(params, include_loops)
    table = _class_table(n, include_loops)
    offset = np.repeat(np.arange(len(seeds), dtype=np.int64) * stride, len(table.size))
    for lanes, lo, hi in _unranked(params, table, *seeds):
        yield offset[lanes], lo, hi


def stratified_degrees(
    params: KroneckerParams, include_loops: bool = True, *, seeds
) -> np.ndarray:
    """(len(seeds), 2^n) int64 degrees: row t is
    generate_stratified(params, include_loops, seed=seeds[t]).degrees(),
    and no graph is built.

    The passes of _trial_passes add a count at t << n | vertex for both
    ends of a pair; a loop adds 1, at its one vertex, found by lo == hi.
    Stratified pairs are distinct, so nothing is sorted or merged.  Each
    pass is dropped once counted, so the call holds one gap round, one
    pass and the counts, whatever the rank count; batch_trials sizes the
    batches of a run of many trials.
    """
    n = params.n
    counts = np.zeros(len(seeds) << n, dtype=np.int64)
    for at, lo, hi in _trial_passes(params, include_loops, seeds, 1 << n):
        np.add.at(counts, at + hi, 1)
        np.add.at(counts, (at + lo)[lo != hi], 1)
    return counts.reshape(len(seeds), 1 << n)


def stratified_distances(
    params: KroneckerParams, include_loops: bool = True, *, seeds
) -> np.ndarray:
    """(len(seeds), n + 1) int64 edge-distance histograms: row t is
    edge_distance_histogram(generate_stratified(params, include_loops,
    seed=seeds[t])), loops at distance 0, and no graph is built.

    The passes of _trial_passes add a count at t (n + 1) + popcount(lo ^ hi)
    per rank; a loop's ends are equal, so it lands at 0.  Nothing is sorted
    or stored: the call holds one gap round, one pass and the histograms,
    whatever the edge count, about 2.7 MB under tracemalloc for one n = 18
    trial at (0.6, 0.5, 0.6) of 0.7M edges.
    """
    width = params.n + 1
    hist = np.zeros(len(seeds) * width, dtype=np.int64)
    for at, lo, hi in _trial_passes(params, include_loops, seeds, width):
        at += np.bitwise_count(np.bitwise_xor(lo, hi, out=lo))
        hist += np.bincount(at, minlength=len(hist))
    return hist.reshape(len(seeds), width)


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

    Both arrays have the narrowest unsigned type that holds a vertex below
    2^n, ``np.min_scalar_type(2^n - 1)``: uint8 up to n = 8, uint16 up to
    16, uint32 up to 32 and uint64 past it.
    """
    params = rmat.base
    n = params.n
    alpha, beta = params.alpha, params.beta
    vertex_type = np.min_scalar_type((1 << n) - 1)
    us = np.empty(rmat.m, dtype=vertex_type)
    vs = np.empty(rmat.m, dtype=vertex_type)
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
