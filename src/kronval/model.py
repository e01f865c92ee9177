"""Core model: the 2x2 initiator matrix, edge probabilities over Z_2^n, and
the sampled-graph representation.

Vertices are non-negative integers.  Digit k (1-based) of a vertex is bit
k-1 of the int, so the least-significant bit is digit 1.  A vertex is valid
for digit count n when it is below 2**n.  :func:`edge_probability` and
:meth:`SampledGraph.from_pairs` take integer arrays of vertices; they raise
:class:`ParameterError` for non-integer input and :class:`DimensionError`
for a vertex that does not fit n digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError

# Tolerance used whenever two probabilities are compared for equality
# (regime boundaries, the alpha=gamma gate, the R-MAT sum constraint).
PROB_TOL = 1e-12


@dataclass(frozen=True)
class KroneckerParams:
    """Parameters (alpha, beta, gamma, n) of the random graph on Z_2^n.

    Two vertices u, v are adjacent independently with probability
    alpha^a * beta^b * gamma^c, where a, b, c count the digit positions
    where both are 1, where they differ, and where both are 0.
    All three entries must lie strictly inside (0, 1); no ordering between
    alpha and gamma is imposed.
    """

    alpha: float
    beta: float
    gamma: float
    n: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ParameterError(
                    f"{name} must lie strictly in (0, 1), got {value!r}"
                )
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")

    @property
    def vertex_count(self) -> int:
        return 1 << self.n

    @property
    def alpha_equals_gamma(self) -> bool:
        return abs(self.alpha - self.gamma) <= PROB_TOL

    def log_entries(self) -> tuple[float, float, float]:
        """(log alpha, log beta, log gamma)."""
        return math.log(self.alpha), math.log(self.beta), math.log(self.gamma)


def _vertex_array(x, n: int) -> np.ndarray:
    """``x`` as an integer array, refused unless every value is an integer
    vertex below 2^n (an empty array passes, as int64).  Reads the dtype and
    the min and max, and copies no array it is given."""
    try:
        x = np.asarray(x)
    except ValueError:  # ragged nesting
        raise DimensionError("vertices must form a rectangular array") from None
    if x.size == 0:
        return x.astype(np.int64)
    if x.dtype == object:  # Python ints past 64 bits, or mixed values
        raise DimensionError(f"a vertex does not fit {min(n, 64)} digits")
    if x.dtype.kind not in "iu":
        raise ParameterError(f"vertices must be integers, got dtype {x.dtype}")
    if int(x.min()) < 0 or int(x.max()) >> n:
        raise DimensionError(f"a vertex does not fit {n} digits")
    return x


def edge_probability(params: KroneckerParams, u, v) -> np.ndarray:
    """Probability that the pair {u, v} is an edge, elementwise over the
    broadcast vertex arrays; a numpy float for two scalar vertices.

    Evaluated in log space, a log alpha + b log beta + c log gamma over the
    pair's digit-position counts, and exponentiated, so products of up to
    at least 64 digit factors keep full double precision.  Raises
    ParameterError for non-integer vertices and DimensionError for a vertex
    that does not fit ``params.n`` digits.
    """
    u = _vertex_array(u, params.n).astype(np.uint64, copy=False)
    v = _vertex_array(v, params.n).astype(np.uint64, copy=False)
    a = np.bitwise_count(u & v).astype(np.int64)
    b = np.bitwise_count(u ^ v).astype(np.int64)
    c = params.n - a - b
    la, lb, lg = params.log_entries()
    return np.exp(a * la + b * lb + c * lg)


# Vertices are stored as int64; R-MAT packs digits into the same width.
GRAPH_MAX_N = 62

# The low bit of each byte of a word: where a digit byte holds its digit.
_DIGIT_BITS = np.uint64(0x0101010101010101)
# A word of eight 0/1 bytes times one of these holds the eight digits in its
# top byte, byte i at bit i (least significant first) or at bit 7 - i (text
# order); every other partial product lands below that byte or past bit 63.
_GATHER = {True: np.uint64(0x0102040810204080), False: np.uint64(0x8040201008040201)}


def _pack_digits(digits: np.ndarray, lsb_first: bool) -> np.ndarray:
    """int64 values of rows of digit bytes, eight digits per multiply.

    ``digits`` is a C-contiguous uint8 array whose last axis is a whole
    number of 8-byte words, a digit in the low bit of each byte.  With
    ``lsb_first`` byte i is the digit of weight 2^i, so zero padding follows
    the digits; otherwise the bytes are in text order, most significant
    first, and the padding comes before them.  Each word is read as a
    little-endian uint64, masked to its digit bits and multiplied by a
    gather constant, in place: the caller hands ``digits`` over.  The result
    has shape ``digits.shape[:-1]``.
    """
    words = digits.view("<u8")
    words &= _DIGIT_BITS
    words *= _GATHER[lsb_first]
    top = digits[..., 7::8]  # the top byte of each word, k per value
    k = top.shape[-1]
    # The top bytes in one flat run; each value is the unaligned word at
    # stride k that starts at its first byte (little-endian) or ends at its
    # last (big-endian), masked to its own k bytes.  The 8 - k bytes of zero
    # padding keep the last (first) word inside the run.
    flat = np.zeros(top.size + 8 - k, dtype=np.uint8)
    start = 0 if lsb_first else 8 - k
    flat[start : start + top.size].reshape(top.shape)[...] = top
    values = np.ndarray(
        (top.size // k,), dtype="<u8" if lsb_first else ">u8", buffer=flat, strides=(k,)
    )
    values = values & np.uint64((1 << 8 * k) - 1)
    return values.view(np.int64).reshape(top.shape[:-1])


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The largest n whose pair keys (lo << n) | hi fit a non-negative int64.
PAIR_KEY_MAX_N = 31


def pairs_ascend(lo, hi) -> np.ndarray:
    """Whether each row ``(lo[i], hi[i])`` sorts strictly after the row
    before it, lexicographically; one entry per row but the first."""
    return (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))


# Pairs per block of from_pairs and values per block of each pass over a
# sorted buffer, beside which a block holds temporaries of <= 128 KiB each.
_KEY_BLOCK = 1 << 13


def _sort_distinct(values: np.ndarray) -> int:
    """Sort ``values`` in place and move its distinct values, in order, to
    its front; return how many there are.  Equal neighbours are dropped
    forward a block at a time, carrying each block's last value into the
    next, so each pass copies at most one block."""
    values.sort()
    distinct = 0
    last = None
    for s in range(0, len(values), _KEY_BLOCK):
        block = values[s : s + _KEY_BLOCK]
        fresh = np.empty(len(block), dtype=bool)
        fresh[0] = last is None or block[0] != last
        fresh[1:] = block[1:] != block[:-1]
        last = block[-1]
        if distinct < s or not fresh.all():
            kept = block[fresh]
            values[distinct : distinct + len(kept)] = kept
            distinct += len(kept)
        else:  # every value so far is distinct and already in place
            distinct += len(block)
    return distinct


def _canonical_by_key(buf: np.ndarray, count: int, n: int) -> np.ndarray:
    """The sorted distinct ``(lo, hi)`` rows of the ``count`` pair records
    at the front of ``buf``, made in that buffer: keys ``lo << n | hi`` for
    n <= ``PAIR_KEY_MAX_N``, else big-endian rows, whose 16 bytes viewed
    as ``V16`` sort as the pair since vertices are non-negative.

    ``buf`` is handed over: an int64 array that owns its data, holds no
    live view and has at least ``2 * count`` slots.  After
    ``_sort_distinct``, the E distinct keys are split back to front into
    ``buf[:2E]``, each block copied out before its rows land at or above
    its keys, or the 2E slots of rows are byteswapped to native order.  The
    buffer is trimmed to 2E, made read-only and viewed as the ``(E, 2)``
    rows, 16 B per edge.
    """
    keys = n <= PAIR_KEY_MAX_N
    distinct = _sort_distinct(buf[:count] if keys else buf[: 2 * count].view("V16"))
    if keys:
        mask = (1 << n) - 1
        for s in reversed(range(0, distinct, _KEY_BLOCK)):
            key = buf[s : min(s + _KEY_BLOCK, distinct)].copy()
            rows = buf[2 * s : 2 * (s + len(key))].reshape(-1, 2)
            np.right_shift(key, n, out=rows[:, 0])
            np.bitwise_and(key, mask, out=rows[:, 1])
    elif np.little_endian:
        buf[: 2 * distinct].byteswap(inplace=True)
    buf.resize(2 * distinct, refcheck=False)
    return _readonly(buf).reshape(distinct, 2)


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """One realization of the model: an edge set over the 2^n vertices.

    ``edges`` is a read-only ``(E, 2)`` int64 array of the unordered pairs,
    each row ``(lo, hi)`` with ``lo < hi``, rows sorted lexicographically and
    distinct.  ``loops`` is a read-only sorted array of the distinct vertices
    carrying a self-loop.  ``include_loops`` records whether loop generation
    was enabled, so that reports can echo it.  Every graph is built by
    :meth:`from_blocks`, which establishes this canonical form, from blocks
    of pairs; :meth:`from_pairs` feeds it checked pairs of any orientation.
    ``edges`` views the one buffer its pairs were sorted in, 16 B per edge:
    as packed keys for n <= ``PAIR_KEY_MAX_N`` (31), as rows above that.

    Two graphs are ``==`` when their params, ``include_loops`` flag, edges
    and loops are equal.  Graphs are unhashable.  Instances are immutable
    and safe to share between workers.
    """

    params: KroneckerParams
    edges: np.ndarray
    loops: np.ndarray
    include_loops: bool = True

    @classmethod
    def from_blocks(
        cls,
        params: KroneckerParams,
        blocks,
        reserve: int,
        include_loops: bool = True,
    ) -> "SampledGraph":
        """Canonicalize the pairs of ``blocks``, an iterable of ``(lo, hi)``
        integer arrays with ``lo <= hi`` row by row, of vertices below 2^n
        that the caller has checked.

        Pairs may repeat, within and across blocks; a pair ``lo == hi`` is
        a loop, dropped without ``include_loops``.  Each block's other
        pairs go as records into one int64 buffer of ``reserve`` slots,
        doubled when the blocks overrun it: the key ``lo << n | hi``, one
        slot, for n <= ``PAIR_KEY_MAX_N``, else the big-endian row, two.
        Once the last block and the spent iterable are dropped, the buffer
        grows to two slots per record if short of them, and
        ``_canonical_by_key`` makes the rows in it.  A caller that knows
        its pair count reserves twice it, so that the buffer never moves;
        one with an estimate (n <= 30) reserves about the count, so that
        the rows' room is taken only after its blocks' temporaries are
        gone.
        """
        n = params.n
        width = 1 if n <= PAIR_KEY_MAX_N else 2  # slots per record
        loops = [np.empty(0, dtype=np.int64)]
        buf = np.empty(reserve, dtype=np.int64)
        count = 0
        for lo, hi in blocks:
            is_loop = lo == hi
            if is_loop.any():
                if include_loops:
                    loops.append(lo[is_loop])
                proper = ~is_loop
                lo, hi = lo[proper], hi[proper]
            end = width * (count + len(lo))
            if end > len(buf):
                buf.resize(max(2 * len(buf), end), refcheck=False)
            if width == 1:
                np.left_shift(lo, n, out=buf[count:end], dtype=np.int64)
                buf[count:end] |= hi
            else:
                rows = buf[2 * count : end].view(">i8")
                rows[0::2], rows[1::2] = lo, hi
            count += len(lo)
        # The last block and the spent iterable go before the rows' room.
        blocks = lo = hi = is_loop = proper = rows = None
        loops = np.concatenate(loops)
        loops.resize(_sort_distinct(loops), refcheck=False)
        loops = _readonly(loops)
        if len(buf) < 2 * count:
            buf.resize(2 * count, refcheck=False)
        edges = _canonical_by_key(buf, count, n)
        return cls(params=params, edges=edges, loops=loops, include_loops=include_loops)

    @classmethod
    def from_pairs(
        cls,
        params: KroneckerParams,
        u,
        v=None,
        include_loops: bool = True,
    ) -> "SampledGraph":
        """Canonicalize vertex pairs ``(u[i], v[i])``.

        ``u`` and ``v`` are integer arrays of equal length; with ``v``
        omitted, ``u`` is an ``(E, 2)`` array of ``(u, v)`` pairs.  Pairs
        may come in any order and orientation and may repeat; a pair with
        ``u == v`` is a loop, the only way to give one.  Without
        ``include_loops`` the graph holds no loops, so such pairs are
        dropped.  Raises ParameterError for non-integer input and
        DimensionError for input of another shape or a vertex that does not
        fit ``params.n`` digits.  Empty input gives the empty graph.  The
        ``(min, max)`` of each ``_KEY_BLOCK`` pairs, taken as int64 a block
        at a time, go to :meth:`from_blocks` with room for two int64 per
        pair, so the call holds, beyond the ends of any integer type, that
        buffer and one block's temporaries; the ends are read, never
        written.
        """
        n = params.n
        if n > GRAPH_MAX_N:
            raise DimensionError(f"graphs store vertices as int64, so n <= {GRAPH_MAX_N}; got {n}")
        if v is None:
            pairs = _vertex_array(u, n)
            if pairs.size == 0:
                pairs = pairs.reshape(0, 2)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise DimensionError(f"pairs must form an (E, 2) array, got shape {pairs.shape}")
            u, v = pairs[:, 0], pairs[:, 1]
        else:
            u, v = _vertex_array(u, n), _vertex_array(v, n)
            if u.ndim != 1 or u.shape != v.shape:
                raise DimensionError(
                    f"u and v must be 1-D and of equal length, got shapes {u.shape} and {v.shape}"
                )
        cuts = range(0, len(u), _KEY_BLOCK)
        ends = ((u[s : s + _KEY_BLOCK], v[s : s + _KEY_BLOCK]) for s in cuts)
        blocks = (
            (np.minimum(a, b, dtype=np.int64), np.maximum(a, b, dtype=np.int64)) for a, b in ends
        )
        return cls.from_blocks(params, blocks, 2 * len(u), include_loops)

    def __eq__(self, other):
        if not isinstance(other, SampledGraph):
            return NotImplemented
        return (
            self.params == other.params
            and self.include_loops == other.include_loops
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.loops, other.loops)
        )

    __hash__ = None

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def vertex_count(self) -> int:
        return self.params.vertex_count

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The ``edges`` array itself: sorted (E, 2) int64, read-only."""
        return self.edges

    @cached_property
    def neighbor_sets(self) -> list:
        """Per-vertex neighbor sets from proper edges only (loops excluded).

        Python sets for the backtracking counter; other code reads the edge
        array directly.
        """
        ends = self.edges.ravel()  # (lo0, hi0, lo1, hi1, ...)
        others = self.edges[:, ::-1].ravel()  # the opposite end of each
        order = np.argsort(ends, kind="stable")
        bounds = np.cumsum(self.degrees(count_loops=False)).tolist()
        flat = others[order].tolist()
        return [set(flat[a:b]) for a, b in zip([0] + bounds[:-1], bounds)]

    def degrees(self, count_loops: bool = True) -> np.ndarray:
        """Degree of every vertex; a loop contributes 1 when counted."""
        # np.add.at reads the read-only ends in place and allocates nothing
        # beyond the counts; np.bincount would copy them whole and return a
        # second vertex-sized array.
        deg = np.zeros(self.vertex_count, dtype=np.int64)
        np.add.at(deg, self.edges.ravel(), 1)
        if count_loops:
            deg[self.loops] += 1
        return deg
