"""Core model: the 2x2 initiator matrix, vertices of Z_2^n, and edge probabilities.

Vertices are plain non-negative ints.  Digit k (1-based) of a vertex is bit
k-1 of the int, so the least-significant bit is digit 1.  A vertex is valid
for digit count n when it is below 2**n; operations that depend on n check
this and raise :class:`DimensionError` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
        if not isinstance(self.n, int) or self.n < 1:
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


class PairClass(NamedTuple):
    """Digit-position counts of a vertex pair: both-one, mixed, both-zero.

    ``mixed`` equals the Hamming distance; the three counts sum to n.
    """

    both_one: int
    mixed: int
    both_zero: int


def check_vertex(v: int, n: int) -> None:
    """Raise DimensionError unless v is a valid vertex for digit count n."""
    if not 0 <= v < (1 << n):
        raise DimensionError(f"vertex {v!r} does not fit {n} digits")


def weight(v: int) -> int:
    """Number of 1-digits of a vertex."""
    if v < 0:
        raise DimensionError(f"vertex must be non-negative, got {v!r}")
    return v.bit_count()


def hamming(u: int, v: int) -> int:
    """Number of digit positions where u and v differ."""
    if u < 0 or v < 0:
        raise DimensionError("vertices must be non-negative")
    return (u ^ v).bit_count()


def pair_class(u: int, v: int, n: int) -> PairClass:
    """Classify a vertex pair by its digit-position counts (a, b, c)."""
    check_vertex(u, n)
    check_vertex(v, n)
    a = (u & v).bit_count()
    b = (u ^ v).bit_count()
    return PairClass(both_one=a, mixed=b, both_zero=n - a - b)


def log_edge_probability(params: KroneckerParams, u: int, v: int) -> float:
    """log of the edge probability of {u, v}; accurate for large n."""
    a, b, c = pair_class(u, v, params.n)
    la, lb, lg = params.log_entries()
    return a * la + b * lb + c * lg


def edge_probability(params: KroneckerParams, u: int, v: int) -> float:
    """Probability that the pair {u, v} is an edge.

    Evaluated in log space and exponentiated, so products of up to at
    least 64 digit factors keep full double precision.
    """
    return math.exp(log_edge_probability(params, u, v))


def hamming_array(u, v) -> np.ndarray:
    """Vectorized Hamming distances (broadcasting)."""
    x = np.asarray(u, dtype=np.uint64) ^ np.asarray(v, dtype=np.uint64)
    return np.bitwise_count(x).astype(np.int64)


def edge_probability_array(params: KroneckerParams, u, v) -> np.ndarray:
    """Vectorized edge probabilities for arrays of vertex pairs."""
    u = np.asarray(u, dtype=np.uint64)
    v = np.asarray(v, dtype=np.uint64)
    a = np.bitwise_count(u & v).astype(np.int64)
    b = np.bitwise_count(u ^ v).astype(np.int64)
    c = params.n - a - b
    la, lb, lg = params.log_entries()
    return np.exp(a * la + b * lb + c * lg)


# Vertices are stored as int64; R-MAT packs digits into the same width.
GRAPH_MAX_N = 62


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The largest n whose pair keys (lo << n) | hi fit a non-negative int64.
PAIR_KEY_MAX_N = 31


def pair_keys(u, v, n: int) -> np.ndarray:
    """int64 keys ``min(u, v) << n | max(u, v)`` of the pairs ``{u[i], v[i]}``.

    For vertices below 2^n with n <= ``PAIR_KEY_MAX_N`` the key fits int64
    and orders pairs exactly as their ``(lo, hi)`` rows order
    lexicographically, so sorting keys sorts rows and equal keys are equal
    pairs.  ``lo = key >> n`` and ``hi = key & (2^n - 1)`` undo it.
    """
    key = np.minimum(u, v)
    key <<= n
    key |= np.maximum(u, v)
    return key


def pairs_ascend(lo, hi) -> np.ndarray:
    """Whether each row ``(lo[i], hi[i])`` sorts strictly after the row
    before it, lexicographically; one entry per row but the first."""
    return (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))


def _canonical_by_key(u, v, is_loop, n: int) -> np.ndarray:
    """The sorted distinct ``(lo, hi)`` rows of the non-loop pairs, through
    one in-place sort of their packed keys (n <= ``PAIR_KEY_MAX_N``)."""
    key = pair_keys(u, v, n)
    if is_loop.any():
        key = key[~is_loop]
    key.sort()
    fresh = np.empty(len(key), dtype=bool)
    fresh[:1] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    if not fresh.all():
        key = key[fresh]
    edges = np.empty((len(key), 2), dtype=np.int64)
    np.right_shift(key, n, out=edges[:, 0])
    np.bitwise_and(key, (1 << n) - 1, out=edges[:, 1])
    return edges


def _canonical_by_lexsort(u, v, is_loop) -> np.ndarray:
    """The rows of :func:`_canonical_by_key` for n above ``PAIR_KEY_MAX_N``,
    where a pair no longer packs into one int64."""
    lo = np.minimum(u, v)[~is_loop]
    hi = np.maximum(u, v)[~is_loop]
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    fresh = np.ones(len(lo), dtype=bool)
    fresh[1:] = pairs_ascend(lo, hi)
    return np.column_stack((lo[fresh], hi[fresh]))


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """One realization of the model: an edge set over the 2^n vertices.

    ``edges`` is a read-only ``(E, 2)`` int64 array of the unordered pairs,
    each row ``(lo, hi)`` with ``lo < hi``, rows sorted lexicographically and
    distinct.  ``loops`` is a read-only sorted array of the distinct vertices
    carrying a self-loop.  ``include_loops`` records whether loop generation
    was enabled, so that reports can echo it.  Build instances with
    :meth:`from_pairs`, which establishes this canonical form; the
    constructor takes the arrays as given.  For n <= ``PAIR_KEY_MAX_N`` (31)
    it packs each pair into one int64 key ``lo << n | hi`` (:func:`pair_keys`),
    sorts the keys in place, drops equal neighbours and splits the keys back
    into rows; above that a pair no longer fits one int64, and the rows are
    ordered with ``np.lexsort``.  Both routes give the same arrays.

    Two graphs are ``==`` when their params, ``include_loops`` flag, edges
    and loops are equal.  Graphs are unhashable.  Instances are immutable
    and safe to share between workers.
    """

    params: KroneckerParams
    edges: np.ndarray
    loops: np.ndarray
    include_loops: bool = True

    @classmethod
    def from_pairs(
        cls,
        params: KroneckerParams,
        u,
        v=None,
        include_loops: bool = True,
    ) -> "SampledGraph":
        """Canonicalize vertex pairs ``(u[i], v[i])``.

        With ``v`` omitted, ``u`` is a sequence of ``(u, v)`` pairs.  Pairs
        may come in any order and orientation and may repeat; a pair with
        ``u == v`` is a loop, the only way to give one.  Without
        ``include_loops`` the graph holds no loops, so such pairs are
        dropped.  Raises DimensionError when a vertex does not fit
        ``params.n`` digits.
        """
        n = params.n
        if n > GRAPH_MAX_N:
            raise DimensionError(f"graphs store vertices as int64, so n <= {GRAPH_MAX_N}; got {n}")
        try:
            if v is None:
                pairs = np.asarray(u, dtype=np.int64).reshape(-1, 2)
                u, v = pairs[:, 0], pairs[:, 1]
            u = np.asarray(u, dtype=np.int64)
            v = np.asarray(v, dtype=np.int64)
        except OverflowError:
            raise DimensionError(f"a vertex does not fit {n} digits") from None
        for part in (u, v):
            if len(part) and (part.min() < 0 or part.max() >> n):
                raise DimensionError(f"a vertex does not fit {n} digits")
        is_loop = u == v
        if include_loops:
            loops = np.unique(u[is_loop])
        else:
            loops = np.empty(0, dtype=np.int64)
        if n <= PAIR_KEY_MAX_N:
            edges = _canonical_by_key(u, v, is_loop, n)
        else:
            edges = _canonical_by_lexsort(u, v, is_loop)
        return cls(
            params=params,
            edges=_readonly(edges),
            loops=_readonly(loops),
            include_loops=include_loops,
        )

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
        bounds = np.cumsum(np.bincount(ends, minlength=self.vertex_count)).tolist()
        flat = others[order].tolist()
        return [set(flat[a:b]) for a, b in zip([0] + bounds[:-1], bounds)]

    def degrees(self, count_loops: bool = True) -> np.ndarray:
        """Degree of every vertex; a loop contributes 1 when counted."""
        deg = np.bincount(self.edges.ravel(), minlength=self.vertex_count)
        if count_loops:
            deg[self.loops] += 1
        return deg
