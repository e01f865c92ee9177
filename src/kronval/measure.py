"""Measurements on realized graphs: labeled-copy counts, neighbor Hamming
profiles, and the concentration / extremal-distance scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .model import SampledGraph, hamming_array
from .patterns import PatternGraph
from .predict import critical_fraction, hamming_window

COUNT_MAX_PATTERN_VERTICES = 5
# Backtracking walks Python neighbour sets; the kernel routes (stars,
# triangles, 4-cycles, 3-edge paths) are array passes and reach further.
COUNT_MAX_N = 14
KERNEL_COUNT_MAX_N = 16
DISCONNECTED_COUNT_MAX_N = 10
# Row blocks of the codegree pass hold about this many wedges (2-paths), so
# the block product A[block] @ A stays small whatever the degree sequence.
_WEDGE_BLOCK = 1 << 16


def _star_leaf_count(pattern: PatternGraph):
    """Leaf count when the pattern is a star, else None."""
    v = pattern.vertex_count
    if v < 2 or pattern.edge_count != v - 1:
        return None
    degs = pattern.degrees
    centers = [u for u in range(v) if degs[u] == v - 1]
    if not centers:
        return None
    if all(degs[u] == 1 for u in range(v) if u != centers[0]):
        return v - 1
    return None


def _shape(pattern: PatternGraph):
    """'star', 'triangle', 'cycle4' or 'path3' when the pattern has that
    structure (under any vertex labelling), else None."""
    if _star_leaf_count(pattern) is not None:
        return "star"
    v, e = pattern.vertex_count, pattern.edge_count
    degs = sorted(pattern.degrees)
    if v == 3 and e == 3:
        return "triangle"
    if v == 4 and e == 4 and degs == [2, 2, 2, 2]:
        return "cycle4"
    if v == 4 and e == 3 and degs == [1, 1, 2, 2]:
        return "path3"
    return None


def check_countable(pattern: PatternGraph, n: int) -> None:
    """Raise CapacityError unless ``count_labeled_copies`` counts the pattern
    on a host with digit count n.  Needs no graph, so callers can check
    before sampling."""
    if pattern.vertex_count > COUNT_MAX_PATTERN_VERTICES:
        raise CapacityError(
            f"copy counting caps at {COUNT_MAX_PATTERN_VERTICES} pattern vertices"
        )
    if _shape(pattern) is not None:
        if n > KERNEL_COUNT_MAX_N:
            raise CapacityError(f"copy counting caps at n = {KERNEL_COUNT_MAX_N}")
    elif not pattern.is_connected():
        if n > DISCONNECTED_COUNT_MAX_N:
            raise CapacityError(
                f"disconnected patterns are only counted at n <= {DISCONNECTED_COUNT_MAX_N}"
            )
    elif n > COUNT_MAX_N:
        raise CapacityError(
            f"copy counting caps at n = {COUNT_MAX_N} for this pattern;"
            f" stars, triangles, 4-cycles and 3-edge paths count up to"
            f" n = {KERNEL_COUNT_MAX_N}"
        )


def _count_star(graph: SampledGraph, k: int) -> int:
    """Sum of falling factorials d!/(d-k)! over the loop-free degrees."""
    counts = np.bincount(graph.degrees(count_loops=False)).tolist()
    return sum(c * math.perm(d, k) for d, c in enumerate(counts) if c)


def _codegree_sums(graph: SampledGraph):
    """Exact sums over the loop-free adjacency A with codegrees C = A @ A.

    Returns ``(closed, squares, paths)``:
    ``closed = sum(A * C)`` (each ordered edge's codegree), ``squares`` the
    sum of ``c * (c - 1)`` over the off-diagonal entries of C, and
    ``paths = sum_u (d_u - 1) * sum_{v ~ u} (d_v - 1)``.  Rows go through
    in blocks of about ``_WEDGE_BLOCK`` wedges; each block's int64 partial
    sums (far below 2^63 at the kernel cap) add into Python ints.  scipy's
    sparse module is imported here, its only user, so that commands that do
    not count never load it.
    """
    from scipy import sparse

    edges = graph.edges
    size = graph.vertex_count
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(size, size)
    )
    deg = np.diff(adj.indptr).astype(np.int64)
    wedges = adj @ deg  # 2-paths leaving each vertex, returns included
    before = np.cumsum(wedges) - wedges
    cuts = np.flatnonzero(np.diff(before // _WEDGE_BLOCK)) + 1
    bounds = [0, *cuts.tolist(), size]
    closed = squares = paths = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = adj[lo:hi]
        codeg = block @ adj
        c = codeg.data
        closed += int(block.multiply(codeg).sum(dtype=np.int64))
        squares += int((c * (c - 1)).sum())
        paths += int(((deg[lo:hi] - 1) * (wedges[lo:hi] - deg[lo:hi])).sum())
    # the diagonal of C is the degree sequence
    squares -= _count_star(graph, 2)
    return closed, squares, paths


def _count_backtracking(graph: SampledGraph, pattern: PatternGraph) -> int:
    adj = graph.neighbor_sets
    order = _search_order(pattern)
    assigned = [None] * pattern.vertex_count
    used = set()

    def extend(depth: int) -> int:
        if depth == len(order):
            return 1
        target, anchors = order[depth]
        if anchors:
            candidates = adj[assigned[anchors[0]]]
            for anchor in anchors[1:]:
                candidates = candidates & adj[assigned[anchor]]
        else:
            candidates = range(graph.vertex_count)
        total = 0
        for host in candidates:
            if host in used:
                continue
            assigned[target] = host
            used.add(host)
            total += extend(depth + 1)
            used.discard(host)
            assigned[target] = None
        return total

    return extend(0)


def _search_order(pattern: PatternGraph):
    """Pattern vertices ordered so each (when possible) touches earlier ones."""
    remaining = set(range(pattern.vertex_count))
    placed = []
    order = []
    while remaining:
        anchored = [
            (len(pattern.adjacency[u] & set(placed)), pattern.degrees[u], u)
            for u in remaining
        ]
        anchored.sort(reverse=True)
        _, _, chosen = anchored[0]
        anchors = [v for v in placed if v in pattern.adjacency[chosen]]
        order.append((chosen, anchors))
        placed.append(chosen)
        remaining.discard(chosen)
    return order


def count_labeled_copies(graph: SampledGraph, pattern: PatternGraph) -> int:
    """Number of injective, edge-preserving maps of the pattern into the graph.

    Automorphic images count separately and loops never participate.  The
    result is an exact Python int, also above 2^63.

    Routes follow the pattern's structure, not its vertex labels, so a
    numeric ``@file`` pattern routes like the named builtin:

    - a star K_{1,k} (``star:k``, ``path:2``, a single edge) is the sum of
      falling factorials d!/(d-k)! over the degree sequence;
    - a triangle is ``sum(A * (A @ A))`` over the adjacency matrix A;
    - a 4-cycle is ``sum(c * (c - 1))`` over the codegrees c of distinct
      vertex pairs;
    - a 3-edge path is ``2 * sum((d_b - 1) * (d_c - 1))`` over the edges bc,
      minus the labeled triangles;
    - every other pattern goes through backtracking over neighbour sets.

    The three matrix routes share one sparse codegree pass in row blocks.
    Backtracking (``_count_backtracking``) is the reference the other routes
    agree with.  Caps (see :func:`check_countable`): patterns have at most
    ``COUNT_MAX_PATTERN_VERTICES`` vertices; hosts have n <=
    ``KERNEL_COUNT_MAX_N`` on the star and matrix routes, n <= ``COUNT_MAX_N``
    under backtracking, and n <= ``DISCONNECTED_COUNT_MAX_N`` for
    disconnected patterns.
    """
    check_countable(pattern, graph.n)
    route = _shape(pattern) or "generic"
    if route == "star":
        return _count_star(graph, _star_leaf_count(pattern))
    if route == "generic":
        return _count_backtracking(graph, pattern)
    closed, squares, paths = _codegree_sums(graph)
    # a 3-edge path is an ordered edge (b, c) plus an end at each side; the
    # ends coincide exactly on a triangle through b and c
    return {"triangle": closed, "cycle4": squares, "path3": paths - closed}[route]


def neighbor_hamming_histogram(graph: SampledGraph, u: int) -> np.ndarray:
    """Counts of neighbors of u at each Hamming distance 0..n.

    A self-loop at u lands at distance 0; the histogram sums to the degree
    of u with loops counted.
    """
    if not 0 <= u < graph.vertex_count:
        raise ParameterError(f"vertex {u} out of range for n = {graph.n}")
    edges = graph.edge_array
    start, stop = np.searchsorted(edges[:, 0], [u, u + 1])
    neighbors = np.concatenate([edges[start:stop, 1], edges[edges[:, 1] == u, 0]])
    hist = np.bincount(hamming_array(u, neighbors), minlength=graph.n + 1)
    at = np.searchsorted(graph.loops, u)
    if at < len(graph.loops) and graph.loops[at] == u:
        hist[0] += 1
    return hist


def edge_distance_histogram(graph: SampledGraph) -> np.ndarray:
    """Counts of edges at each Hamming distance; loops land at distance 0."""
    hist = np.zeros(graph.n + 1, dtype=np.int64)
    ea = graph.edge_array
    if len(ea):
        dist = hamming_array(ea[:, 0], ea[:, 1])
        hist += np.bincount(dist, minlength=graph.n + 1)
    hist[0] += len(graph.loops)
    return hist


@dataclass(frozen=True)
class ConcentrationReport:
    """Degree and neighbor-distance concentration summary of one realization.

    ``distance_histogram`` counts the edges at each Hamming distance 0..n,
    with loops at 0.
    """

    expected_degree: float
    degree_min: int
    degree_max: int
    degree_mean: float
    window_lo: float
    window_hi: float
    window_center: float
    in_window_edge_fraction: float
    mean_edge_distance: float
    edge_count: int
    loop_count: int
    include_loops: bool
    distance_histogram: tuple[int, ...]


def concentration_report(graph: SampledGraph) -> ConcentrationReport:
    """Compare all vertex degrees and edge distances against the uniform
    prediction (alpha+beta)^n and its distance window.

    Requires generation parameters with alpha = gamma and alpha + beta > 1;
    loops enter degrees and the distance histogram at distance 0.
    """
    p = graph.params
    if not p.alpha_equals_gamma:
        raise ParameterError("concentration report requires alpha = gamma")
    if p.alpha + p.beta <= 1.0:
        raise ParameterError("concentration report requires alpha + beta > 1")
    degrees = graph.degrees(count_loops=True)
    lo, hi = hamming_window(p)
    center = p.beta * p.n / (p.alpha + p.beta)
    hist = edge_distance_histogram(graph)
    distances = np.arange(p.n + 1)
    total = int(hist.sum())
    if total:
        inside = hist[(distances >= lo) & (distances <= hi)].sum()
        fraction = float(inside / total)
        mean_distance = float((hist * distances).sum() / total)
    else:
        fraction = math.nan
        mean_distance = math.nan
    return ConcentrationReport(
        expected_degree=(p.alpha + p.beta) ** p.n,
        degree_min=int(degrees.min()),
        degree_max=int(degrees.max()),
        degree_mean=float(degrees.mean()),
        window_lo=lo,
        window_hi=hi,
        window_center=center,
        in_window_edge_fraction=fraction,
        mean_edge_distance=mean_distance,
        edge_count=len(graph.edges),
        loop_count=len(graph.loops),
        include_loops=graph.include_loops,
        distance_histogram=tuple(hist.tolist()),
    )


@dataclass(frozen=True)
class ExtremalScan:
    """Extremal neighbor distances versus the critical fraction c.

    With alpha < 1/2 an edge at distance below c*n is offending; with
    beta < 1/2 one above c*n is.  ``band_edge_exists`` reports the converse
    side: whether some edge falls within log^2(n) of the cutoff, where edges
    are still expected to exist.  Loops are not edges and are ignored.
    """

    critical: float
    side: str
    cutoff: float
    min_distance: "int | None"
    max_distance: "int | None"
    offending: tuple
    band_limit: float
    band_edge_exists: bool


def extremal_edge_scan(graph: SampledGraph) -> ExtremalScan:
    p = graph.params
    if not p.alpha_equals_gamma:
        raise ParameterError("extremal scan requires alpha = gamma")
    if p.alpha + p.beta <= 1.0:
        raise ParameterError("extremal scan requires alpha + beta > 1")
    if min(p.alpha, p.beta) >= 0.5:
        raise ParameterError("extremal scan needs alpha < 1/2 or beta < 1/2")
    fraction = critical_fraction(p)
    cutoff = fraction.c * p.n
    ea = graph.edge_array
    if len(ea):
        dist = hamming_array(ea[:, 0], ea[:, 1])
        d_min, d_max = int(dist.min()), int(dist.max())
    else:
        dist = np.empty(0, dtype=np.int64)
        d_min = d_max = None
    log_sq = math.log(p.n) ** 2
    if fraction.side == "below":
        bad = dist < cutoff
        band_limit = cutoff + log_sq
        band_hit = bool(len(dist)) and bool((dist <= band_limit).any())
    else:
        bad = dist > cutoff
        band_limit = cutoff - log_sq
        band_hit = bool(len(dist)) and bool((dist >= band_limit).any())
    offending = tuple(map(tuple, ea[bad].tolist())) if len(ea) else ()
    return ExtremalScan(
        critical=fraction.c,
        side=fraction.side,
        cutoff=cutoff,
        min_distance=d_min,
        max_distance=d_max,
        offending=offending,
        band_limit=band_limit,
        band_edge_exists=band_hit,
    )
