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
COUNT_MAX_N = 14


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


def _count_star(graph: SampledGraph, k: int) -> int:
    """Sum of falling factorials d!/(d-k)! over the loop-free degrees."""
    counts = np.bincount(graph.degrees(count_loops=False)).tolist()
    return sum(c * math.perm(d, k) for d, c in enumerate(counts) if c)


def _count_triangles_labeled(graph: SampledGraph) -> int:
    adj = graph.neighbor_sets
    closing = 0
    for u, v in graph.edge_array.tolist():
        closing += len(adj[u] & adj[v])
    # Each triangle closes each of its 3 edges once; 6 labeled maps apiece.
    return 2 * closing


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


def count_labeled_copies(
    graph: SampledGraph, pattern: PatternGraph, method: str = "auto"
) -> int:
    """Number of injective, edge-preserving maps of the pattern into the graph.

    Automorphic images count separately and loops never participate.  Stars
    are counted from the degree sequence (sum of falling factorials) and
    triangles from shared neighborhoods; everything else goes through
    generic backtracking.  All three agree on their shared domains.
    """
    if pattern.vertex_count > COUNT_MAX_PATTERN_VERTICES:
        raise CapacityError(
            f"copy counting caps at {COUNT_MAX_PATTERN_VERTICES} pattern vertices"
        )
    if graph.n > COUNT_MAX_N:
        raise CapacityError(f"copy counting caps at n = {COUNT_MAX_N}")
    if not pattern.is_connected() and graph.vertex_count > 1024:
        raise CapacityError(
            "disconnected patterns are only counted on hosts with <= 1024 vertices"
        )
    if method == "auto":
        k = _star_leaf_count(pattern)
        if k is not None:
            return _count_star(graph, k)
        if pattern.vertex_count == 3 and pattern.edge_count == 3:
            return _count_triangles_labeled(graph)
        return _count_backtracking(graph, pattern)
    if method == "star":
        k = _star_leaf_count(pattern)
        if k is None:
            raise ParameterError("pattern is not a star")
        return _count_star(graph, k)
    if method == "triangle":
        if not (pattern.vertex_count == 3 and pattern.edge_count == 3):
            raise ParameterError("pattern is not a triangle")
        return _count_triangles_labeled(graph)
    if method == "generic":
        return _count_backtracking(graph, pattern)
    raise ParameterError(f"unknown counting method {method!r}")


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


def edge_distance_histogram(graph: SampledGraph, count_loops: bool = True) -> np.ndarray:
    """Counts of edges at each Hamming distance; loops land at distance 0."""
    hist = np.zeros(graph.n + 1, dtype=np.int64)
    ea = graph.edge_array
    if len(ea):
        dist = hamming_array(ea[:, 0], ea[:, 1])
        hist += np.bincount(dist, minlength=graph.n + 1)
    if count_loops:
        hist[0] += len(graph.loops)
    return hist


@dataclass(frozen=True)
class ConcentrationReport:
    """Degree and neighbor-distance concentration summary of one realization."""

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
    hist = edge_distance_histogram(graph, count_loops=True)
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
