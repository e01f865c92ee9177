"""Measurements on realized graphs: labeled-copy counts, neighbor and edge
Hamming-distance histograms, and the concentration report."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .model import KroneckerParams, SampledGraph
from .patterns import PatternGraph
from .predict import hamming_window

COUNT_MAX_PATTERN_VERTICES = 5
# Backtracking walks Python neighbour sets; the kernel routes (stars,
# triangles, 4-cycles, 3-edge paths) are array passes and reach further.
COUNT_MAX_N = 14
# The kernels pack two vertex ranks into a uint32 key and sort degrees as
# uint16, so the cap holds until both are widened.
KERNEL_COUNT_MAX_N = 16
DISCONNECTED_COUNT_MAX_N = 10
# Each kernel holds about this many 2-paths (wedges) at a time, so its memory
# stays bounded whatever the degree sequence.
_WEDGE_BLOCK = 1 << 16


# Kernel routes keyed by the sorted degree sequence (its length is the
# vertex count), which decides each of these shapes: a star K_{1,k} is k
# ones and a k, a triangle three twos, a 4-cycle four twos, and a 3-edge
# path two ones and two twos.
_ROUTES = {
    **{(1,) * k + (k,): "star" for k in range(1, COUNT_MAX_PATTERN_VERTICES)},
    (2, 2, 2): "triangle",
    (2, 2, 2, 2): "cycle4",
    (1, 1, 2, 2): "path3",
}


def _route(pattern: PatternGraph):
    """The kernel route of the pattern (under any vertex labelling), else None."""
    return _ROUTES.get(tuple(sorted(pattern.degrees)))


def check_countable(pattern: PatternGraph, n: int) -> None:
    """Raise CapacityError unless ``count_labeled_copies`` counts the pattern
    on a host with digit count n.  Needs no graph, so callers can check
    before sampling."""
    if pattern.vertex_count > COUNT_MAX_PATTERN_VERTICES:
        raise CapacityError(
            f"copy counting caps at {COUNT_MAX_PATTERN_VERTICES} pattern vertices"
        )
    if _route(pattern) is not None:
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


def star_arms(pattern: PatternGraph) -> "int | None":
    """k if count_labeled_copies counts the pattern as the star K_{1,k},
    from the degrees alone (star_count), else None."""
    return pattern.vertex_count - 1 if _route(pattern) == "star" else None


def star_count(degrees: np.ndarray, k: int) -> int:
    """Labeled copies of the star K_{1,k} in a graph of these loop-free
    degrees: the exact sum of falling factorials d!/(d-k)!."""
    counts = np.bincount(degrees).tolist()
    return sum(c * math.perm(d, k) for d, c in enumerate(counts) if c)


def _count_star(graph: SampledGraph, k: int) -> int:
    """star_count over the graph's loop-free degrees."""
    return star_count(graph.degrees(count_loops=False), k)


def _ranked_keys(graph: SampledGraph):
    """(deg, up): the loop-free degrees, and the sorted uint32 keys
    ``low << n | high`` of the edges, with each vertex relabelled by its rank
    in the order (loop-free degree, index) and ``low < high``.

    Orienting edges upwards in this order (Chiba and Nishizeki 1985) bounds
    the 2-paths that climb through each vertex.  At n <= 16
    (``KERNEL_COUNT_MAX_N``) a loop-free degree fits uint16, whose stable
    sort is a radix sort, and a key fits uint32.
    """
    n = graph.n
    deg = graph.degrees(count_loops=False)
    rank = np.empty(graph.vertex_count, dtype=np.uint32)
    rank[np.argsort(deg.astype(np.uint16), kind="stable")] = np.arange(
        graph.vertex_count, dtype=np.uint32
    )
    ends = rank[graph.edges]
    # np.minimum of the two columns: ends.min(axis=1) is some 40 times slower
    up = np.minimum(ends[:, 0], ends[:, 1])
    up <<= n
    up |= np.maximum(ends[:, 0], ends[:, 1])
    up.sort()
    return deg, up


def _expand(prefix, starts, lengths, values):
    """The uint32 ``prefix[i] | values[j]`` for ``j`` in ``starts[i], ...,
    starts[i] + lengths[i] - 1``, concatenated over i.

    One np.repeat of ``offset << 32 | prefix`` serves both parts, offset
    being the signed distance from an entry's first output to its first
    index.  Each prefix is below 2^32, and each offset lies within int32:
    it is less than twice the edge count, and a graph of 2^30 edges would
    hold 16 GiB of ends."""
    packed = starts + lengths - np.cumsum(lengths)
    packed <<= 32
    packed |= prefix
    packed = np.repeat(packed, lengths)
    out = packed.astype(np.uint32)
    packed >>= 32  # the indices, in place
    packed += np.arange(len(packed))
    out |= values[packed]
    return out


def _blocks(group, wedges):
    """(lo, hi) slices of edges sorted by ``group``, each edge leading
    ``wedges`` 2-paths, that hold about ``_WEDGE_BLOCK`` 2-paths apiece.
    Cuts fall only where the group changes, so no group is split."""
    first = np.flatnonzero(group[1:] != group[:-1]) + 1
    block = (np.cumsum(wedges) - wedges)[first] // _WEDGE_BLOCK
    cuts = first[np.flatnonzero(np.diff(block, prepend=0))].tolist()
    bounds = [0, *cuts, len(group)]
    return zip(bounds[:-1], bounds[1:])


def _equal_pairs(keys) -> int:
    """Ordered pairs of equal entries in the sorted ``keys``: the sum of
    c (c - 1) over runs of c equal keys.  A run of c shows as c - 1
    consecutive positions where a key equals the one before it."""
    same = np.flatnonzero(keys[1:] == keys[:-1])
    breaks = np.flatnonzero(np.diff(same) != 1) + 1
    tails = np.diff(np.concatenate(([0], breaks, [len(same)])))  # c - 1 per run
    return int(np.dot(tails, tails + 1))


def _count_triangle(graph: SampledGraph, ranked=None) -> int:
    """Labeled triangles, 6 per triangle, each found once as a 2-path
    a -> b -> c up the rank order that the edge a -> c closes.

    Per block of lowest vertices a, the 2-path keys ``a << n | c`` are
    sorted and the block's edge keys, which are distinct, merged in: each
    closed 2-path then adds two ordered equal pairs and nothing else does.
    ``ranked`` is the graph's ``_ranked_keys``, if the caller already has
    them."""
    n = graph.n
    _, up = ranked or _ranked_keys(graph)
    low = up >> n
    high = up & ((1 << n) - 1)
    out = np.bincount(low, minlength=graph.vertex_count)
    wedges = out[high]
    starts = (np.cumsum(out) - out)[high]
    added = 0
    for lo, hi in _blocks(low, wedges):
        paths = _expand(up[lo:hi] - high[lo:hi], starts[lo:hi], wedges[lo:hi], high)
        paths.sort()
        merged = np.concatenate((up[lo:hi], paths))
        merged.sort()
        added += _equal_pairs(merged) - _equal_pairs(paths)
        del paths, merged  # before the next block's 2-paths are expanded
    return 3 * added  # 2 added pairs and 6 labeled copies per triangle


def _count_cycle4(graph: SampledGraph) -> int:
    """Labeled 4-cycles, 8 per 4-cycle, each counted once at its
    highest-ranked vertex u.

    In the sorted keys of both edge directions, v's row lists its
    neighbours in rank order, so for an edge v - u with v below u, the
    neighbours w of v ranked below u are a prefix of that row.  Per block of
    top vertices u, the keys ``u << n | w`` are sorted.  A run of c equal
    keys is c common neighbours of u and w below u, and each of its
    c * (c - 1) ordered pairs (v, v') closes a 4-cycle u v w v' whose
    diagonal is uw.  Summed, that is twice the 4-cycles.
    """
    n = graph.n
    deg, up = _ranked_keys(graph)
    low = up >> n
    high = up & ((1 << n) - 1)
    both = np.concatenate((up, high << n | low))
    both.sort()
    both &= (1 << n) - 1  # each row's neighbours, in rank order
    row_deg = np.sort(deg)  # the degrees in rank order
    out = np.bincount(low, minlength=graph.vertex_count)
    # v's row holds its deg - out lower neighbours, then its up-edges in key
    # order; edge i, v -> u, is up-edge i - (cumsum(out) - out)[v] of v
    below = np.arange(len(up)) + (row_deg - np.cumsum(out))[low]
    by_top = np.argsort(high.astype(np.uint16), kind="stable")
    top = high[by_top]
    below = below[by_top]
    starts = (np.cumsum(row_deg) - row_deg)[low[by_top]]
    squares = 0
    for lo, hi in _blocks(top, below):
        pairs = _expand(top[lo:hi] << n, starts[lo:hi], below[lo:hi], both)
        pairs.sort()
        squares += _equal_pairs(pairs)
        del pairs  # before the next block's 2-paths are expanded
    return 4 * squares


def _count_path3(graph: SampledGraph) -> int:
    """Labeled 3-edge paths: an ordered middle edge (b, c) with an end a != c
    at b and an end d != b at c, minus the triangles, where a = d.

    That is sum_u (d_u - 1) * (sum_{v ~ u} d_v - d_u), or, summed edge by
    edge, ``2 * sum_{uv} d_u d_v - sum_u d_u * (2 d_u - 1)``.  At the kernel
    cap (n <= 16) each d_u d_v is below 2^32 and there are fewer than 2^31
    edges, so the int64 sum is exact.
    """
    ranked = _ranked_keys(graph)
    deg = ranked[0]
    ends = deg[graph.edges]
    walks = 2 * int(np.dot(ends[:, 0], ends[:, 1])) - int(np.dot(deg, 2 * deg - 1))
    return walks - _count_triangle(graph, ranked)


def _count_backtracking(graph: SampledGraph, pattern: PatternGraph) -> int:
    """Injective edge-preserving maps by backtracking over neighbour sets.

    The search order puts isolated pattern vertices last; once only they
    are left, their placements are counted, not walked: any distinct
    unused host vertices, math.perm(2^n - depth, remaining) ways.
    """
    adj = graph.neighbor_sets
    order = _search_order(pattern)
    walked = sum(1 for d in pattern.degrees if d)
    assigned = [None] * pattern.vertex_count
    used = set()

    def extend(depth: int) -> int:
        if depth == walked:
            return math.perm(graph.vertex_count - depth, len(order) - depth)
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
    """Pattern vertices as (vertex, placed neighbours) pairs: each next
    vertex has the most placed neighbours, then the highest degree, then
    the highest index, so isolated vertices come last."""
    masks = pattern.masks
    placed = 0
    order = []
    for _ in masks:
        chosen = max(
            (u for u in range(len(masks)) if not placed >> u & 1),
            key=lambda u: ((masks[u] & placed).bit_count(), masks[u].bit_count(), u),
        )
        order.append((chosen, [u for u, _ in order if masks[chosen] >> u & 1]))
        placed |= 1 << chosen
    return order


def count_labeled_copies(graph: SampledGraph, pattern: PatternGraph) -> int:
    """Number of injective, edge-preserving maps of the pattern into the graph.

    Automorphic images count separately and loops never participate.  The
    result is an exact Python int, also above 2^63.

    Routes follow the pattern's sorted degree sequence, not its vertex
    labels, so a numeric ``@file`` pattern routes like the named builtin:

    - a star K_{1,k} (``star:k``, ``path:2``, a single edge) is the sum of
      falling factorials d!/(d-k)! over the degree sequence;
    - a triangle is 6 times the 2-paths a -> b -> c up the rank order that
      an edge a -> c closes, counting each triangle once at its lowest
      vertex;
    - a 4-cycle is ``4 * sum(c * (c - 1))`` over the runs of c equal keys
      ``u << n | w`` of the 2-paths u - v - w with v and w below u in rank
      order, counting each 4-cycle once at its highest vertex;
    - a 3-edge path is ``sum_u (d_u - 1) * (sum_{v ~ u} d_v - d_u)``, a
      pass over the degrees, minus the labeled triangles;
    - every other pattern goes through backtracking over neighbour sets,
      which counts the placements of isolated pattern vertices in closed
      form instead of walking them.

    The kernel routes relabel each vertex by its (degree, index) rank and
    read the edges as sorted uint32 keys ``low << n | high``.  They walk
    only the 2-paths that their orientation admits, fewer than ``A @ A``
    holds, in blocks of about ``_WEDGE_BLOCK`` 2-paths that never split
    one vertex's 2-paths, and match them by sorting keys.
    Backtracking (``_count_backtracking``) is the reference the other routes
    agree with.  Caps (see :func:`check_countable`): patterns have at most
    ``COUNT_MAX_PATTERN_VERTICES`` vertices; hosts have n <=
    ``KERNEL_COUNT_MAX_N`` on the star and kernel routes, n <= ``COUNT_MAX_N``
    under backtracking, and n <= ``DISCONNECTED_COUNT_MAX_N`` for
    disconnected patterns.
    """
    check_countable(pattern, graph.n)
    route = _route(pattern)
    if route == "star":
        return _count_star(graph, pattern.vertex_count - 1)
    if route is None:
        return _count_backtracking(graph, pattern)
    kernels = {"triangle": _count_triangle, "cycle4": _count_cycle4, "path3": _count_path3}
    return kernels[route](graph)


def neighbor_hamming_histogram(graph: SampledGraph, u: int) -> np.ndarray:
    """Counts of neighbors of u at each Hamming distance 0..n.

    A self-loop at u lands at distance 0; the histogram sums to the degree
    of u with loops counted.
    """
    if not isinstance(u, (int, np.integer)):
        raise ParameterError(f"vertex must be an integer, got {u!r}")
    if not 0 <= u < graph.vertex_count:
        raise ParameterError(f"vertex {u} out of range for n = {graph.n}")
    u = int(u)
    edges = graph.edges
    start, stop = np.searchsorted(edges[:, 0], [u, u + 1])
    neighbors = np.concatenate([edges[start:stop, 1], edges[edges[:, 1] == u, 0]])
    hist = np.bincount(np.bitwise_count(neighbors ^ u), minlength=graph.n + 1)
    at = np.searchsorted(graph.loops, u)
    if at < len(graph.loops) and graph.loops[at] == u:
        hist[0] += 1
    return hist


def edge_distance_histogram(graph: SampledGraph) -> np.ndarray:
    """Counts of edges at each Hamming distance; loops land at distance 0.

    The one temporary, ``lo ^ hi``, holds the distances too, and it is
    writeable, so np.bincount reads it without a copy.
    """
    edges = graph.edges
    dist = np.bitwise_xor(edges[:, 0], edges[:, 1])
    hist = np.bincount(np.bitwise_count(dist, out=dist), minlength=graph.n + 1)
    hist[0] += len(graph.loops)
    return hist


@dataclass(frozen=True)
class ConcentrationReport:
    """Degree and neighbor-distance concentration summary of one
    realization, read off its edge-distance histogram.

    ``distance_histogram`` counts the edges at each Hamming distance 0..n,
    with loops at 0; ``edge_count`` and ``loop_count`` split it.
    """

    expected_degree: float
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


def concentration_report(
    params: KroneckerParams, distance_histogram, include_loops: bool
) -> ConcentrationReport:
    """Compare the mean vertex degree and the edge distances of one
    realization of params against the uniform prediction (alpha+beta)^n and
    its distance window.

    The realization is its edge-distance histogram, the n + 1 counts of
    ``edge_distance_histogram`` (or a row of
    ``generate.stratified_distances``), so no graph is needed.  An edge has
    distance >= 1, so entry 0 counts the loops, and a loop-free realization
    has none there.  Loops enter the degrees and the fractions at distance
    0.  The mean degree is the degree sum 2 edges + loops over the 2^n
    vertices, and the in-window fraction and mean distance are ratios of
    the histogram's integer sums, NaN without edges.  Requires alpha = gamma
    and alpha + beta > 1.
    """
    p = params
    if not p.alpha_equals_gamma:
        raise ParameterError("concentration report requires alpha = gamma")
    if p.alpha + p.beta <= 1.0:
        raise ParameterError("concentration report requires alpha + beta > 1")
    hist = np.asarray(distance_histogram)
    if hist.shape != (p.n + 1,) or hist.dtype.kind not in "iu":
        raise ParameterError(f"a distance histogram holds n + 1 = {p.n + 1} integer counts")
    loops = int(hist[0])
    if loops and not include_loops:
        raise ParameterError("a loop-free realization has no count at distance 0")
    lo, hi = hamming_window(p)
    center = p.beta * p.n / (p.alpha + p.beta)
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
        degree_mean=(2 * total - loops) / p.vertex_count,
        window_lo=lo,
        window_hi=hi,
        window_center=center,
        in_window_edge_fraction=fraction,
        mean_edge_distance=mean_distance,
        edge_count=total - loops,
        loop_count=loops,
        include_loops=include_loops,
        distance_histogram=tuple(hist.tolist()),
    )
