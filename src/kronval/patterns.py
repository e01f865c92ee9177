"""Small pattern graphs: base values and their closed forms, union families,
and second-moment concentration certificates.

The base value of a pattern G is the sum over all 0/1 vertex labelings of
the product of initiator entries along the edges; the expected number of
labeled copies of G in a realization grows like (base value)^n.  Only
``_labeling_sum`` enumerates labelings: it sums exactly, in integers, for the
base value (rounded once), its log where that float underflows, and the
quotients behind the exact expected copy count.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ParameterError
from .model import GRAPH_MAX_N, KroneckerParams

MAX_PATTERN_VERTICES = 12
BASE_VALUE_MAX_VERTICES = 10
UNION_MAX_VERTICES = 6
EXACT_COPIES_MAX_VERTICES = 6

# A certificate whose union base and squared pattern base differ by a relative
# margin (a log difference) smaller than this is reported as 'boundary' rather
# than pass or fail; strictness at the threshold is exactly where users probe.
BOUNDARY_MARGIN = 1e-9


@dataclass(frozen=True)
class PatternGraph:
    """A small simple graph on vertices 0..vertex_count-1, stored as its
    adjacency masks: bit w of ``masks[u]`` marks the edge uw."""

    masks: tuple

    def __post_init__(self) -> None:
        v = len(self.masks)
        _check_vertex_count(v)
        for u, m in enumerate(self.masks):
            if m >> v:
                raise ParameterError(f"mask of vertex {u} has a bit at or above {v}")
            if m >> u & 1:
                raise ParameterError(f"mask of vertex {u} has its own bit (a loop)")
            for w in range(u):
                if (m >> w ^ self.masks[w] >> u) & 1:
                    raise ParameterError(f"masks of vertices {w} and {u} disagree on their edge")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "PatternGraph":
        """Canonicalize arbitrary (u, v) pairs; loops are rejected."""
        canonical = set()
        for u, v in edges:
            if u == v:
                raise ParameterError(f"patterns are loop-free, got edge ({u}, {v})")
            canonical.add((u, v) if u < v else (v, u))
        _check_vertex_count(vertex_count)
        masks = [0] * vertex_count
        for edge in sorted(canonical):
            i, j = edge
            if not (0 <= i < j < vertex_count):
                raise ParameterError(f"bad edge {edge!r} for {vertex_count} vertices")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return cls(tuple(masks))

    @property
    def vertex_count(self) -> int:
        return len(self.masks)

    @property
    def degrees(self) -> tuple:
        return tuple(m.bit_count() for m in self.masks)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def edge_list(self) -> tuple:
        """Edges (u, w), u < w, in sorted order."""
        v = len(self.masks)
        return tuple(
            (u, w) for u, m in enumerate(self.masks) for w in range(u + 1, v) if m >> w & 1
        )

    def is_connected(self) -> bool:
        seen = frontier = 1
        while frontier:
            reach = 0
            for u, m in enumerate(self.masks):
                if frontier >> u & 1:
                    reach |= m
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << len(self.masks)) - 1


def _check_vertex_count(vertex_count: int) -> None:
    if not 1 <= vertex_count <= MAX_PATTERN_VERTICES:
        raise ParameterError(
            f"pattern must have 1..{MAX_PATTERN_VERTICES} vertices, got {vertex_count}"
        )


def star(k: int) -> PatternGraph:
    """K_{1,k}: center 0 with k leaves."""
    if k < 1:
        raise ParameterError(f"a star needs at least one leaf, got {k}")
    return PatternGraph.from_edges(k + 1, ((0, i) for i in range(1, k + 1)))


def cycle(k: int) -> PatternGraph:
    """C_k for k >= 3."""
    if k < 3:
        raise ParameterError(f"a cycle needs at least 3 vertices, got {k}")
    return PatternGraph.from_edges(k, ((i, (i + 1) % k) for i in range(k)))


def path(k: int) -> PatternGraph:
    """A path with k edges (k+1 vertices)."""
    if k < 1:
        raise ParameterError(f"a path needs at least one edge, got {k}")
    return PatternGraph.from_edges(k + 1, ((i, i + 1) for i in range(k)))


def parse_pattern(text: str) -> PatternGraph:
    """Parse a pattern from a named builtin or the numeric edge format.

    Named: ``star:k``, ``cycle:k``, ``path:k``.  Numeric: first non-empty
    line is the vertex count, each following line one ``u v`` edge with
    0-based indices.  A pattern of more than ``BASE_VALUE_MAX_VERTICES``
    vertices, the largest any consumer accepts, is refused before it is
    built.
    """
    stripped = text.strip()
    if ":" in stripped and "\n" not in stripped:
        name, _, arg = stripped.partition(":")
        builders = {"star": (star, 1), "cycle": (cycle, 0), "path": (path, 1)}
        if name not in builders:
            raise ParameterError(f"unknown pattern name {name!r}")
        try:
            k = int(arg)
        except ValueError:
            raise ParameterError(f"bad pattern size {arg!r}") from None
        builder, extra_vertices = builders[name]
        _check_pattern_size(k + extra_vertices)
        return builder(k)
    lines = [line for line in stripped.splitlines() if line.strip()]
    if not lines:
        raise ParameterError("empty pattern description")
    try:
        vertex_count = int(lines[0])
        edges = []
        for line in lines[1:]:
            u, v = line.split()
            edges.append((int(u), int(v)))
    except ValueError:
        raise ParameterError("pattern format: vertex count line, then 'u v' lines") from None
    _check_pattern_size(vertex_count)
    return PatternGraph.from_edges(vertex_count, edges)


def _check_pattern_size(vertex_count: int) -> None:
    if vertex_count > BASE_VALUE_MAX_VERTICES:
        raise ParameterError(
            f"patterns have at most {BASE_VALUE_MAX_VERTICES} vertices, got {vertex_count}"
        )


def _labeling_sum(params: KroneckerParams, vertex_count: int, edges, partitions=None) -> tuple:
    """Labeling sums of a multigraph's quotients as exact fractions (nums, den).

    ``nums[i] / den`` is the sum for the quotient by ``partitions[i]``, a set
    partition of the vertices as a restricted growth string (each block merged
    into one vertex); the default, the partition into singletons, gives the
    multigraph's own sum as the one entry.  Loops (alpha on label 1, gamma on
    label 0) and repeated edges are kept.  One pass over the 2^v labelings
    counts, per quotient, how many edges have label sum 0 (n0) and 2 (n2); a
    quotient of b blocks sees each of its labelings 2^(v-b) times.  Float
    entries are dyadic, integers over a shared power-of-two D, so
    num / den = sum c gamma^n0 beta^(e-n0-n2) alpha^n2 / D^e.
    """
    if vertex_count > BASE_VALUE_MAX_VERTICES:
        raise CapacityError(
            f"labeling sums cap at {BASE_VALUE_MAX_VERTICES} vertices, got {vertex_count}"
        )
    e = len(edges)
    if partitions is None:
        quotients, block_counts = [edges], [vertex_count]
    else:
        quotients = [[(p[a], p[b]) for a, b in edges] for p in partitions]
        block_counts = [max(p) + 1 for p in partitions]
    ends = np.array(quotients, dtype=np.int64).reshape(len(quotients), e, 2)
    bits = (np.arange(1 << vertex_count)[:, None] >> np.arange(vertex_count)) & 1
    sums = bits[:, ends[..., 0]] + bits[:, ends[..., 1]]  # (labeling, quotient, edge)
    keys = np.array([e + 1, 0, 1])[sums].sum(axis=2)  # n0 * (e + 1) + n2
    ratios = [x.as_integer_ratio() for x in (params.gamma, params.beta, params.alpha)]
    denominator = max(d for _, d in ratios)  # every denominator is a power of 2
    gamma, beta, alpha = ([(k * (denominator // d)) ** i for i in range(e + 1)] for k, d in ratios)
    nums = []
    for column, b in zip(keys.T, block_counts):
        counts = np.bincount(column)
        num = 0
        for key in np.flatnonzero(counts).tolist():
            n0, n2 = divmod(key, e + 1)
            num += int(counts[key]) * gamma[n0] * beta[e - n0 - n2] * alpha[n2]
        nums.append(num >> (vertex_count - b))
    return nums, denominator**e


def base_value(params: KroneckerParams, pattern: PatternGraph) -> float:
    """Sum over all 0/1 vertex labelings of the edge-entry product, exact and
    rounded once."""
    (num,), den = _labeling_sum(params, pattern.vertex_count, pattern.edge_list)
    return num / den


def _log_base_value(params: KroneckerParams, pattern: PatternGraph, value: float) -> float:
    """log of the base value ``value`` of the pattern.

    math.log(value) where the value is a normal float, so logs and linear
    values agree to the last bit; where it underflows (entries of 1e-200 on
    a triangle) the log taken from the exact sum's integers, always finite.
    """
    if value >= sys.float_info.min:
        return math.log(value)
    (num,), den = _labeling_sum(params, pattern.vertex_count, pattern.edge_list)
    return math.log(num) - math.log(den)


def expected_copies_asymptotic(params: KroneckerParams, pattern: PatternGraph) -> float:
    """(base value)^n: the leading-order expected number of labeled copies.

    Also an exact upper bound for the expectation, since it counts all
    vertex maps rather than only the injective ones.  Formed from the log
    base value, so it is 0.0 rather than an error where the base value
    underflows.
    """
    b = base_value(params, pattern)
    return math.exp(params.n * _log_base_value(params, pattern, b))


@functools.lru_cache(maxsize=None)
def _set_partitions(v: int) -> tuple:
    """The set partitions of range(v) as restricted growth strings: element i
    joins a block opened before it or opens the next one."""
    partitions = [()]
    for _ in range(v):
        partitions = [p + (b,) for p in partitions for b in range(max(p, default=-1) + 2)]
    return tuple(partitions)


def expected_copies_exact(params: KroneckerParams, pattern: PatternGraph) -> float:
    """Exact expected number of labeled copies: the sum over injective maps.

    Edge probabilities factor over digits, so the sum over all vertex maps of
    a quotient G/pi (each block of the partition pi merged, an edge inside a
    block kept as a loop with entry alpha on label 1 and gamma on label 0,
    parallel edges kept) is B(G/pi)^n with B its labeling sum.  Moebius
    inversion over set partitions gives the injective sum (the inj/hom
    relation; Lovasz, Large Networks and Graph Limits, 2012):
    sum over pi of mu(pi) B(G/pi)^n, mu(pi) = prod_blocks (-1)^(|B|-1) (|B|-1)!.
    One pass of ``_labeling_sum`` gives every quotient's sum as an integer
    over one power-of-two denominator, so the sum is exact and rounded once.
    Caps:
    ``EXACT_COPIES_MAX_VERTICES`` pattern vertices (Bell(6) = 203
    partitions) and n <= ``GRAPH_MAX_N``, the largest samplable graph.
    """
    n = params.n
    v = pattern.vertex_count
    if v > EXACT_COPIES_MAX_VERTICES:
        raise CapacityError(
            f"exact expected copies cap at {EXACT_COPIES_MAX_VERTICES} pattern vertices, got {v}"
        )
    if n > GRAPH_MAX_N:
        raise CapacityError(f"exact expected copies cap at n = {GRAPH_MAX_N}, got {n}")
    partitions = _set_partitions(v)
    nums, den = _labeling_sum(params, v, pattern.edge_list, partitions)
    weights = collections.Counter()  # B(G/pi) * D^e -> summed mu(pi); den = D^e for every pi
    for blocks, num in zip(partitions, nums):
        mu = 1
        for size in collections.Counter(blocks).values():
            mu *= (-1) ** (size - 1) * math.factorial(size - 1)
        weights[num] += mu
    total = sum(mu * b**n for b, mu in weights.items())
    return total / den**n


def star_base_value(params: KroneckerParams, k: int) -> float:
    """Closed form for K_{1,k}: (alpha+beta)^k + (beta+gamma)^k."""
    if k < 1:
        raise ParameterError(f"a star needs at least one leaf, got {k}")
    return (params.alpha + params.beta) ** k + (params.beta + params.gamma) ** k


def tree_base_value(params: KroneckerParams, edge_count: int) -> float:
    """Closed form for any tree with the given edge count: 2(alpha+beta)^e.

    Requires alpha = gamma; the value does not depend on the tree shape.
    """
    if not params.alpha_equals_gamma:
        raise ParameterError("tree base value requires alpha = gamma")
    if edge_count < 1:
        raise ParameterError(f"a tree needs at least one edge, got {edge_count}")
    return 2.0 * (params.alpha + params.beta) ** edge_count


def cycle_base_value(params: KroneckerParams, k: int) -> float:
    """Closed form for C_k: (alpha+beta)^k + (alpha-beta)^k.

    Requires alpha = gamma.  For odd k and beta > alpha the second term is
    negative, which is why longer odd cycles can appear before shorter ones.
    """
    if not params.alpha_equals_gamma:
        raise ParameterError("cycle base value requires alpha = gamma")
    if k < 3:
        raise ParameterError(f"a cycle needs length >= 3, got {k}")
    return (params.alpha + params.beta) ** k + (params.alpha - params.beta) ** k


def overlap_cycle_base_value(params: KroneckerParams, k: int, l: int) -> float:
    """Closed form for the union of two k-cycles sharing l consecutive edges.

    Requires alpha = gamma and 0 < l < k.  The value is
    ((a+b)^(2k-l) + (a+b)^l (a-b)^(2k-2l) + 2 (a+b)^(k-l) (a-b)^k) / 2
    with a = alpha and b = beta.
    """
    if not params.alpha_equals_gamma:
        raise ParameterError("overlap cycle base value requires alpha = gamma")
    if k < 3:
        raise ParameterError(f"a cycle needs length >= 3, got {k}")
    if not 0 < l < k:
        raise ParameterError(f"overlap must satisfy 0 < l < k, got l={l}, k={k}")
    s = params.alpha + params.beta
    d = params.alpha - params.beta
    return 0.5 * (s ** (2 * k - l) + s**l * d ** (2 * k - 2 * l) + 2.0 * s ** (k - l) * d**k)


def overlap_cycles(k: int, l: int) -> PatternGraph:
    """Two k-cycles sharing a path of l consecutive edges, as a pattern.

    Equivalently: two hub vertices joined by three internally disjoint
    paths with l, k-l and k-l edges.  Only l <= k-2 yields a simple graph
    (at l = k-1 the two closing edges would coincide).
    """
    if k < 3:
        raise ParameterError(f"a cycle needs length >= 3, got {k}")
    if not 0 < l <= k - 2:
        raise ParameterError(f"a simple overlap union needs 0 < l <= k-2, got l={l}")
    edges = []
    next_vertex = 2

    def add_path(length):
        nonlocal next_vertex
        prev = 0
        for step in range(length - 1):
            edges.append((prev, next_vertex))
            prev = next_vertex
            next_vertex += 1
        edges.append((prev, 1))

    add_path(l)
    add_path(k - l)
    add_path(k - l)
    return PatternGraph.from_edges(next_vertex, edges)


@dataclass(frozen=True)
class UnionPattern:
    """A graph assembled from two edge-overlapping copies of a pattern.

    The first copy is embedded identically; ``map_b`` gives the vertex
    images of the second.
    """

    graph: PatternGraph
    map_b: tuple


def _iso_bucket_key(masks) -> tuple:
    """Isomorphism invariants of a graph given as adjacency masks: vertex and
    edge counts, sorted degrees, sorted neighbour-degree profiles, triangles."""
    v = len(masks)
    degs = [m.bit_count() for m in masks]
    neighbours = [[w for w in range(v) if m >> w & 1] for m in masks]
    profile = tuple(sorted(tuple(sorted(degs[w] for w in ws)) for ws in neighbours))
    # each triangle is met once per ordered pair of its vertices
    triangles = sum((masks[u] & masks[w]).bit_count() for u in range(v) for w in neighbours[u]) // 6
    return (v, sum(degs) // 2, tuple(sorted(degs)), profile, triangles)


def _isomorphisms(g, h):
    """Every vertex bijection carrying g's edge set onto h's, as the tuple of
    images; both graphs are given as adjacency masks.

    Backtracking places g's vertices breadth first from the highest degree.
    A vertex may go only to an unused vertex of h of the same degree whose
    neighbours among the images so far are exactly the images of its placed
    neighbours, so a full placement keeps every adjacency and non-adjacency.
    """
    v = len(g)
    if v != len(h):
        return
    g_degs = [m.bit_count() for m in g]
    h_degs = [m.bit_count() for m in h]
    by_degree = sorted(range(v), key=lambda u: -g_degs[u])
    order = []
    for root in by_degree:
        if root not in order:
            order.append(root)
            for u in order:  # grows while it is walked
                order += [w for w in by_degree if g[u] >> w & 1 and w not in order]
    image = [0] * v

    def extend(depth: int, used: int):
        if depth == v:
            yield tuple(image)
            return
        u = order[depth]
        need = sum(1 << image[w] for w in order[:depth] if g[u] >> w & 1)
        for x in range(v):
            if not (used >> x) & 1 and h_degs[x] == g_degs[u] and (h[x] & used) == need:
                image[u] = x
                yield from extend(depth + 1, used | 1 << x)

    yield from extend(0, 0)


def _isomorphic(g, h) -> bool:
    """Whether two graphs given as adjacency masks are isomorphic."""
    return next(_isomorphisms(g, h), None) is not None


def _cover_orbit(covered: set, placement: tuple, automorphisms, least: dict) -> None:
    """Add a placement's orbit to ``covered`` as (shared, least targets) keys.

    The orbit of psi under Aut(G) x Aut(G) and the swap is tau psi sigma and
    tau psi^-1 sigma over every tau, sigma in Aut(G).  ``least`` reduces the
    targets, which absorbs tau, so the keys are those of psi sigma and
    psi^-1 sigma for each sigma in ``automorphisms``, which lists all of
    Aut(G): 2 |Aut(G)| of them, with repeats.
    """
    shared, targets = placement
    for second, first in ((shared, targets), (targets, shared)):
        for sigma in automorphisms:
            moved_shared, moved_targets = zip(*sorted(zip(map(sigma.__getitem__, second), first)))
            covered.add((moved_shared, least[moved_targets]))


@functools.lru_cache(maxsize=128)
def enumerate_pair_unions(pattern: PatternGraph) -> tuple:
    """All isomorphism-distinct unions of two overlapping copies of a pattern.

    A placement psi maps the shared vertices of the second copy injectively
    into the first; the second copy's other vertices become fresh ones, in
    vertex order.  Placements are walked by shared count (2 and up: fewer
    cannot share an edge), then shared set, then target tuple, and those
    whose edge images overlap without being identical are kept up to
    isomorphism of their unions, the first placement of each class as its
    representative.

    The walk does symmetric work once.  For sigma, tau in Aut(G), the
    placement tau psi sigma has a union isomorphic to psi's (tau relabels the
    first copy, sigma the second), and so has psi^-1 (the copies swap roles).
    A union is built only for the first placement of each orbit of that
    group; the orbit is then marked as the keys of psi sigma and psi^-1
    sigma for each sigma in Aut(G), with each target tuple reduced to its
    least Aut(G) image (the one the walk meets first, so other target
    tuples are never visited).  Every isomorphism class is a union of
    orbits, so the first placement of a class is the first of its orbit:
    the representatives and their ``map_b`` are those of a walk over every
    placement.  Unions are adjacency masks, the form a
    ``PatternGraph`` stores: the bucket key and the isomorphism test read
    them, and a kept representative wraps them as they are.  Results are
    cached; they do not depend on any model parameters.
    """
    v = pattern.vertex_count
    if v > UNION_MAX_VERTICES:
        raise CapacityError(
            f"pair-union enumeration caps at {UNION_MAX_VERTICES} pattern vertices, got {v}"
        )
    masks, e = pattern.masks, pattern.edge_count
    automorphisms = list(_isomorphisms(masks, masks))
    found = {}  # bucket key -> [UnionPattern]
    for shared_count in range(2, v + 1):
        least = {}  # target tuple -> its least image under Aut(G)
        firsts = []  # the target tuples that are their own least image, in walk order
        for targets in itertools.permutations(range(v), shared_count):
            if targets not in least:
                firsts.append(targets)
                for tau in automorphisms:
                    least[tuple(map(tau.__getitem__, targets))] = targets
        covered = set()  # (shared, least targets) of every orbit met so far
        for shared in itertools.combinations(range(v), shared_count):
            inner = [
                (i, j)
                for i, j in itertools.combinations(range(shared_count), 2)
                if masks[shared[i]] >> shared[j] & 1
            ]
            if not inner:
                continue  # no edge of the second copy joins two shared vertices
            for targets in firsts:
                if (shared, targets) in covered:
                    continue
                overlap = sum(masks[targets[i]] >> targets[j] & 1 for i, j in inner)
                if not 0 < overlap < e:
                    continue
                _cover_orbit(covered, (shared, targets), automorphisms, least)
                image = dict(zip(shared, targets))
                fresh = iter(range(v, 2 * v - shared_count))
                map_b = tuple(image[w] if w in image else next(fresh) for w in range(v))
                union = list(masks) + [0] * (v - shared_count)
                for a, b in pattern.edge_list:
                    union[map_b[a]] |= 1 << map_b[b]
                    union[map_b[b]] |= 1 << map_b[a]
                bucket = found.setdefault(_iso_bucket_key(union), [])
                if any(_isomorphic(union, other.graph.masks) for other in bucket):
                    continue
                bucket.append(UnionPattern(graph=PatternGraph(tuple(union)), map_b=map_b))
    unions = [up for bucket in found.values() for up in bucket]
    unions.sort(key=lambda up: (up.graph.vertex_count, up.graph.edge_count, up.graph.edge_list))
    return tuple(unions)


@dataclass(frozen=True)
class CertificateEntry:
    union: UnionPattern
    union_base: float
    margin: float
    status: str  # pass | boundary | fail


@dataclass(frozen=True)
class CertificateReport:
    """Numerical second-moment check: union base < (pattern base)^2.

    When every entry passes strictly, the count of pattern copies is
    concentrated around its expectation at these parameters.
    """

    pattern: PatternGraph
    pattern_base: float
    entries: tuple

    @property
    def status(self) -> str:
        if any(e.status == "fail" for e in self.entries):
            return "fail"
        if any(e.status == "boundary" for e in self.entries):
            return "boundary"
        return "pass"

    @property
    def passes(self) -> bool:
        return self.status == "pass"


def second_moment_certificate(
    params: KroneckerParams, pattern: PatternGraph
) -> CertificateReport:
    """Check union base < (pattern base)^2 for every pair union of a pattern.

    Each status compares log base values, which stay finite where the base
    values themselves underflow: an entry is 'boundary' when its union base
    and the squared pattern base differ by less than a relative 1e-9, 'pass'
    when the union base is the smaller.  The reported margin is the linear
    difference.  An empty union family certifies vacuously.
    """
    b_pattern = base_value(params, pattern)
    bound = b_pattern * b_pattern
    log_bound = 2.0 * _log_base_value(params, pattern, b_pattern)
    entries = []
    for union in enumerate_pair_unions(pattern):
        b_union = base_value(params, union.graph)
        log_margin = log_bound - _log_base_value(params, union.graph, b_union)
        if abs(log_margin) < BOUNDARY_MARGIN:
            status = "boundary"
        elif log_margin > 0:
            status = "pass"
        else:
            status = "fail"
        entries.append(
            CertificateEntry(union=union, union_base=b_union, margin=bound - b_union, status=status)
        )
    return CertificateReport(pattern=pattern, pattern_base=b_pattern, entries=tuple(entries))
