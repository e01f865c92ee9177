"""Small pattern graphs: base values, edge labelings, union families, and
second-moment concentration certificates.

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
EDGE_LABELING_MAX_EDGES = 20
UNION_MAX_VERTICES = 6
EXACT_COPIES_MAX_VERTICES = 6

# A certificate whose union base and squared pattern base differ by a relative
# margin (a log difference) smaller than this is reported as 'boundary' rather
# than pass or fail; strictness at the threshold is exactly where users probe.
BOUNDARY_MARGIN = 1e-9


@dataclass(frozen=True)
class PatternGraph:
    """A small simple graph with vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset

    def __post_init__(self) -> None:
        if not 1 <= self.vertex_count <= MAX_PATTERN_VERTICES:
            raise ParameterError(
                f"pattern must have 1..{MAX_PATTERN_VERTICES} vertices,"
                f" got {self.vertex_count}"
            )
        for edge in self.edges:
            i, j = edge
            if not (0 <= i < j < self.vertex_count):
                raise ParameterError(f"bad edge {edge!r} for {self.vertex_count} vertices")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "PatternGraph":
        """Canonicalize arbitrary (u, v) pairs; loops are rejected."""
        canonical = set()
        for u, v in edges:
            if u == v:
                raise ParameterError(f"patterns are loop-free, got edge ({u}, {v})")
            canonical.add((u, v) if u < v else (v, u))
        return cls(vertex_count=vertex_count, edges=frozenset(canonical))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_list(self) -> tuple:
        """Edges in sorted order; edge-labeling bit i refers to edge_list[i]."""
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple:
        adj = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def degrees(self) -> tuple:
        return tuple(len(s) for s in self.adjacency)

    def is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def relabel(self, mapping) -> "PatternGraph":
        """Apply a vertex bijection given as a sequence of images."""
        return PatternGraph.from_edges(
            self.vertex_count, ((mapping[u], mapping[v]) for u, v in self.edges)
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


def _labeling_sum(params: KroneckerParams, vertex_count: int, edges) -> tuple:
    """The labeling sum of a multigraph as an exact fraction (num, den).

    Loops (alpha on label 1, gamma on label 0) and repeated edges are kept.
    One pass counts the 2^v labelings by how many edges have label sum 0
    (n0) and 2 (n2).  Float entries are dyadic, integers over a shared
    power-of-two D, so num / den = sum c gamma^n0 beta^(e-n0-n2) alpha^n2 / D^e.
    """
    if vertex_count > BASE_VALUE_MAX_VERTICES:
        raise CapacityError(
            f"labeling sums cap at {BASE_VALUE_MAX_VERTICES} vertices, got {vertex_count}"
        )
    e = len(edges)
    ends = np.array(edges, dtype=np.int64).reshape(e, 2)
    bits = (np.arange(1 << vertex_count)[:, None] >> np.arange(vertex_count)) & 1
    sums = bits[:, ends[:, 0]] + bits[:, ends[:, 1]]
    counts = np.bincount((sums == 0).sum(axis=1) * (e + 1) + (sums == 2).sum(axis=1))
    ratios = [x.as_integer_ratio() for x in (params.gamma, params.beta, params.alpha)]
    denominator = max(d for _, d in ratios)  # every denominator is a power of 2
    gamma, beta, alpha = ([(k * (denominator // d)) ** i for i in range(e + 1)] for k, d in ratios)
    num = 0
    for key in np.flatnonzero(counts).tolist():
        n0, n2 = divmod(key, e + 1)
        num += int(counts[key]) * gamma[n0] * beta[e - n0 - n2] * alpha[n2]
    return num, denominator**e


def base_value(params: KroneckerParams, pattern: PatternGraph) -> float:
    """Sum over all 0/1 vertex labelings of the edge-entry product, exact and
    rounded once."""
    num, den = _labeling_sum(params, pattern.vertex_count, pattern.edge_list)
    return num / den


def _log_base_value(params: KroneckerParams, pattern: PatternGraph, value: float) -> float:
    """log of the base value ``value`` of the pattern.

    math.log(value) where the value is a normal float, so logs and linear
    values agree to the last bit; where it underflows (entries of 1e-200 on
    a triangle) the log taken from the exact sum's integers, always finite.
    """
    if value >= sys.float_info.min:
        return math.log(value)
    num, den = _labeling_sum(params, pattern.vertex_count, pattern.edge_list)
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
    Float entries are dyadic, so the sum is taken in integers over a common
    power-of-two denominator and rounded once.  Caps:
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
    weights = collections.Counter()  # B(G/pi) * D^e -> summed mu(pi); den = D^e for every pi
    for blocks in _set_partitions(v):
        mu = 1
        for size in collections.Counter(blocks).values():
            mu *= (-1) ** (size - 1) * math.factorial(size - 1)
        quotient = [(blocks[i], blocks[j]) for i, j in pattern.edge_list]
        num, den = _labeling_sum(params, max(blocks) + 1, quotient)
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


def edge_labeling_from_vertex_labeling(pattern: PatternGraph, g: int) -> int:
    """The labeling each edge inherits as the digit difference |g(u)-g(v)|."""
    labeling = 0
    for index, (u, v) in enumerate(pattern.edge_list):
        if ((g >> u) ^ (g >> v)) & 1:
            labeling |= 1 << index
    return labeling


def valid_edge_labelings(pattern: PatternGraph) -> frozenset:
    """All edge labelings realizable as digit differences of a vertex labeling.

    Decided by the cycle-parity criterion: vertex labels are propagated
    along a spanning tree and every non-tree edge must agree, which holds
    exactly when each cycle carries an even number of 1-labels.  Requires a
    connected pattern (each valid labeling then has exactly two vertex
    labelings above it).  Bit i of a labeling refers to edge_list[i].
    """
    if not pattern.is_connected():
        raise ParameterError("edge labelings are only supported for connected patterns")
    e = pattern.edge_count
    if e > EDGE_LABELING_MAX_EDGES:
        raise CapacityError(
            f"edge-labeling enumeration caps at {EDGE_LABELING_MAX_EDGES} edges, got {e}"
        )
    edge_index = {edge: i for i, edge in enumerate(pattern.edge_list)}

    tree_steps = []  # (child, parent, edge bit index) in BFS order
    tree_edges = set()
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop(0)
        for w in sorted(pattern.adjacency[u]):
            if w not in seen:
                seen.add(w)
                edge = (u, w) if u < w else (w, u)
                tree_steps.append((w, u, edge_index[edge]))
                tree_edges.add(edge)
                frontier.append(w)

    candidates = np.arange(1 << e, dtype=np.int64)
    labels = np.zeros((pattern.vertex_count, len(candidates)), dtype=np.int8)
    for child, parent, bit in tree_steps:
        labels[child] = labels[parent] ^ ((candidates >> bit) & 1).astype(np.int8)
    ok = np.ones(len(candidates), dtype=bool)
    for edge in pattern.edge_list:
        if edge in tree_edges:
            continue
        u, v = edge
        bit = edge_index[edge]
        ok &= (labels[u] ^ labels[v]) == ((candidates >> bit) & 1).astype(np.int8)
    return frozenset(int(x) for x in candidates[ok])


def base_value_from_edge_labelings(params: KroneckerParams, pattern: PatternGraph) -> float:
    """Base value computed over valid edge labelings (requires alpha = gamma).

    Equals 2 * sum over valid labelings of alpha^(#0-labels) beta^(#1-labels),
    the dual route to the vertex-labeling sum for connected patterns.
    """
    if not params.alpha_equals_gamma:
        raise ParameterError("the edge-labeling route requires alpha = gamma")
    e = pattern.edge_count
    total = 0.0
    for labeling in valid_edge_labelings(pattern):
        ones = labeling.bit_count()
        total += params.alpha ** (e - ones) * params.beta**ones
    return 2.0 * total


def identify_vertices(pattern: PatternGraph, u: int, v: int):
    """Merge vertex v into u; None when the result would not be simple.

    The merge is the standard surjective-homomorphism step: it is usable
    for base-value comparisons only when no loop (u adjacent to v) and no
    doubled edge (a common neighbor) would arise.
    """
    if u == v:
        raise ParameterError("cannot identify a vertex with itself")
    if v in pattern.adjacency[u]:
        return None
    if pattern.adjacency[u] & pattern.adjacency[v]:
        return None
    mapping = []
    for w in range(pattern.vertex_count):
        if w == v:
            mapping.append(None)
        else:
            mapping.append(w - (1 if w > v else 0))
    mapping[v] = mapping[u]
    return PatternGraph.from_edges(
        pattern.vertex_count - 1,
        ((mapping[a], mapping[b]) for a, b in pattern.edge_list),
    )


@dataclass(frozen=True)
class UnionPattern:
    """A graph assembled from two edge-overlapping copies of a pattern.

    The first copy is embedded identically; ``map_b`` gives the vertex
    images of the second.
    """

    graph: PatternGraph
    map_b: tuple


def _iso_bucket_key(pattern: PatternGraph):
    degs = pattern.degrees
    profile = tuple(
        sorted(tuple(sorted(degs[w] for w in pattern.adjacency[u])) for u in range(pattern.vertex_count))
    )
    triangles = sum(
        1
        for a, b in pattern.edge_list
        for c in pattern.adjacency[a] & pattern.adjacency[b]
        if c > b
    )
    return (pattern.vertex_count, pattern.edge_count, tuple(sorted(degs)), profile, triangles)


def _isomorphic(g: PatternGraph, h: PatternGraph) -> bool:
    """Whether some vertex bijection carries g's edge set onto h's.

    Backtracking places g's vertices breadth first from the highest degree.
    A vertex may go only to an unused vertex of h of the same degree whose
    neighbours among the images so far are exactly the images of its placed
    neighbours, so a full placement keeps every adjacency and non-adjacency.
    """
    v = g.vertex_count
    if v != h.vertex_count:
        return False
    by_degree = sorted(range(v), key=lambda u: -g.degrees[u])
    order = []
    for root in by_degree:
        if root not in order:
            order.append(root)
            for u in order:  # grows while it is walked
                order += [w for w in by_degree if w in g.adjacency[u] and w not in order]
    h_masks = [sum(1 << x for x in adj) for adj in h.adjacency]
    image = {}

    def extend(depth: int, used: int) -> bool:
        if depth == v:
            return True
        u = order[depth]
        need = sum(1 << image[w] for w in g.adjacency[u] if w in image)
        for x in range(v):
            if not (used >> x) & 1 and h.degrees[x] == g.degrees[u] and (h_masks[x] & used) == need:
                image[u] = x
                if extend(depth + 1, used | 1 << x):
                    return True
                del image[u]
        return False

    return extend(0, 0)


@functools.lru_cache(maxsize=128)
def enumerate_pair_unions(pattern: PatternGraph) -> tuple:
    """All isomorphism-distinct unions of two overlapping copies of a pattern.

    Enumerates every injective placement of a second copy over the first
    (shared vertices mapped into the first copy, the rest to fresh ones) and
    keeps the placements whose edge images overlap without being identical.
    A placement whose union has the same vertex count and edge set as an
    earlier placement's is skipped before any isomorphism test, since the
    earlier one was already kept or matched; the rest are deduplicated up to
    isomorphism, and the first placement of each class is its
    representative.  Results are cached; they do not depend on any model
    parameters.
    """
    v = pattern.vertex_count
    if v > UNION_MAX_VERTICES:
        raise CapacityError(
            f"pair-union enumeration caps at {UNION_MAX_VERTICES} pattern vertices, got {v}"
        )
    base_edges = pattern.edges
    found = {}  # bucket key -> list of UnionPattern
    seen = set()  # (vertex count, edge set) of every union handled so far
    for shared_count in range(v + 1):
        for shared in itertools.combinations(range(v), shared_count):
            for targets in itertools.permutations(range(v), shared_count):
                image = {}
                for s, t in zip(shared, targets):
                    image[s] = t
                fresh = v
                map_b = []
                for w in range(v):
                    if w in image:
                        map_b.append(image[w])
                    else:
                        map_b.append(fresh)
                        fresh += 1
                second_edges = frozenset(
                    (map_b[a], map_b[b]) if map_b[a] < map_b[b] else (map_b[b], map_b[a])
                    for a, b in pattern.edge_list
                )
                if second_edges == base_edges:
                    continue
                if not (second_edges & base_edges):
                    continue
                union_edges = base_edges | second_edges
                if (fresh, union_edges) in seen:
                    continue
                seen.add((fresh, union_edges))
                union = PatternGraph(vertex_count=fresh, edges=union_edges)
                key = _iso_bucket_key(union)
                candidates = found.setdefault(key, [])
                if any(_isomorphic(union, other.graph) for other in candidates):
                    continue
                candidates.append(UnionPattern(graph=union, map_b=tuple(map_b)))
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
