"""Shared helpers: independent brute-force oracles used across the suite.

These are deliberately written as plain loops over digit positions and
labelings, independent of the library's vectorized paths, so that agreement
between the two is evidence rather than tautology.
"""

import itertools

import numpy as np
import pytest

from kronval import KroneckerParams


def brute_edge_probability(params: KroneckerParams, u: int, v: int) -> float:
    """Literal digit-by-digit product over initiator entries."""
    matrix = [[params.gamma, params.beta], [params.beta, params.alpha]]
    out = 1.0
    for k in range(params.n):
        out *= matrix[(u >> k) & 1][(v >> k) & 1]
    return out


def brute_base_value(params: KroneckerParams, vertex_count: int, edges) -> float:
    """Sum over all 0/1 vertex labelings, evaluated with plain loops."""
    matrix = [[params.gamma, params.beta], [params.beta, params.alpha]]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=vertex_count):
        term = 1.0
        for u, v in edges:
            term *= matrix[bits[u]][bits[v]]
        total += term
    return total


def brute_degree_moments(params: KroneckerParams, w: int):
    """(mean, sum of squared probabilities) by summing over all 2^n vertices."""
    v = (1 << w) - 1  # any representative of the weight class
    mean = 0.0
    sum_sq = 0.0
    for u in range(params.vertex_count):
        p = brute_edge_probability(params, u, v)
        mean += p
        sum_sq += p * p
    return mean, sum_sq


def brute_expected_copies(params: KroneckerParams, vertex_count: int, edges) -> float:
    """Expected labeled copies as the literal sum over all injective maps of
    the pattern into Z_2^n, one (2^n)^v array of maps; tiny n only."""
    size = params.vertex_count
    maps = np.indices((size,) * vertex_count).reshape(vertex_count, -1).astype(np.uint64)
    injective = np.ones(maps.shape[1], dtype=bool)
    for x, y in itertools.combinations(range(vertex_count), 2):
        injective &= maps[x] != maps[y]
    maps = maps[:, injective]
    la, lb, lg = params.log_entries()
    log_prob = np.zeros(maps.shape[1])
    for u, v in edges:
        a = np.bitwise_count(maps[u] & maps[v]).astype(np.int64)
        b = np.bitwise_count(maps[u] ^ maps[v]).astype(np.int64)
        log_prob += a * la + b * lb + (params.n - a - b) * lg
    return float(np.exp(log_prob).sum())


def falling_factorial(d: int, k: int) -> int:
    out = 1
    for step in range(k):
        out *= d - step
    return out


@pytest.fixture
def small_params():
    return KroneckerParams(alpha=0.6, beta=0.4, gamma=0.2, n=3)


PARAM_GRID = [
    (0.6, 0.4, 0.2),
    (0.5, 0.3, 0.2),
    (0.7, 0.3, 0.3),
    (0.8, 0.45, 0.15),
    (0.35, 0.6, 0.55),
    (0.9, 0.2, 0.7),
    (0.25, 0.5, 0.75),
    (0.55, 0.55, 0.55),
    (0.4, 0.7, 0.4),
    (0.65, 0.25, 0.85),
]

SYMMETRIC_GRID = [
    (0.30, 0.25),
    (0.45, 0.35),
    (0.55, 0.50),
    (0.40, 0.70),
    (0.70, 0.50),
    (0.60, 0.45),
    (0.25, 0.60),
    (0.50, 0.30),
]
