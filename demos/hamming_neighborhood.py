"""Neighborhood geometry on the hypercube, for alpha = gamma, alpha+beta > 1.

Every vertex then has expected degree (alpha+beta)^n, and its neighbors sit
at Hamming distances following Bin(n, beta/(alpha+beta)).  Below the
critical fraction c solving (beta/c)^c (alpha/(1-c))^(1-c) = 1/2 there are
no edges at all (when alpha < 1/2); the edge-distance histograms of seeded
realizations show the closest edge and the count below c*n.
"""

import numpy as np

from kronval import (
    KroneckerParams,
    SeedSpec,
    concentration_report,
    critical_fraction,
    edge_distance_histogram,
    generate_stratified,
    hamming_profile_prediction,
    neighbor_hamming_histogram,
)


def main():
    p = KroneckerParams(alpha=0.7, beta=0.5, gamma=0.7, n=14)
    g = generate_stratified(p, include_loops=True, seed=SeedSpec(6))
    report = concentration_report(p, edge_distance_histogram(g), include_loops=True)
    print(f"n={p.n}, alpha=gamma={p.alpha}, beta={p.beta}")
    print(f"expected degree (alpha+beta)^n = {report.expected_degree:.2f}")
    degrees = g.degrees()
    print(
        f"realized degrees: min {degrees.min()}, mean {report.degree_mean:.2f},"
        f" max {degrees.max()}"
    )
    print(
        f"edge distances center {report.window_center:.2f};"
        f" in-window fraction {report.in_window_edge_fraction:.4f}\n"
    )

    u = (1 << p.n) - 1  # the all-ones vertex
    hist = neighbor_hamming_histogram(g, u)
    print("neighbor distance profile of the all-ones vertex vs prediction:")
    print(f"{'k':>3} {'observed':>9} {'predicted':>10}")
    for k in range(p.n + 1):
        predicted = hamming_profile_prediction(p, k)
        if hist[k] or predicted >= 0.05:
            print(f"{k:>3} {hist[k]:>9d} {predicted:>10.2f}")

    q = KroneckerParams(alpha=0.4, beta=0.7, gamma=0.4, n=14)
    c = critical_fraction(q)
    print(f"\nalpha=gamma={q.alpha}, beta={q.beta}: critical fraction c = {c.c:.4f} ({c.side})")
    hist = sum(
        edge_distance_histogram(generate_stratified(q, seed=SeedSpec(7).child("t", t)))
        for t in range(10)
    )
    hist[0] = 0  # the loops; no edge lies at distance 0
    cutoff = c.c * q.n
    closest = int(np.flatnonzero(hist)[0])
    offending = int(hist[np.arange(q.n + 1) < cutoff].sum())
    print(
        f"10 realizations: closest edge at distance {closest},"
        f" cutoff c*n = {cutoff:.2f}, offending edges below it: {offending}"
    )


if __name__ == "__main__":
    main()
