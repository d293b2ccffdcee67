#!/usr/bin/env python3
"""
Sampling stochastic block models and reading off their block statistics.

Walks through: dense sampling, determinism, the block statistics that every
likelihood and KT term reads (block sizes, and the node pairs and edges of
each condensed cell a <= b), and the sparse power-law schedule.
"""

import numpy as np

from ktsbm import (
    SbmParams,
    SparseSchedule,
    cell_stats,
    realize_sparse,
    sample_sbm,
)

print("=" * 64)
print("1. A dense two-community model")
print("=" * 64)

params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.8, 0.2], [0.2, 0.8]])
labels, graph = sample_sbm(params, n=300, seed=7)

print(f"nodes: {graph.n}, edges: {graph.edge_count}")
print(f"observed density:  {graph.density():.4f}")
print(f"expected density:  {params.expected_density():.4f}   (sum_ab pi_a pi_b P_ab)")

# identical seed -> identical graph, bit for bit
labels2, graph2 = sample_sbm(params, n=300, seed=7)
print(f"re-sampling with the same seed reproduces the graph: {graph2 == graph}")

print()
print("=" * 64)
print("2. Block counters")
print("=" * 64)

counts, pairs, edges = cell_stats(labels, graph, k=2)
print(f"block sizes n_a: {counts}")
print("cell (a, b)    node pairs  edges")
for (a, b), hn, ho in zip([(1, 1), (1, 2), (2, 2)], pairs, edges):
    print(f"({a}, {b})       {hn:10d}  {ho:5d}")
print(f"each node pair is counted once: {pairs.sum()} = n(n-1)/2, {edges.sum()} = edge count")

print()
print("=" * 64)
print("3. The sparse regime: P = rho_n * S0 with rho_n = c * n**(-alpha)")
print("=" * 64)

schedule = SparseSchedule(S0=np.array([[0.8, 0.2], [0.2, 0.8]]), c=1.0, alpha=0.4)
for n in (100, 400, 1600):
    sparse = realize_sparse([0.5, 0.5], schedule, n)
    _, g = sample_sbm(sparse, n, seed=n)
    mean_deg = 2 * g.edge_count / n
    print(
        f"n={n:5d}  rho_n={schedule.rho(n):.4f}  within-block P={sparse.P[0, 0]:.4f}"
        f"  mean degree={mean_deg:6.2f}"
    )
print("alpha < 1 keeps n * rho_n growing, so the mean degree still diverges")
