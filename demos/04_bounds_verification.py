#!/usr/bin/env python3
"""
Non-asymptotic bounds, checked exhaustively on small graphs.

Two analytic facts power the non-overestimation side of the theory: a
uniform bound on log(sup-likelihood / KT mixture), and an explicit decay
bound on the probability of selecting too many communities.  Both are
finite-n statements, so we can enumerate every graph and verify them.
"""

import numpy as np

from ktsbm import (
    PenaltySpec,
    enumerate_graphs,
    estimate_order,
    gamma_composition_inequality,
    overestimation_bound,
    prop31_bound,
    verify_prop31,
)
from ktsbm.seeds import rng_from_seed

print("=" * 64)
print("1. The uniform likelihood/KT bound at (k, n)")
print("=" * 64)

for k in (1, 2, 3):
    b = prop31_bound(k, 16)
    print(f"k={k}: bound = {b.slope:.1f} * log n + {b.c_kn:.3f}  ->  {b.rhs:.3f} at n=16")

print()
print("certified worst slack over all 1024 graphs on 5 nodes:")
print("  the sup is replaced by log sum_z exp(plug-in value of z), an upper bound")
print("  that equals the sup at k=1")
for k in (1, 2):
    worst = -np.inf
    for g in enumerate_graphs(5):
        lhs, rhs, holds = verify_prop31(g, k)
        worst = max(worst, lhs - rhs)
        assert holds
    print(f"  k={k}: max over graphs of (lhs - rhs) = {worst:.4f}  (a proof for every graph)")

print()
print("=" * 64)
print("2. The Gamma composition inequality behind it")
print("=" * 64)

lhs, rhs, holds = gamma_composition_inequality([1, 1])
print(f"J=2, n_j=(1,1): lhs = 1/pi = {np.exp(lhs):.6f} <= rhs = 4/(3 pi) = {np.exp(rhs):.6f}")
rng = rng_from_seed(4)
bad = 0
for _ in range(2000):
    j = int(rng.integers(1, 11))
    parts = rng.integers(1, 21, size=j)
    bad += not gamma_composition_inequality(parts)[2]
print(f"violations over 2000 random compositions: {bad}")

print()
print("=" * 64)
print("3. Overestimation decays polynomially, and the bound really dominates")
print("=" * 64)

spec = PenaltySpec(1.0)
print("analytic bound on P(k_hat = 2) under a one-community p=1/2 truth:")
for n in (4, 8, 16, 32):
    print(f"  n={n:3d}: {overestimation_bound(1, 2, n, spec):.6f}")

n, p = 4, 0.5
freq = 0.0
for g in enumerate_graphs(n):
    w = p**g.edge_count * (1 - p) ** (6 - g.edge_count)
    k_hat, _ = estimate_order(g, spec, k_max=3)
    freq += w * (k_hat == 2)
print(
    f"exact P(k_hat=2) from all 64 graphs at n=4: {freq:.6f}"
    f"  <=  bound {overestimation_bound(1, 2, 4, spec):.6f}"
)
