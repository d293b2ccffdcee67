#!/usr/bin/env python3
"""
Why under-fitting costs likelihood: the merge operator and its gaps.

Fitting k0-1 communities to a k0-community model is, in the limit, exactly
as good as the best pairwise merge of the true parameters.  The gap
functionals measure what that merge gives up per node pair; they vanish
precisely when two columns of the rate matrix coincide (a reducible
model).
"""

import numpy as np

from ktsbm import (
    SbmParams,
    SparseSchedule,
    dense_gap,
    empirical_underfit_ratio,
    identical_columns,
    merge_blocks,
    realize_sparse,
    sample_sbm,
    sparse_gap,
)
from ktsbm.seeds import derive_seed

print("=" * 64)
print("1. Merging two blocks with pi-weighted averages")
print("=" * 64)

pi = [0.2, 0.3, 0.5]
P = np.array([[0.9, 0.1, 0.4], [0.1, 0.8, 0.3], [0.4, 0.3, 0.7]])
res = merge_blocks(pi, P, 2, 3)
print(f"merged pair {res.merged_pair}: pi* = {res.pi_star}")
print(f"P* =\n{np.round(res.P_star, 4)}")
before = pi @ P @ np.array(pi)
after = res.pi_star @ res.P_star @ res.pi_star
print(f"mean edge density preserved: {before:.6f} -> {after:.6f}")

print()
print("=" * 64)
print("2. Gap functionals: the price of one lost community")
print("=" * 64)

pi0 = [0.5, 0.5]
P0 = [[0.8, 0.2], [0.2, 0.8]]
dres = dense_gap(pi0, P0)
print(f"dense gap  for P0=[[.8,.2],[.2,.8]]:  {dres.gap:.6f}  (best merge {dres.best_pair})")
sres = sparse_gap(pi0, P0)
print(f"sparse gap for S0=[[.8,.2],[.2,.8]]:  {sres.gap:.6f}")

dup = [[0.5, 0.5], [0.5, 0.5]]
print(f"identical columns {identical_columns(np.array(dup))} -> dense gap {dense_gap(pi0, dup).gap:.1e}")

print()
print("=" * 64)
print("3. The finite-n likelihood gap marches toward the analytic gap")
print("=" * 64)

params = SbmParams(k=2, pi=pi0, P=np.array(P0))
print("dense regime, (1/n^2) * [k0-fit at true labels - best 1-block fit]:")
for n in (50, 100, 200, 400):
    z, g = sample_sbm(params, n, derive_seed(5, n))
    r = empirical_underfit_ratio(z, g, 2)
    print(f"  n={n:4d}: ratio = {r:.6f}   (gap = {dres.gap:.6f})")

print()
print("sparse regime (c=1, alpha=0.4), normalized by rho_n * n^2:")
sched = SparseSchedule(S0=np.array(P0), c=1.0, alpha=0.4)
for n in (200, 400, 800):
    sp = realize_sparse(pi0, sched, n)
    z, g = sample_sbm(sp, n, derive_seed(6, n))
    r = empirical_underfit_ratio(z, g, 2, rho=sched.rho(n))
    print(f"  n={n:4d}: ratio = {r:.6f}   (gap = {sres.gap:.6f})")
print("convergence is slower here: the label-entropy term fades like 1/(rho_n n)")
