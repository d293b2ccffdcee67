"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (double loops, full products, raw
enumeration) and shares no code with the library paths it checks.
"""

import itertools
import math

import numpy as np


def naive_stats(labels, adj, k):
    """O(n^2 k^2) recount of all block counters from scratch."""
    n = len(labels)
    n_a = [0] * k
    for v in labels:
        n_a[v - 1] += 1
    n_ab = [[0] * k for _ in range(k)]
    O = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            n_ab[a][b] = n_a[a] * n_a[b] if a != b else n_a[a] * (n_a[a] - 1)
    for i in range(n):
        for j in range(n):
            if i != j and adj[i][j]:
                O[labels[i] - 1][labels[j] - 1] += 1
    return np.array(n_a), np.array(n_ab), np.array(O)


def naive_cells(labels, adj, k):
    """O(n^2) recount of block sizes, and of node pairs and edges per cell
    a <= b (row-major), counting each pair i < j into (min, max) of its
    labels."""
    n = len(labels)
    n_a = [0] * k
    for v in labels:
        n_a[v - 1] += 1
    pairs = [[0] * k for _ in range(k)]
    edges = [[0] * k for _ in range(k)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sorted((labels[i] - 1, labels[j] - 1))
            pairs[a][b] += 1
            edges[a][b] += adj[i][j]
    upper = [(a, b) for a in range(k) for b in range(a, k)]
    return (
        np.array(n_a),
        np.array([pairs[a][b] for a, b in upper]),
        np.array([edges[a][b] for a, b in upper]),
    )


def naive_complete_prob(pi, P, labels, adj):
    """Product of label weights and one Bernoulli factor per unordered pair."""
    n = len(labels)
    prob = 1.0
    for v in labels:
        prob *= pi[v - 1]
    for i in range(n):
        for j in range(i + 1, n):
            p = P[labels[i] - 1][labels[j] - 1]
            prob *= p if adj[i][j] else (1.0 - p)
    return prob


def naive_marginal_prob(pi, P, adj, k):
    """sum over all k**n labelings of the naive joint probability."""
    n = len(adj)
    total = 0.0
    for lab in itertools.product(range(1, k + 1), repeat=n):
        total += naive_complete_prob(pi, P, lab, adj)
    return total


def naive_profile_optimum(adj, k):
    """Exhaustive profile likelihood over all k**n labelings using the
    plug-in estimates, evaluated with math.log only."""
    n = len(adj)
    best = -math.inf
    best_lab = None
    for lab in itertools.product(range(1, k + 1), repeat=n):
        n_a, n_ab, O = naive_stats(lab, adj, k)
        val = 0.0
        for a in range(k):
            if n_a[a]:
                val += n_a[a] * math.log(n_a[a] / n)
        for a in range(k):
            for b in range(k):
                if n_ab[a][b]:
                    p = O[a][b] / n_ab[a][b]
                    if 0 < p:
                        val += 0.5 * O[a][b] * math.log(p)
                    if p < 1:
                        val += 0.5 * (n_ab[a][b] - O[a][b]) * math.log(1 - p)
        if val > best:
            best = val
            best_lab = lab
    return best, best_lab



def recount_cell_edges(codes, k, edges):
    """Edges per cell a <= b (row-major) of every labeling in the rows of
    ``codes`` (values 0..k-1), recounted edge by edge: (L, k(k+1)/2) int64.
    Each edge (i, j) lands in cell (min, max) of its labels, whose row-major
    index is a k - a (a - 1) / 2 + b - a; 4096 labelings at a time."""
    codes = np.asarray(codes)
    edges = np.asarray(edges, dtype=np.int64)
    C = k * (k + 1) // 2
    out = np.zeros((codes.shape[0], C), dtype=np.int64)
    for lo in range(0, codes.shape[0], 4096):
        ends = codes[lo : lo + 4096][:, edges.T]  # (rows, 2, m)
        a, b = ends.min(axis=1).astype(np.int64), ends.max(axis=1).astype(np.int64)
        flat = np.arange(len(ends))[:, None] * C + a * k - a * (a - 1) // 2 + b - a
        out[lo : lo + 4096] = np.bincount(flat.ravel(), minlength=len(ends) * C).reshape(-1, C)
    return out


def rgs_strings(n, m_max):
    """Every restricted growth string of length n >= 1 over at most m_max
    values (s[0] = 0 and each s[i] at most one above max(s[:i])), as tuples
    in lexicographic order, by depth-first recursion over the next value."""
    out = []

    def grow(prefix, top):
        if len(prefix) == n:
            out.append(prefix)
            return
        for v in range(min(top + 2, m_max)):
            grow(prefix + (v,), max(top, v))

    grow((0,), 0)
    return out
