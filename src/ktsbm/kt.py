"""Krichevsky-Trofimov mixture for block models.

The mixture puts a Dirichlet(1/2, ..., 1/2) prior on the community weights
and an independent Beta(1/2, 1/2) prior on each of the (k^2+k)/2 distinct
edge-probability cells.  Both integrals have closed forms in Gamma
functions, so the label marginal K(z), the conditional K(x|z), and the full
marginal K(x) = sum_z K(z) K(x|z) are all computable exactly for small n.

All Gamma arithmetic goes through log-Gamma, with ratios paired as lgamma
differences; no raw factorials appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .errors import ValidationError
from .partitions import (
    PartitionTable,
    _cell_edges,
    _cell_pairs,
    _passes,
    graph_cell_edges,
    require_partitions,
)
from .sbm import Graph, LabelVector, _label_index

__all__ = [
    "KtValue",
    "BoundConstants",
    "log_kt_labels",
    "log_kt_graph_given_labels",
    "log_kt_marginal_exact",
    "log_kt_marginal_mc",
    "prop31_bound",
    "verify_prop31",
    "gamma_composition_inequality",
]

KT_PARTITION_CAP = 2_000_000
_LG_HALF = gammaln(0.5)  # log Gamma(1/2) = log sqrt(pi)
_LOG_PI = 2.0 * _LG_HALF
# Monte Carlo labels are drawn in blocks of this many samples.  The block
# fixes how a seed's stream is consumed, so changing it changes every
# estimate; memory is bounded by the counting passes inside a block instead.
_MC_BLOCK = 1 << 19


@dataclass(frozen=True)
class KtValue:
    """A (log) KT mixture probability together with how it was obtained."""

    log_value: float
    method: str  # "exact" or "monte_carlo"
    k: int
    n: int
    samples: int | None = None
    std_error: float | None = None
    ess: float | None = None  # Kish effective sample size of a Monte Carlo value

    def __post_init__(self):
        if self.method == "exact" and self.log_value > 1e-9:
            raise ValidationError(f"exact KT value must be a log-probability, got {self.log_value}")
        if self.std_error is not None and self.std_error < 0:
            raise ValidationError("std_error must be nonnegative")


def log_kt_labels(z: LabelVector, k: int) -> float:
    """log K(z) for the Dirichlet(1/2) label process:
    Gamma(k/2)/Gamma(1/2)^k * prod_a Gamma(n_a + 1/2) / Gamma(n + k/2)."""
    if z.labels.size and z.labels.max() > k:
        raise ValidationError(f"labels exceed k={k}")
    n = len(z)
    counts = np.bincount(z.labels - 1, minlength=k)
    return float(
        gammaln(k / 2.0)
        - k * _LG_HALF
        + gammaln(counts + 0.5).sum()
        - gammaln(n + k / 2.0)
    )


def _cell_log_pred(ho: np.ndarray, hn: np.ndarray) -> np.ndarray:
    """Beta(1/2,1/2) predictive log-probability per condensed cell.

    For a cell with hn node pairs and ho edges the integral is
    Gamma(ho+1/2) Gamma(hn-ho+1/2) / (pi * Gamma(hn+1)); empty cells
    contribute 0.
    """
    vals = (
        gammaln(ho + 0.5)
        + gammaln(hn - ho + 0.5)
        - gammaln(hn + 1.0)
        - _LOG_PI
    )
    return np.where(hn > 0, vals, 0.0)


def log_kt_graph_given_labels(z: LabelVector, x: Graph, k: int) -> float:
    """log K(x|z): product over cells a <= b of the Beta(1/2,1/2) predictive."""
    codes = _label_index(z, x, k)[None, :]
    ho = _cell_edges(codes, k, x.edges())[0]
    return float(_cell_log_pred(ho, _cell_pairs(codes, k)[1][0]).sum())


def _partition_base_terms(table: PartitionTable, ho: np.ndarray) -> np.ndarray:
    """k-independent part of log K(z) K(x|z) per canonical partition:
    sum_used [lgamma(n_a+1/2) - lgamma(1/2)] + log K(x|partition)."""
    label_part = (gammaln(table.counts + 0.5) - _LG_HALF).sum(axis=1)
    graph_part = _cell_log_pred(ho, table.hn).sum(axis=1)
    return label_part + graph_part


def _log_kt_for_k(base: np.ndarray, nblocks: np.ndarray, n: int, k: int) -> float:
    """Assemble log K_k(x) from partition base terms: partitions with m <= k
    blocks enter with multiplicity k!/(k-m)! (distinct value assignments)."""
    usable = nblocks <= k
    if not usable.any():
        raise ValidationError(f"no labeling uses at most k={k} blocks")
    log_mult = gammaln(k + 1.0) - gammaln(k - nblocks[usable] + 1.0)
    body = base[usable] + log_mult + gammaln(k / 2.0) - gammaln(n + k / 2.0)
    return float(logsumexp(body))


def log_kt_marginal_exact(x: Graph, k: int, cap: int = KT_PARTITION_CAP) -> KtValue:
    """log K(x) = log sum_z K(z) K(x|z), orbit-reduced over label
    permutations with exact multiplicity weights."""
    table = require_partitions(x.n, min(k, x.n), cap)
    ho = graph_cell_edges(table, x.edges())
    base = _partition_base_terms(table, ho)
    return KtValue(
        log_value=min(_log_kt_for_k(base, table.nblocks, x.n, k), 0.0),
        method="exact",
        k=k,
        n=x.n,
    )


def _polya_urn_labels(rng, n: int, k: int, size: int) -> np.ndarray:
    """Exact draws from K(z): sequential Polya urn of the
    Dirichlet(1/2,...,1/2)-multinomial process. Returns (size, n) int8."""
    labels = np.empty((size, n), dtype=np.int8)
    counts = np.zeros((size, k), dtype=np.float64)
    rows = np.arange(size)
    for t in range(n):
        probs = (counts + 0.5) / (t + k / 2.0)
        cum = np.cumsum(probs, axis=1)
        u = rng.random(size)
        idx = np.minimum((cum < u[:, None]).sum(axis=1), k - 1)
        labels[:, t] = idx
        counts[rows, idx] += 1.0
    return labels


def log_kt_marginal_mc(x: Graph, k: int, samples: int, seed: int) -> KtValue:
    """Monte Carlo estimate of K(x): average K(x|z) over exact K(z) draws.

    Unbiased in the linear domain; reports log of the sample mean, a
    delta-method standard error on the log scale and the Kish effective
    sample size (sum w)^2 / sum w^2 of the weights w = K(x|z).
    """
    if samples < 100:
        raise ValidationError(f"samples must be >= 100, got {samples}")
    from .seeds import rng_from_seed

    rng = rng_from_seed(seed)
    n = x.n
    edges = x.edges()
    log_l1 = []  # block logsumexp of L_s
    log_l2 = []  # block logsumexp of 2 L_s
    done = 0
    while done < samples:
        size = min(_MC_BLOCK, samples - done)
        labels = _polya_urn_labels(rng, n, k, size)
        L = np.empty(size)
        for lo, hi in _passes(size, n, k, len(edges)):
            part = labels[lo:hi]
            L[lo:hi] = _cell_log_pred(_cell_edges(part, k, edges), _cell_pairs(part, k)[1]).sum(axis=1)
        log_l1.append(logsumexp(L))
        log_l2.append(logsumexp(2.0 * L))
        done += size
    a = logsumexp(np.array(log_l1))
    b = logsumexp(np.array(log_l2))
    log_mean = a - np.log(samples)
    rel_var = np.expm1(b - 2.0 * a + np.log(samples)) / max(samples - 1, 1)
    std_error = float(np.sqrt(max(rel_var, 0.0)))
    return KtValue(
        log_value=float(log_mean),
        method="monte_carlo",
        k=k,
        n=n,
        samples=samples,
        std_error=std_error,
        ess=float(np.exp(2.0 * a - b)),
    )


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the uniform likelihood/KT ratio bound at (k, n):
    ratio <= slope * log n + c_kn, valid for n >= max(4, k)."""

    k: int
    n: int
    c_kn: float
    slope: float
    rhs: float


def prop31_bound(k: int, n: int) -> BoundConstants:
    """Assemble the non-asymptotic bound constants for (k, n)."""
    if n < max(4, k):
        raise ValidationError(f"bound requires n >= max(4, k) = {max(4, k)}, got n={n}")
    c_kn = (
        k * (k + 1) / 2.0 * _LG_HALF
        + k * (k - 1) / (4.0 * n)
        + 1.0 / (12.0 * n)
        + (_LG_HALF - gammaln(k / 2.0))
        + 7.0 * k * (k + 1) / 12.0
    )
    slope = k * (k + 2) / 2.0 - 0.5
    return BoundConstants(k=k, n=n, c_kn=float(c_kn), slope=slope, rhs=float(slope * np.log(n) + c_kn))


def verify_prop31(x: Graph, k: int, sup_approx: float) -> tuple[float, float, bool]:
    """Check sup log-likelihood minus log KT against the uniform bound.

    With an approximate sup this is a necessary-condition test: any found
    likelihood value must stay below the bound.  Returns (lhs, rhs, holds).
    """
    bound = prop31_bound(k, x.n)
    lhs = sup_approx - log_kt_marginal_exact(x, k).log_value
    return float(lhs), bound.rhs, bool(lhs <= bound.rhs + 1e-9)


def gamma_composition_inequality(parts) -> tuple[float, float, bool]:
    """Log-space evaluation of the Gamma composition inequality

        prod_j (n_j/n)^{n_j} / prod_j Gamma(n_j+1/2)
            <= 1 / (Gamma(n+1/2) Gamma(1/2)^{J-1})

    for positive integers n_j.  Always holds; exercising it doubles as a
    regression test of the log-Gamma plumbing.  Returns (lhs, rhs, holds)
    in log space.
    """
    parts = np.asarray(parts, dtype=np.int64)
    if parts.ndim != 1 or parts.size < 1:
        raise ValidationError("parts must be a nonempty 1-d integer vector")
    if np.any(parts < 1):
        raise ValidationError("all parts must be >= 1")
    n = parts.sum()
    J = parts.size
    lhs = float(xlogy(parts, parts / n).sum() - gammaln(parts + 0.5).sum())
    rhs = float(-gammaln(n + 0.5) - (J - 1) * _LG_HALF)
    return lhs, rhs, bool(lhs <= rhs + 1e-9)
