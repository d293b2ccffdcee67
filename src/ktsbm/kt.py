"""Krichevsky-Trofimov mixture for block models.

The mixture puts a Dirichlet(1/2, ..., 1/2) prior on the community weights
and an independent Beta(1/2, 1/2) prior on each of the (k^2+k)/2 distinct
edge-probability cells.  Both integrals have closed forms in Gamma
functions, so the label marginal K(z), the conditional K(x|z), and the full
marginal K(x) = sum_z K(z) K(x|z) are all computable exactly for small n.

All Gamma arithmetic goes through log-Gamma, with ratios paired as lgamma
differences; no raw factorials appear anywhere.  Every Gamma argument of a
cell or label term is an integer plus 1/2 or plus 1, read from the cached
log-Gamma tables, and every cell term is gathered from its per-n grid
(``partitions._cell_terms``).  Exact sums hand ``partitions._table_pass``
the row term ``_kt_base``, and Prop. 3.1 reads it beside ``likelihood``'s
plug-in values from the same table pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import ValidationError, require_int
from .likelihood import _plug_in_values
from .partitions import (
    _block_pairs,
    _cell_edges,
    _cell_terms,
    _log_gamma_tables,
    _logsumexp,
    _orbit_sum,
    _passes,
    _table_pass,
)
from .sbm import Graph, LabelVector, cell_stats

__all__ = [
    "KtValue",
    "BoundConstants",
    "log_kt_labels",
    "log_kt_graph_given_labels",
    "log_kt_marginal_exact",
    "log_kt_exact_batch",
    "log_kt_marginal_mc",
    "prop31_bound",
    "verify_prop31",
    "verify_prop31_batch",
    "gamma_composition_inequality",
]

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
    k = require_int("k", k)
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


def _beta_log_pred(hn: np.ndarray, ho: np.ndarray, n: int) -> np.ndarray:
    """Beta(1/2,1/2) predictive log-probability per condensed cell of a graph
    on n nodes, from the log-Gamma tables, for ``partitions._cell_terms``.

    For a cell with hn node pairs and ho edges the integral is
    Gamma(ho+1/2) Gamma(hn-ho+1/2) / (pi * Gamma(hn+1)); an empty cell
    gives 2 lgamma(1/2) - lgamma(1) - log pi, exactly 0.
    """
    ghalf, gone = _log_gamma_tables(n * (n - 1) // 2)
    return ghalf[ho] + ghalf[hn - ho] - gone[hn] - _LOG_PI


def log_kt_graph_given_labels(z: LabelVector, x: Graph, k: int) -> float:
    """log K(x|z): product over cells a <= b of the Beta(1/2,1/2) predictive."""
    _, hn, ho = cell_stats(z, x, k)
    return float(_cell_terms(_beta_log_pred, x.n, hn, ho).sum())


def _kt_base(table, ho: np.ndarray, rows: slice) -> np.ndarray:
    """The row term of a ``_table_pass`` for log K_k(x): the k-independent
    part of log K(z) K(x|z), the table's KT label part plus log K(x|partition)."""
    cells = _cell_terms(_beta_log_pred, table.n, table.hn[rows], ho).sum(axis=-1)
    return np.add(cells, table.label_part[rows], out=cells)  # in place: a new array per pass can be a fresh mmap


def _kt_value(table, base: np.ndarray, k: int) -> np.ndarray:
    """Exact log K_k(x) per graph from ``_kt_base`` values (m_max >= k)."""
    return np.minimum(_orbit_sum(table, base, k, gammaln(k / 2.0), -gammaln(table.n + k / 2.0)), 0.0)


def log_kt_exact_batch(n: int, pairs: np.ndarray, ks) -> np.ndarray:
    """Exact log K_k(x) (G, len(ks)) of each graph on n nodes whose edge bits
    are a row of ``pairs``, for each k of ``ks``, from one batched pass over
    the canonical partitions with at most max(ks) blocks."""
    ks = [require_int("k", k) for k in ks]
    if not ks:
        raise ValidationError("ks must name at least one k")
    out = np.empty((len(pairs), len(ks)))
    for graphs, table, base in _table_pass(n, max(ks), pairs, _kt_base):
        out[graphs] = np.stack([_kt_value(table, base, k) for k in ks], axis=-1)
    return out


def _log_kt_exact(x: Graph, ks) -> list[KtValue]:
    """Exact log K_k(x) for every k of ``ks``: the one-graph batch."""
    values = log_kt_exact_batch(x.n, x.pairs[None], ks)[0]
    return [KtValue(log_value=float(v), method="exact", k=k, n=x.n) for k, v in zip(ks, values)]


def log_kt_marginal_exact(x: Graph, k: int) -> KtValue:
    """log K(x) = log sum_z K(z) K(x|z), orbit-reduced over label
    permutations with exact multiplicity weights."""
    return _log_kt_exact(x, [k])[0]


def _polya_urn_labels(rng, n: int, k: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws from K(z), the sequential Polya urn of the Dirichlet(1/2,
    ..., 1/2)-multinomial: labels (size, n) int8, block sizes (size, k) int64."""
    labels = np.empty((size, n), dtype=np.int8)
    counts = np.zeros((size, k), dtype=np.int64)
    rows = np.arange(size)
    for t in range(n):
        probs = (counts + 0.5) / (t + k / 2.0)
        cum = np.cumsum(probs, axis=1)
        u = rng.random(size)
        idx = np.minimum((cum < u[:, None]).sum(axis=1), k - 1)
        labels[:, t] = idx
        counts[rows, idx] += 1
    return labels, counts


def log_kt_marginal_mc(x: Graph, k: int, samples: int, seed: int) -> KtValue:
    """Monte Carlo estimate of K(x): average K(x|z) over exact K(z) draws.

    Unbiased in the linear domain; reports log of the sample mean, a
    delta-method standard error on the log scale and the Kish effective
    sample size (sum w)^2 / sum w^2 of the weights w = K(x|z).
    """
    require_int("k", k)
    require_int("samples", samples, low=100)
    from .seeds import rng_from_seed

    rng = rng_from_seed(seed)
    n = x.n
    edges = x.edges()
    log_l1 = []  # block logsumexp of L_s
    log_l2 = []  # block logsumexp of 2 L_s
    done = 0
    while done < samples:
        size = min(_MC_BLOCK, samples - done)
        labels, counts = _polya_urn_labels(rng, n, k, size)
        ho = _cell_edges(labels, k, edges)
        L = np.empty(size)
        for lo, hi in _passes(size, n, k):
            L[lo:hi] = _cell_terms(_beta_log_pred, n, _block_pairs(counts[lo:hi], k), ho[lo:hi]).sum(axis=1)
        log_l1.append(_logsumexp(L))
        log_l2.append(_logsumexp(2.0 * L))
        done += size
    a = _logsumexp(np.array(log_l1))
    b = _logsumexp(np.array(log_l2))
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


def verify_prop31_batch(n: int, pairs: np.ndarray, k: int) -> tuple[np.ndarray, float, np.ndarray]:
    """(lhs (G,), rhs, holds (G,)): sup log-likelihood minus log KT against
    the uniform bound for each graph on n nodes with edge bits a row of
    ``pairs``, the sup replaced by ``likelihood.sup_log_lik_upper_bound``
    (the sup itself at k = 1), so a pass is a proof for that graph.  Both
    terms come from one batched table pass, after the bound's size rule."""
    k = require_int("k", k)
    rhs = prop31_bound(k, n).rhs
    lhs = np.empty(len(pairs))
    for graphs, table, base, plug_in in _table_pass(n, k, pairs, _kt_base, _plug_in_values):
        lhs[graphs] = _orbit_sum(table, plug_in, k) - _kt_value(table, base, k)
    return lhs, rhs, lhs <= rhs + 1e-9


def verify_prop31(x: Graph, k: int) -> tuple[float, float, bool]:
    """``verify_prop31_batch`` for the one graph x: (lhs, rhs, holds)."""
    lhs, rhs, holds = verify_prop31_batch(x.n, x.pairs[None], k)
    return float(lhs[0]), rhs, bool(holds[0])


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
