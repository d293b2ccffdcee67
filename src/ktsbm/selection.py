"""Selecting the number of communities by penalized KT mixture score.

The estimator is argmax_k { log K_k(x) - pen(k, n) } with the cubic-in-k
penalty

    pen(k, n) = sum_{i=1}^{k-1} (i(i+2) + 3 + eps)/2 * log n,

which also has the closed form
[k(k-1)(2k-1)/12 + k(k-1)/2 + (3+eps)(k-1)/2] log n.  Ties go to the
smallest k (parsimony).  The merge operator and the gamma/tau gap
functionals quantify how much likelihood an under-fitted model must give
up, which is what keeps the estimator from collapsing to small k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kt import (
    KT_PARTITION_CAP,
    KtValue,
    _log_kt_for_k,
    _partition_base_terms,
    log_kt_marginal_mc,
    prop31_bound,
)
from .likelihood import ENUM_CAP, gamma_fn, max_complete_log_lik, profile_label_search, tau_fn
from .partitions import graph_cell_edges, require_partitions
from .sbm import Graph, LabelVector, _check_symmetric_unit
from .seeds import derive_seed

__all__ = [
    "PenaltySpec",
    "penalty",
    "penalty_sum_coefficient",
    "penalty_closed_coefficient",
    "CriterionRow",
    "CriterionTable",
    "parse_kt_method",
    "estimate_order",
    "overestimation_bound",
    "MergeResult",
    "merge_blocks",
    "GapResult",
    "dense_gap",
    "sparse_gap",
    "identical_columns",
    "empirical_underfit_ratio",
]


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty strength; any epsilon > 0 yields a consistent criterion.
    The default 1.0 keeps pen(2, n) modest at desk scale."""

    epsilon: float = 1.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be > 0, got {self.epsilon}")


def penalty_sum_coefficient(k: int, epsilon):
    """Multiplier of log n in incremental form: sum_{i<k} (i(i+2)+3+eps)/2.

    Exact when epsilon is a fractions.Fraction.
    """
    return sum((i * (i + 2) + 3 + epsilon) / 2 for i in range(1, k))


def penalty_closed_coefficient(k: int, epsilon):
    """Multiplier of log n in closed form:
    k(k-1)(2k-1)/12 + k(k-1)/2 + (3+eps)(k-1)/2."""
    one = epsilon * 0 + 1  # promote integer terms to epsilon's arithmetic type
    return (
        one * k * (k - 1) * (2 * k - 1) / 12
        + one * k * (k - 1) / 2
        + (3 + epsilon) * (k - 1) / 2
    )


def penalty(k: int, n: int, spec: PenaltySpec) -> float:
    """pen(k, n); strictly increasing in k, zero at k = 1."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return float(penalty_sum_coefficient(k, spec.epsilon)) * float(np.log(n))


@dataclass(frozen=True)
class CriterionRow:
    k: int
    log_kt: float
    pen: float
    score: float
    method: str
    std_error: float | None = None
    ess: float | None = None


@dataclass(frozen=True)
class CriterionTable:
    n: int
    rows: tuple[CriterionRow, ...]

    def scores(self) -> np.ndarray:
        return np.array([r.score for r in self.rows])


def parse_kt_method(method: str) -> tuple[str, int | None]:
    """'exact' -> ('exact', None); 'mc:SAMPLES' -> ('mc', SAMPLES)."""
    if method == "exact":
        return "exact", None
    if method.startswith("mc:"):
        try:
            samples = int(method.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad sample count in kt method {method!r}") from None
        if samples < 100:
            raise ValidationError("mc sample count must be >= 100")
        return "mc", samples
    raise ValidationError(f"unknown kt method {method!r}; expected 'exact' or 'mc:SAMPLES'")


def estimate_order(
    x: Graph,
    spec: PenaltySpec,
    k_max: int,
    kt_method: str = "exact",
    seed: int = 0,
    cap: int = KT_PARTITION_CAP,
) -> tuple[int, CriterionTable]:
    """Penalized KT order estimate over k = 1..k_max.

    Returns the smallest k attaining the maximal score, plus the full
    audit table.  Monte Carlo KT values derive per-k seeds from ``seed``
    and are tagged in the table.
    """
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    kind, samples = parse_kt_method(kt_method)
    n = x.n
    if kind == "exact":
        table = require_partitions(n, min(k_max, n), cap)
        base = _partition_base_terms(table, graph_cell_edges(table, x.edges()))
        kt_values = [
            KtValue(
                log_value=min(_log_kt_for_k(base, table.nblocks, n, k), 0.0),
                method="exact",
                k=k,
                n=n,
            )
            for k in range(1, k_max + 1)
        ]
    else:
        kt_values = [
            log_kt_marginal_mc(x, k, samples, derive_seed(seed, k))
            for k in range(1, k_max + 1)
        ]
    rows = []
    for kv in kt_values:
        pen_k = penalty(kv.k, n, spec)
        tag = "exact" if kv.method == "exact" else f"mc:{kv.samples}"
        rows.append(
            CriterionRow(
                k=kv.k,
                log_kt=kv.log_value,
                pen=pen_k,
                score=kv.log_value - pen_k,
                method=tag,
                std_error=kv.std_error,
                ess=kv.ess,
            )
        )
    scores = np.array([r.score for r in rows])
    k_hat = int(np.argmax(scores)) + 1  # argmax takes the first (smallest k) on ties
    return k_hat, CriterionTable(n=n, rows=tuple(rows))


def overestimation_bound(k0: int, k: int, n: int, spec: PenaltySpec) -> float:
    """Upper bound on P(k_hat = k) for k > k0:
    exp{ (k0(k0+2)-1)/2 log n + c_{k0,n} + pen(k0,n) - pen(k,n) }, clipped
    at 1."""
    if k <= k0:
        raise ValidationError(f"bound requires k > k0, got k={k}, k0={k0}")
    if n < max(4, k0):
        raise ValidationError(f"bound requires n >= max(4, k0) = {max(4, k0)}")
    c = prop31_bound(k0, n).c_kn
    exponent = (
        (k0 * (k0 + 2) - 1) / 2.0 * np.log(n)
        + c
        + penalty(k0, n, spec)
        - penalty(k, n, spec)
    )
    return float(min(np.exp(exponent), 1.0))


@dataclass(frozen=True)
class MergeResult:
    """A (k-1)-block parameter obtained by pooling two blocks with
    pi-weighted averages.  merged_pair is 1-based."""

    pi_star: np.ndarray
    P_star: np.ndarray
    merged_pair: tuple[int, int]


def merge_blocks(pi, P, a: int, b: int) -> MergeResult:
    """Combine blocks a and b (1-based) of (pi, P) into one.

    The merged block sits at position min(a, b); all other blocks keep
    their relative order and their mutual edge probabilities.  Rates into
    the merged block are pi-weighted averages, so the overall expected edge
    density is preserved exactly.
    """
    pi = np.asarray(pi, dtype=float)
    k = pi.size
    if k < 2:
        raise ValidationError("merging needs at least 2 blocks")
    if a == b:
        raise ValidationError("cannot merge a block with itself")
    if not (1 <= a <= k and 1 <= b <= k):
        raise ValidationError(f"labels must lie in [1, {k}]")
    if np.any(pi <= 0):
        raise ValidationError("pi must be strictly positive")
    P = _check_symmetric_unit(P, "P")
    if P.shape != (k, k):
        raise ValidationError(f"P must be {k}x{k}")
    r, s = min(a, b) - 1, max(a, b) - 1
    keep = [i for i in range(k) if i != s]
    pos = keep.index(r)  # merged block's position among survivors
    pi_star = pi[keep].copy()
    pi_star[pos] = pi[r] + pi[s]
    P_star = P[np.ix_(keep, keep)].copy()
    w_r, w_s = pi[r], pi[s]
    row = (w_r * P[keep, r] + w_s * P[keep, s]) / (w_r + w_s)
    P_star[pos, :] = row
    P_star[:, pos] = row
    P_star[pos, pos] = (
        w_r * w_r * P[r, r] + 2 * w_r * w_s * P[r, s] + w_s * w_s * P[s, s]
    ) / (w_r + w_s) ** 2
    return MergeResult(pi_star=pi_star, P_star=P_star, merged_pair=(min(a, b), max(a, b)))


@dataclass(frozen=True)
class GapResult:
    gap: float
    best_pair: tuple[int, int]
    merged: MergeResult


def _pairwise_gap(pi0, P0, kernel) -> GapResult:
    pi0 = np.asarray(pi0, dtype=float)
    k0 = pi0.size
    if k0 < 2:
        raise ValidationError("gap functionals need k0 >= 2")
    P0 = _check_symmetric_unit(P0, "P0")
    full_term = float((np.outer(pi0, pi0) * kernel(P0)).sum())
    best_term = -np.inf
    best: MergeResult | None = None
    for r in range(1, k0 + 1):
        for s in range(r + 1, k0 + 1):
            merged = merge_blocks(pi0, P0, r, s)
            term = float(
                (np.outer(merged.pi_star, merged.pi_star) * kernel(merged.P_star)).sum()
            )
            if term > best_term:
                best_term = term
                best = merged
    assert best is not None
    return GapResult(gap=0.5 * (full_term - best_term), best_pair=best.merged_pair, merged=best)


def dense_gap(pi0, P0) -> GapResult:
    """Under-fitting gap in the dense regime:
    1/2 [ sum pi pi gamma(P0) - max over merges of sum pi* pi* gamma(P*) ].

    Nonnegative by convexity; zero exactly when P0 has two identical
    columns (i.e. the model is reducible).
    """
    return _pairwise_gap(pi0, P0, gamma_fn)


def sparse_gap(pi0, S0) -> GapResult:
    """Sparse-regime analogue of dense_gap with the tau kernel applied to
    the base matrix S0."""
    return _pairwise_gap(pi0, S0, tau_fn)


def identical_columns(P, tol: float = 1e-10) -> tuple[int, int] | None:
    """First pair of identical columns (1-based, max-norm tolerance), if any."""
    P = np.asarray(P, dtype=float)
    k = P.shape[0]
    for r in range(k):
        for s in range(r + 1, k):
            if np.max(np.abs(P[:, r] - P[:, s])) <= tol:
                return (r + 1, s + 1)
    return None


def empirical_underfit_ratio(
    z: LabelVector,
    x: Graph,
    k0: int,
    mode: str = "exact",
    restarts: int = 20,
    max_sweeps: int = 100,
    seed: int = 0,
    cap: int = ENUM_CAP,
    rho: float | None = None,
) -> float:
    """Finite-n likelihood gap between the k0-block fit at the true labels
    and the best (k0-1)-block profile fit, normalized by n^2 (or by
    rho * n^2 when ``rho`` is given, the sparse-regime scaling)."""
    if k0 < 2:
        raise ValidationError("underfit ratio needs k0 >= 2")
    top = max_complete_log_lik(z, x, k0)
    _, bottom = profile_label_search(
        x, k0 - 1, mode=mode, restarts=restarts, max_sweeps=max_sweeps, seed=seed, cap=cap
    )
    scale = x.n**2 if rho is None else rho * x.n**2
    return float((top - bottom) / scale)
