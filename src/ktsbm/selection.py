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

import math
from dataclasses import dataclass

import numpy as np

from . import kt
from .errors import ValidationError, require_int
from .kt import log_kt_marginal_mc, prop31_bound
from .likelihood import gamma_fn, max_complete_log_lik, profile_label_search, tau_fn
from .sbm import Graph, LabelVector, SbmParams, _check_symmetric_unit, _float_array
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

# Columns of a matrix closer than this in max norm count as identical.
_COLUMN_TOL = 1e-10


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty strength; any epsilon > 0 yields a consistent criterion.
    The default 1.0 keeps pen(2, n) modest at desk scale."""

    epsilon: float = 1.0

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValidationError(f"epsilon must be finite and > 0, got {self.epsilon}")


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
    require_int("k", k)
    require_int("n", n)
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
    if isinstance(method, str) and method.startswith("mc:"):
        try:
            samples = int(method.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad sample count in kt method {method!r}") from None
        return "mc", require_int("mc sample count", samples, low=100)
    raise ValidationError(f"unknown kt method {method!r}; expected 'exact' or 'mc:SAMPLES'")


def estimate_order(
    x: Graph,
    spec: PenaltySpec,
    k_max: int,
    kt_method: str = "exact",
    seed: int = 0,
) -> tuple[int, CriterionTable]:
    """Penalized KT order estimate over k = 1..k_max.

    Returns the smallest k attaining the maximal score, plus the full
    audit table.  Monte Carlo KT values derive per-k seeds from ``seed``
    and are tagged in the table.
    """
    require_int("k_max", k_max)
    kind, samples = parse_kt_method(kt_method)
    n, ks = x.n, range(1, k_max + 1)

    def row(k, log_kt, method, std_error=None, ess=None):
        pen = penalty(k, n, spec)
        return CriterionRow(k, log_kt, pen, log_kt - pen, method, std_error, ess)

    if kind == "exact":
        rows = [row(k, float(v), "exact") for k, v in zip(ks, kt.log_kt_exact_batch(n, x.pairs[None], ks)[0])]
    else:
        require_int("k_max", k_max, high=kt._MC_K_MAX)  # before the first draw
        rows = []
        for k in ks:
            kv = log_kt_marginal_mc(x, k, samples, derive_seed(seed, k))
            rows.append(row(k, kv.log_value, f"mc:{samples}", kv.std_error, kv.ess))
    table = CriterionTable(n=n, rows=tuple(rows))
    return int(np.argmax(table.scores())) + 1, table  # argmax takes the first (smallest k) on ties


def overestimation_bound(k0: int, k: int, n: int, spec: PenaltySpec) -> float:
    """Upper bound on P(k_hat = k) for k > k0:
    exp{ (k0(k0+2)-1)/2 log n + c_{k0,n} + pen(k0,n) - pen(k,n) }, clipped
    at 1."""
    if k <= k0:
        raise ValidationError(f"bound requires k > k0, got k={k}, k0={k0}")
    c = prop31_bound(k0, n).c_kn  # requires n >= max(4, k0)
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
    """Combine blocks a and b (1-based) of (pi, P) into one; pi must be
    strictly positive and sum to 1.

    The merged block sits at position min(a, b); all other blocks keep
    their relative order and their mutual edge probabilities.  Rates into
    the merged block are pi-weighted averages, so the overall expected edge
    density is preserved exactly.
    """
    pi = _float_array(pi, "pi")
    k = pi.size
    if k < 2:
        raise ValidationError("merging needs at least 2 blocks")
    if a == b:
        raise ValidationError("cannot merge a block with itself")
    if not (1 <= a <= k and 1 <= b <= k):
        raise ValidationError(f"labels must lie in [1, {k}]")
    params = SbmParams(k=k, pi=pi, P=P)  # the one validation of a model point
    pi, P = params.pi, params.P
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
    pi0 = _float_array(pi0, "pi0")
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


def identical_columns(P) -> tuple[int, int] | None:
    """First pair of identical columns (1-based, max-norm tolerance
    ``_COLUMN_TOL``), if any."""
    P = np.asarray(P, dtype=float)
    k = P.shape[0]
    for r in range(k):
        for s in range(r + 1, k):
            if np.max(np.abs(P[:, r] - P[:, s])) <= _COLUMN_TOL:
                return (r + 1, s + 1)
    return None


def empirical_underfit_ratio(
    z: LabelVector,
    x: Graph,
    k0: int,
    restarts: int = 20,
    seed: int = 0,
    rho: float | None = None,
) -> float:
    """Finite-n likelihood gap between the k0-block fit at the true labels
    and the best (k0-1)-block profile fit of ``profile_label_search``
    (exact where the table fits, else a local optimum), normalized by n^2
    (or by rho * n^2 when ``rho`` is given, the sparse-regime scaling)."""
    if k0 < 2:
        raise ValidationError("underfit ratio needs k0 >= 2")
    top = max_complete_log_lik(z, x, k0)
    _, bottom = profile_label_search(x, k0 - 1, restarts=restarts, seed=seed)
    scale = x.n**2 if rho is None else rho * x.n**2
    return float((top - bottom) / scale)
