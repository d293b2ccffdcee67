"""Complete-data and marginal likelihoods for the stochastic block model.

The joint law of a labeling z and graph x factorizes over blocks of sizes
n_a and the condensed cells a <= b of ``partitions``, with hn node pairs
and ho edges each:

    P(z, x) = prod_a pi_a^{n_a} * prod_{a<=b} P_ab^{ho} (1-P_ab)^{hn-ho}

with the 0^0 = 1 convention: a zero parameter only annihilates the
probability when the matching count is positive.  All evaluations happen in
log space via scipy's ``xlogy``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import InfeasibleSizeError, ValidationError, require_int
from .partitions import (
    _block_pairs,
    _budget_passes,
    _cell_terms,
    _label_terms,
    _logsumexp,
    _orbit_sum,
    _table_pass,
    cell_layout,
    iter_labeling_stats,
    labeling_stats,
)
from .sbm import Graph, LabelVector, SbmParams, cell_stats
from .seeds import derive_seed, rng_from_seed

__all__ = [
    "gamma_fn",
    "tau_fn",
    "complete_log_prob",
    "EmpiricalRates",
    "mle_from_labels",
    "max_complete_log_lik",
    "profile_label_search",
    "sup_log_lik_upper_bound",
    "marginal_log_lik_exact",
    "FitResult",
    "fit_marginal_ml",
    "sparse_decomposition_check",
    "sparse_decomposition_parts",
]

# Largest k**n that marginal_log_lik_exact (ENUM_CAP) and exact EM (EM_CAP)
# enumerate.
ENUM_CAP = 10_000_000
EM_CAP = 200_000
# EM stops a run when |change| < _EM_TOL * max(|ll|, 1), or at _EM_MAX_ITER.
_EM_TOL = 1e-8
_EM_MAX_ITER = 500
# Greedy relabel sweeps per restart of the local profile search.
_MAX_SWEEPS = 100
_LOG_FLOOR = -1e300


def gamma_fn(p):
    """Bernoulli log-likelihood kernel x log x + (1-x) log(1-x) on [0, 1].

    gamma(0) = gamma(1) = 0 by the 0 log 0 = 0 convention; convex.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValidationError("gamma_fn requires arguments in [0, 1]")
    out = xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)
    return float(out) if out.ndim == 0 else out


def tau_fn(s):
    """Poissonized kernel x log x - x on [0, inf); tau(0) = 0, convex."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValidationError("tau_fn requires nonnegative arguments")
    out = xlogy(s, s) - s
    return float(out) if out.ndim == 0 else out


def _safe_log(v: np.ndarray) -> np.ndarray:
    """log with log(0) mapped to a huge negative float instead of -inf.

    Keeps matrix products free of 0 * inf = nan while still driving the
    probability of impossible events to zero.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(v)
    return np.where(v > 0.0, out, _LOG_FLOOR)


def complete_log_prob(params: SbmParams, z: LabelVector, x: Graph) -> float:
    """log P(z, x) under the given parameters; -inf when a zero-probability
    cell has a positive count."""
    counts, hn, ho = cell_stats(z, x, params.k)
    P = params.P[cell_layout(params.k)[:2]]
    label_term = xlogy(counts, params.pi).sum()
    edge_term = xlogy(ho, P).sum() + xlogy(hn - ho, 1.0 - P).sum()
    return float(label_term + edge_term)


@dataclass(frozen=True)
class EmpiricalRates:
    """Plug-in estimates from a labeled graph; cells with no pairs are set
    to 0 and flagged in ``undefined``."""

    pi: np.ndarray
    P: np.ndarray
    undefined: np.ndarray


def mle_from_labels(z: LabelVector, x: Graph, k: int) -> EmpiricalRates:
    """Empirical probabilities pi_a = n_a/n and P_ab = ho/hn, the edges
    over the node pairs of cell (a, b)."""
    counts, hn, ho = cell_stats(z, x, k)
    P = _cells_to_matrix(_pair_ratio(ho, hn), k)
    return EmpiricalRates(pi=counts / len(z), P=P, undefined=_cells_to_matrix(hn == 0, k))


def _pair_ratio(ho: np.ndarray, hn: np.ndarray) -> np.ndarray:
    ratio = np.zeros(np.broadcast(ho, hn).shape, dtype=float)
    np.divide(ho, hn, out=ratio, where=hn > 0)
    return ratio


def max_complete_log_lik(z: LabelVector, x: Graph, k: int) -> float:
    """sup over (pi, P) of log P(z, x): the plug-in value
    n sum_a pihat_a log pihat_a + sum_{a<=b} hn gamma(Phat_ab)."""
    return float(_objective_cells(*cell_stats(z, x, k), len(z)))


def _plug_in_cell(hn: np.ndarray, ho: np.ndarray, n: int) -> np.ndarray:
    """hn gamma(ho/hn), the cell term of ``_objective_cells``."""
    ratio = _pair_ratio(ho, hn)
    return xlogy(ho, ratio) + xlogy(hn - ho, 1.0 - ratio)


def _objective_cells(counts: np.ndarray, hn: np.ndarray, ho: np.ndarray, n: int) -> np.ndarray:
    """Vectorized plug-in likelihood for rows of condensed-cell statistics."""
    return _label_terms(n)[1][counts].sum(axis=-1) + _cell_terms(_plug_in_cell, n, hn, ho).sum(axis=-1)


def _move_values(counts: np.ndarray, ho: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """Plug-in likelihood, per target block c = 0..k-1, of adding one node
    with d[b] neighbors in block b to the statistics (counts, ho)."""
    k = counts.size
    cell_of = cell_layout(k)[2]
    rows = counts + np.eye(k, dtype=np.int64)
    cells = np.tile(ho, (k, 1))
    cells[np.arange(k)[:, None], cell_of] += d  # row c gains d in cells (c, b)
    return _objective_cells(rows, _block_pairs(rows, k), cells, n)


def _local_profile_search(x: Graph, k: int, restarts: int, seed: int) -> tuple[LabelVector, float]:
    n = x.n
    cell_of = cell_layout(k)[2]
    adj = x.adjacency().astype(bool)
    neighbors = [np.nonzero(adj[i])[0] for i in range(n)]
    found = []
    for r in range(restarts):
        rng = rng_from_seed(derive_seed(seed, r))
        lab = rng.integers(0, k, size=n)
        counts, _, ho = cell_stats(LabelVector(lab + 1, k), x, k)
        for _ in range(_MAX_SWEEPS):
            moved = False
            for i in range(n):
                a = lab[i]
                d = np.bincount(lab[neighbors[i]], minlength=k)
                counts[a] -= 1
                ho[cell_of[a]] -= d
                vals = _move_values(counts, ho, d, n)
                c = int(np.argmax(vals))
                if vals[c] <= vals[a]:  # keep current label on ties
                    c = a
                counts[c] += 1
                ho[cell_of[c]] += d
                moved |= c != a
                lab[i] = c
            if not moved:
                break
        found.append((lab, float(_objective_cells(counts, _block_pairs(counts, k), ho, n))))
    lab, val = max(found, key=lambda f: f[1])  # the first restart wins a tie
    return LabelVector(lab + 1, k), val


def _plug_in_values(table, ho: np.ndarray, rows: slice) -> np.ndarray:
    """The plug-in value of the partitions ``rows`` of ``table``, whose
    edges per cell are ``ho``: the row term of a ``_table_pass``."""
    cells = _cell_terms(_plug_in_cell, table.n, table.hn[rows], ho).sum(axis=-1)
    return np.add(cells, table.plug_in_part[rows], out=cells)  # in place, as in kt._kt_base


def profile_label_search(
    x: Graph,
    k: int,
    mode: str = "exact",
    restarts: int = 20,
    seed: int = 0,
) -> tuple[LabelVector, float]:
    """Maximize the plug-in likelihood over labelings in {1..k}^n.

    Exact mode enumerates one canonical labeling per label-permutation orbit
    (the objective is invariant under relabeling), under the table cap of
    ``partitions``, and scores them one budgeted pass at a time; local mode
    runs greedy single-node relabel sweeps from seeded random starts and
    returns the best value found, which never exceeds the exact optimum.
    """
    require_int("k", k)
    require_int("restarts", restarts)
    if mode == "exact":
        [(_, table, (obj,))] = _table_pass(x.n, k, x.pairs[None], _plug_in_values)
        best = int(np.argmax(obj))
        return LabelVector(table.codes[best] + 1, k), float(obj[best])
    if mode == "local":
        return _local_profile_search(x, k, restarts, seed)
    raise ValidationError(f"unknown mode {mode!r}; expected 'exact' or 'local'")


def sup_log_lik_upper_bound(x: Graph, k: int) -> float:
    """log sum over all k**n labelings z of exp(max_complete_log_lik(z, x, k)).

    sup_theta log P_theta(x) = sup_theta log sum_z P_theta(z, x), and the sup
    of a sum is at most the sum of the sups, so this bounds the marginal
    sup from above; at k = 1 there is one labeling and it is the sup.  The
    sum runs over canonical partitions with their orbit weights.
    """
    require_int("k", k)
    [(_, table, (values,))] = _table_pass(x.n, k, x.pairs[None], _plug_in_values)
    return _orbit_sum(table, values, k)


def marginal_log_lik_exact(params: SbmParams, x: Graph) -> float:
    """log P(x) = log sum_z P(z, x) by stable enumeration over all k**n
    labelings, at most ``ENUM_CAP``."""
    n, k = x.n, params.k
    if k**n > ENUM_CAP:
        raise InfeasibleSizeError(f"k**n = {k**n} labelings exceed the cap {ENUM_CAP}")
    log_pi = _safe_log(params.pi)
    cell_a, cell_b, _ = cell_layout(k)
    logP = _safe_log(params.P[cell_a, cell_b])
    log1mP = _safe_log(1.0 - params.P[cell_a, cell_b])
    chunks = []
    for counts, hn, ho in iter_labeling_stats(n, k, x.edges()):
        ll = counts @ log_pi + ho @ logP + (hn - ho) @ log1mP
        chunks.append(_logsumexp(ll))
    return _logsumexp(np.array(chunks))


@dataclass(frozen=True)
class FitResult:
    """Outcome of the iterative marginal-likelihood maximization.

    ``estep`` names the E-step; it is always "exact" (responsibilities by
    full enumeration, no mean-field approximation).  ``history`` is the
    per-iteration log-likelihood trace of the winning start.
    """

    params: SbmParams
    log_marginal: float
    iterations: int
    converged: bool
    estep: str
    history: tuple[float, ...]


def _cells_to_matrix(cells: np.ndarray, k: int) -> np.ndarray:
    """The symmetric k x k matrix of per-cell values."""
    return cells[cell_layout(k)[2]]


def _finish_params(pi: np.ndarray, P: np.ndarray, k: int) -> SbmParams:
    pi = np.maximum(pi, 1e-300)
    pi = pi / pi.sum()
    return SbmParams(k=k, pi=pi, P=np.clip(P, 0.0, 1.0))


def _em_runs(stats, pis, Pcs, n):
    """Exact EM on R independent runs on one graph, from the starts (R, k)
    ``pis`` and (R, C) ``Pcs``, which are updated in place to each run's
    final parameters.

    ``stats`` (k + 2C, L) holds, for each of the L labelings, the block
    sizes, then the edges and the non-edges per cell.  The non-edges are
    kept apart from the edges: with the -1e300 floor of _safe_log, the
    rewrite ho*(log P - log(1-P)) + hn*log(1-P) cancels catastrophically.
    Every iteration computes only the runs still going; a run stops at its
    own convergence or at ``_EM_MAX_ITER``.  Returns per run the iteration
    count, the converged flag and the (R, _EM_MAX_ITER) log-likelihood
    history, valid up to the iteration count.
    """
    R, k = pis.shape
    C = Pcs.shape[1]
    run = np.arange(R)
    ll_prev = np.full(R, -np.inf)
    iters = np.full(R, _EM_MAX_ITER)
    converged = np.zeros(R, dtype=bool)
    history = np.empty((R, _EM_MAX_ITER))
    for it in range(_EM_MAX_ITER):
        ll_mat = _safe_log(np.hstack([pis[run], Pcs[run], 1.0 - Pcs[run]])) @ stats
        top = ll_mat.max(axis=1)
        ll_mat -= top[:, None]
        e = np.exp(ll_mat, out=ll_mat)
        total = e.sum(axis=1)
        ll = history[run, it] = np.log(total) + top
        done = np.abs(ll - ll_prev) < _EM_TOL * np.maximum(np.abs(ll_prev), 1.0)
        ll_prev = ll
        if done.any():
            iters[run[done]], converged[run[done]] = it + 1, True
            run, ll_prev, e, total = (a[~done] for a in (run, ll_prev, e, total))
            if not run.size:
                break
        expected = (e @ stats.T) / total[:, None]
        pis[run] = expected[:, :k] / n
        edges, rest = expected[:, k : k + C], expected[:, k + C :]
        Pcs[run] = _pair_ratio(edges, edges + rest)
    return iters, converged, history


def _fit_one_block(x: Graph) -> FitResult:
    """Closed-form k = 1 fit: the sup is at p_hat = edges / pairs."""
    m_pairs = x.n * (x.n - 1) // 2
    p_hat = x.edge_count / m_pairs
    ll = float(m_pairs * gamma_fn(p_hat))
    return FitResult(
        params=SbmParams(k=1, pi=np.array([1.0]), P=np.array([[p_hat]])),
        log_marginal=ll,
        iterations=1,
        converged=True,
        estep="exact",
        history=(ll,),
    )


def fit_marginal_ml(x: Graph, k: int, starts: int = 16, seed: int = 0) -> FitResult:
    """Approximate sup over (pi, P) of the marginal log-likelihood log P(x).

    Exact EM, best of ``starts`` seeded random initializations (the first
    on ties); the per-iteration log-marginal trace of a run is
    non-decreasing.  k = 1 has a closed form.  For k > 1 the E-step
    enumerates all k**n labelings, so k**n above ``EM_CAP`` raises
    InfeasibleSizeError.  The starts run in groups whose temporaries stay
    under ``partitions._STATS_BYTES``.
    """
    require_int("k", k)
    require_int("starts", starts)
    n = x.n
    if n < 2:
        raise ValidationError("fit_marginal_ml requires n >= 2")
    if k == 1:
        return _fit_one_block(x)
    if k**n > EM_CAP:
        raise InfeasibleSizeError(f"exact enumeration needs k**n = {k**n} labelings, above the cap {EM_CAP}")
    counts, hn, ho = labeling_stats(n, k, x.edges())
    stats = np.vstack([counts.T, ho.T, (hn - ho).T]).astype(float)
    L, C = hn.shape
    rng = rng_from_seed(derive_seed(seed, 0xE3))
    pis = rng.dirichlet(np.ones(k), size=starts)
    Pcs = rng.uniform(0.05, 0.95, size=(starts, C))
    best = None
    # per run: its history row and four (L,) work arrays
    for lo, hi in _budget_passes(starts, 8 * (_EM_MAX_ITER + 4 * L)):
        iters, conv, history = _em_runs(stats, pis[lo:hi], Pcs[lo:hi], n)
        ll = history[np.arange(hi - lo), iters - 1]
        i = int(np.argmax(ll))
        if best is None or ll[i] > best.log_marginal:
            best = FitResult(
                params=_finish_params(pis[lo + i], _cells_to_matrix(Pcs[lo + i], k), k),
                log_marginal=float(ll[i]),
                iterations=int(iters[i]),
                converged=bool(conv[i]),
                estep="exact",
                history=tuple(history[i, : iters[i]].tolist()),
            )
    return best


def sparse_decomposition_parts(
    pi_hat: np.ndarray, P_hat: np.ndarray, edge_mass: float, rho: float
) -> tuple[float, float, float]:
    """Core of the sparse likelihood decomposition on plug-in statistics.

    lhs = sum_ab pihat_a pihat_b gamma(Phat_ab);
    rhs = rho * sum_ab pihat_a pihat_b tau(Phat_ab / rho) + edge_mass * log(rho).
    The difference is O(rho^2) when Phat scales like rho.
    """
    if not (0.0 < rho <= 1.0):
        raise ValidationError(f"rho must lie in (0, 1], got {rho}")
    pi_hat = np.asarray(pi_hat, dtype=float)
    P_hat = np.asarray(P_hat, dtype=float)
    weights = np.outer(pi_hat, pi_hat)
    lhs = float((weights * gamma_fn(P_hat)).sum())
    rhs = float(rho * (weights * tau_fn(P_hat / rho)).sum() + edge_mass * np.log(rho))
    return lhs, rhs, lhs - rhs


def sparse_decomposition_check(
    z: LabelVector, x: Graph, rho: float, k: int
) -> tuple[float, float, float]:
    """Evaluate the decomposition on the empirical statistics of (z, x),
    with edge mass E_n / n^2, E_n = 2 * edges. Returns (lhs, rhs, residual)."""
    est = mle_from_labels(z, x, k)
    return sparse_decomposition_parts(est.pi, est.P, 2 * x.edge_count / len(z) ** 2, rho)
