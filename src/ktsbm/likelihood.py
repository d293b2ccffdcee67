"""Complete-data and marginal likelihoods for the stochastic block model.

The joint law of a labeling z and graph x factorizes over blocks:

    P(z, x) = prod_a pi_a^{n_a} * prod_{a,b} P_ab^{O_ab/2} (1-P_ab)^{(n_ab-O_ab)/2}

with the 0^0 = 1 convention: a zero parameter only annihilates the
probability when the matching count is positive.  All evaluations happen in
log space via scipy's ``xlogy``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, xlogy

from .errors import InfeasibleSizeError, ValidationError
from .partitions import (
    _budget_passes,
    graph_cell_edges,
    iter_labeling_stats,
    labeling_count,
    labeling_stats,
    require_partitions,
)
from .sbm import Graph, LabelVector, SbmParams, compute_stats
from .seeds import derive_seed, rng_from_seed

__all__ = [
    "gamma_fn",
    "tau_fn",
    "complete_log_prob",
    "EmpiricalRates",
    "mle_from_labels",
    "max_complete_log_lik",
    "profile_label_search",
    "marginal_log_lik_exact",
    "FitResult",
    "fit_marginal_ml",
    "fit_marginal_ml_batch",
    "sparse_decomposition_check",
    "sparse_decomposition_parts",
]

ENUM_CAP = 10_000_000
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
    s = compute_stats(z, x, params.k)
    label_term = xlogy(s.n_a, params.pi).sum()
    with np.errstate(invalid="ignore"):
        edge_term = 0.5 * (
            xlogy(s.O_ab, params.P).sum() + xlogy(s.n_ab - s.O_ab, 1.0 - params.P).sum()
        )
    return float(label_term + edge_term)


@dataclass(frozen=True)
class EmpiricalRates:
    """Plug-in estimates from a labeled graph; cells with no pairs are set
    to 0 and flagged in ``undefined``."""

    pi: np.ndarray
    P: np.ndarray
    undefined: np.ndarray


def mle_from_labels(z: LabelVector, x: Graph, k: int) -> EmpiricalRates:
    """Empirical probabilities pi_a = n_a/n and P_ab = O_ab/n_ab."""
    s = compute_stats(z, x, k)
    n = len(z)
    pi = s.n_a / n
    P = np.zeros((k, k), dtype=float)
    np.divide(s.O_ab, s.n_ab, out=P, where=s.n_ab > 0)
    return EmpiricalRates(pi=pi, P=P, undefined=s.n_ab == 0)


def _pair_ratio(ho: np.ndarray, hn: np.ndarray) -> np.ndarray:
    ratio = np.zeros(np.broadcast(ho, hn).shape, dtype=float)
    np.divide(ho, hn, out=ratio, where=hn > 0)
    return ratio


def max_complete_log_lik(z: LabelVector, x: Graph, k: int) -> float:
    """sup over (pi, P) of log P(z, x): the plug-in value
    n sum_a pihat_a log pihat_a + 1/2 sum_ab n_ab gamma(Phat_ab)."""
    s = compute_stats(z, x, k)
    n = len(z)
    label_term = xlogy(s.n_a, s.n_a / n).sum()
    ratio = _pair_ratio(s.O_ab, s.n_ab)
    edge_term = 0.5 * (
        xlogy(s.O_ab, ratio).sum() + xlogy(s.n_ab - s.O_ab, 1.0 - ratio).sum()
    )
    return float(label_term + edge_term)


def _objective_cells(counts: np.ndarray, hn: np.ndarray, ho: np.ndarray, n: int) -> np.ndarray:
    """Vectorized plug-in likelihood for rows of condensed-cell statistics."""
    label_term = xlogy(counts, counts / n).sum(axis=1)
    ratio = _pair_ratio(ho, hn)
    cell_term = xlogy(ho, ratio) + xlogy(hn - ho, 1.0 - ratio)
    return label_term + cell_term.sum(axis=1)


def _objective_full(n_a: np.ndarray, O: np.ndarray, n: int) -> float:
    n_ab = np.outer(n_a, n_a)
    np.fill_diagonal(n_ab, n_a * (n_a - 1))
    ratio = _pair_ratio(O, n_ab)
    return float(
        xlogy(n_a, n_a / n).sum()
        + 0.5 * (xlogy(O, ratio).sum() + xlogy(n_ab - O, 1.0 - ratio).sum())
    )


def _local_profile_search(
    x: Graph, k: int, restarts: int, max_sweeps: int, seed: int
) -> tuple[LabelVector, float]:
    n = x.n
    adj = x.adjacency().astype(bool)
    neighbors = [np.nonzero(adj[i])[0] for i in range(n)]
    best_val = -np.inf
    best_lab: np.ndarray | None = None
    for r in range(restarts):
        rng = rng_from_seed(derive_seed(seed, r))
        lab = rng.integers(0, k, size=n)
        counts = np.bincount(lab, minlength=k)
        O = np.zeros((k, k), dtype=np.int64)
        for i, j in x.edges():
            O[lab[i], lab[j]] += 1
            O[lab[j], lab[i]] += 1
        for _ in range(max_sweeps):
            moved = False
            for i in range(n):
                a = lab[i]
                d = np.bincount(lab[neighbors[i]], minlength=k)
                counts[a] -= 1
                O[a, :] -= d
                O[:, a] -= d
                vals = np.empty(k)
                for c in range(k):
                    counts[c] += 1
                    O[c, :] += d
                    O[:, c] += d
                    vals[c] = _objective_full(counts, O, n)
                    counts[c] -= 1
                    O[c, :] -= d
                    O[:, c] -= d
                c_star = int(np.argmax(vals))
                if vals[c_star] <= vals[a]:  # keep current label on ties
                    c_star = a
                counts[c_star] += 1
                O[c_star, :] += d
                O[:, c_star] += d
                if c_star != a:
                    lab[i] = c_star
                    moved = True
            if not moved:
                break
        val = _objective_full(counts, O, n)
        if val > best_val:
            best_val = val
            best_lab = lab.copy()
    assert best_lab is not None
    return LabelVector(best_lab + 1, k), float(best_val)


def profile_label_search(
    x: Graph,
    k: int,
    mode: str = "exact",
    restarts: int = 20,
    max_sweeps: int = 100,
    seed: int = 0,
    cap: int = ENUM_CAP,
) -> tuple[LabelVector, float]:
    """Maximize the plug-in likelihood over labelings in {1..k}^n.

    Exact mode enumerates one canonical labeling per label-permutation orbit
    (the objective is invariant under relabeling) and is capped; local mode
    runs greedy single-node relabel sweeps from seeded random starts and
    returns the best value found, which never exceeds the exact optimum.
    """
    if mode == "exact":
        table = require_partitions(x.n, min(k, x.n), cap)
        ho = graph_cell_edges(table, x.edges())
        obj = _objective_cells(table.counts, table.hn, ho, x.n)
        best = int(np.argmax(obj))
        return LabelVector(table.codes[best] + 1, k), float(obj[best])
    if mode == "local":
        return _local_profile_search(x, k, restarts, max_sweeps, seed)
    raise ValidationError(f"unknown mode {mode!r}; expected 'exact' or 'local'")


def marginal_log_lik_exact(params: SbmParams, x: Graph, cap: int = ENUM_CAP) -> float:
    """log P(x) = log sum_z P(z, x) by stable enumeration over all k**n
    labelings (cap enforced)."""
    n, k = x.n, params.k
    total = labeling_count(n, k)
    if total > cap:
        raise InfeasibleSizeError(f"k**n = {total} labelings exceed the cap {cap}")
    log_pi = _safe_log(params.pi)
    cell_a, cell_b = np.triu_indices(k)
    logP = _safe_log(params.P[cell_a, cell_b])
    log1mP = _safe_log(1.0 - params.P[cell_a, cell_b])
    chunks = []
    for counts, hn, ho in iter_labeling_stats(n, k, x.edges()):
        ll = counts @ log_pi + ho @ logP + (hn - ho) @ log1mP
        chunks.append(logsumexp(ll))
    return float(logsumexp(np.array(chunks)))


@dataclass(frozen=True)
class FitResult:
    """Outcome of the iterative marginal-likelihood maximization.

    ``estep`` records whether responsibilities were exact (full enumeration)
    or mean-field; ``history`` is the per-iteration objective trace of the
    winning start (log-likelihood for exact, ELBO for mean-field).
    """

    params: SbmParams
    log_marginal: float
    iterations: int
    converged: bool
    estep: str
    history: tuple[float, ...]


def _as_cells(P: np.ndarray, k: int) -> np.ndarray:
    cell_a, cell_b = np.triu_indices(k)
    return np.asarray(P, dtype=float)[cell_a, cell_b]


def _cells_to_matrix(cells: np.ndarray, k: int) -> np.ndarray:
    cell_a, cell_b = np.triu_indices(k)
    P = np.zeros((k, k), dtype=float)
    P[cell_a, cell_b] = cells
    P[cell_b, cell_a] = cells
    return P


def _finish_params(pi: np.ndarray, P: np.ndarray, k: int) -> SbmParams:
    pi = np.maximum(pi, 1e-300)
    pi = pi / pi.sum()
    return SbmParams(k=k, pi=pi, P=np.clip(P, 0.0, 1.0))


def _em_starts(seeds, k, C, starts, extra_inits):
    """Initial (pi, P cells) of every (graph, start) run, graph-major: each
    graph's random starts come from its own seed's stream, then the
    ``extra_inits``."""
    pis, Pcs = [], []
    for seed in seeds:
        rng = rng_from_seed(derive_seed(seed, 0xE3))
        pis.append(rng.dirichlet(np.ones(k), size=starts))
        Pcs.append(rng.uniform(0.05, 0.95, size=(starts, C)))
        for pi0, P0 in extra_inits:
            pis.append(np.asarray(pi0, dtype=float)[None, :])
            Pcs.append(_as_cells(np.asarray(P0, dtype=float), k)[None, :])
    return np.vstack(pis), np.vstack(Pcs)


def _em_runs(stats, graph_of, pis, Pcs, n, tol, max_iter):
    """Exact EM on R independent runs; run r fits graph ``graph_of[r]``.

    ``stats`` (G, k + 2C, L) holds, for each graph and each of the L
    labelings, the block sizes, then the edges and the non-edges per cell.
    Every iteration computes only the runs still going; a run stops at its
    own convergence or at ``max_iter``.  Returns per run the final
    log-likelihood, iteration count, converged flag and (pi, P cells), and
    the trail: per iteration, the log-likelihoods of the runs going and, if
    some stopped, the mask of those that go on.
    """
    R, k = pis.shape
    C = Pcs.shape[1]
    # the statistics of the runs still going; mode="clip" writes straight
    # into the buffer (the indices are in range)
    cells = np.empty((R,) + stats.shape[1:])
    np.take(stats, graph_of, axis=0, out=cells, mode="clip")
    run = np.arange(R)
    ll_prev = np.full(R, -np.inf)
    final_ll = np.empty(R)
    iters = np.full(R, max_iter)
    converged = np.zeros(R, dtype=bool)
    final_pi = np.empty_like(pis)
    final_P = np.empty_like(Pcs)
    trail = []
    for it in range(max_iter):
        ll_mat = np.einsum("rjl,rj->rl", cells, _safe_log(np.hstack([pis, Pcs, 1.0 - Pcs])))
        top = ll_mat.max(axis=1)
        ll_mat -= top[:, None]
        e = np.exp(ll_mat, out=ll_mat)
        total = e.sum(axis=1)
        ll = np.log(total) + top
        trail.append([ll, None])
        with np.errstate(invalid="ignore"):
            done = np.abs(ll - ll_prev) / np.maximum(np.abs(ll_prev), 1e-12) < tol
        ll_prev = ll
        if done.any():
            stop = run[done]
            final_ll[stop], iters[stop], converged[stop] = ll[done], it + 1, True
            final_pi[stop], final_P[stop] = pis[done], Pcs[done]
            going = trail[-1][1] = ~done
            run, ll_prev, pis, Pcs, e, total = (a[going] for a in (run, ll_prev, pis, Pcs, e, total))
            if not run.size:
                break
            cells = cells[: run.size]
            np.take(stats, graph_of[run], axis=0, out=cells, mode="clip")
        expected = np.einsum("rjl,rl->rj", cells, e) / total[:, None]
        pis = expected[:, :k] / n
        edges, rest = expected[:, k : k + C], expected[:, k + C :]
        Pcs = _pair_ratio(edges, edges + rest)
    final_ll[run], final_pi[run], final_P[run] = ll_prev, pis, Pcs
    return final_ll, iters, converged, final_pi, final_P, trail


def _run_histories(trail, runs, iters):
    """Per-iteration log-likelihoods of the given runs from an ``_em_runs``
    trail, (len(runs), T); row j is valid up to ``iters[runs[j]]``."""
    out = np.empty((len(runs), int(iters[runs].max())))
    pos = runs  # each run's row among the runs going
    for t in range(out.shape[1]):
        ll, going = trail[t]
        out[:, t] = ll[pos]
        if going is not None:
            pos = (np.cumsum(going) - 1)[pos].clip(min=0)  # a stopped run's row is not read again
    return out


def _fit_exact(graphs, k, starts, tol, seeds, max_iter, exact_cap, extra_inits):
    """Exact EM for a list of graphs on the same n, one seed per graph.

    Every (graph, start) pair is an independent run.  Runs are processed in
    groups whose temporaries stay under ``partitions._STATS_BYTES``; each
    graph keeps its best start (the first on ties).
    """
    n = graphs[0].n
    counts, hn, ho = labeling_stats(n, k, [g.edges() for g in graphs], exact_cap)
    L, C = hn.shape
    pis, Pcs = _em_starts(seeds, k, C, starts, extra_inits)
    S = pis.shape[0] // len(graphs)
    best: list[FitResult | None] = [None] * len(graphs)
    # Per run: its statistics and at most as much again for its graph's,
    # four (L,) work arrays and its trail.  The non-edges are kept apart
    # from the edges: with the -1e300 floor of _safe_log, the rewrite
    # ho*(log P - log(1-P)) + hn*log(1-P) cancels catastrophically.
    J = k + 2 * C
    for lo, hi in _budget_passes(pis.shape[0], 9 * max_iter + 8 * L * (2 * J + 4)):
        g_lo, g_hi = lo // S, (hi - 1) // S + 1
        edges = ho[g_lo:g_hi].transpose(0, 2, 1)
        shared = np.broadcast_to(counts.T, (g_hi - g_lo, k, L))
        stats = np.concatenate([shared, edges, hn.T - edges], axis=1).astype(float)
        ll, iters, conv, pi, Pc, trail = _em_runs(
            stats, np.arange(lo, hi) // S - g_lo, pis[lo:hi], Pcs[lo:hi], n, tol, max_iter
        )
        # each graph's best start in this group
        tops = [
            a + int(np.argmax(ll[a:b]))
            for a, b in ((max(g * S, lo) - lo, min((g + 1) * S, hi) - lo) for g in range(g_lo, g_hi))
        ]
        history = _run_histories(trail, np.array(tops), iters)
        for g, i, h in zip(range(g_lo, g_hi), tops, history):
            if best[g] is None or ll[i] > best[g].log_marginal:
                best[g] = FitResult(
                    params=_finish_params(pi[i], _cells_to_matrix(Pc[i], k), k),
                    log_marginal=float(ll[i]),
                    iterations=int(iters[i]),
                    converged=bool(conv[i]),
                    estep="exact",
                    history=tuple(h[: iters[i]].tolist()),
                )
    return best


def _fit_meanfield(x, k, starts, tol, seed, max_iter, extra_inits):
    n = x.n
    adj = x.adjacency().astype(float)
    rng = rng_from_seed(derive_seed(seed, 0xBF))
    results = []
    n_runs = starts + len(extra_inits)
    for s in range(n_runs):
        q = rng.dirichlet(np.ones(k), size=n)
        if s >= starts:
            pi0, P0 = extra_inits[s - starts]
            pi = np.maximum(np.asarray(pi0, dtype=float), 1e-12)
            pi = pi / pi.sum()
            P = np.asarray(P0, dtype=float)
        else:
            pi = rng.dirichlet(np.ones(k))
            P = _cells_to_matrix(rng.uniform(0.05, 0.95, size=k * (k + 1) // 2), k)
        elbo_prev = -np.inf
        history = []
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            logpi = _safe_log(pi)
            logP = _safe_log(P)
            log1mP = _safe_log(1.0 - P)
            total = q.sum(axis=0)
            for i in range(n):
                t1 = adj[i] @ q
                t0 = total - t1 - q[i]
                r = logpi + logP @ t1 + log1mP @ t0
                r -= r.max()
                qi = np.exp(r)
                qi /= qi.sum()
                total += qi - q[i]
                q[i] = qi
            s_tot = q.sum(axis=0)
            pi = s_tot / n
            EO = q.T @ adj @ q
            Enab = np.outer(s_tot, s_tot) - q.T @ q
            P = _pair_ratio(EO, Enab)
            # ELBO at the updated (pi, P)
            logpi = _safe_log(pi)
            logP = _safe_log(P)
            log1mP = _safe_log(1.0 - P)
            lik = (q @ logpi).sum() + 0.5 * float(
                np.sum(adj * (q @ logP @ q.T))
                + np.sum((1.0 - adj) * (q @ log1mP @ q.T))
                - np.trace(q @ log1mP @ q.T)
            )
            entropy = -float(xlogy(q, q).sum())
            elbo = lik + entropy
            history.append(elbo)
            if abs(elbo - elbo_prev) < tol * max(abs(elbo_prev), 1e-12):
                converged = True
                break
            elbo_prev = elbo
        results.append((history[-1], s, pi, P, it, converged, tuple(history)))
    best = max(results, key=lambda t: (t[0], -t[1]))
    _, _, pi, P, it, converged, trace = best
    return FitResult(
        params=_finish_params(pi, P, k),
        log_marginal=float(trace[-1]),
        iterations=it,
        converged=converged,
        estep="meanfield",
        history=trace,
    )


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


def fit_marginal_ml(
    x: Graph,
    k: int,
    starts: int = 16,
    tol: float = 1e-8,
    seed: int = 0,
    max_iter: int = 500,
    exact_cap: int = 200_000,
    extra_inits: tuple = (),
) -> FitResult:
    """Approximate sup over (pi, P) of the marginal log-likelihood log P(x).

    EM with exact responsibilities when k**n is under ``exact_cap`` (the
    per-iteration log-marginal trace is then non-decreasing), mean-field
    variational responsibilities above it (the reported value is the ELBO,
    a lower bound).  Best of ``starts`` seeded random initializations plus
    any ``extra_inits`` (pi, P) pairs.
    """
    if x.n < 2:
        raise ValidationError("fit_marginal_ml requires n >= 2")
    if k == 1:
        return _fit_one_block(x)
    if labeling_count(x.n, k) <= exact_cap:
        return _fit_exact([x], k, starts, tol, [seed], max_iter, exact_cap, extra_inits)[0]
    return _fit_meanfield(x, k, starts, tol, seed, max_iter, extra_inits)


def fit_marginal_ml_batch(
    graphs,
    k: int,
    seeds,
    starts: int = 16,
    tol: float = 1e-8,
    max_iter: int = 500,
    exact_cap: int = 200_000,
) -> list[FitResult]:
    """``fit_marginal_ml`` with exact EM on every graph of a list, all on
    the same n, with one seed per graph; result g equals
    ``fit_marginal_ml(graphs[g], k, starts, tol, seeds[g], max_iter,
    exact_cap)`` up to rounding.

    The graphs share the labeling enumeration and run as one batch.  There
    is no mean-field fallback: k**n above ``exact_cap`` raises
    InfeasibleSizeError.
    """
    graphs = list(graphs)
    seeds = list(seeds)
    if len(seeds) != len(graphs):
        raise ValidationError(f"{len(graphs)} graphs but {len(seeds)} seeds")
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValidationError("fit_marginal_ml_batch requires graphs on the same number of nodes")
    if n < 2:
        raise ValidationError("fit_marginal_ml_batch requires n >= 2")
    if k == 1:
        return [_fit_one_block(g) for g in graphs]
    return _fit_exact(graphs, k, starts, tol, seeds, max_iter, exact_cap, ())


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
    with edge mass E_n / n^2. Returns (lhs, rhs, residual)."""
    est = mle_from_labels(z, x, k)
    s = compute_stats(z, x, k)
    n = len(z)
    return sparse_decomposition_parts(est.pi, est.P, s.E_n / n**2, rho)
