import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktsbm import (
    Graph,
    InfeasibleSizeError,
    LabelVector,
    SbmParams,
    ValidationError,
    complete_log_prob,
    enumerate_graphs,
    fit_marginal_ml,
    fit_marginal_ml_batch,
    gamma_fn,
    marginal_log_lik_exact,
    max_complete_log_lik,
    mle_from_labels,
    profile_label_search,
    sample_sbm,
    sparse_decomposition_check,
    sparse_decomposition_parts,
    tau_fn,
)
from ktsbm.seeds import derive_seed

from oracles import naive_complete_prob, naive_marginal_prob, naive_profile_optimum


def random_instance(rng, n, k, p=0.5):
    labels = rng.integers(1, k + 1, size=n)
    adj = np.triu((rng.random((n, n)) < p).astype(int), 1)
    adj = adj + adj.T
    return LabelVector(labels, k), Graph.from_adjacency(adj), adj.tolist()


def random_params(rng, k):
    pi = rng.dirichlet(np.ones(k))
    P = np.triu(rng.random((k, k)))
    P = P + np.triu(P, 1).T
    return SbmParams(k=k, pi=pi, P=P)


# ---------------------------------------------------------------- kernels


def test_gamma_values():
    assert gamma_fn(0.5) == pytest.approx(-math.log(2))
    assert gamma_fn(0.0) == 0.0 and gamma_fn(1.0) == 0.0
    assert gamma_fn(0.8) == pytest.approx(gamma_fn(0.2))
    assert gamma_fn(0.8) == pytest.approx(-0.5004024235381879, abs=1e-12)


def test_tau_values():
    assert tau_fn(1.0) == -1.0
    assert tau_fn(0.0) == 0.0
    assert tau_fn(0.25) == pytest.approx(-0.5965735902799726, abs=1e-12)


def test_kernel_domains():
    with pytest.raises(ValidationError):
        gamma_fn(-0.01)
    with pytest.raises(ValidationError):
        gamma_fn(1.01)
    with pytest.raises(ValidationError):
        tau_fn(-0.5)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.0, 1.0, allow_nan=False),
    b=st.floats(0.0, 1.0, allow_nan=False),
)
def test_kernels_convex_midpoint(a, b):
    mid = (a + b) / 2
    assert gamma_fn(mid) <= (gamma_fn(a) + gamma_fn(b)) / 2 + 1e-12
    assert tau_fn(2 * mid) <= (tau_fn(2 * a) + tau_fn(2 * b)) / 2 + 1e-12


# ---------------------------------------------------- complete likelihood


def test_complete_log_prob_single_edge():
    params = SbmParams(k=1, pi=[1.0], P=[[0.5]])
    z = LabelVector([1, 1], 1)
    g = Graph.from_edges(2, [(0, 1)])
    assert complete_log_prob(params, z, g) == pytest.approx(math.log(0.5))


def test_complete_log_prob_zero_zero_convention():
    params = SbmParams(k=1, pi=[1.0], P=[[0.0]])
    z = LabelVector([1, 1, 1], 1)
    g = Graph.from_edges(3, [])
    assert complete_log_prob(params, z, g) == 0.0  # probability 1
    g1 = Graph.from_edges(3, [(0, 1)])
    assert complete_log_prob(params, z, g1) == -np.inf


def test_complete_log_prob_matches_naive_product():
    rng = np.random.default_rng(11)
    for _ in range(25):
        z, g, adj = random_instance(rng, 5, 2)
        params = random_params(rng, 2)
        want = naive_complete_prob(params.pi, params.P, z.labels.tolist(), adj)
        got = complete_log_prob(params, z, g)
        assert got == pytest.approx(math.log(want), abs=1e-9)


def test_total_probability_over_labelings_and_graphs():
    rng = np.random.default_rng(12)
    for k in (1, 2):
        params = random_params(rng, k)
        n = 4
        total = 0.0
        for lab in itertools.product(range(1, k + 1), repeat=n):
            z = LabelVector(lab, k)
            for code in range(2 ** (n * (n - 1) // 2)):
                bits = (code >> np.arange(6)) & 1
                g = Graph(n, bits.astype(bool))
                total += math.exp(complete_log_prob(params, z, g))
        assert total == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------------- MLE


def test_mle_hand_example():
    z = LabelVector([1, 1, 2], 2)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    est = mle_from_labels(z, g, 2)
    assert est.pi.tolist() == pytest.approx([2 / 3, 1 / 3])
    assert est.P[0, 0] == pytest.approx(1.0)  # 2 ordered pairs / 2
    assert est.P[0, 1] == pytest.approx(0.5)
    assert est.undefined[1, 1]  # single node in block 2: no pairs
    assert np.array_equal(est.P, est.P.T)


def test_mle_empty_and_complete():
    z = LabelVector([1, 1, 1], 1)
    est = mle_from_labels(z, Graph.from_edges(3, []), 1)
    assert est.P[0, 0] == 0.0
    est = mle_from_labels(z, Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), 1)
    assert est.P[0, 0] == 1.0


def test_max_complete_log_lik_hand_values():
    z = LabelVector([1, 1], 1)
    g = Graph.from_edges(2, [(0, 1)])
    assert max_complete_log_lik(z, g, 1) == pytest.approx(0.0)  # saturated
    z = LabelVector([1, 2], 2)
    assert max_complete_log_lik(z, g, 2) == pytest.approx(-2 * math.log(2))


def test_max_complete_matches_plugin_and_dominates():
    rng = np.random.default_rng(13)
    for _ in range(10):
        z, g, _ = random_instance(rng, 6, 2)
        top = max_complete_log_lik(z, g, 2)
        est = mle_from_labels(z, g, 2)
        # agreement at the plug-in whenever no degenerate positive-count cell
        if not est.undefined.any():
            params = SbmParams(k=2, pi=np.maximum(est.pi, 1e-12) / np.maximum(est.pi, 1e-12).sum(), P=est.P)
            if np.all(est.pi > 0):
                assert top == pytest.approx(complete_log_prob(params, z, g), abs=1e-9)
        for _ in range(100):
            theta = random_params(rng, 2)
            assert top >= complete_log_prob(theta, z, g) - 1e-9


# -------------------------------------------------------- profile search


def test_profile_two_cliques():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = Graph.from_edges(6, edges)
    z, val = profile_label_search(g, 2, mode="exact")
    assert val == pytest.approx(-6 * math.log(2))
    blocks = {frozenset(np.nonzero(z.labels == v)[0].tolist()) for v in (1, 2)}
    assert blocks == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_profile_single_node():
    g = Graph.from_edges(1, [])
    _, val = profile_label_search(g, 3, mode="exact")
    assert val == 0.0


def test_profile_exact_matches_naive_enumeration():
    rng = np.random.default_rng(14)
    for _ in range(5):
        _, g, adj = random_instance(rng, 6, 2)
        want, _ = naive_profile_optimum(adj, 2)
        _, got = profile_label_search(g, 2, mode="exact")
        assert got == pytest.approx(want, abs=1e-9)


def test_profile_local_reaches_exact_at_n7():
    rng = np.random.default_rng(15)
    _, g, _ = random_instance(rng, 7, 2)
    _, exact = profile_label_search(g, 2, mode="exact")
    _, local = profile_label_search(g, 2, mode="local", restarts=20, seed=0)
    assert local == pytest.approx(exact, abs=1e-9)
    assert local <= exact + 1e-9


def test_profile_node_permutation_invariance():
    rng = np.random.default_rng(16)
    _, g, _ = random_instance(rng, 7, 2)
    perm = rng.permutation(7)
    _, v1 = profile_label_search(g, 2, mode="exact")
    _, v2 = profile_label_search(g.permute_nodes(perm), 2, mode="exact")
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_profile_cap():
    g = Graph(40, np.zeros(40 * 39 // 2, dtype=bool))
    with pytest.raises(InfeasibleSizeError):
        profile_label_search(g, 4, mode="exact", cap=1000)


# ------------------------------------------------------- exact marginal


def test_marginal_k1_equals_complete():
    params = SbmParams(k=1, pi=[1.0], P=[[0.3]])
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    z = LabelVector([1, 1, 1, 1], 1)
    assert marginal_log_lik_exact(params, g) == pytest.approx(complete_log_prob(params, z, g))


def test_marginal_constant_P_is_erdos_renyi():
    p = 0.37
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[p, p], [p, p]])
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    m, pairs = 3, 10
    want = m * math.log(p) + (pairs - m) * math.log(1 - p)
    assert marginal_log_lik_exact(params, g) == pytest.approx(want, abs=1e-10)


def test_marginal_matches_naive_16_term_sum():
    rng = np.random.default_rng(17)
    for _ in range(5):
        params = random_params(rng, 2)
        _, g, adj = random_instance(rng, 4, 2)
        want = naive_marginal_prob(params.pi, params.P, adj, 2)
        assert marginal_log_lik_exact(params, g) == pytest.approx(math.log(want), abs=1e-9)


def test_marginal_cap():
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.5, 0.5], [0.5, 0.5]])
    g = Graph(40, np.zeros(40 * 39 // 2, dtype=bool))
    with pytest.raises(InfeasibleSizeError):
        marginal_log_lik_exact(params, g, cap=1000)


# ------------------------------------------------------------------- EM


def test_fit_k1_closed_form():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    res = fit_marginal_ml(g, 1)
    p_hat = 3 / 10
    assert res.params.P[0, 0] == pytest.approx(p_hat)
    assert res.log_marginal == pytest.approx(10 * gamma_fn(p_hat))
    assert res.converged and res.estep == "exact"


def test_fit_monotone_ascent_exact():
    rng = np.random.default_rng(18)
    for seed in range(6):
        _, g, _ = random_instance(rng, 5, 2)
        res = fit_marginal_ml(g, 2, starts=1, seed=seed)
        hist = np.array(res.history)
        assert np.all(np.diff(hist) >= -1e-9)
        assert res.log_marginal <= 1e-9
        assert res.iterations >= 1


def test_fit_reported_value_matches_params():
    rng = np.random.default_rng(19)
    _, g, _ = random_instance(rng, 5, 2)
    res = fit_marginal_ml(g, 2, starts=8, seed=1)
    assert res.converged
    assert marginal_log_lik_exact(res.params, g) == pytest.approx(res.log_marginal, abs=1e-6)


def test_fit_beats_grid_oracle():
    rng = np.random.default_rng(20)
    _, g, _ = random_instance(rng, 4, 2)
    res = fit_marginal_ml(g, 2, starts=16, seed=2)
    # coarse grid oracle over pi_1 and the three P cells, all combinations
    # evaluated directly on the 16-labeling enumeration
    from scipy.special import logsumexp

    from ktsbm.partitions import labeling_stats

    counts, hn, (ho,) = labeling_stats(4, 2, [g.edges()], cap=100)
    grid = np.arange(0.05, 0.951, 0.05)
    p1, c11, c12, c22 = [a.ravel() for a in np.meshgrid(grid, grid, grid, grid, indexing="ij")]
    logpi = np.log(np.column_stack([p1, 1 - p1]))
    logP = np.log(np.column_stack([c11, c12, c22]))
    log1mP = np.log1p(-np.column_stack([c11, c12, c22]))
    ll = logsumexp(counts @ logpi.T + ho @ logP.T + (hn - ho) @ log1mP.T, axis=0)
    assert res.log_marginal >= ll.max() - 1e-2


def test_fit_monotone_in_dimension_with_embedding():
    rng = np.random.default_rng(21)
    _, g, _ = random_instance(rng, 6, 2)
    res2 = fit_marginal_ml(g, 2, starts=8, seed=3)
    pi3 = np.append(res2.params.pi, 0.0)
    P3 = np.full((3, 3), 0.5)
    P3[:2, :2] = res2.params.P
    res3 = fit_marginal_ml(g, 3, starts=8, seed=3, extra_inits=[(pi3, P3)])
    assert res3.log_marginal >= res2.log_marginal - 1e-8


def test_fit_meanfield_flagged():
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.9, 0.1], [0.1, 0.9]])
    _, g = sample_sbm(params, 12, 7)
    res = fit_marginal_ml(g, 2, starts=4, seed=4, exact_cap=1000)  # 2**12 > cap
    assert res.estep == "meanfield"
    assert res.log_marginal <= 0.0
    # the ELBO is a lower bound on the exact marginal at the same params
    assert res.log_marginal <= marginal_log_lik_exact(res.params, g) + 1e-9
    exact2 = fit_marginal_ml(g, 2, starts=8, seed=5)
    assert exact2.estep == "exact"
    # both approximate the same sup; EM tolerance leaves ~1e-6 slack
    assert res.log_marginal <= exact2.log_marginal + 1e-4


def _suite_fits(n, seed=0):
    """The batched k=2 fits of prop31_suite over every graph on n nodes."""
    graphs = list(enumerate_graphs(n))
    seeds = [derive_seed(seed, n, 2, idx) for idx in range(len(graphs))]
    return graphs, seeds, fit_marginal_ml_batch(graphs, 2, seeds)


def test_fit_batch_matches_per_graph_fits():
    graphs, seeds, fits = _suite_fits(4)
    assert len(fits) == 64
    for g, seed, fit in zip(graphs, seeds, fits):
        single = fit_marginal_ml(g, 2, seed=seed)
        assert fit.log_marginal == pytest.approx(single.log_marginal, abs=1e-12)
        assert fit.converged == single.converged
        assert fit.estep == "exact"
        # exact EM never decreases the log-likelihood
        assert np.all(np.diff(fit.history) >= -1e-9)
        assert len(fit.history) == fit.iterations
        assert fit.history[-1] == fit.log_marginal


def test_fit_batch_does_not_depend_on_the_byte_budget(monkeypatch):
    from ktsbm import likelihood, partitions

    _, _, default = _suite_fits(4)
    groups = []
    em_runs = likelihood._em_runs
    monkeypatch.setattr(likelihood, "_em_runs", lambda *a: groups.append(1) or em_runs(*a))
    monkeypatch.setattr(partitions, "_STATS_BYTES", 32 << 10)
    _, _, small = _suite_fits(4)
    assert len(groups) > 64  # fewer runs per group than starts per graph
    for want, got in zip(default, small):
        assert got.log_marginal == pytest.approx(want.log_marginal, abs=1e-12)
        assert got.converged == want.converged
        assert got.iterations == want.iterations


def test_fit_batch_validation():
    g4 = Graph.from_edges(4, [(0, 1)])
    g5 = Graph.from_edges(5, [(0, 1)])
    assert fit_marginal_ml_batch([], 2, []) == []
    with pytest.raises(ValidationError):
        fit_marginal_ml_batch([g4, g5], 2, [0, 1])
    with pytest.raises(ValidationError):
        fit_marginal_ml_batch([g4], 2, [0, 1])
    with pytest.raises(InfeasibleSizeError):
        fit_marginal_ml_batch([g5], 2, [0], exact_cap=16)  # no mean-field fallback
    (one_block,) = fit_marginal_ml_batch([g5], 1, [0])
    assert one_block.log_marginal == fit_marginal_ml(g5, 1).log_marginal


# ---------------------------------------------------- sparse decomposition


def test_sparse_decomposition_zero_rates():
    z = LabelVector([1, 2, 1, 2], 2)
    g = Graph.from_edges(4, [])
    lhs, rhs, residual = sparse_decomposition_check(z, g, 0.05, 2)
    assert lhs == 0.0 and rhs == 0.0 and residual == 0.0


def test_sparse_decomposition_series_expansion():
    # ideal-moment inputs: single block with rate rho*s and matching edge
    # mass; the residual must then be s^2/2 * rho^2 + O(rho^3)
    s = 0.5
    for rho in (1e-2, 1e-3, 1e-4, 1e-5):
        p = rho * s
        lhs, rhs, residual = sparse_decomposition_parts(
            np.array([1.0]), np.array([[p]]), p, rho
        )
        assert abs(residual) / rho**2 <= 1.0
        assert residual / rho**2 == pytest.approx(s**2 / 2, rel=0.05)


def test_sparse_decomposition_simulated():
    from ktsbm import SparseSchedule, realize_sparse

    pi0 = np.array([0.5, 0.5])
    S0 = np.array([[0.8, 0.3], [0.3, 0.6]])
    n = 500
    rho = 0.02
    sched = SparseSchedule(S0=S0, c=rho * n**0.0, alpha=0.0)
    params = realize_sparse(pi0, sched, n)
    z, g = sample_sbm(params, n, derive_seed(23, n))
    lhs, rhs, residual = sparse_decomposition_check(z, g, rho, 2)
    assert abs(residual) <= 10 * rho**2


def test_sparse_decomposition_validation():
    z = LabelVector([1, 1], 1)
    g = Graph.from_edges(2, [])
    with pytest.raises(ValidationError):
        sparse_decomposition_check(z, g, 0.0, 1)
