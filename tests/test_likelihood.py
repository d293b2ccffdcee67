import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from ktsbm import (
    Graph,
    InfeasibleSizeError,
    LabelVector,
    SbmParams,
    ValidationError,
    complete_log_prob,
    enumerate_graphs,
    fit_marginal_ml,
    gamma_fn,
    log_kt_marginal_exact,
    log_kt_marginal_mc,
    marginal_log_lik_exact,
    max_complete_log_lik,
    mle_from_labels,
    profile_label_search,
    sample_sbm,
    sparse_decomposition_check,
    sparse_decomposition_parts,
    sup_log_lik_upper_bound,
    tau_fn,
)
from ktsbm.likelihood import _local_profile_search
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
    assert est.P[0, 0] == pytest.approx(1.0)  # 1 edge / 1 node pair
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
    z, val = profile_label_search(g, 2)
    assert val == pytest.approx(-6 * math.log(2))
    blocks = {frozenset(np.nonzero(z.labels == v)[0].tolist()) for v in (1, 2)}
    assert blocks == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}


def test_profile_single_node():
    g = Graph.from_edges(1, [])
    _, val = profile_label_search(g, 3)
    assert val == 0.0


def test_profile_exact_matches_naive_enumeration():
    rng = np.random.default_rng(14)
    for _ in range(5):
        _, g, adj = random_instance(rng, 6, 2)
        want, _ = naive_profile_optimum(adj, 2)
        _, got = profile_label_search(g, 2)
        assert got == pytest.approx(want, abs=1e-9)


def test_profile_local_reaches_exact_at_n7():
    rng = np.random.default_rng(15)
    _, g, _ = random_instance(rng, 7, 2)
    # at k=3, 20 restarts stop at a 3-block local optimum 0.15 nats under
    # the exact (one-block) optimum; 50 reach it
    for k, restarts in ((2, 20), (3, 50)):
        _, exact = profile_label_search(g, k)
        _, local = _local_profile_search(g, k, restarts, 0)
        assert local == pytest.approx(exact, abs=1e-9)
        assert local <= exact + 1e-9


def test_profile_one_block_exact_and_local_agree_to_the_bit():
    rng = np.random.default_rng(19)
    for n in (2, 9, 40, 200):
        g = Graph(n, rng.random(n * (n - 1) // 2) < 0.3)
        assert profile_label_search(g, 1) == _local_profile_search(g, 1, 20, 0)


def test_profile_local_value_is_plugin_at_returned_labels():
    for k in (2, 3, 4):
        for t in range(4):
            rng = np.random.default_rng(derive_seed(31, k, t))
            pi = rng.dirichlet(np.ones(k))
            P = np.triu(rng.random((k, k)))
            params = SbmParams(k=k, pi=pi, P=P + np.triu(P, 1).T)
            _, g = sample_sbm(params, int(rng.integers(8, 40)), derive_seed(32, k, t))
            z, val = _local_profile_search(g, k, 3, t)
            assert val == pytest.approx(max_complete_log_lik(z, g, k), abs=1e-9)


def test_profile_node_permutation_invariance():
    rng = np.random.default_rng(16)
    _, g, _ = random_instance(rng, 7, 2)
    perm = rng.permutation(7)
    _, v1 = profile_label_search(g, 2)
    _, v2 = profile_label_search(g.permute_nodes(perm), 2)
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_profile_cap():
    # 2 798 251 canonical labelings, above the 2 000 000 table cap: the
    # search is local, and its result is the local search's
    g = Graph(13, np.random.default_rng(18).random(13 * 12 // 2) < 0.4)
    z, val = profile_label_search(g, 4, restarts=5, seed=3)
    assert (z, val) == _local_profile_search(g, 4, 5, 3)
    assert val == pytest.approx(max_complete_log_lik(z, g, 4), abs=1e-9)


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


def test_marginal_is_minus_infinity_for_a_graph_of_probability_zero():
    # two edges under P = 0, four non-edges under P = 1: complete_log_prob
    # gives -inf for the one labeling, and so must the marginal
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for p in (0.0, 1.0):
        params = SbmParams(k=1, pi=[1.0], P=[[p]])
        assert complete_log_prob(params, LabelVector([1] * 4, 1), g) == -np.inf
        assert marginal_log_lik_exact(params, g) == -np.inf


def test_marginal_cap():
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.5, 0.5], [0.5, 0.5]])
    g = Graph(24, np.zeros(24 * 23 // 2, dtype=bool))
    with pytest.raises(InfeasibleSizeError):
        marginal_log_lik_exact(params, g)  # 2**24 labelings, above ENUM_CAP


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

    counts, hn, ho = labeling_stats(4, 2, g.edges())
    grid = np.arange(0.05, 0.951, 0.05)
    p1, c11, c12, c22 = [a.ravel() for a in np.meshgrid(grid, grid, grid, grid, indexing="ij")]
    logpi = np.log(np.column_stack([p1, 1 - p1]))
    logP = np.log(np.column_stack([c11, c12, c22]))
    log1mP = np.log1p(-np.column_stack([c11, c12, c22]))
    ll = logsumexp(counts @ logpi.T + ho @ logP.T + (hn - ho) @ log1mP.T, axis=0)
    assert res.log_marginal >= ll.max() - 1e-2


def test_fit_above_exact_cap_raises():
    # the E-step enumerates k**n labelings; above the cap there is no
    # approximate fallback
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.9, 0.1], [0.1, 0.9]])
    _, g = sample_sbm(params, 18, 7)
    with pytest.raises(InfeasibleSizeError):
        fit_marginal_ml(g, 2)  # 2**18 > EM_CAP


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("complete", [False, True])
def test_fit_converges_on_empty_and_complete_graphs(n, complete):
    # the sup is 0 there, so the log-likelihood sits at rounding noise; the
    # convergence test needs an absolute floor to stop on it
    g = Graph(n, np.full(n * (n - 1) // 2, complete))
    for seed in range(4):
        fit = fit_marginal_ml(g, 2, seed=seed)
        assert fit.converged and fit.iterations < 20
        assert fit.log_marginal == pytest.approx(0.0, abs=1e-12)


def _suite_fits(n, seed=0):
    """k=2 fits of every graph on n nodes, one seed per graph."""
    graphs = list(enumerate_graphs(n))
    return [fit_marginal_ml(g, 2, seed=derive_seed(seed, n, 2, idx)) for idx, g in enumerate(graphs)]


def test_fit_histories_on_every_4_node_graph():
    fits = _suite_fits(4)
    assert len(fits) == 64
    for fit in fits:
        assert fit.estep == "exact"
        # exact EM never decreases the log-likelihood
        assert np.all(np.diff(fit.history) >= -1e-9)
        assert len(fit.history) == fit.iterations
        assert fit.history[-1] == fit.log_marginal


def test_fit_does_not_depend_on_the_byte_budget(monkeypatch):
    from ktsbm import likelihood, partitions

    default = _suite_fits(4)
    groups = []
    em_runs = likelihood._em_runs
    monkeypatch.setattr(likelihood, "_em_runs", lambda *a: groups.append(1) or em_runs(*a))
    monkeypatch.setattr(partitions, "_STATS_BYTES", 32 << 10)
    small = _suite_fits(4)
    assert len(groups) > 64  # fewer runs per group than starts per graph
    for want, got in zip(default, small):
        assert got.log_marginal == pytest.approx(want.log_marginal, abs=1e-12)
        assert got.converged == want.converged
        assert got.iterations == want.iterations


def test_fit_validation():
    g1 = Graph.from_edges(1, [])
    g4 = Graph.from_edges(4, [(0, 1)])
    with pytest.raises(ValidationError):
        fit_marginal_ml(g1, 2)
    invalid_sizes = [
        lambda: fit_marginal_ml(g4, 0),
        lambda: fit_marginal_ml(g4, -1),
        lambda: fit_marginal_ml(g4, 2, starts=0),
        lambda: profile_label_search(g4, 0),
        lambda: profile_label_search(g4, 2, restarts=0),
        lambda: sup_log_lik_upper_bound(g4, 0),
        lambda: log_kt_marginal_exact(g4, 0),
        lambda: log_kt_marginal_mc(g4, 0, 100, 0),
    ]
    for call in invalid_sizes:
        with pytest.raises(ValidationError):
            call()


# ------------------------------------------------- sup upper bound


def _brute_force_bound(g, k):
    """log sum over every z in {1..k}^n of exp(max_complete_log_lik(z, x, k))."""
    from scipy.special import logsumexp

    return logsumexp([
        max_complete_log_lik(LabelVector(np.array(z) + 1, k), g, k)
        for z in itertools.product(range(k), repeat=g.n)
    ])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sup_bound_matches_brute_force(n):
    rng = np.random.default_rng(n)
    for k in (1, 2, 3, 4):  # k > n included
        for p in (0.3, 0.7):
            g = Graph(n, rng.random(n * (n - 1) // 2) < p)
            assert sup_log_lik_upper_bound(g, k) == pytest.approx(_brute_force_bound(g, k), abs=1e-12)


def test_sup_bound_is_the_sup_at_k1():
    for n in (4, 5):
        pairs = n * (n - 1) // 2
        for g in enumerate_graphs(n):
            want = pairs * gamma_fn(g.edge_count / pairs)
            assert sup_log_lik_upper_bound(g, 1) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_em_value_lies_under_the_sup_bound(k):
    for idx, g in enumerate(enumerate_graphs(4)):
        assert fit_marginal_ml(g, k, seed=idx).log_marginal <= sup_log_lik_upper_bound(g, k)


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


# ------------------------------------------------------ gathered plug-in terms


def _direct_objective(counts, hn, ho, n):
    ratio = np.zeros(np.broadcast(ho, hn).shape)
    np.divide(ho, hn, out=ratio, where=hn > 0)
    label_term = xlogy(counts, counts / n).sum(axis=-1)
    return label_term + (xlogy(ho, ratio) + xlogy(hn - ho, 1.0 - ratio)).sum(axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 23, 24, 30])
def test_objective_cells_matches_xlogy_bitwise(n):
    # n <= 23 gathers from the (hn, ho) grid, n >= 24 runs the formula, at
    # every 0 <= ho <= hn <= n(n-1)/2 and on random rows of k = 3 blocks
    from ktsbm.likelihood import _objective_cells

    top = n * (n - 1) // 2
    rng = np.random.default_rng(n)
    hn, ho = np.tril_indices(top + 1)
    points = (np.zeros((hn.size, 0), dtype=np.int64), hn[:, None], ho[:, None])
    row_hn = rng.integers(0, top + 1, size=(200, 6))
    rows = (rng.multinomial(n, np.ones(3) / 3, size=200), row_hn, rng.integers(0, row_hn + 1))
    for counts, hn, ho in (points, rows):
        want = _direct_objective(counts, hn, ho, n)
        for dtype in (np.uint8, np.uint16, np.int64):
            if top <= np.iinfo(dtype).max:
                got = _objective_cells(counts, hn.astype(dtype), ho.astype(dtype), n)
                assert np.array_equal(got, want)
                assert np.array_equal(got, _direct_objective(counts, hn.astype(dtype), ho.astype(dtype), n))


def test_plug_in_gathers_every_per_partition_term(monkeypatch):
    # per-partition work must not slip back to xlogy: once a warm-up call has
    # built the plug-in terms of n, only arrays of at most k entries may reach it
    from ktsbm import likelihood, partitions, verify_prop31
    from ktsbm.partitions import _cell_grid

    k = 4
    g = Graph(10, np.random.default_rng(11).random(45) < 0.5)
    sizes = []

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return xlogy(x, *args, **kwargs)

    monkeypatch.setattr(likelihood, "xlogy", counting)
    _cell_grid.cache_clear()
    partitions._label_terms.cache_clear()
    profile_label_search(g, k)
    assert max(sizes) > k  # the warm-up built the terms through the patch
    sizes.clear()
    profile_label_search(g, k)
    verify_prop31(g, k)
    assert max(sizes, default=0) <= k
