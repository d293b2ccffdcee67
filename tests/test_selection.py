import math
from fractions import Fraction

import numpy as np
import pytest

from ktsbm import (
    Graph,
    LabelVector,
    PenaltySpec,
    SbmParams,
    ValidationError,
    dense_gap,
    empirical_underfit_ratio,
    estimate_order,
    identical_columns,
    merge_blocks,
    overestimation_bound,
    penalty,
    penalty_closed_coefficient,
    penalty_sum_coefficient,
    prop31_bound,
    sample_sbm,
    sparse_gap,
)
from ktsbm.seeds import derive_seed

DENSE_GAP_REF = 0.0963723785108787  # 1/2 (gamma(1/2) - gamma(4/5)), by hand
SPARSE_GAP_REF = 0.0602327365692992  # 1/2 [ (tau(1)+tau(1/4))/2 - tau(5/8) ]


# ---------------------------------------------------------------- penalty


def test_penalty_values():
    spec = PenaltySpec(1.0)
    assert penalty(1, 100, spec) == 0.0
    assert penalty(2, 100, spec) == pytest.approx(3.5 * math.log(100))
    inc = penalty(3, 50, spec) - penalty(2, 50, spec)
    assert inc == pytest.approx(6.0 * math.log(50))  # (2*4 + 3 + 1)/2


def test_penalty_identity_exact_rationals():
    for eps in (Fraction(1), Fraction(1, 2), Fraction(7, 3)):
        for k in range(1, 51):
            assert penalty_sum_coefficient(k, eps) == penalty_closed_coefficient(k, eps)


def test_penalty_increment_coefficient():
    # the combination (k(k+2)-1)/2 + pen-coef(k) - pen-coef(k+1) collapses
    # to -(2 + eps/2) for every k, the rate that drives overestimation decay
    for eps in (Fraction(1), Fraction(3, 7)):
        for k in range(1, 20):
            combo = (
                Fraction(k * (k + 2) - 1, 2)
                + penalty_sum_coefficient(k, eps)
                - penalty_sum_coefficient(k + 1, eps)
            )
            assert combo == -(2 + eps / 2)


def test_penalty_strictly_increasing():
    spec = PenaltySpec(0.5)
    vals = [penalty(k, 30, spec) for k in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_penalty_spec_validation():
    with pytest.raises(ValidationError):
        PenaltySpec(0.0)


# ----------------------------------------------------------- estimation


def test_estimate_empty_graph_picks_k1():
    g = Graph.from_edges(6, [])
    k_hat, table = estimate_order(g, PenaltySpec(1.0), k_max=3)
    assert k_hat == 1
    assert table.rows[0].pen == 0.0
    pens = [r.pen for r in table.rows]
    assert all(b > a for a, b in zip(pens, pens[1:]))


def test_estimate_single_node():
    g = Graph.from_edges(1, [])
    k_hat, table = estimate_order(g, PenaltySpec(1.0), k_max=3)
    assert k_hat == 1
    # every k gives the trivial likelihood and pen = coef * log(1) = 0
    assert all(abs(r.score) < 1e-12 for r in table.rows)


def test_estimate_node_permutation_invariance():
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.9, 0.1], [0.1, 0.9]])
    _, g = sample_sbm(params, 9, 31)
    perm = np.random.default_rng(1).permutation(9)
    k1, t1 = estimate_order(g, PenaltySpec(1.0), k_max=4)
    k2, t2 = estimate_order(g.permute_nodes(perm), PenaltySpec(1.0), k_max=4)
    assert k1 == k2
    assert np.allclose(t1.scores(), t2.scores(), rtol=1e-12, atol=1e-12)


def test_estimate_mc_agrees_with_exact_small_n():
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.9, 0.1], [0.1, 0.9]])
    _, g = sample_sbm(params, 8, 17)
    k_exact, _ = estimate_order(g, PenaltySpec(1.0), k_max=3)
    k_mc, table = estimate_order(g, PenaltySpec(1.0), k_max=3, kt_method="mc:1000000", seed=9)
    assert k_mc == k_exact
    assert all(r.method == "mc:1000000" for r in table.rows)
    assert all(r.std_error is not None and r.std_error >= 0 for r in table.rows)


def test_estimate_planted_k2_modal():
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.9, 0.1], [0.1, 0.9]])
    hits = 0
    for t in range(40):
        _, g = sample_sbm(params, 10, derive_seed(2024, 10, t))
        k_hat, _ = estimate_order(g, PenaltySpec(1.0), k_max=4)
        hits += k_hat == 2
    assert hits >= 15  # modal behavior shows up already on 40 trials


def test_estimate_validation():
    g = Graph.from_edges(3, [])
    with pytest.raises(ValidationError):
        estimate_order(g, PenaltySpec(1.0), k_max=0)
    with pytest.raises(ValidationError):
        estimate_order(g, PenaltySpec(1.0), k_max=2, kt_method="bogus")


# -------------------------------------------------- overestimation bound


def test_overestimation_bound_assembly():
    spec = PenaltySpec(1.0)
    n = 50
    got = overestimation_bound(1, 2, n, spec)
    want = math.exp(-2.5 * math.log(n) + prop31_bound(1, n).c_kn)
    assert got == pytest.approx(want)


def test_overestimation_bound_decreasing_in_k():
    spec = PenaltySpec(1.0)
    vals = [overestimation_bound(2, k, 40, spec) for k in range(3, 8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_overestimation_bound_validation():
    spec = PenaltySpec(1.0)
    with pytest.raises(ValidationError):
        overestimation_bound(2, 2, 50, spec)
    with pytest.raises(ValidationError):
        overestimation_bound(1, 2, 3, spec)


# ------------------------------------------------------------- merging


def test_merge_two_blocks_hand_value():
    p, q = 0.7, 0.2
    res = merge_blocks([0.5, 0.5], [[p, q], [q, p]], 1, 2)
    assert res.pi_star.tolist() == [1.0]
    assert res.P_star[0, 0] == pytest.approx((p + q) / 2)
    assert res.merged_pair == (1, 2)


def test_merge_identical_columns_keeps_rates():
    P = np.array(
        [[0.5, 0.5, 0.3], [0.5, 0.5, 0.3], [0.3, 0.3, 0.8]]
    )  # columns 1 and 2 identical
    res = merge_blocks([0.2, 0.3, 0.5], P, 1, 2)
    assert res.P_star[0, 1] == pytest.approx(0.3)
    assert res.P_star[0, 0] == pytest.approx(0.5)
    assert res.P_star[1, 1] == pytest.approx(0.8)


def test_merge_untouched_rows_identical():
    rng = np.random.default_rng(2)
    k = 5
    pi = rng.dirichlet(np.ones(k))
    P = np.triu(rng.random((k, k)))
    P = P + np.triu(P, 1).T
    res = merge_blocks(pi, P, 2, 4)
    untouched_old = [0, 2, 4]
    untouched_new = [0, 2, 3]
    assert np.allclose(
        res.P_star[np.ix_(untouched_new, untouched_new)],
        P[np.ix_(untouched_old, untouched_old)],
    )


def test_merge_preserves_mean_density():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        pi = rng.dirichlet(np.ones(k))
        P = np.triu(rng.random((k, k)))
        P = P + np.triu(P, 1).T
        a, b = rng.choice(np.arange(1, k + 1), size=2, replace=False)
        res = merge_blocks(pi, P, int(a), int(b))
        before = pi @ P @ pi
        after = res.pi_star @ res.P_star @ res.pi_star
        assert after == pytest.approx(before, abs=1e-12)


def test_merge_commutes_with_permutation():
    rng = np.random.default_rng(4)
    k = 4
    pi = rng.dirichlet(np.ones(k))
    P = np.triu(rng.random((k, k)))
    P = P + np.triu(P, 1).T
    # merging (3, 4) after swapping blocks 1 and 2 equals swapping after merging
    perm = np.array([1, 0, 2, 3])
    res_direct = merge_blocks(pi[perm], P[np.ix_(perm, perm)], 3, 4)
    res_then = merge_blocks(pi, P, 3, 4)
    perm3 = np.array([1, 0, 2])
    assert np.allclose(res_direct.pi_star, res_then.pi_star[perm3])
    assert np.allclose(res_direct.P_star, res_then.P_star[np.ix_(perm3, perm3)])


def test_merge_validation():
    with pytest.raises(ValidationError):
        merge_blocks([1.0], [[0.5]], 1, 1)
    with pytest.raises(ValidationError):
        merge_blocks([0.5, 0.5], [[0.5, 0.2], [0.2, 0.5]], 1, 1)
    with pytest.raises(ValidationError):
        merge_blocks([0.5, 0.5], [[0.5, 0.2], [0.2, 0.5]], 1, 3)


# ----------------------------------------------------------------- gaps


def test_dense_gap_reference_value():
    res = dense_gap([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
    assert res.gap == pytest.approx(DENSE_GAP_REF, abs=1e-9)
    assert res.best_pair == (1, 2)
    assert res.merged.P_star[0, 0] == pytest.approx(0.5)


def test_sparse_gap_reference_value():
    res = sparse_gap([0.5, 0.5], [[1.0, 0.25], [0.25, 1.0]])
    assert res.gap == pytest.approx(SPARSE_GAP_REF, abs=1e-9)
    assert res.merged.P_star[0, 0] == pytest.approx(0.625)


def test_gap_zero_for_identical_columns():
    P = np.array([[0.5, 0.5, 0.2], [0.5, 0.5, 0.2], [0.2, 0.2, 0.9]])
    res = dense_gap([0.3, 0.3, 0.4], P)
    assert res.gap == pytest.approx(0.0, abs=1e-12)
    assert res.best_pair == (1, 2)
    assert identical_columns(P) == (1, 2)
    res = sparse_gap([0.5, 0.5], [[1.0, 1.0], [1.0, 1.0]])
    assert res.gap == pytest.approx(0.0, abs=1e-12)


def test_gap_invariant_under_permutation():
    rng = np.random.default_rng(5)
    pi = rng.dirichlet(np.ones(3))
    P = np.triu(rng.random((3, 3)))
    P = P + np.triu(P, 1).T
    perm = np.array([2, 0, 1])
    g1 = dense_gap(pi, P).gap
    g2 = dense_gap(pi[perm], P[np.ix_(perm, perm)]).gap
    assert g1 == pytest.approx(g2, abs=1e-12)


def test_gap_nonnegative_random_sweep():
    rng = np.random.default_rng(6)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        pi = rng.dirichlet(np.ones(k))
        P = np.triu(rng.random((k, k)))
        P = P + np.triu(P, 1).T
        assert dense_gap(pi, P).gap >= -1e-12
        assert sparse_gap(pi, P).gap >= -1e-12


def test_gap_validation():
    with pytest.raises(ValidationError):
        dense_gap([1.0], [[0.5]])


# ------------------------------------------------------ under-fit ratio


def test_underfit_ratio_positive_small_exact():
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.95, 0.05], [0.05, 0.95]])
    z, g = sample_sbm(params, 8, derive_seed(40, 8, 0))
    r = empirical_underfit_ratio(z, g, 2, mode="exact")
    assert r > 0


def test_underfit_ratio_vanishes_for_reducible_model():
    # identical columns: the two blocks are indistinguishable, so the
    # one-block profile fit gives up almost nothing
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.5, 0.5], [0.5, 0.5]])
    vals = []
    for n in (30, 120):
        z, g = sample_sbm(params, n, derive_seed(41, n, 0))
        vals.append(abs(empirical_underfit_ratio(z, g, 2, mode="local", restarts=5, seed=0)))
    assert vals[1] < vals[0]
    assert vals[1] < 0.01


def test_underfit_ratio_approaches_dense_gap():
    pi0 = [0.5, 0.5]
    P0 = [[0.8, 0.2], [0.2, 0.8]]
    params = SbmParams(k=2, pi=pi0, P=P0)
    gap = dense_gap(pi0, P0).gap
    rels = []
    for n in (50, 100, 200):
        z, g = sample_sbm(params, n, derive_seed(42, n, 0))
        r = empirical_underfit_ratio(z, g, 2, mode="local", restarts=20, seed=0)
        rels.append(abs(r - gap) / gap)
    assert rels[-1] <= 0.25
    assert rels[-1] < rels[0]  # tightening with n


def test_underfit_ratio_validation():
    z = LabelVector([1, 1], 1)
    g = Graph.from_edges(2, [])
    with pytest.raises(ValidationError):
        empirical_underfit_ratio(z, g, 1)
