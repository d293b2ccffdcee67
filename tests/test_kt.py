import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from ktsbm import (
    Graph,
    LabelVector,
    ValidationError,
    gamma_composition_inequality,
    log_kt_graph_given_labels,
    log_kt_labels,
    log_kt_marginal_exact,
    log_kt_marginal_mc,
    prop31_bound,
    verify_prop31,
)
from ktsbm.seeds import derive_seed, rng_from_seed


def random_graph(rng, n, p=0.5):
    return Graph(n, rng.random(n * (n - 1) // 2) < p)


# ----------------------------------------------------------------- K(z)


def test_kt_labels_hand_values():
    assert log_kt_labels(LabelVector([1], 1), 1) == pytest.approx(0.0)
    assert log_kt_labels(LabelVector([1], 2), 2) == pytest.approx(math.log(0.5))
    assert log_kt_labels(LabelVector([1, 2], 2), 2) == pytest.approx(math.log(1 / 8))
    assert log_kt_labels(LabelVector([1, 1], 2), 2) == pytest.approx(math.log(3 / 8))
    # the four labelings of n=2 sum to one
    total = 2 * (3 / 8) + 2 * (1 / 8)
    assert total == 1.0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_kt_labels_normalization(n, k):
    total = sum(
        math.exp(log_kt_labels(LabelVector(lab, k), k))
        for lab in itertools.product(range(1, k + 1), repeat=n)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_kt_labels_exchangeability():
    rng = np.random.default_rng(0)
    labels = rng.integers(1, 4, size=9)
    k = 3
    base = log_kt_labels(LabelVector(labels, k), k)
    # node order
    perm = rng.permutation(9)
    assert log_kt_labels(LabelVector(labels[perm], k), k) == pytest.approx(base)
    # label values
    relab = np.array([3, 1, 2])[labels - 1]
    assert log_kt_labels(LabelVector(relab, k), k) == pytest.approx(base)


# --------------------------------------------------------------- K(x|z)


def test_kt_graph_hand_values():
    z = LabelVector([1, 1], 1)
    g1 = Graph.from_edges(2, [(0, 1)])
    g0 = Graph.from_edges(2, [])
    assert log_kt_graph_given_labels(z, g1, 1) == pytest.approx(math.log(0.5))
    z12 = LabelVector([1, 2], 2)
    assert log_kt_graph_given_labels(z12, g0, 2) == pytest.approx(math.log(0.5))
    # normalization over the two graphs on an edgeless pair of blocks
    total = math.exp(log_kt_graph_given_labels(z, g0, 1)) + math.exp(
        log_kt_graph_given_labels(z, g1, 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kt_graph_normalization_n4(k):
    rng = np.random.default_rng(k)
    labels = rng.integers(1, k + 1, size=4)
    z = LabelVector(labels, k)
    total = 0.0
    for code in range(64):
        bits = (code >> np.arange(6)) & 1
        total += math.exp(log_kt_graph_given_labels(z, Graph(4, bits.astype(bool)), k))
    assert total == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------------------- K(x)


def test_kt_marginal_hand_values():
    g1 = Graph.from_edges(2, [(0, 1)])
    assert log_kt_marginal_exact(g1, 1).log_value == pytest.approx(math.log(0.5))
    # sum_z K(z) K(x|z) = (3/8 + 1/8 + 1/8 + 3/8) * 1/2 = 1/2
    assert log_kt_marginal_exact(g1, 2).log_value == pytest.approx(math.log(0.5))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kt_marginal_normalization_n3(k):
    total = 0.0
    for code in range(8):
        bits = (code >> np.arange(3)) & 1
        total += math.exp(log_kt_marginal_exact(Graph(3, bits.astype(bool)), k).log_value)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_kt_marginal_matches_unreduced_enumeration():
    rng = np.random.default_rng(5)
    for n, k in [(4, 2), (4, 3), (5, 2)]:
        g = random_graph(rng, n)
        vals = [
            log_kt_labels(LabelVector(lab, k), k)
            + log_kt_graph_given_labels(LabelVector(lab, k), g, k)
            for lab in itertools.product(range(1, k + 1), repeat=n)
        ]
        assert log_kt_marginal_exact(g, k).log_value == pytest.approx(
            logsumexp(vals), abs=1e-11
        )


def test_kt_marginal_node_permutation_invariance():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 7)
    perm = rng.permutation(7)
    a = log_kt_marginal_exact(g, 3).log_value
    b = log_kt_marginal_exact(g.permute_nodes(perm), 3).log_value
    assert a == pytest.approx(b, abs=1e-11)


# ------------------------------------------------------- ratio bounds


def test_label_ratio_bound():
    # sup_pi P(z) / K(z) <= Gamma(1/2) Gamma(n+k/2) / (Gamma(k/2) Gamma(n+1/2))
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        labels = rng.integers(1, k + 1, size=n)
        counts = np.bincount(labels - 1, minlength=k)
        sup_log = float(np.sum(counts * np.log(np.maximum(counts, 1) / n)))
        ratio = sup_log - log_kt_labels(LabelVector(labels, k), k)
        bound = (
            gammaln(0.5) + gammaln(n + k / 2) - gammaln(k / 2) - gammaln(n + 0.5)
        )
        assert ratio <= bound + 1e-9


def test_cell_ratio_bound():
    # per-cell: sup P(cell) / K(cell) <= Gamma(1/2) Gamma(hn+1) / Gamma(hn+1/2)
    from ktsbm.kt import _cell_log_pred

    rng = np.random.default_rng(8)
    for _ in range(200):
        hn = int(rng.integers(1, 40))
        ho = int(rng.integers(0, hn + 1))
        p = ho / hn
        sup_log = (ho * math.log(p) if ho else 0.0) + (
            (hn - ho) * math.log(1 - p) if hn - ho else 0.0
        )
        ratio = sup_log - float(_cell_log_pred(np.array([ho]), np.array([hn]))[0])
        bound = gammaln(0.5) + gammaln(hn + 1.0) - gammaln(hn + 0.5)
        assert ratio <= bound + 1e-9


# ----------------------------------------------------------- Monte Carlo


def test_mc_zero_variance_at_k1():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 5)
    exact = log_kt_marginal_exact(g, 1).log_value
    mc = log_kt_marginal_mc(g, 1, 200, seed=1)
    assert mc.std_error == 0.0
    assert mc.log_value == pytest.approx(exact, abs=1e-12)


def test_mc_ess_at_most_samples_and_full_at_k1():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 8)
    for k in (2, 3):
        mc = log_kt_marginal_mc(g, k, 2000, seed=k)
        assert 1.0 <= mc.ess <= mc.samples
    # at k=1 every draw has the same weight K(x|z)
    mc = log_kt_marginal_mc(g, 1, 500, seed=1)
    assert mc.ess == pytest.approx(500, rel=1e-9)
    assert log_kt_marginal_exact(g, 2).ess is None


def test_mc_small_case_close_to_exact():
    g = Graph.from_edges(2, [(0, 1)])
    mc = log_kt_marginal_mc(g, 2, 10**5, seed=2)
    # every labeling of a single pair has predictive 1/2, so the estimator
    # is exact up to float epsilon and std_error is 0
    assert abs(mc.log_value - math.log(0.5)) <= 3 * mc.std_error + 1e-12


def test_mc_n6_within_4_sigma():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 6)
    exact = log_kt_marginal_exact(g, 2).log_value
    mc = log_kt_marginal_mc(g, 2, 10**6, seed=3)
    assert abs(mc.log_value - exact) <= 4 * mc.std_error
    assert mc.method == "monte_carlo" and mc.samples == 10**6


def test_mc_std_error_scales_like_inverse_sqrt():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 6)
    sizes = np.array([10**3, 10**4, 10**5])
    errs = np.array(
        [log_kt_marginal_mc(g, 2, int(s), seed=4).std_error for s in sizes]
    )
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_mc_validation():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValidationError):
        log_kt_marginal_mc(g, 2, 50, seed=0)


# ------------------------------------------------------------ the bound


def test_prop31_constants():
    b = prop31_bound(1, 10**9)
    assert b.c_kn == pytest.approx(0.5 * math.log(math.pi) + 7 / 6, abs=1e-6)
    assert b.slope == 1.0
    b4 = prop31_bound(1, 4)
    assert b4.c_kn == pytest.approx(0.5 * math.log(math.pi) + 7 / 6 + 1 / 48)
    assert prop31_bound(2, 100).slope == 3.5
    with pytest.raises(ValidationError):
        prop31_bound(2, 3)
    with pytest.raises(ValidationError):
        prop31_bound(7, 6)


def test_prop31_c_decreasing_in_n():
    for k in (1, 2, 5):
        values = [prop31_bound(k, n).c_kn for n in range(max(4, k), 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_verify_prop31_empty_graph():
    g = Graph.from_edges(5, [])
    lhs, rhs, holds = verify_prop31(g, 1, sup_approx=0.0)  # p_hat = 0 -> sup = 1
    assert lhs >= 0.0
    assert holds


def test_verify_prop31_all_graphs_n4_k1():
    from ktsbm import enumerate_graphs
    from ktsbm.likelihood import gamma_fn

    for g in enumerate_graphs(4):
        sup = 6 * gamma_fn(g.edge_count / 6)
        _, _, holds = verify_prop31(g, 1, sup)
        assert holds


# --------------------------------------------------- Gamma composition


def test_gamma_composition_equality_at_j1():
    for n in (1, 5, 50):
        lhs, rhs, holds = gamma_composition_inequality([n])
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert holds


def test_gamma_composition_j2_hand_value():
    lhs, rhs, holds = gamma_composition_inequality([1, 1])
    assert math.exp(lhs) == pytest.approx(1 / math.pi)
    assert math.exp(rhs) == pytest.approx(4 / (3 * math.pi))
    assert holds


def test_gamma_composition_random_sweep():
    rng = rng_from_seed(derive_seed(42, 0))
    for _ in range(1000):
        j = int(rng.integers(1, 11))
        parts = rng.integers(1, max(200 // j, 1) + 1, size=j)
        lhs, rhs, holds = gamma_composition_inequality(parts)
        assert holds, (parts, lhs, rhs)


def test_gamma_composition_validation():
    with pytest.raises(ValidationError):
        gamma_composition_inequality([])
    with pytest.raises(ValidationError):
        gamma_composition_inequality([0, 2])
