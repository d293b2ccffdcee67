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
    for n, k in [(4, 2), (4, 3), (5, 2), (2, 4), (3, 5)]:  # k > n: multiplicities past n
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
    from ktsbm.kt import _beta_log_pred, _cell_terms

    rng = np.random.default_rng(8)
    for _ in range(200):
        hn = int(rng.integers(1, 40))
        ho = int(rng.integers(0, hn + 1))
        p = ho / hn
        sup_log = (ho * math.log(p) if ho else 0.0) + (
            (hn - ho) * math.log(1 - p) if hn - ho else 0.0
        )
        ratio = sup_log - float(_cell_terms(_beta_log_pred, 10, np.array([hn]), np.array([ho]))[0])
        bound = gammaln(0.5) + gammaln(hn + 1.0) - gammaln(hn + 0.5)
        assert ratio <= bound + 1e-9


# ------------------------------------------------------ log-Gamma tables


@pytest.mark.parametrize("n", [1, 2, 3, 12, 22, 23, 24, 30])
def test_cell_log_pred_matches_gammaln_bitwise(n):
    # n <= 23 gathers from the (hn, ho) grid, n >= 24 runs the formula; the
    # table hands in uint8 or uint16 counts and cell_stats int64
    from ktsbm.kt import _LOG_PI, _beta_log_pred, _cell_terms

    top = n * (n - 1) // 2
    hn, ho = np.tril_indices(top + 1)  # every 0 <= ho <= hn <= top
    direct = gammaln(ho + 0.5) + gammaln(hn - ho + 0.5) - gammaln(hn + 1.0) - _LOG_PI
    want = np.where(hn > 0, direct, 0.0)
    for dtype in (np.uint8, np.uint16, np.int64):
        if top <= np.iinfo(dtype).max:
            got = _cell_terms(_beta_log_pred, n, hn.astype(dtype), ho.astype(dtype))
            assert np.array_equal(got, want)


def test_private_logsumexp_matches_scipy_bitwise():
    from ktsbm.kt import _logsumexp

    rng = np.random.default_rng(10)
    vectors = [rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=rng.integers(1, 3000)) for _ in range(300)]
    vectors += [
        np.array([-3.5]),
        np.array([2.0, 2.0, -1.0, 2.0]),  # tied maxima
        np.full(7, -12.25),
        rng.uniform(-1e3, 0.0, size=500),  # spread of 1e3
        np.array([-np.inf, -1.0, -np.inf]),
        np.full(3, -np.inf),
    ]
    for v in vectors:
        v = v.copy()
        v[rng.integers(0, v.size, size=v.size // 7)] = v.max()  # more ties
        assert _logsumexp(v) == logsumexp(v)
    # row-wise over the last axis, each row to the bit of its 1-d value,
    # also in Fortran order, where numpy sums rows in another order
    for width in (1, 3, 16, 300):
        rows = rng.normal(0.0, 50.0, size=(40, width))
        rows[::3, 0] = rows[::3].max(axis=1)  # ties
        rows[1::7] = -np.inf
        want = [_logsumexp(r) for r in rows]
        for a in (rows, np.asfortranarray(rows)):
            assert _logsumexp(a).tolist() == want


@pytest.mark.parametrize("n,m_max", [(1, 1), (6, 3), (9, 9)])
def test_partition_table_label_part(n, m_max):
    from ktsbm.partitions import partition_table

    table = partition_table(n, m_max)
    counts = (table.codes[..., None] == np.arange(m_max)).sum(axis=1)  # the table keeps no block sizes
    want = (gammaln(counts + 0.5) - gammaln(0.5)).sum(axis=1)
    assert np.array_equal(table.label_part, want)


def test_exact_kt_past_the_int8_range_of_block_counts():
    # k - m for k > 127 and int8 block counts m; the value of the table
    # with int64 block counts, frozen like the Monte Carlo values below
    g = random_graph(np.random.default_rng(7), 5)
    assert log_kt_marginal_exact(g, 200).log_value == -6.950742892606744


def test_estimate_gathers_every_per_partition_term(monkeypatch):
    # per-partition work must not slip back to gammaln: only scalars and
    # per-k vectors may reach it once the partition table is built
    from ktsbm import PenaltySpec, estimate_order, kt
    from ktsbm.partitions import partition_table

    k_max = 4
    g = random_graph(np.random.default_rng(11), 10)
    partition_table(10, k_max)
    sizes = []

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return gammaln(x, *args, **kwargs)

    monkeypatch.setattr(kt, "gammaln", counting)
    estimate_order(g, PenaltySpec(), k_max)
    assert sizes and max(sizes) <= k_max


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


@pytest.mark.parametrize(
    "n, p, k, samples, seed, want",
    [
        # counts in uint16 past n = 23
        (30, 0.3, 4, 4000, 5, (-278.1683952824265, 0.06427296691436431, 228.31146544442228)),
        # two blocks of label draws
        (6, 0.5, 2, 600_000, 6, (-10.318997893389914, 0.006748835181973315, 21180.442363758917)),
    ],
)
def test_mc_values_are_frozen(n, p, k, samples, seed, want):
    # frozen from the per-edge recount that the node-append step replaced;
    # every count is an integer, so the values may not move by one bit
    g = random_graph(np.random.default_rng(seed), n, p)
    mc = log_kt_marginal_mc(g, k, samples, seed)
    assert (mc.log_value, mc.std_error, mc.ess) == want


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


def _closed_form_lhs_k1(g):
    """m gamma(edges/m) - log K_1(x) with m = n(n-1)/2: at k = 1 the sup of
    the likelihood is the plug-in value of the one labeling."""
    from ktsbm.likelihood import gamma_fn

    m = g.n * (g.n - 1) // 2
    return m * gamma_fn(g.edge_count / m) - log_kt_marginal_exact(g, 1).log_value


def test_verify_prop31_empty_graph():
    g = Graph.from_edges(5, [])
    lhs, rhs, holds = verify_prop31(g, 1)  # p_hat = 0 -> log sup = 0
    assert lhs == pytest.approx(_closed_form_lhs_k1(g), abs=1e-12)
    assert lhs >= 0.0
    assert holds


def test_verify_prop31_all_graphs_n4_k1():
    from ktsbm import enumerate_graphs

    for g in enumerate_graphs(4):
        lhs, rhs, holds = verify_prop31(g, 1)
        assert lhs == pytest.approx(_closed_form_lhs_k1(g), abs=1e-12)
        assert holds


@pytest.mark.parametrize("n", [4, 5])
def test_verify_prop31_is_the_sup_bound_minus_log_kt(n):
    # one table pass gives both terms, to the bit
    from ktsbm import enumerate_graphs
    from ktsbm.likelihood import sup_log_lik_upper_bound

    for g in enumerate_graphs(n):
        for k in (1, 2, 3):
            want = sup_log_lik_upper_bound(g, k) - log_kt_marginal_exact(g, k).log_value
            lhs, rhs, holds = verify_prop31(g, k)
            assert lhs == want and rhs == prop31_bound(k, n).rhs and holds


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_certificate_equals_one_graph_at_a_time(monkeypatch, k):
    # all 1024 graphs on 5 nodes in one batch; under a 4 KiB budget the
    # batch is certified one graph at a time
    from ktsbm import enumerate_graphs, partitions
    from ktsbm.kt import log_kt_exact_batch, verify_prop31_batch
    from ktsbm.sbm import graph_pairs

    pairs = np.concatenate(list(graph_pairs(5)))
    one = np.array([verify_prop31(g, k) for g in enumerate_graphs(5)])
    lhs, rhs, holds = verify_prop31_batch(5, pairs, k)
    kt = log_kt_exact_batch(5, pairs, [k])[:, 0]
    assert np.allclose(lhs, one[:, 0], rtol=0.0, atol=1e-12)
    assert rhs == prop31_bound(k, 5).rhs and holds.all() and one[:, 2].all()
    monkeypatch.setattr(partitions, "_STATS_BYTES", 4 << 10)
    small = verify_prop31_batch(5, pairs, k)
    assert np.array_equal(small[0], lhs) and small[1] == rhs and np.array_equal(small[2], holds)
    assert np.array_equal(log_kt_exact_batch(5, pairs, [k])[:, 0], kt)


@pytest.mark.parametrize(
    "n, pairs, match",
    [
        # one graph's bits as a 1-d row were taken for one graph per bit
        (4, np.zeros(6, bool), "2-d bool array"),
        (4, np.zeros((3, 5), bool), r"n\(n-1\)/2 = 6 columns"),
        # a 2 would count its edge once where every graph has it and twice
        # in the per-graph product
        (4, np.full((3, 6), 2), "got int"),
        (4.5, np.zeros((3, 6), bool), "n must be an integer"),
    ],
    ids=["one-row", "width", "int-bits", "float-n"],
)
def test_edge_bit_batch_is_checked_where_it_enters(n, pairs, match):
    from ktsbm.kt import log_kt_exact_batch, verify_prop31_batch

    for call in (lambda: log_kt_exact_batch(n, pairs, [2]), lambda: verify_prop31_batch(n, pairs, 2)):
        with pytest.raises(ValidationError, match=match):
            call()


def test_exact_batch_needs_a_k():
    from ktsbm.kt import log_kt_exact_batch

    with pytest.raises(ValidationError, match="at least one k"):
        log_kt_exact_batch(4, np.zeros((3, 6), bool), [])


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
