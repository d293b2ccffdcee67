import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktsbm import (
    Graph,
    LabelVector,
    SbmParams,
    SparseSchedule,
    ValidationError,
    cell_stats,
    enumerate_graphs,
    realize_sparse,
    sample_sbm,
)
from ktsbm.seeds import derive_seed, mix64

from oracles import naive_cells


def test_params_validation():
    SbmParams(k=2, pi=[0.3, 0.7], P=[[0.5, 0.1], [0.1, 0.9]])
    with pytest.raises(ValidationError):
        SbmParams(k=2, pi=[0.3, 0.6], P=[[0.5, 0.1], [0.1, 0.9]])  # does not sum to 1
    with pytest.raises(ValidationError):
        SbmParams(k=2, pi=[0.0, 1.0], P=[[0.5, 0.1], [0.1, 0.9]])  # zero weight
    with pytest.raises(ValidationError):
        SbmParams(k=2, pi=[0.5, 0.5], P=[[0.5, 1.2], [1.2, 0.9]])  # out of range
    with pytest.raises(ValidationError):
        SbmParams(k=2, pi=[0.5, 0.5], P=[[0.5, 0.1], [0.4, 0.9]])  # asymmetric


def test_params_exact_symmetry_after_storage():
    p = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.5, 0.1 + 1e-12], [0.1, 0.9]])
    assert np.array_equal(p.P, p.P.T)


def test_label_vector_validation():
    LabelVector([1, 2, 1], 2)
    with pytest.raises(ValidationError):
        LabelVector([0, 1], 2)
    with pytest.raises(ValidationError):
        LabelVector([1, 3], 2)


def test_label_vector_rejects_labels_that_are_not_integers():
    # 1.5 became 1, and True became label 1
    for labels, k in (([1.5, 2], 2), ([1.0, 2.0], 2), ([True, True], 1), (["1", "2"], 2)):
        with pytest.raises(ValidationError, match="labels must be integers"):
            LabelVector(labels, k)
    assert len(LabelVector([], 1)) == 0
    assert LabelVector(np.array([1, 2], dtype=np.uint8), 2).labels.tolist() == [1, 2]


def test_graph_validation():
    g = Graph.from_adjacency([[0, 1], [1, 0]])
    assert g.edge_count == 1
    with pytest.raises(ValidationError):
        Graph.from_adjacency([[1, 0], [0, 0]])  # diagonal
    with pytest.raises(ValidationError):
        Graph.from_adjacency([[0, 1], [0, 0]])  # asymmetric
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 0)])  # self loop


def test_forced_graphs():
    params = SbmParams(k=1, pi=[1.0], P=[[1.0]])
    _, g = sample_sbm(params, 3, 42)
    assert g.edge_count == 3  # complete
    params = SbmParams(k=1, pi=[1.0], P=[[0.0]])
    _, g = sample_sbm(params, 5, 42)
    assert g.edge_count == 0


def test_sampling_deterministic():
    params = SbmParams(k=2, pi=[0.4, 0.6], P=[[0.7, 0.2], [0.2, 0.5]])
    z1, g1 = sample_sbm(params, 30, 99)
    z2, g2 = sample_sbm(params, 30, 99)
    assert z1 == z2 and g1 == g2
    z3, g3 = sample_sbm(params, 30, 100)
    assert g3 != g1 or z3 != z1


def test_empirical_density_matches_analytic_expectation():
    # analytic oracle: expected density = sum_ab pi_a pi_b P_ab = 0.5
    params = SbmParams(k=2, pi=[0.5, 0.5], P=[[0.8, 0.2], [0.2, 0.8]])
    assert params.expected_density() == pytest.approx(0.5)
    dens = [sample_sbm(params, 200, derive_seed(5, s))[1].density() for s in range(1000)]
    assert 0.49 <= np.mean(dens) <= 0.51


def test_cell_stats_hand_examples():
    z = LabelVector([1, 1], 1)
    g = Graph.from_edges(2, [(0, 1)])
    counts, hn, ho = cell_stats(z, g, 1)
    assert counts.tolist() == [2]
    assert hn.tolist() == [1]
    assert ho.tolist() == [1]

    z = LabelVector([1, 2, 1], 2)
    g = Graph.from_edges(3, [(0, 1)])
    counts, hn, ho = cell_stats(z, g, 2)  # cells (1,1) (1,2) (2,2)
    assert counts.tolist() == [2, 1]
    assert hn.tolist() == [1, 2, 0]
    assert ho.tolist() == [0, 1, 0]


def test_cell_stats_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        labels = rng.integers(1, k + 1, size=n)
        adj = np.triu((rng.random((n, n)) < 0.4).astype(int), 1)
        adj = adj + adj.T
        counts, hn, ho = cell_stats(LabelVector(labels, k), Graph.from_adjacency(adj), k)
        n_a, pairs, edges = naive_cells(labels.tolist(), adj.tolist(), k)
        # int64, so that callers can update them in place
        assert counts.dtype == hn.dtype == ho.dtype == np.int64
        assert np.array_equal(counts, n_a)
        assert np.array_equal(hn, pairs)
        assert np.array_equal(ho, edges)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(2, 50), k=st.integers(1, 4))
def test_stats_invariants_on_sampled_pairs(seed, n, k):
    pi = np.full(k, 1.0 / k)
    P = np.full((k, k), 0.3)
    np.fill_diagonal(P, 0.6)
    params = SbmParams(k=k, pi=pi, P=P)
    z, g = sample_sbm(params, n, seed)
    counts, hn, ho = cell_stats(z, g, k)
    assert counts.sum() == n
    assert hn.sum() == n * (n - 1) // 2
    assert ho.sum() == g.edge_count
    assert np.all(ho <= hn)


def test_relabeling_invariance():
    rng = np.random.default_rng(8)
    k = 3
    labels = rng.integers(1, k + 1, size=8)
    adj = np.triu((rng.random((8, 8)) < 0.5).astype(int), 1)
    adj = adj + adj.T
    g = Graph.from_adjacency(adj)
    perm = np.array([2, 0, 1])  # label a -> perm[a-1]+1
    counts, hn, ho = cell_stats(LabelVector(labels, k), g, k)
    counts2, hn2, ho2 = cell_stats(LabelVector(perm[labels - 1] + 1, k), g, k)
    upper = [(a, b) for a in range(k) for b in range(a, k)]
    # cell (a, b) of the first labeling is cell (perm[a], perm[b]), sorted, of the second
    moved = [upper.index(tuple(sorted((perm[a], perm[b])))) for a, b in upper]
    assert np.array_equal(counts2[perm], counts)
    assert np.array_equal(hn2[moved], hn)
    assert np.array_equal(ho2[moved], ho)


def test_realize_sparse():
    S0 = np.array([[0.8, 0.2], [0.2, 0.6]])
    sched = SparseSchedule(S0=S0, c=1.0, alpha=0.0)
    p = realize_sparse([0.5, 0.5], sched, 50)
    assert np.allclose(p.P, S0)  # dense regime: rho == 1

    sched = SparseSchedule(S0=np.array([[1.0]]), c=1.0, alpha=0.5)
    p = realize_sparse([1.0], sched, 100)
    assert p.P[0, 0] == pytest.approx(0.1)  # 100**-0.5

    sched = SparseSchedule(S0=np.array([[0.6]]), c=2.0, alpha=0.0)
    with pytest.raises(ValidationError):
        realize_sparse([1.0], sched, 10)  # 2 * 0.6 = 1.2 > 1


def test_sparse_schedule_validation():
    with pytest.raises(ValidationError):
        SparseSchedule(S0=np.array([[0.5]]), c=1.0, alpha=1.0)  # alpha must be < 1
    with pytest.raises(ValidationError):
        SparseSchedule(S0=np.array([[0.5]]), c=-1.0, alpha=0.2)


def test_enumerate_graphs():
    graphs = list(enumerate_graphs(3))
    assert len(graphs) == 8
    assert len({tuple(g.pairs.tolist()) for g in graphs}) == 8


@pytest.mark.parametrize("budget", [None, 4 << 10])
def test_graph_pairs_are_the_bits_of_each_code(monkeypatch, budget):
    # bit i of graph c's row is bit i of c, in chunks of codes: one chunk
    # at n = 6 under the default budget, 153 under 4 KiB
    from ktsbm import partitions
    from ktsbm.sbm import graph_pairs

    if budget:
        monkeypatch.setattr(partitions, "_STATS_BYTES", budget)
    for n in (1, 2, 4, 6):
        m = n * (n - 1) // 2
        chunks = list(graph_pairs(n))
        assert len(chunks) == (153 if budget and n == 6 else 1)
        want = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
        assert np.array_equal(np.concatenate(chunks), want)
    assert [g.pairs.tolist() for g in enumerate_graphs(6)] == want.tolist()
    with pytest.raises(ValidationError, match="refusing"):
        next(graph_pairs(9))


def test_seed_mixing_is_stable():
    # frozen values guard against accidental changes to the derivation
    assert mix64(0) == 16294208416658607535
    assert derive_seed(7, 4, 2) == derive_seed(7, 4, 2)
    assert derive_seed(7, 4, 2) != derive_seed(7, 4, 3)
    assert derive_seed(7, 4, 2) != derive_seed(7, 5, 2)
