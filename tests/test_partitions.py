import tracemalloc

import numpy as np
import pytest

from ktsbm import Graph, SbmParams, log_kt_marginal_mc, marginal_log_lik_exact, sample_sbm
from ktsbm import partitions
from ktsbm.partitions import cell_layout, graph_cell_edges, labeling_stats, partition_table


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    return Graph(n, rng.random(n * (n - 1) // 2) < p)


def test_counting_passes_do_not_change_results(monkeypatch):
    g10 = random_graph(10, 0.4, 1)
    g8 = random_graph(8, 0.5, 2)
    params = SbmParams(
        k=3,
        pi=np.array([0.2, 0.3, 0.5]),
        P=np.array([[0.8, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.6]]),
    )
    table = partition_table(10, 4)

    def results():
        fresh = partition_table.__wrapped__(10, 4)  # bypass the table cache
        return (
            fresh.counts,
            fresh.hn,
            graph_cell_edges(table, g10.edges()),
            labeling_stats(8, 3, [g8.edges(), random_graph(8, 0.3, 3).edges()], cap=10**6),
            log_kt_marginal_mc(g10, 3, 3000, 11),
            marginal_log_lik_exact(params, g8),
        )

    default = results()
    assert len(list(partitions._passes(3**8, 8, 3, g8.edge_count))) == 1
    monkeypatch.setattr(partitions, "_STATS_BYTES", 4 << 10)
    assert len(list(partitions._passes(table.size, 10, 4, g10.edge_count))) > 100
    small = results()

    for want, got in zip(default[:3], small[:3]):
        assert np.array_equal(want, got)
    for want, got in zip(default[3], small[3]):
        assert np.array_equal(want, got)
    assert small[4] == default[4]  # KtValue: bit-identical value and std error
    assert small[5] == pytest.approx(default[5], abs=1e-12)  # per-pass logsumexp reorders


def test_mc_memory_is_bounded_by_the_byte_budget():
    params = SbmParams(k=2, pi=np.array([0.5, 0.5]), P=np.array([[0.8, 0.2], [0.2, 0.8]]))
    _, g = sample_sbm(params, 50, 5)
    assert g.edge_count > 550
    tracemalloc.start()
    try:
        log_kt_marginal_mc(g, 3, 20_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 160 * 2**20


def test_cell_layout_is_shared_and_read_only():
    cell_a, cell_b, cell_of = cell_layout(4)
    assert cell_layout(4)[2] is cell_of
    assert np.array_equal(cell_of[cell_a, cell_b], np.arange(10))
    assert np.array_equal(cell_of, cell_of.T)
    for a in (cell_a, cell_b, cell_of):
        with pytest.raises(ValueError):
            a[0] = 1
