import ast
import itertools
import platform
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from ktsbm import (
    Graph,
    InfeasibleSizeError,
    PenaltySpec,
    SbmParams,
    ValidationError,
    estimate_order,
    log_kt_marginal_exact,
    log_kt_marginal_mc,
    marginal_log_lik_exact,
    profile_label_search,
    sample_sbm,
    verify_prop31,
)
from ktsbm import partitions
from ktsbm.likelihood import sup_log_lik_upper_bound
from ktsbm.partitions import cell_layout, graph_cell_edges, labeling_stats, partition_table
from oracles import recount_cell_edges

SRC = Path(partitions.__file__).parent


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
            np.stack([fresh.label_part, fresh.plug_in_part]),
            fresh.hn,
            graph_cell_edges(table, g10.edges()),
            labeling_stats(8, 3, g8.edges()),
            log_kt_marginal_mc(g10, 3, 3000, 11),
            marginal_log_lik_exact(params, g8),
            log_kt_marginal_exact(g10, 4),
            profile_label_search(g10, 4),
            sup_log_lik_upper_bound(g10, 4),
            verify_prop31(g10, 4),
        )

    default = results()
    assert len(list(partitions._passes(3**8, 8, 3))) == 1
    assert_tables_match_a_recount()
    monkeypatch.setattr(partitions, "_STATS_BYTES", 4 << 10)
    assert len(list(partitions._passes(table.size, 10, 4))) > 100
    small = results()
    assert_tables_match_a_recount()

    for want, got in zip(default[:3], small[:3]):
        assert np.array_equal(want, got)
    for want, got in zip(default[3], small[3]):
        assert np.array_equal(want, got)
    assert small[4] == default[4]  # KtValue: bit-identical value and std error
    assert small[5] == pytest.approx(default[5], abs=1e-12)  # per-pass logsumexp reorders
    assert small[6] == default[6]  # per-partition terms are row-wise, so bit-identical
    assert np.array_equal(small[7][0].labels, default[7][0].labels) and small[7][1] == default[7][1]
    assert small[8] == default[8] and small[9] == default[9]


def _test_graphs(n):
    pairs = n * (n - 1) // 2
    graphs = [Graph(n, np.zeros(pairs, bool)), Graph(n, np.ones(pairs, bool))]
    return graphs + [random_graph(n, p, seed) for p, seed in ((0.3, 1), (0.6, 2))]


@pytest.mark.parametrize("n, m_max", [(1, 1), (2, 2), (6, 3), (9, 9), (10, 4), (12, 4)])
def test_graph_cell_edges_equals_a_per_edge_recount(monkeypatch, n, m_max):
    table = partition_table(n, m_max)
    graphs = _test_graphs(n)
    want = [recount_cell_edges(table.codes, m_max, g.edges()) for g in graphs]
    for budget in (partitions._STATS_BYTES, 4 << 10):
        monkeypatch.setattr(partitions, "_STATS_BYTES", budget)
        for g, w in zip(graphs, want):
            [ho] = graph_cell_edges(table, g.edges())
            assert ho.dtype == table.hn.dtype and np.array_equal(ho, w)


@pytest.mark.parametrize("n, m_max", [(4, 2), (4, 3), (5, 2), (5, 3)])
def test_batched_walk_equals_one_graph_at_a_time(monkeypatch, n, m_max):
    # every graph on n nodes as one batch over all pairs, and a batch of
    # the graphs without pair 0 over the other pairs
    from ktsbm.sbm import graph_pairs

    table = partition_table(n, m_max)
    pairs = np.concatenate(list(graph_pairs(n)))
    nodes = partitions._pair_nodes(n)
    want = np.concatenate([graph_cell_edges(table, nodes[row]) for row in pairs])
    for budget in (partitions._STATS_BYTES, 4 << 10):
        monkeypatch.setattr(partitions, "_STATS_BYTES", budget)
        ho = graph_cell_edges(table, nodes, pairs)
        assert ho.dtype == table.hn.dtype and np.array_equal(ho, want)
        assert np.array_equal(graph_cell_edges(table, nodes[1:], pairs[::2, 1:]), want[::2])


@pytest.mark.parametrize("n, m_max", [(5, 3), (9, 4)])
def test_one_graph_counts_only_the_edges_its_bits_name(n, m_max):
    # a bit row with zeros takes the per-graph product, not the count of
    # every edge; it equals a recount of the edges that the row has
    table = partition_table(n, m_max)
    nodes = partitions._pair_nodes(n)
    bits = np.arange(len(nodes)) % 3 != 1
    [ho] = graph_cell_edges(table, nodes, bits[None])
    assert ho.dtype == table.hn.dtype
    assert np.array_equal(ho, recount_cell_edges(table.codes, m_max, nodes[bits]))


def test_edges_every_graph_has_are_counted_once_for_the_batch():
    # every graph of the batch has edge 0, node 1's one column, so it takes
    # the one count broadcast over the graphs; graph 0 has every edge, but
    # the others' columns must still take the per-graph product
    n, m_max = 6, 3
    table = partition_table(n, m_max)
    nodes = partitions._pair_nodes(n)
    bits = np.random.default_rng(4).random((5, len(nodes))) < 0.5
    bits[:, 0] = bits[0] = True
    want = np.concatenate([graph_cell_edges(table, nodes[row]) for row in bits])
    assert np.array_equal(graph_cell_edges(table, nodes, bits), want)


@pytest.mark.parametrize("n, dtype", [(23, np.uint8), (30, np.uint16)])
def test_graph_cell_edges_at_the_dtype_boundary(n, dtype):
    # the complete graph in one block: 253 edges fit uint8, 435 need uint16
    table = partition_table(n, 1)
    [ho] = graph_cell_edges(table, Graph(n, np.ones(n * (n - 1) // 2, bool)).edges())
    assert table.hn.dtype == ho.dtype == dtype
    assert ho.tolist() == table.hn.tolist() == [[n * (n - 1) // 2]]


def _random_codes(n, k):
    # the first labeling puts every node in block 0
    rng = np.random.default_rng(n)
    return np.vstack([np.zeros((1, n), np.int8), rng.integers(0, k, size=(999, n), dtype=np.int8)])


@pytest.mark.parametrize(
    "n, k, every",
    # (23, 3) and (24, 3): the complete graph in one block has 253 edges,
    # which fit uint8, and 276, which need uint16
    [(1, 1, False), (2, 2, False), (5, 3, False), (30, 8, False), (23, 3, False), (24, 3, False), (8, 3, True)],
)
def test_flat_cell_edges_equals_a_per_edge_recount(monkeypatch, n, k, every):
    # random labelings, or all k**n of them
    codes = np.array(list(itertools.product(range(k), repeat=n)), np.int8) if every else _random_codes(n, k)
    graphs = _test_graphs(n)
    want = [recount_cell_edges(codes, k, g.edges()) for g in graphs]
    for budget in (partitions._STATS_BYTES, 4 << 10):
        monkeypatch.setattr(partitions, "_STATS_BYTES", budget)
        for g, w in zip(graphs, want):
            ho = partitions._cell_edges(codes, k, g.edges())
            assert ho.dtype == np.min_scalar_type(n * (n - 1) // 2) and np.array_equal(ho, w)


def assert_tables_match_a_recount():
    """Every table field equals a recount of the table's own codes: block
    sizes by comparison with each block, node pairs as the edges of the
    complete graph by ``recount_cell_edges``, blocks and both label parts
    from the block sizes, which the table does not keep.  At n = 17 the
    table grows its block sizes in uint16."""
    for n, m_max in [(1, 1), (6, 3), (9, 9), (10, 4), (17, 2)]:
        t = partition_table.__wrapped__(n, m_max)  # bypass the table cache
        counts = (t.codes[..., None] == np.arange(m_max)).sum(axis=1)
        hn = recount_cell_edges(t.codes, m_max, np.argwhere(np.triu(np.ones((n, n)), 1)))
        assert (t.n, t.m_max, t.size) == (n, m_max, partitions.partition_count(n, m_max))
        assert np.array_equal(t.hn, hn) and not hasattr(t, "counts")
        assert np.array_equal(t.hn, partitions._block_pairs(counts, m_max))
        assert t.nblocks.dtype == np.int8
        assert t.hn.dtype == np.min_scalar_type(n * (n - 1) // 2)
        assert np.array_equal(t.nblocks, t.codes.max(axis=1) + 1)
        assert np.array_equal(t.nblocks, (counts > 0).sum(axis=1))
        assert np.array_equal(t.cell_a, cell_layout(m_max)[0])
        assert np.array_equal(t.label_part, (gammaln(counts + 0.5) - gammaln(0.5)).sum(axis=1))
        assert np.array_equal(t.plug_in_part, xlogy(counts, counts / n).sum(axis=1))
        # restricted growth: each value is at most one above every earlier one
        assert np.all(t.codes[:, 0] == 0)
        assert np.all(t.codes[:, 1:] <= np.maximum.accumulate(t.codes, axis=1)[:, :-1] + 1)
        assert len({row.tobytes() for row in t.codes}) == t.size
        # the prefix tree: level j holds the distinct prefixes of length
        # j + 1, each at the first table row that has it, under its parent
        assert t.level_start[0] == 0 and t.level_start[-1] == t.parent.size == t.first_leaf.size
        for j in range(n):
            level = slice(t.level_start[j], t.level_start[j + 1])
            prefixes = t.codes[:, : j + 1]
            first = np.unique(prefixes, axis=0, return_index=True)[1]
            assert np.array_equal(t.first_leaf[level], np.sort(first))
            if j:
                up = t.first_leaf[t.level_start[j - 1] + t.parent[level]]
                assert np.array_equal(prefixes[up, :j], prefixes[t.first_leaf[level], :j])


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_memory_is_bounded_by_the_byte_budget():
    params = SbmParams(k=2, pi=np.array([0.5, 0.5]), P=np.array([[0.8, 0.2], [0.2, 0.8]]))
    _, g = sample_sbm(params, 50, 5)
    assert g.edge_count > 550
    assert _traced_peak(lambda: log_kt_marginal_mc(g, 3, 20_000, 1)) < 160 * 2**20


def test_orbit_weights_need_no_table_of_k_entries():
    # log k!/(k-m)! for the block counts m that occur: 30.5 MiB traced at
    # k = 10**6 with a (k + 1)-entry log-factorial table
    g = random_graph(5, 0.5, 6)
    log_kt_marginal_exact(g, 3)  # build the table first
    assert _traced_peak(lambda: log_kt_marginal_exact(g, 10**6)) < 1 << 20
    t = partition_table(5, 5)
    for k in (1, 3, 5, 1000):  # the same floats as that table
        log_fact = gammaln(np.arange(k + 1.0) + 1.0)
        log_mult = log_fact[k] - log_fact[k - t.nblocks[t.nblocks <= k].astype(int)]
        assert partitions._orbit_sum(t, np.zeros((2, t.size)), k).tolist() == [partitions._logsumexp(log_mult)] * 2


def _refused(call):
    with pytest.raises(InfeasibleSizeError, match="above the cap 2000000"):
        call()


@pytest.mark.parametrize("n, k", [(12, 5), (13, 4)])
def test_table_cap_refuses_before_building(n, k):
    # 2 079 475 and 2 798 251 canonical labelings, above TABLE_CAP
    assert partitions.partition_count(n, k) > partitions.TABLE_CAP
    g = random_graph(n, 0.5, 4)
    for call in (
        lambda: estimate_order(g, PenaltySpec(1.0), k_max=k),
        lambda: profile_label_search(g, k),
        lambda: log_kt_marginal_exact(g, k),
        lambda: sup_log_lik_upper_bound(g, k),
    ):
        assert _traced_peak(lambda: _refused(call)) < 1 << 20


@pytest.mark.parametrize("n, k", [(11, 4), (10, 5), (14, 3)])
def test_labeling_passes_keep_the_byte_budget(n, k):
    # two passes, so that the consumer holds the first while the second is
    # made; 66.0, 66.9 and 59.8 MiB when a row was budgeted 8 (n + 4C) bytes
    edges = random_graph(n, 0.5, n).edges()
    passes = lambda: list(itertools.islice(partitions.iter_labeling_stats(n, k, edges), 2))
    assert _traced_peak(passes) < partitions._STATS_BYTES


@pytest.mark.parametrize("n, k", [(3, 1), (11, 12)])
def test_prop31_size_rule_refuses_before_building(n, k):
    # n < max(4, k); a table at (11, 12) would hold Bell(11) = 678 570 rows
    g = random_graph(n, 0.5, 3)
    partition_table.cache_clear()

    def refused():
        with pytest.raises(ValidationError, match="bound requires n >= max"):
            verify_prop31(g, k)

    assert _traced_peak(refused) < 1 << 20
    assert partition_table.cache_info().currsize == 0


def test_largest_table_under_the_cap():
    # the --k-max that the exit-3 hint names at n = 2..14
    want = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 4, 3, 3]
    assert [partitions._max_table_blocks(n) for n in range(2, 15)] == want
    for n, m in zip(range(2, 15), want):
        assert partitions.partition_count(n, m) <= partitions.TABLE_CAP
        assert m == n or partitions.partition_count(n, m + 1) > partitions.TABLE_CAP
    assert partitions._max_table_blocks(1) == partitions._max_table_blocks(40) == 1


def test_partitions_alone_makes_enumeration_decisions():
    owned = {"TABLE_CAP", "partition_count", "graph_cell_edges"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "partitions.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imports = [node for node in nodes if isinstance(node, ast.ImportFrom)]
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in imports for alias in node.names}
        assert not names & owned, (path.name, names & owned)
        if path.name == "likelihood.py":
            modules = {node.module for node in imports} | {alias.name for node in imports if node.module is None
                                                           for alias in node.names}
            assert "kt" not in modules


def _references(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    ]


def test_one_function_adds_edges_to_cells():
    # the node-append step is the only code that reads the cell spread
    # ``_append_cells``, so no second batch edge counter can use it
    readers, references = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        references += len(_references(tree, "_append_cells"))
        readers += [(path.name, fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and _references(fn, "_append_cells")]
    assert readers == [("partitions.py", "_append_edges")] and references == 1


def test_exact_estimate_memory_is_bounded():
    # counting edges down the prefix tree into narrow integers: 77 MiB
    # traced, table build included (98 MiB while the table kept its int64
    # block sizes), against 189 MiB for int64 counts from a recount of
    # every edge per partition
    g = random_graph(12, 0.45, 5)
    partition_table.cache_clear()
    assert _traced_peak(lambda: estimate_order(g, PenaltySpec(1.0), k_max=4)) < 150 << 20


def test_exact_estimate_memory_without_block_sizes_is_bounded():
    # 77.3 MiB traced, table build included, against 98.0 MiB when the
    # table kept its int64 block sizes and int64 block counts
    g = random_graph(12, 0.45, 5)
    partition_table.cache_clear()
    assert _traced_peak(lambda: estimate_order(g, PenaltySpec(1.0), k_max=4)) < 88 << 20


def test_table_keeps_no_block_sizes():
    # 33.2 MiB: codes 8.0, node pairs 6.7, prefix tree 7.1, the two label
    # parts 10.7 and int8 block counts 0.7; 53.9 MiB with the int64 block
    # sizes (21.4) and int64 block counts (5.3)
    t = partition_table(12, 4)
    assert sum(a.nbytes for a in vars(t).values() if isinstance(a, np.ndarray)) <= 34 << 20


def test_exact_estimate_memory_with_many_cells_is_bounded():
    # Bell(11) = 678 570 partitions in C = 66 cells: 221 MiB traced,
    # against 809 MiB for int64 counts
    g = random_graph(11, 0.5, 4)
    partition_table.cache_clear()
    assert _traced_peak(lambda: estimate_order(g, PenaltySpec(1.0), k_max=11)) < 320 << 20
    partition_table.cache_clear()  # no later test needs this 123 MiB table


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_repeated_exact_estimate_faults_in_no_fresh_memory():
    # with glibc's dynamic thresholds each repeat faulted in 1 800-1 900 pages
    # (n=10, k_max=4) and 3 870 at (12, 4), handed back after every pass
    import resource  # POSIX only, like glibc

    g = random_graph(10, 0.5, 0)
    estimate_order(g, PenaltySpec(1.0), k_max=4)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate_order(g, PenaltySpec(1.0), k_max=4)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) < 256, faults


def test_cell_layout_is_shared_and_read_only():
    cell_a, cell_b, cell_of = cell_layout(4)
    assert cell_layout(4)[2] is cell_of
    assert np.array_equal(cell_of[cell_a, cell_b], np.arange(10))
    assert np.array_equal(cell_of, cell_of.T)
    for a in (cell_a, cell_b, cell_of):
        with pytest.raises(ValueError):
            a[0] = 1
