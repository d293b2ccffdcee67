"""Enumeration engines for labelings of small graphs.

Two flavors are provided:

* canonical set partitions (restricted growth strings): one representative
  per orbit of the label-permutation group, with exact multiplicity weights.
  Valid whenever the quantity being accumulated is invariant under permuting
  label values (KT mixtures, profile likelihood).
* full mixed-radix enumeration of {0..k-1}^n, in passes, for quantities that
  depend on the actual label values (marginal likelihood at fixed params,
  exact EM responsibilities).

Per-labeling statistics use a condensed cell layout: cells are the pairs
(a, b) with a <= b in row-major order; ``hn`` is the number of unordered
node pairs in the cell and ``ho`` the number of edges, so the diagonal cell
(a, a) holds n_a(n_a-1)/2 pairs.  Node pairs are formed from block sizes in
one place, ``_block_pairs``, and edges are added to a batch of labelings in
one place, the node-append step ``_append_edges``.  It runs once per level
of a partition table's prefix tree in ``graph_cell_edges``, and once per
node over flat rows of labelings in ``_cell_edges``, always into the
smallest unsigned dtype that holds n(n-1)/2 and in passes whose
temporaries stay under the byte budget ``_STATS_BYTES``.

Every decision of an exact sum over canonical partitions lives here: the
table cap, the one loop over a graph's passes of the table (``_table_pass``,
which evaluates the row terms its callers hand it and returns only their
values) and the orbit weight k!/(k-m)! (``_orbit_weights``).  So do the one
logsumexp, the log-Gamma tables, both exact objectives' label terms per
block size (``_label_terms``) and ``_cell_terms``, which evaluates a cell
formula of (hn, ho) once per n and gathers every cell's term from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import InfeasibleSizeError

__all__ = [
    "PartitionTable",
    "partition_count",
    "partition_table",
    "graph_cell_edges",
    "cell_layout",
    "labeling_stats",
    "iter_labeling_stats",
]

# One counting pass keeps its temporaries under this many bytes.
_STATS_BYTES = 64 << 20
# Largest canonical-partition table that any exact computation builds.
TABLE_CAP = 2_000_000


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def cell_layout(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Condensed upper-triangle cell indexing for an m x m symmetric matrix.

    Returns (cell_a, cell_b, cell_of) with cell_of[a, b] the flat cell index;
    cached per m, so the arrays are read-only.
    """
    cell_a, cell_b = np.triu_indices(m)
    cell_of = np.zeros((m, m), dtype=np.int64)
    cell_of[cell_a, cell_b] = np.arange(cell_a.size)
    cell_of[cell_b, cell_a] = cell_of[cell_a, cell_b]
    return _freeze(cell_a), _freeze(cell_b), _freeze(cell_of)


@lru_cache(maxsize=None)
def _log_gamma_tables(top: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (gammaln(i + 1/2), gammaln(i + 1)) for i = 0..top, cached
    per top: every Gamma argument of a KT term is gathered from them."""
    i = np.arange(top + 1, dtype=np.float64)
    return _freeze(gammaln(i + 0.5)), _freeze(gammaln(i + 1.0))


@lru_cache(maxsize=None)
def _label_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only label terms for block sizes n_a = 0..n of n nodes, KT's
    lgamma(n_a + 1/2) - lgamma(1/2) and the plug-in n_a log(n_a/n)."""
    ghalf, sizes = _log_gamma_tables(n)[0], np.arange(n + 1)
    return _freeze(ghalf - ghalf[0]), _freeze(xlogy(sizes, sizes / n))


@lru_cache(maxsize=None)
def _cell_grid(formula, n: int) -> np.ndarray:
    """formula(hn, ho, n) at hn (M + 1) + ho for 0 <= ho <= hn <= M = n(n-1)/2,
    NaN elsewhere.  Cached per (formula, n); ``_cell_terms`` asks only for n <= 23."""
    top = n * (n - 1) // 2
    hn, ho = np.tril_indices(top + 1)
    grid = np.full((top + 1, top + 1), np.nan)
    grid[hn, ho] = formula(hn, ho, n)
    return _freeze(grid.ravel())


def _cell_terms(formula, n: int, hn: np.ndarray, ho: np.ndarray) -> np.ndarray:
    """formula(hn, ho, n) for cells of hn node pairs and ho edges on n nodes:
    one gather from ``_cell_grid`` while its flat index fits in uint16 (n <= 23,
    a grid of at most 504 KiB), else the formula itself."""
    top = n * (n - 1) // 2
    if (top + 1) ** 2 > 1 << 16:
        return formula(hn, ho, n)
    # uint16 loops whatever the counts' integer dtype, so no promotion rule applies
    idx = np.multiply(hn, top + 1, dtype=np.uint16, casting="unsafe")
    np.add(idx, ho, out=idx, dtype=np.uint16, casting="unsafe")
    return _cell_grid(formula, n).take(idx)


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a) of a 1-d array, in scipy's max-separated form
    log1p(sum_{a != max} e^{a - max} / m) + log m + max (m maxima), so that
    values match ``scipy.special.logsumexp`` to the bit."""
    top = a.max()
    if not np.isfinite(top):
        with np.errstate(divide="ignore"):
            return float(np.log(np.exp(a).sum()))
    at_top = a == top
    m = float(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum()
    return float(np.log1p(s / m) + np.log(m) + top)


def _budget_passes(rows: int, row_bytes: int):
    """(lo, hi) row ranges whose temporaries, ``row_bytes`` per row, stay
    under ``_STATS_BYTES`` (at least one row per range)."""
    step = max(1, _STATS_BYTES // row_bytes)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _passes(rows: int, n: int, k: int):
    """(lo, hi) row ranges for the per-labeling terms of labelings of n
    nodes into k blocks.  A row's footprint is its node slots plus up to
    four live int64 arrays per cell; edge counting budgets its own passes."""
    return _budget_passes(rows, 8 * (n + 4 * (k * (k + 1) // 2)))


def _block_pairs(counts: np.ndarray, k: int) -> np.ndarray:
    """Node pairs per condensed cell (..., C) from block sizes (..., k), in
    their dtype: n_a n_b for a < b and n_a (n_a - 1) / 2 for a = b (an
    unsigned n_a - 1 wraps at n_a = 0, where the product is still 0)."""
    cell_a, cell_b, _ = cell_layout(k)
    hn = counts[..., cell_a]
    hn *= counts[..., cell_b]
    hn[..., cell_a == cell_b] = counts * (counts - 1) // 2  # diagonal cells in block order
    return hn


@lru_cache(maxsize=None)
def partition_count(n: int, m_max: int) -> int:
    """Number of set partitions of n items into at most m_max blocks (exact):
    the sum over j <= m_max of the Stirling numbers S(n, j)."""
    row = [1] + [0] * m_max  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, m_max + 1)]
    return sum(row)


def _rgs_codes(n: int, m_max: int) -> tuple[np.ndarray, ...]:
    """All restricted growth strings of length n over at most m_max values,
    grown one node per level of a prefix tree: codes (P, n) int8 with first
    occurrences in order 0, 1, 2, ..., the largest value of each, the block
    sizes (P, m_max) in the smallest unsigned dtype that holds n(n-1), where
    ``_block_pairs`` forms node pairs (a child's are its parent's plus one in
    the block of its new value), and the tree's level_start, parent and
    first_leaf (see ``PartitionTable``)."""
    codes = np.zeros((1, 1), dtype=np.int8)
    maxval = np.zeros(1, dtype=np.int8)
    counts = np.zeros((1, m_max), dtype=np.min_scalar_type(n * (n - 1)))
    counts[0, 0] = 1
    parents, first_child = [np.zeros(1, dtype=np.int32)], []
    for _ in range(n - 1):
        nchild = np.minimum(maxval.astype(np.int64) + 2, m_max)
        rows = np.repeat(np.arange(codes.shape[0]), nchild)
        child = np.arange(rows.size)
        start = np.cumsum(nchild) - nchild
        newvals = (child - np.repeat(start, nchild)).astype(np.int8)
        codes = np.concatenate([codes[rows], newvals[:, None]], axis=1)
        maxval = np.maximum(maxval[rows], newvals)
        counts = counts[rows]
        counts[child, newvals] += 1
        parents.append(rows.astype(np.int32))
        first_child.append(start)
    first_leaf = [np.arange(codes.shape[0], dtype=np.int32)]
    for start in reversed(first_child):  # children are contiguous and in order
        first_leaf.append(first_leaf[-1][start])
    level_start = np.cumsum([0] + [p.size for p in parents])
    return codes, maxval, counts, level_start, np.concatenate(parents), np.concatenate(first_leaf[::-1])


@dataclass(frozen=True)
class PartitionTable:
    """Canonical labelings of n nodes with at most m_max blocks, plus the
    graph-independent parts of their statistics and of both exact objectives."""

    n: int
    m_max: int
    codes: np.ndarray      # (P, n) int8, restricted growth strings
    nblocks: np.ndarray    # (P,) int8
    hn: np.ndarray         # (P, C) pairs per condensed cell, in the smallest
                           # unsigned dtype that holds n(n-1)/2
    cell_a: np.ndarray     # (C,) first block of each condensed cell
    label_part: np.ndarray    # (P,) KT: sum_a [lgamma(n_a+1/2) - lgamma(1/2)]
    plug_in_part: np.ndarray  # (P,) plug-in: sum_a n_a log(n_a/n)
    # The prefix tree of the codes: level t holds the distinct prefixes of
    # length t + 1, at rows level_start[t]:level_start[t + 1] (int64, n + 1
    # entries) of the two int32 arrays below.  parent is a row's parent's
    # index within level t - 1; first_leaf is the first row of the table
    # with the row's prefix.  The last level is the table itself.
    level_start: np.ndarray
    parent: np.ndarray
    first_leaf: np.ndarray

    @property
    def size(self) -> int:
        return self.codes.shape[0]


@lru_cache(maxsize=8)
def partition_table(n: int, m_max: int) -> PartitionTable:
    m_max = min(m_max, n)
    codes, maxval, counts, level_start, parent, first_leaf = _rgs_codes(n, m_max)
    P = codes.shape[0]
    cell_a = cell_layout(m_max)[0]
    hn = np.empty((P, cell_a.size), dtype=np.min_scalar_type(n * (n - 1) // 2))
    parts = np.empty(P), np.empty(P)  # KT and plug-in, as in _label_terms
    for lo, hi in _passes(P, n, m_max):
        hn[lo:hi] = _block_pairs(counts[lo:hi], m_max)
        sizes = counts[lo:hi].astype(np.intp)
        for part, terms in zip(parts, _label_terms(n)):
            part[lo:hi] = terms[sizes].sum(axis=1)
    return PartitionTable(
        n=n,
        m_max=m_max,
        codes=codes,
        nblocks=maxval + 1,
        hn=hn,
        cell_a=cell_a,
        label_part=parts[0],
        plug_in_part=parts[1],
        level_start=level_start,
        parent=parent,
        first_leaf=first_leaf,
    )


def _max_table_blocks(n: int) -> int:
    """The largest m_max <= n (at least 1) whose table is under ``TABLE_CAP``."""
    m = 1
    while m < n and partition_count(n, m + 1) <= TABLE_CAP:
        m += 1
    return m


@lru_cache(maxsize=None)
def _append_cells(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pick, gather, blocks) for the edges that a node with label l and
    d[b] earlier neighbours in block b adds to the condensed cells of k
    blocks: cell c = (a, b) gains [l = pick[i]] d[gather[i]] summed over
    i = c and i = C + c.  pick is -1 in the second half of a diagonal cell,
    which counts its edges once; blocks is 0..k-1, shaped to compare with
    (neighbours, rows) labels.  Cached per k, so the arrays are read-only."""
    cell_a, cell_b, _ = cell_layout(k)
    pick = np.concatenate([cell_a, np.where(cell_a == cell_b, -1, cell_b)]).astype(np.int8)
    blocks = np.arange(k, dtype=np.int8)[:, None, None]
    return _freeze(pick[:, None]), _freeze(np.concatenate([cell_b, cell_a])), _freeze(blocks)


def _node_columns(edges: np.ndarray) -> dict[int, list[int]]:
    """{t: [t, its neighbours j < t]} for each node t with such a neighbour."""
    cols = {}
    for i, j in edges.tolist():
        i, j = (i, j) if i < j else (j, i)
        cols.setdefault(j, [j]).append(i)
    return cols


def _append_edges(ho: np.ndarray, codes: np.ndarray, leaves: np.ndarray | None, cols: list[int], k: int) -> None:
    """Add to each row of ``ho`` (L, C) the edges between node t = cols[0]
    and its earlier neighbours j in cols[1:], one in cell (label(j),
    label(t)) each.  Row i reads its labels from codes[leaves[i]], or from
    codes[i] when ``leaves`` is None."""
    pick, gather, blocks = _append_cells(k)
    C, dtype = ho.shape[1], ho.dtype
    # live per row: the codes, then the labels of node t and its
    # neighbours, their comparison with each block and the counts d;
    # then the 2C picks, the gathered d and their products
    row_bytes = codes.shape[1] + (k + 1) * len(cols) + 2 * C + dtype.itemsize * (k + 4 * C)
    for lo, hi in _budget_passes(ho.shape[0], row_bytes):
        rows = codes[lo:hi] if leaves is None else np.take(codes, leaves[lo:hi], axis=0)
        labels = rows.T[cols]
        d = (labels[1:] == blocks).sum(axis=1, dtype=dtype)  # (k, rows)
        inc = (labels[0] == pick) * d[gather]
        ho[lo:hi] += (inc[:C] + inc[C:]).T


def graph_cell_edges(table: PartitionTable, edges: np.ndarray) -> np.ndarray:
    """Edges per condensed cell for every partition: (P, C), in the dtype of
    ``table.hn``, counted down the table's prefix tree.  Node t joins at
    level t, so a level-t row's counts are its parent's plus node t's
    edges to its earlier neighbours: the work of level t grows with its
    rows times those neighbours, not with P times all edges."""
    starts, cols = table.level_start.tolist(), _node_columns(edges)
    ho = np.zeros((1, table.cell_a.size), dtype=table.hn.dtype)
    for t in range(1, table.n):
        ho = np.take(ho, table.parent[starts[t] : starts[t + 1]], axis=0)
        if t in cols:
            _append_edges(ho, table.codes, table.first_leaf[starts[t] : starts[t + 1]], cols[t], table.m_max)
    return ho


def _cell_edges(codes: np.ndarray, k: int, edges: np.ndarray) -> np.ndarray:
    """Edges per condensed cell (L, C) of the labelings in the rows of
    ``codes`` (values 0..k-1), added one node at a time, in the smallest
    unsigned dtype that holds n(n-1)/2."""
    L, n = codes.shape
    ho = np.zeros((L, k * (k + 1) // 2), dtype=np.min_scalar_type(n * (n - 1) // 2))
    for cols in _node_columns(edges).values():
        _append_edges(ho, codes, None, cols, k)
    return ho


def _table_pass(n: int, m_max: int, edges: np.ndarray, *terms) -> tuple:
    """(table, *values): the canonical partitions of n nodes with at most
    m_max blocks, refused above the cap before they are built, and the (P,)
    values of each row term ``f(table, ho, rows)``, evaluated on budgeted
    row slices ``rows`` with ``ho`` the graph's edges per cell in them."""
    m_max = min(m_max, n)
    count = partition_count(n, m_max)
    if count > TABLE_CAP:
        raise InfeasibleSizeError(
            f"exact enumeration needs {count} canonical labelings at n={n}, "
            f"m_max={m_max}, above the cap {TABLE_CAP}"
        )
    table = partition_table(n, m_max)
    ho = graph_cell_edges(table, edges)
    values = [np.empty(table.size) for _ in terms]
    for lo, hi in _passes(table.size, n, m_max):
        for out, term in zip(values, terms):
            out[lo:hi] = term(table, ho[lo:hi], slice(lo, hi))
    return (table, *values)


def _orbit_weights(table: PartitionTable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``table`` with at most k blocks, and log k!/(k-m)! for
    each: the labelings in {1..k}^n that a partition of m blocks stands for."""
    usable = table.nblocks <= k
    log_fact = _log_gamma_tables(k)[1]
    # k - m in intp: k minus an int8 array raises for k > 127 (NEP 50)
    return usable, log_fact[k] - log_fact[k - table.nblocks[usable].astype(np.intp)]


def iter_labeling_stats(n: int, k: int, edges: np.ndarray):
    """Yield (counts, hn, ho) over all k**n labelings, one budgeted pass at
    a time: block sizes (L, k) and node pairs per cell (L, C), int64, and
    edges per cell (L, C) from ``_cell_edges``, in the condensed cell layout
    of k.  Labeling i is the n base-k digits of i."""
    C, s = k * (k + 1) // 2, np.min_scalar_type(n * (n - 1) // 2).itemsize
    # bytes per row: the pass the consumer still holds, this pass's codes and
    # block sizes, and the largest of: the int64 digits, the comparison with
    # each block, _block_pairs' arrays, or the cells beside _append_edges' arrays
    held = 8 * k + (8 + s) * C
    work = max(8 * n + 8, n * k, 16 * C + 24 * k, (10 + 5 * s) * C + (k + 2) * n + s * k)
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for lo, hi in _budget_passes(k**n, held + n + 8 * k + work):
        codes = np.arange(lo, hi, dtype=np.int64)[:, None] // powers
        codes = np.remainder(codes, k, out=codes).astype(np.int8)  # in place: 8 bytes per node slot
        counts = (codes[..., None] == np.arange(k, dtype=np.int8)).sum(axis=1, dtype=np.int64)
        yield counts, _block_pairs(counts, k), _cell_edges(codes, k, edges)


def labeling_stats(n: int, k: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialized ``iter_labeling_stats`` of every labeling in {1..k}^n
    (for exact EM).  Callers bound k**n."""
    return tuple(np.concatenate(parts) for parts in zip(*iter_labeling_stats(n, k, edges)))
