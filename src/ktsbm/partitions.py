"""Enumeration engines for labelings of small graphs.

Two flavors are provided:

* canonical set partitions (restricted growth strings): one representative
  per orbit of the label-permutation group, with exact multiplicity weights,
  for quantities invariant under permuting label values (KT mixtures,
  profile likelihood);
* full mixed-radix enumeration of {0..k-1}^n, in passes, for quantities that
  depend on the label values (marginal likelihood at fixed params, exact EM).

Per-labeling statistics use a condensed cell layout: cells are the pairs
(a, b) with a <= b in row-major order; ``hn`` is the number of unordered
node pairs in the cell and ``ho`` the number of edges, so the diagonal cell
(a, a) holds n_a(n_a-1)/2 pairs.  Node pairs are formed from block sizes in
one place, ``_block_pairs``, and edges are added in one place, the
node-append step ``_append_edges``, to L labelings of each of G graphs: once
per level of a table's prefix tree in ``graph_cell_edges`` and once per node
over flat rows of one graph's labelings in ``_cell_edges``, into the smallest
unsigned dtype that holds n(n-1)/2 and in passes under ``_STATS_BYTES``.

Every decision of an exact sum over canonical partitions lives here: the
table cap, the one loop over a table's passes for a batch of graphs given as
edge bits (``_table_pass``, which yields only the values of the row terms
its callers hand it), the orbit-weighted sum of those values per graph
(``_orbit_sum``), the row-wise logsumexp, the log-Gamma tables, both exact
objectives' label terms per block size (``_label_terms``) and
``_cell_terms``, which gathers every cell's term from a per-n grid.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import InfeasibleSizeError, ValidationError, require_int

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

# glibc's dynamic malloc thresholds hand a pass's temporaries back to the
# kernel after the pass, to be faulted in again at a cost set by the machine's
# free (huge) pages; fixed ones keep them in the heap for the next pass.
if sys.platform == "linux" and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _libc.mallopt(-3, _STATS_BYTES // 2)  # M_MMAP_THRESHOLD, at the ceiling of glibc's dynamic one
    _libc.mallopt(-1, _STATS_BYTES)  # M_TRIM_THRESHOLD


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
    # uint16 loops whatever the counts' integer dtype, so no promotion rule
    # applies; ho may carry a leading graph axis that hn lacks
    idx = np.empty(np.broadcast_shapes(hn.shape, ho.shape), dtype=np.uint16)
    np.multiply(hn, top + 1, out=idx, dtype=np.uint16, casting="unsafe")
    np.add(idx, ho, out=idx, dtype=np.uint16, casting="unsafe")
    return _cell_grid(formula, n).take(idx)


def _logsumexp(a: np.ndarray):
    """log sum exp(a) over the last axis (a float for 1-d a), to the bit of
    ``scipy.special.logsumexp``: log1p(sum_{a != max} e^{a - max} / m) + log m
    + max with m maxima, each row summed in the pairwise order of a 1-d sum,
    which numpy keeps only along C-contiguous rows."""
    a = np.ascontiguousarray(a)
    top = a.max(axis=-1, keepdims=True)
    at_top = a == top
    m = np.add.reduce(at_top, axis=-1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = a - top
        x[at_top] = -np.inf
        s = np.exp(x, out=x).sum(axis=-1)  # in place: a new array per step can be a fresh mmap
        out = np.log1p(s / m) + np.log(m) + top[..., 0]
        if not np.isfinite(top).all():  # a row without a finite maximum: the plain sum
            out = np.where(np.isfinite(top[..., 0]), out, np.log(np.exp(a).sum(axis=-1)))
    return float(out) if a.ndim == 1 else out


def _budget_passes(rows: int, row_bytes: int):
    """(lo, hi) row ranges whose temporaries, ``row_bytes`` per row, stay
    under ``_STATS_BYTES`` (at least one row per range)."""
    step = max(1, _STATS_BYTES // row_bytes)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _passes(count: int, n: int, k: int, per: int = 1):
    """(lo, hi) ranges of ``count`` items of ``per`` labelings of n nodes
    into k blocks each, for per-labeling terms: node slots plus up to four
    live int64 arrays per cell.  Edge counting budgets its own passes."""
    return _budget_passes(count, per * 8 * (n + 4 * (k * (k + 1) // 2)))


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
    which counts its edges once; pick and blocks (0..k-1) are shaped to compare
    with (rows,) and (neighbours, rows) labels.  Cached per k, so read-only."""
    cell_a, cell_b, _ = cell_layout(k)
    pick = np.concatenate([cell_a, np.where(cell_a == cell_b, -1, cell_b)]).astype(np.int8)
    blocks = np.arange(k, dtype=np.int8)[:, None, None]
    return _freeze(pick[:, None, None]), _freeze(np.concatenate([cell_b, cell_a])), _freeze(blocks)


@lru_cache(maxsize=8)
def _pair_nodes(n: int) -> np.ndarray:
    """Endpoints i < j of the n(n-1)/2 condensed pairs, read-only (cached):
    bit i of a graph's edge bits is pair i."""
    return _freeze(np.column_stack(np.triu_indices(n, 1)))


def _node_columns(edges: np.ndarray, bits: np.ndarray) -> dict:
    """{t: (cols, has)} for each node t with an earlier neighbour: cols is
    [t, its neighbours j < t] and has the (G, len(cols) - 1) float32 bits of
    those edges in the graphs whose edge bits over the rows of ``edges`` are
    ``bits`` (G, m), a row of ones for one graph with all of them."""
    cols = {}
    for e, (i, j) in enumerate(np.sort(edges, axis=1).tolist()):
        c, w = cols.setdefault(j, ([j], []))
        c.append(i)
        w.append(e)
    return {t: (c, bits[:, w].astype(np.float32)) for t, (c, w) in cols.items()}


def _append_edges(ho: np.ndarray, codes: np.ndarray, leaves: np.ndarray | None, column: tuple, k: int) -> None:
    """Add to each row of ``ho`` (G, L, C) the edges that graph g has (has[g]
    = 1) between node t = cols[0] and its earlier neighbours j in cols[1:],
    for ``column`` = (cols, has) of ``_node_columns``, each in cell (label(j),
    label(t)); row i reads its labels from codes[leaves[i]], or codes[i]."""
    (cols, has), (pick, gather, blocks) = column, _append_cells(k)
    (G, L, C), dtype = ho.shape, ho.dtype
    every = has.all()  # every graph has every edge: one count serves them all
    # live per row: the codes, the labels of node t and its neighbours, their
    # comparison with each block (and its float32 copy) and per graph the
    # counts d (float32 first); then the 2C picks, the gathered d, products
    row_bytes = codes.shape[1] + (k + 1) * len(cols) + 2 * C + G * dtype.itemsize * (k + 4 * C)
    for lo, hi in _budget_passes(L, row_bytes + (0 if every else 4 * k * (len(cols) + G))):
        rows = codes[lo:hi] if leaves is None else np.take(codes, leaves[lo:hi], axis=0)
        labels = rows.T[cols]
        if every:  # (k, 1, rows): count each block's neighbours
            d = (labels[1:] == blocks).sum(axis=1, dtype=dtype)[:, None]
        else:  # (k, G, rows), exact in float32 below 2**24
            d = np.matmul(has, (labels[1:] == blocks).astype(np.float32)).astype(dtype)
        inc = (labels[0] == pick) * d[gather]
        inc = inc[:C] + inc[C:]
        ho[:, lo:hi] += inc.transpose(1, 2, 0)


def graph_cell_edges(table: PartitionTable, edges: np.ndarray, bits: np.ndarray | None = None) -> np.ndarray:
    """Edges per condensed cell (G, P, C) of every partition, in the dtype of
    ``table.hn``, for graphs with edge bits as in ``_node_columns`` (one graph
    with all ``edges`` by default), counted down the table's prefix tree: a
    level-t row adds node t's edges to its earlier neighbours to its parent's
    counts, so work grows with the level's rows, not with P times all edges."""
    bits = np.ones((1, len(edges)), dtype=bool) if bits is None else bits
    starts, cols = table.level_start.tolist(), _node_columns(edges, bits)
    ho = np.zeros((len(bits), 1, table.cell_a.size), dtype=table.hn.dtype)
    for t in range(1, table.n):
        ho = np.take(ho, table.parent[starts[t] : starts[t + 1]], axis=1)
        if t in cols:
            _append_edges(ho, table.codes, table.first_leaf[starts[t] : starts[t + 1]], cols[t], table.m_max)
    return ho


def _cell_edges(codes: np.ndarray, k: int, edges: np.ndarray) -> np.ndarray:
    """Edges per condensed cell (L, C) of the labelings in the rows of
    ``codes`` (values 0..k-1), added one node at a time, in the smallest
    unsigned dtype that holds n(n-1)/2."""
    L, n = codes.shape
    ho = np.zeros((1, L, k * (k + 1) // 2), dtype=np.min_scalar_type(n * (n - 1) // 2))
    for column in _node_columns(edges, np.ones((1, len(edges)), dtype=bool)).values():
        _append_edges(ho, codes, None, column, k)
    return ho[0]


def _table_pass(n: int, m_max: int, pairs: np.ndarray, *terms):
    """Yield (graphs, table, *values) for the graphs on n nodes with edge bits
    ``pairs`` (G, n(n-1)/2): the canonical partitions of n nodes with at most
    m_max blocks, refused above the cap before they are built, and for each
    chunk ``graphs`` of the batch the (g, P) values of each row term
    ``f(table, ho, rows)`` on row slices ``rows``, ``ho`` their edges per
    cell (g, rows, C); chunks and slices stay under the byte budget."""
    n, pairs = require_int("n", n), np.asarray(pairs)
    if pairs.dtype != bool or pairs.ndim != 2 or pairs.shape[1] != n * (n - 1) // 2:
        raise ValidationError(
            f"edge bits must be a 2-d bool array of n(n-1)/2 = {n * (n - 1) // 2} columns, "
            f"got {pairs.dtype} of shape {pairs.shape}"
        )
    m_max = min(m_max, n)
    count = partition_count(n, m_max)
    if count > TABLE_CAP:
        raise InfeasibleSizeError(
            f"exact enumeration needs {count} canonical labelings at n={n}, "
            f"m_max={m_max}, above the cap {TABLE_CAP}"
        )
    table = partition_table(n, m_max)
    for glo, ghi in _passes(len(pairs), n, m_max, table.size):
        used = pairs[glo:ghi].any(axis=0)
        edges, bits = _pair_nodes(n)[used], pairs[glo:ghi, used]
        ho = graph_cell_edges(table, edges, bits)
        values = [np.empty((len(bits), table.size)) for _ in terms]
        for lo, hi in _passes(table.size, n, m_max, len(bits)):
            for out, term in zip(values, terms):
                out[:, lo:hi] = term(table, ho[:, lo:hi], slice(lo, hi))
        del ho  # the caller's reductions need only the values
        yield (slice(glo, ghi), table, *values)


def _orbit_sum(table: PartitionTable, values: np.ndarray, k: int, *shifts: float):
    """log sum over {1..k}^n of e^(value + shifts), per row of ``values``
    (G, P) or for (P,), for a value that depends only on the partition: a
    partition of m <= k blocks stands for k!/(k-m)! labelings, a weight taken
    from log-Gamma values at k + 1 and k - m + 1 only."""
    log_mult = gammaln(k + 1.0) - gammaln(k - np.arange(min(k, table.m_max) + 1) + 1.0)  # the m that occur
    if k >= table.m_max:
        body = values + log_mult.take(table.nblocks)
    else:  # take keeps each row C-ordered, unlike a mask on the last axis
        rows = np.flatnonzero(table.nblocks <= k)
        body = values.take(rows, axis=-1) + log_mult.take(table.nblocks.take(rows))
    for shift in shifts:
        body += shift  # in place, as in _logsumexp
    return _logsumexp(body)


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
