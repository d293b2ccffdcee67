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
(a, a) holds n_a(n_a-1)/2 pairs.  Every caller (partition tables, full
enumeration, Monte Carlo label draws, single labelings) counts them with
the same two kernels, ``_cell_pairs`` for block sizes and hn and
``_cell_edges`` for ho, in passes whose temporaries stay under the byte
budget ``_STATS_BYTES``, whatever the edge count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

# One counting pass keeps its int64 temporaries under this many bytes.
_STATS_BYTES = 64 << 20


def cell_layout(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Condensed upper-triangle cell indexing for an m x m symmetric matrix.

    Returns (cell_a, cell_b, cell_of) with cell_of[a, b] the flat cell index.
    """
    cell_a, cell_b = np.triu_indices(m)
    cell_of = np.zeros((m, m), dtype=np.int64)
    cell_of[cell_a, cell_b] = np.arange(cell_a.size)
    cell_of[cell_b, cell_a] = cell_of[cell_a, cell_b]
    return cell_a, cell_b, cell_of


def _budget_passes(rows: int, row_bytes: int):
    """(lo, hi) row ranges whose temporaries, ``row_bytes`` per row, stay
    under ``_STATS_BYTES`` (at least one row per range)."""
    step = max(1, _STATS_BYTES // row_bytes)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _passes(rows: int, n: int, k: int, m: int):
    """(lo, hi) row ranges for counting labelings of n nodes into k blocks
    with m edges.  A row's footprint is its node slots plus up to four live
    int64 arrays per edge and per cell."""
    return _budget_passes(rows, 8 * (n + 4 * (m + k * (k + 1) // 2)))


def _cell_pairs(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Block sizes (L, k) and node pairs per condensed cell (L, C), int64,
    of the labelings in the rows of ``codes`` (values 0..k-1).  Callers
    bound L with ``_passes``."""
    L = codes.shape[0]
    cell_a, cell_b, _ = cell_layout(k)
    rows = np.arange(L, dtype=np.int64)[:, None]
    counts = np.bincount((rows * k + codes).ravel(), minlength=L * k).reshape(L, k)
    ca = counts[:, cell_a]
    cb = counts[:, cell_b]
    hn = ca * cb
    diag = cell_a == cell_b
    hn[:, diag] = ca[:, diag] * (ca[:, diag] - 1) // 2
    return counts, hn


def _cell_edges(codes: np.ndarray, k: int, edges: np.ndarray) -> np.ndarray:
    """Edges per condensed cell (L, C), int64, of the labelings in the rows
    of ``codes`` (values 0..k-1).  Callers bound L with ``_passes``."""
    L = codes.shape[0]
    _, _, cell_of = cell_layout(k)
    C = k * (k + 1) // 2
    cells = cell_of[codes[:, edges[:, 0]], codes[:, edges[:, 1]]]
    rows = np.arange(L, dtype=np.int64)[:, None]
    return np.bincount((rows * C + cells).ravel(), minlength=L * C).reshape(L, C)


@lru_cache(maxsize=None)
def partition_count(n: int, m_max: int) -> int:
    """Number of set partitions of n items into at most m_max blocks (exact)."""
    m_max = min(m_max, n)
    # dp[c] = number of restricted growth prefixes whose max value is c
    dp = [0] * m_max
    dp[0] = 1
    for _ in range(n - 1):
        new = [0] * m_max
        for c in range(m_max):
            new[c] = dp[c] * (c + 1)
            if c > 0:
                new[c] += dp[c - 1]
        dp = new
    return sum(dp)


def _rgs_codes(n: int, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """All restricted growth strings of length n over at most m_max values.

    Returns (codes, maxval): codes is (P, n) int8 with first occurrences in
    increasing order 0, 1, 2, ...; maxval[p] is the largest value used.
    """
    codes = np.zeros((1, 1), dtype=np.int8)
    maxval = np.zeros(1, dtype=np.int8)
    for _ in range(n - 1):
        nchild = np.minimum(maxval.astype(np.int64) + 2, m_max)
        rows = np.repeat(np.arange(codes.shape[0]), nchild)
        starts = np.repeat(np.cumsum(nchild) - nchild, nchild)
        newvals = (np.arange(rows.size) - starts).astype(np.int8)
        codes = np.concatenate([codes[rows], newvals[:, None]], axis=1)
        maxval = np.maximum(maxval[rows], newvals)
    return codes, maxval


@dataclass(frozen=True)
class PartitionTable:
    """Canonical labelings of n nodes with at most m_max blocks, plus the
    graph-independent parts of their statistics."""

    n: int
    m_max: int
    codes: np.ndarray      # (P, n) int8, restricted growth strings
    nblocks: np.ndarray    # (P,) int64
    counts: np.ndarray     # (P, m_max) int64 block sizes
    hn: np.ndarray         # (P, C) int64 pairs per condensed cell
    cell_a: np.ndarray     # (C,) first block of each condensed cell

    @property
    def size(self) -> int:
        return self.codes.shape[0]


@lru_cache(maxsize=8)
def partition_table(n: int, m_max: int) -> PartitionTable:
    m_max = min(m_max, n)
    codes, maxval = _rgs_codes(n, m_max)
    P = codes.shape[0]
    cell_a = cell_layout(m_max)[0]
    counts = np.empty((P, m_max), dtype=np.int64)
    hn = np.empty((P, cell_a.size), dtype=np.int64)
    for lo, hi in _passes(P, n, m_max, 0):
        counts[lo:hi], hn[lo:hi] = _cell_pairs(codes[lo:hi], m_max)
    return PartitionTable(
        n=n,
        m_max=m_max,
        codes=codes,
        nblocks=maxval.astype(np.int64) + 1,
        counts=counts,
        hn=hn,
        cell_a=cell_a,
    )


def require_partitions(n: int, m_max: int, cap: int) -> PartitionTable:
    count = partition_count(n, min(m_max, n))
    if count > cap:
        raise InfeasibleSizeError(
            f"exact enumeration needs {count} canonical labelings at n={n}, "
            f"m_max={min(m_max, n)}, above the cap {cap}"
        )
    return partition_table(n, min(m_max, n))


def graph_cell_edges(table: PartitionTable, edges: np.ndarray) -> np.ndarray:
    """Edges per condensed cell for every partition: (P, C) int64."""
    ho = np.empty((table.size, table.cell_a.size), dtype=np.int64)
    for lo, hi in _passes(table.size, table.n, table.m_max, len(edges)):
        ho[lo:hi] = _cell_edges(table.codes[lo:hi], table.m_max, edges)
    return ho


def labeling_count(n: int, k: int) -> int:
    return k ** n


def _decode_labelings(lo: int, hi: int, n: int, k: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.int64)
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] // powers) % k).astype(np.int8)


def iter_labeling_stats(n: int, k: int, edges: np.ndarray):
    """Yield (counts, hn, ho) over all k**n labelings, one budgeted pass at
    a time.

    counts is (L, k); hn/ho are (L, C) in the condensed cell layout of k.
    """
    for lo, hi in _passes(labeling_count(n, k), n, k, len(edges)):
        codes = _decode_labelings(lo, hi, n, k)
        yield (*_cell_pairs(codes, k), _cell_edges(codes, k, edges))


def labeling_stats(n: int, k: int, edge_sets, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialized statistics of every labeling in {1..k}^n (for exact EM).

    Block sizes (L, k) and node pairs per cell (L, C) are shared by all
    graphs on n nodes and counted once; edges per cell are stacked per
    graph of ``edge_sets``, (G, L, C).
    """
    total = labeling_count(n, k)
    if total > cap:
        raise InfeasibleSizeError(
            f"exact enumeration needs k**n = {total} labelings, above the cap {cap}"
        )
    C = k * (k + 1) // 2
    counts = np.empty((total, k), dtype=np.int64)
    hn = np.empty((total, C), dtype=np.int64)
    ho = np.empty((len(edge_sets), total, C), dtype=np.int64)
    m = max((len(edges) for edges in edge_sets), default=0)
    for lo, hi in _passes(total, n, k, m):
        codes = _decode_labelings(lo, hi, n, k)
        counts[lo:hi], hn[lo:hi] = _cell_pairs(codes, k)
        for g, edges in enumerate(edge_sets):
            ho[g, lo:hi] = _cell_edges(codes, k, edges)
    return counts, hn, ho
