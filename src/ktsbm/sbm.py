"""Stochastic block model domain types, sampling and block statistics.

Conventions used throughout the package:

* community labels are 1-based: a labeling of n nodes is a vector in
  {1, ..., k}^n (not every value needs to occur);
* node indices are 0-based inside the API; the text file format is 1-based;
* graphs are simple, undirected, unweighted: the adjacency matrix is binary,
  symmetric, with zero diagonal.  Storage is the condensed upper triangle
  (n(n-1)/2 booleans, row-major).

Every likelihood and KT term reads a labeled graph through ``cell_stats``:
block sizes, and the node pairs and edges of each condensed cell a <= b of
``partitions``, each unordered node pair counted once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_int
from .partitions import _block_pairs, _budget_passes, _freeze, _pair_nodes, cell_layout
from .seeds import rng_from_seed

__all__ = [
    "SbmParams",
    "SparseSchedule",
    "LabelVector",
    "Graph",
    "cell_stats",
    "sample_sbm",
    "realize_sparse",
    "enumerate_graphs",
    "graph_pairs",
]

_PI_TOL = 1e-12
_SYM_TOL = 1e-9


def _float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; strings, bools and ragged lists raise ValidationError."""
    try:
        a = np.asarray(value)
        if a.dtype.kind in "iuf":
            return a.astype(float, copy=False)
    except ValueError:  # ragged nesting
        pass
    raise ValidationError(f"{name} must be an array of numbers, got {value!r}")


def _check_symmetric_unit(P: np.ndarray, name: str) -> np.ndarray:
    """Validate a symmetric matrix with entries in [0, 1]; return an exactly
    symmetric copy (upper triangle mirrored onto the lower)."""
    P = _float_array(P, name)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.any(P < 0.0) or np.any(P > 1.0):
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    if np.max(np.abs(P - P.T), initial=0.0) > _SYM_TOL:
        raise ValidationError(f"{name} must be symmetric")
    upper = np.triu(P)
    return upper + np.triu(P, 1).T


@dataclass(frozen=True)
class SbmParams:
    """A point of the k-community parameter space: weights pi and symmetric
    edge-probability matrix P.

    ``pi`` must be strictly positive and sum to 1 (tolerance 1e-12); ``P`` is
    stored exactly symmetric (upper triangle mirrored).
    """

    k: int
    pi: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        k = require_int("k", self.k)
        pi = _float_array(self.pi, "pi")
        if pi.shape != (k,):
            raise ValidationError(f"pi must have length {k}, got shape {pi.shape}")
        if not np.all(pi > 0.0):  # written so that NaN fails
            raise ValidationError(f"community weights must be finite and > 0, got {pi.tolist()}")
        if not abs(pi.sum() - 1.0) <= _PI_TOL:
            raise ValidationError(f"pi must sum to 1 within {_PI_TOL}, got {pi.sum()!r}")
        P = _check_symmetric_unit(self.P, "P")
        if P.shape != (k, k):
            raise ValidationError(f"P must be {k}x{k}, got {P.shape}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "pi", _freeze(pi.copy()))
        object.__setattr__(self, "P", _freeze(P))

    def expected_density(self) -> float:
        """Probability that a uniformly chosen pair is joined: sum_ab pi_a pi_b P_ab."""
        return float(self.pi @ self.P @ self.pi)


@dataclass(frozen=True)
class SparseSchedule:
    """Edge scale rho_n = c * n**(-alpha) applied to a base matrix S0.

    alpha < 1 keeps n * rho_n growing, which is the regime where order
    estimation stays consistent; arbitrary schedules are rejected on purpose.
    Values of c * n**(-alpha) above 1 are capped at 1, but a capped schedule
    whose raw value would push an edge probability above 1 is an error at
    realization time.
    """

    S0: np.ndarray
    c: float
    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValidationError(f"alpha must satisfy 0 <= alpha < 1, got {self.alpha}")
        if not (self.c > 0.0 and np.isfinite(self.c)):
            raise ValidationError(f"c must be positive and finite, got {self.c}")
        S0 = _check_symmetric_unit(self.S0, "S0")
        object.__setattr__(self, "S0", _freeze(S0))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def k(self) -> int:
        return self.S0.shape[0]

    def rho_raw(self, n: int) -> float:
        return self.c * float(n) ** (-self.alpha)

    def rho(self, n: int) -> float:
        """rho_n, capped at 1."""
        return min(self.rho_raw(require_int("n", n)), 1.0)


class LabelVector:
    """Community assignment z in {1, ..., k}^n."""

    __slots__ = ("labels", "k")

    def __init__(self, labels, k: int):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValidationError("labels must be a 1-d sequence")
        if labels.size and labels.dtype.kind not in "iu":  # np.asarray([]) is float64
            raise ValidationError(f"labels must be integers, got {labels.dtype} values")
        labels = labels.astype(np.int64)
        k = require_int("k", k)
        if labels.size and (labels.min() < 1 or labels.max() > k):
            raise ValidationError(f"labels must lie in [1, {k}]")
        self.labels = _freeze(labels.copy())
        self.k = k

    def __len__(self) -> int:
        return self.labels.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabelVector)
            and self.k == other.k
            and np.array_equal(self.labels, other.labels)
        )

    def __repr__(self) -> str:
        return f"LabelVector({self.labels.tolist()}, k={self.k})"


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


class Graph:
    """Simple undirected graph stored as the condensed upper triangle."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: np.ndarray):
        n = require_int("n", n)
        pairs = np.asarray(pairs, dtype=bool)
        if pairs.shape != (_pair_count(n),):
            raise ValidationError(
                f"pairs must have length n(n-1)/2 = {_pair_count(n)}, got {pairs.shape}"
            )
        self.n = n
        self.pairs = _freeze(pairs.copy())

    @classmethod
    def from_adjacency(cls, adj) -> "Graph":
        adj = np.asarray(adj)
        n = adj.shape[0]
        if adj.shape != (n, n):
            raise ValidationError("adjacency must be square")
        if np.any(adj.diagonal() != 0):
            raise ValidationError("adjacency must have zero diagonal")
        if not np.array_equal(adj, adj.T):
            raise ValidationError("adjacency must be symmetric")
        if not np.all((adj == 0) | (adj == 1)):
            raise ValidationError("adjacency entries must be 0 or 1")
        return cls(n, adj[tuple(_pair_nodes(n).T)].astype(bool))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an iterable of 0-based node pairs (i, j), i != j."""
        n = require_int("n", n)
        pairs = np.zeros(_pair_count(n), dtype=bool)
        edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if edges.size:
            i = np.minimum(edges[:, 0], edges[:, 1])
            j = np.maximum(edges[:, 0], edges[:, 1])
            if np.any(i == j):
                raise ValidationError("self-loops are not allowed")
            if i.min() < 0 or j.max() >= n:
                raise ValidationError("edge endpoint out of range")
            pairs[pair_index(n, i, j)] = True
        return cls(n, pairs)

    @property
    def edge_count(self) -> int:
        return int(self.pairs.sum())

    def density(self) -> float:
        m = _pair_count(self.n)
        return self.edge_count / m if m else 0.0

    def edges(self) -> np.ndarray:
        """(m, 2) array of 0-based endpoints with i < j, lexicographic."""
        return _pair_nodes(self.n)[self.pairs]

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=np.uint8)
        adj[tuple(_pair_nodes(self.n).T)] = self.pairs
        return adj + adj.T

    def permute_nodes(self, perm) -> "Graph":
        """Graph with node i renamed perm[i]."""
        perm = np.asarray(perm, dtype=np.int64)
        adj = self.adjacency()
        new = np.zeros_like(adj)
        new[np.ix_(perm, perm)] = adj
        return Graph.from_adjacency(new)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.pairs, other.pairs)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def pair_index(n: int, i, j):
    """Condensed index of pair (i, j) with i < j (vectorized)."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def cell_stats(z: LabelVector, x: Graph, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block sizes (k,), node pairs (C,) and edges (C,) of (z, x) for a
    k-block model, C = k(k+1)/2 cells a <= b in ``partitions.cell_layout(k)``
    order; checked against the graph size and k."""
    k = require_int("k", k)
    if len(z) != x.n:
        raise ValidationError(f"labeling has length {len(z)} but graph has {x.n} nodes")
    if z.k > k or (len(z) and z.labels.max() > k):
        raise ValidationError(f"labels exceed k={k}")
    labels, edges = z.labels - 1, x.edges()
    counts = np.bincount(labels, minlength=k)
    cells = cell_layout(k)[2][labels[edges[:, 0]], labels[edges[:, 1]]]
    return counts, _block_pairs(counts, k), np.bincount(cells, minlength=k * (k + 1) // 2)


def sample_sbm(params: SbmParams, n: int, seed: int) -> tuple[LabelVector, Graph]:
    """Draw (z, x): labels i.i.d. from pi, then independent Bernoulli edges
    with probability P[z_i, z_j] per unordered pair.

    Deterministic given (params, n, seed): the Philox stream is consumed as
    n label uniforms followed by n(n-1)/2 pair uniforms in condensed order.
    """
    n = require_int("n", n)
    rng = rng_from_seed(seed)
    cum = np.cumsum(params.pi)
    u = rng.random(n)
    lab0 = np.minimum(np.searchsorted(cum, u, side="right"), params.k - 1)
    iu, ju = _pair_nodes(n).T
    p_pair = params.P[lab0[iu], lab0[ju]]
    pairs = rng.random(iu.size) < p_pair
    return LabelVector(lab0 + 1, params.k), Graph(n, pairs)


def realize_sparse(pi, schedule: SparseSchedule, n: int) -> SbmParams:
    """Materialize the sparse model at size n: P = rho_n * S0.

    Raises a range error when the raw scale c * n**(-alpha) would push an
    edge probability above 1.
    """
    raw = schedule.rho_raw(n)
    smax = float(schedule.S0.max(initial=0.0))
    if raw * smax > 1.0 + 1e-12:
        raise ValidationError(
            f"rho_n * max(S0) = {raw * smax:g} exceeds 1 at n={n}; "
            "shrink c or the base matrix"
        )
    return SbmParams(k=schedule.k, pi=np.asarray(pi, dtype=float), P=schedule.rho(n) * schedule.S0)


def graph_pairs(n: int):
    """Yield the edge bits of all 2**(n(n-1)/2) graphs on n nodes (small n
    only) as (G, M) bool rows, where bit i of graph c is bit i of c (pair i),
    in chunks of codes c whose arrays stay under the byte budget."""
    m = _pair_count(n)
    if m > 30:
        raise ValidationError(f"refusing to enumerate 2**{m} graphs")
    for lo, hi in _budget_passes(1 << m, 4 + m):  # per graph: its uint32 code and its M bits
        codes = np.arange(lo, hi, dtype="<u4")
        yield np.unpackbits(codes.view(np.uint8).reshape(-1, 4), axis=1, count=m, bitorder="little").view(bool)


def enumerate_graphs(n: int):
    """Yield all 2**(n(n-1)/2) graphs on n nodes (small n only), in the
    order of ``graph_pairs``."""
    for pairs in graph_pairs(n):
        yield from (Graph(n, row) for row in pairs)
