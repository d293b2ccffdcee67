"""Stochastic block model domain types, sampling and sufficient statistics.

Conventions used throughout the package:

* community labels are 1-based: a labeling of n nodes is a vector in
  {1, ..., k}^n (not every value needs to occur);
* node indices are 0-based inside the API; the text file format is 1-based;
* graphs are simple, undirected, unweighted: the adjacency matrix is binary,
  symmetric, with zero diagonal.  Storage is the condensed upper triangle
  (n(n-1)/2 booleans, row-major).

The block-pair counters follow the ordered-pair convention: ``O[a, b]``
counts ordered node pairs (i, j) with labels (a, b) joined by an edge, so an
edge inside block a contributes 2 to ``O[a, a]`` and an edge between blocks
a != b contributes 1 to each of ``O[a, b]`` and ``O[b, a]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .partitions import _cell_edges, _cell_pairs, cell_layout
from .seeds import rng_from_seed

__all__ = [
    "SbmParams",
    "SparseSchedule",
    "LabelVector",
    "Graph",
    "SuffStats",
    "sample_sbm",
    "realize_sparse",
    "compute_stats",
    "enumerate_graphs",
]

_PI_TOL = 1e-12
_SYM_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_symmetric_unit(P: np.ndarray, name: str) -> np.ndarray:
    """Validate a symmetric matrix with entries in [0, 1]; return an exactly
    symmetric copy (upper triangle mirrored onto the lower)."""
    P = np.asarray(P, dtype=float)
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
        k = self.k
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ValidationError(f"k must be a positive integer, got {k!r}")
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (k,):
            raise ValidationError(f"pi must have length {k}, got shape {pi.shape}")
        if np.any(pi <= 0.0):
            raise ValidationError("all community weights must be strictly positive")
        if abs(pi.sum() - 1.0) > _PI_TOL:
            raise ValidationError(f"pi must sum to 1 within {_PI_TOL}, got {pi.sum()!r}")
        P = _check_symmetric_unit(self.P, "P")
        if P.shape != (k, k):
            raise ValidationError(f"P must be {k}x{k}, got {P.shape}")
        object.__setattr__(self, "k", int(k))
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
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        return min(self.rho_raw(n), 1.0)


class LabelVector:
    """Community assignment z in {1, ..., k}^n."""

    __slots__ = ("labels", "k")

    def __init__(self, labels, k: int):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValidationError("labels must be a 1-d sequence")
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ValidationError(f"k must be a positive integer, got {k!r}")
        if labels.size and (labels.min() < 1 or labels.max() > k):
            raise ValidationError(f"labels must lie in [1, {k}]")
        self.labels = _freeze(labels.copy())
        self.k = int(k)

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
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValidationError(f"n must be a positive integer, got {n!r}")
        pairs = np.asarray(pairs, dtype=bool)
        if pairs.shape != (_pair_count(int(n)),):
            raise ValidationError(
                f"pairs must have length n(n-1)/2 = {_pair_count(int(n))}, got {pairs.shape}"
            )
        self.n = int(n)
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
        iu = np.triu_indices(n, 1)
        return cls(n, adj[iu].astype(bool))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an iterable of 0-based node pairs (i, j), i != j."""
        pairs = np.zeros(_pair_count(n), dtype=bool)
        g = cls(n, pairs)
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
        iu, ju = np.triu_indices(self.n, 1)
        sel = self.pairs
        return np.column_stack([iu[sel], ju[sel]])

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=np.uint8)
        iu = np.triu_indices(self.n, 1)
        adj[iu] = self.pairs
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


@dataclass(frozen=True)
class SuffStats:
    """Block counters of a (labeling, graph) pair.

    n_a[a] is the size of block a+1; n_ab follows the ordered-pair pair-count
    convention (n_a*n_b off the diagonal, n_a*(n_a-1) on it); O_ab counts
    ordered endpoint pairs of edges; E_n = sum(O_ab) is twice the edge count.
    """

    n_a: np.ndarray
    n_ab: np.ndarray
    O_ab: np.ndarray
    E_n: int

    @property
    def k(self) -> int:
        return self.n_a.size

    @property
    def n(self) -> int:
        return int(self.n_a.sum())


def _label_index(z: LabelVector, x: Graph, k: int) -> np.ndarray:
    """0-based labels of z, checked against the graph size and k."""
    if len(z) != x.n:
        raise ValidationError(f"labeling has length {len(z)} but graph has {x.n} nodes")
    if z.k > k or (len(z) and z.labels.max() > k):
        raise ValidationError(f"labels exceed k={k}")
    return z.labels - 1


def compute_stats(z: LabelVector, x: Graph, k: int) -> SuffStats:
    """Extract the sufficient statistics of (z, x) for a k-block model."""
    codes = _label_index(z, x, k)[None, :]
    counts, hn = _cell_pairs(codes, k)
    cell_of = cell_layout(k)[2]
    twice = 1 + np.eye(k, dtype=np.int64)  # ordered pairs count a diagonal cell twice
    O_ab = _cell_edges(codes, k, x.edges())[0][cell_of] * twice
    return SuffStats(
        n_a=_freeze(counts[0]),
        n_ab=_freeze(hn[0][cell_of] * twice),
        O_ab=_freeze(O_ab),
        E_n=int(O_ab.sum()),
    )


def sample_sbm(params: SbmParams, n: int, seed: int) -> tuple[LabelVector, Graph]:
    """Draw (z, x): labels i.i.d. from pi, then independent Bernoulli edges
    with probability P[z_i, z_j] per unordered pair.

    Deterministic given (params, n, seed): the Philox stream is consumed as
    n label uniforms followed by n(n-1)/2 pair uniforms in condensed order.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    rng = rng_from_seed(seed)
    cum = np.cumsum(params.pi)
    u = rng.random(n)
    lab0 = np.minimum(np.searchsorted(cum, u, side="right"), params.k - 1)
    iu, ju = np.triu_indices(n, 1)
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


def enumerate_graphs(n: int):
    """Yield all 2**(n(n-1)/2) graphs on n nodes (small n only)."""
    m = _pair_count(n)
    if m > 30:
        raise ValidationError(f"refusing to enumerate 2**{m} graphs")
    for code in range(1 << m):
        bits = (code >> np.arange(m)) & 1
        yield Graph(n, bits.astype(bool))
