"""Canonical text formats for graphs and labelings.

Graph file: first line ``n m``, then m lines ``i j`` with 1 <= i < j <= n,
whitespace-separated, UTF-8, LF endings.  Duplicate or self-loop lines are
errors.  Labels file: one integer per line.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphFormatError
from .sbm import Graph, LabelVector, pair_index

__all__ = ["write_graph_file", "read_graph_file", "write_labels_file", "read_labels_file"]


def write_graph_file(path, graph: Graph) -> None:
    edges = graph.edges() + 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{graph.n} {graph.edge_count}\n")
        for i, j in edges:
            fh.write(f"{i} {j}\n")


def _parse_ints(text: str, count: int, lineno: int) -> list[int]:
    parts = text.split()
    if len(parts) != count:
        raise GraphFormatError(f"expected {count} fields, got {len(parts)}", lineno)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise GraphFormatError(f"non-integer field in {text!r}", lineno) from None


def read_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GraphFormatError("empty file", 1)
    n, m = _parse_ints(lines[0], 2, 1)
    if n < 1:
        raise GraphFormatError(f"node count must be positive, got {n}", 1)
    if m < 0:
        raise GraphFormatError(f"edge count must be nonnegative, got {m}", 1)
    body = "\n".join(lines[1:]).rstrip().splitlines()  # blank lines may only end the file
    for lineno, ln in enumerate(body, start=2):
        if not ln.strip():
            raise GraphFormatError("blank line inside edge list", lineno)
    if len(body) != m:
        raise GraphFormatError(f"header promises {m} edges but file has {len(body)}", 1)
    pairs = np.zeros(n * (n - 1) // 2, dtype=bool)
    for lineno, ln in enumerate(body, start=2):
        i, j = _parse_ints(ln, 2, lineno)
        if i == j:
            raise GraphFormatError(f"self-loop {i} {j}", lineno)
        if not (1 <= i < j <= n):
            raise GraphFormatError(f"edge {i} {j} violates 1 <= i < j <= {n}", lineno)
        idx = int(pair_index(n, i - 1, j - 1))
        if pairs[idx]:
            raise GraphFormatError(f"duplicate edge {i} {j}", lineno)
        pairs[idx] = True
    return Graph(n, pairs)


def write_labels_file(path, z: LabelVector) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in z.labels:
            fh.write(f"{v}\n")


def read_labels_file(path, k: int | None = None) -> LabelVector:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, ln) for lineno, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    vals = []
    for lineno, ln in lines:
        (v,) = _parse_ints(ln, 1, lineno)
        if v < 1:
            raise GraphFormatError(f"label must be >= 1, got {v}", lineno)
        vals.append(v)
    if not vals:
        raise GraphFormatError("empty labels file", 1)
    return LabelVector(vals, k if k is not None else max(vals))
