"""Directed (oriented) CSR graphs.

Several of the paper's algorithms orient the undirected input according
to a vertex order eta (typically the degeneracy order): an arc goes from
``v`` to ``u`` iff ``eta(v) < eta(u)``.  The resulting DAG has out-degree
bounded by the degeneracy (paper Section 7.1), which is what gives
k-clique listing its work bound.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, OFFSET_DTYPE, VERTEX_DTYPE


class DiGraph:
    """An immutable directed graph in CSR form with sorted out-neighborhoods."""

    __slots__ = ("offsets", "targets", "_degrees")

    def __init__(self, offsets: np.ndarray, targets: np.ndarray):
        self.offsets = np.asarray(offsets, dtype=OFFSET_DTYPE)
        self.targets = np.asarray(targets, dtype=VERTEX_DTYPE)
        if self.offsets.ndim != 1 or self.offsets.size == 0:
            raise GraphError("offsets must be a 1-D array of length n + 1")
        if self.offsets[0] != 0 or self.offsets[-1] != self.targets.size:
            raise GraphError("offsets must start at 0 and end at len(targets)")
        if self.targets.size and (
            self.targets.min() < 0 or self.targets.max() >= self.num_vertices
        ):
            raise GraphError("target vertex id out of range")
        self._degrees = np.diff(self.offsets)

    @classmethod
    def from_arcs(
        cls, num_vertices: int, arcs: Iterable[tuple[int, int]] | np.ndarray
    ) -> "DiGraph":
        arr = np.asarray(
            list(arcs) if not isinstance(arcs, np.ndarray) else arcs,
            dtype=VERTEX_DTYPE,
        ).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
            raise GraphError("arc endpoint out of range")
        if arr.size:
            keys = arr[:, 0] * num_vertices + arr[:, 1]
            __, unique_idx = np.unique(keys, return_index=True)
            arr = arr[np.sort(unique_idx)]
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr = arr[order]
        offsets = np.zeros(num_vertices + 1, dtype=OFFSET_DTYPE)
        if arr.size:
            np.add.at(offsets, arr[:, 0] + 1, 1)
        np.cumsum(offsets, out=offsets)
        # A contiguous copy: a column view would keep the whole arc
        # array alive and make every out-neighborhood a strided view.
        targets = (
            np.ascontiguousarray(arr[:, 1])
            if arr.size
            else np.empty(0, dtype=VERTEX_DTYPE)
        )
        return cls(offsets, targets)

    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_arcs(self) -> int:
        return self.targets.size

    @property
    def out_degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def max_out_degree(self) -> int:
        return int(self._degrees.max()) if self.num_vertices else 0

    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighborhood ``N+(v)`` as a read-only view."""
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range")
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def has_arc(self, u: int, v: int) -> bool:
        nbrs = self.out_neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def __repr__(self) -> str:
        return f"DiGraph(n={self.num_vertices}, arcs={self.num_arcs})"


def orient_by_order(graph: CSRGraph, order: np.ndarray) -> DiGraph:
    """Orient ``graph`` by a vertex order: arc ``v -> u`` iff ``rank[v] < rank[u]``.

    ``order[i]`` is the vertex at position ``i`` (so ``order`` is a
    permutation of ``0..n-1``).  This is the paper's ``dir(G)`` step in
    Algorithm 3.
    """
    n = graph.num_vertices
    order = np.asarray(order, dtype=VERTEX_DTYPE)
    if order.size != n or np.any(np.sort(order) != np.arange(n)):
        raise GraphError("order must be a permutation of all vertices")
    rank = np.empty(n, dtype=VERTEX_DTYPE)
    rank[order] = np.arange(n, dtype=VERTEX_DTYPE)
    edges = graph.edge_array()
    if edges.size == 0:
        return DiGraph.from_arcs(n, edges)
    forward = rank[edges[:, 0]] < rank[edges[:, 1]]
    arcs = np.where(forward[:, None], edges, edges[:, ::-1])
    return DiGraph.from_arcs(n, arcs)
