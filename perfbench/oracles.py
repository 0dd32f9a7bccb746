"""Correctness gate: independent oracles, output digests, references.

Every check returns a list of mismatch messages; an empty list means
the outputs are correct.  The oracles do not use the program's set
machinery: networkx triangle counts (and the clustering figures derived
from them by definition), a NumPy Jaccard over the input adjacency,
the closed-form star-3 embedding count, a clique maximality check, and
networkx BFS distances.  ``serving-mix`` additionally replays a seeded
sample of each epoch's results on a fresh session built from the
epoch's edge list, which the checker reconstructs from the stream
batches on its own.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import networkx as nx
import numpy as np

from repro.graphs.csr import CSRGraph
from repro.session import SisaSession

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RTOL = 1e-12


# -- digests -------------------------------------------------------------


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(f"seq{len(value)}[".encode())
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, (bool, np.bool_)):
        h.update(f"b{bool(value)}".encode())
    elif isinstance(value, (int, np.integer)):
        h.update(f"i{int(value)}".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(f"f{float(value).hex()}".encode())
    elif value is None:
        h.update(b"none")
    else:
        h.update(f"r{value!r}".encode())


def digest(calls) -> str:
    """SHA-256 over every call's label, output and error, in order."""
    h = hashlib.sha256()
    for call in calls:
        _feed(h, [call.label, call.output, call.error])
    return h.hexdigest()[:16]


# -- reference -----------------------------------------------------------


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def check_reference(reference: dict, profile: str, workload: str, seed: int,
                    sim_mcycles: float, output_digest: str) -> list[str]:
    """Compare against the recorded default-seed reference (exactly)."""
    entry = reference.get(profile, {}).get(workload)
    if entry is None or seed != entry["seed"]:
        return []
    problems = []
    if sim_mcycles != entry["sim_mcycles"]:
        problems.append(
            f"sim_mcycles {sim_mcycles!r} != reference {entry['sim_mcycles']!r}"
        )
    if output_digest != entry["digest"]:
        problems.append(f"output digest {output_digest} != reference {entry['digest']}")
    return problems


# -- shared oracles ------------------------------------------------------


def nx_graph(graph: CSRGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(map(tuple, graph.edge_array().tolist()))
    return g


def _segments(offsets: np.ndarray, rows: np.ndarray):
    """Flat indices of ``offsets[r]:offsets[r+1]`` for each r in rows,
    plus the owning position of each index."""
    counts = offsets[rows + 1] - offsets[rows]
    owner = np.repeat(np.arange(rows.size), counts)
    first = np.repeat(offsets[rows] - (np.cumsum(counts) - counts), counts)
    return first + np.arange(counts.sum()), owner


def numpy_triangles(edges: np.ndarray, n: int) -> int:
    """Whole-graph vectorized triangle count: orient by (degree, id),
    build the out-CSR, and probe every wedge with ``searchsorted``."""
    u, v = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    degree = np.bincount(np.concatenate([u, v]), minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
    forward = rank[u] < rank[v]
    lo, hi = np.where(forward, u, v), np.where(forward, v, u)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo, minlength=n), out=offsets[1:])
    keys = lo * n + hi
    flat, owner = _segments(offsets, hi)
    wedge = lo[owner] * n + hi[flat]
    pos = np.minimum(np.searchsorted(keys, wedge), keys.size - 1)
    return int(np.count_nonzero(keys[pos] == wedge)) if keys.size else 0


def numpy_jaccard(graph: CSRGraph, pairs: np.ndarray) -> np.ndarray:
    """Jaccard of N(u), N(v) for each pair, from the CSR arrays."""
    n = graph.num_vertices
    offsets = np.asarray(graph.offsets, dtype=np.int64)
    targets = np.asarray(graph.targets, dtype=np.int64)
    degree = np.diff(offsets)
    keys = np.repeat(np.arange(n), degree) * n + targets
    u, v = pairs[:, 0], pairs[:, 1]
    flat, owner = _segments(offsets, u)
    probe = v[owner] * n + targets[flat]
    pos = np.minimum(np.searchsorted(keys, probe), max(keys.size - 1, 0))
    hits = keys[pos] == probe if keys.size else np.zeros(probe.size, bool)
    inter = np.bincount(owner, weights=hits, minlength=pairs.shape[0])
    union = degree[u] + degree[v] - inter
    return np.divide(inter, union, out=np.zeros(pairs.shape[0]), where=union > 0)


def _close(name: str, got, want) -> list[str]:
    got_a = np.asarray(got, dtype=np.float64)
    want_a = np.asarray(want, dtype=np.float64)
    if got_a.shape != want_a.shape:
        return [f"{name}: shape {got_a.shape} != oracle {want_a.shape}"]
    if not np.allclose(got_a, want_a, rtol=RTOL, atol=0.0):
        bad = int(np.count_nonzero(~np.isclose(got_a, want_a, rtol=RTOL, atol=0.0)))
        return [f"{name}: {bad} value(s) differ from the oracle"]
    return []


def _equal(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: {got!r} != oracle {want!r}"]


class GraphOracle:
    """networkx/NumPy answers for one graph."""

    def __init__(self, graph: CSRGraph):
        self.graph = graph
        self.nx = nx_graph(graph)
        per_vertex = nx.triangles(self.nx)
        self.vertex_triangles = np.array([per_vertex[v] for v in range(graph.num_vertices)], dtype=np.float64)
        self.triangles = int(self.vertex_triangles.sum()) // 3
        d = np.asarray(graph.degrees, dtype=np.float64)
        pairs = d * (d - 1.0)
        self.local_clustering = np.divide(
            2.0 * self.vertex_triangles, pairs, out=np.zeros_like(pairs), where=pairs > 0
        )
        wedges = float(pairs.sum()) / 2.0
        self.transitivity = 3.0 * self.triangles / wedges if wedges > 0 else 0.0

    def check(self, label: str, name: str, params: dict, output) -> list[str]:
        where = f"{label} {name}"
        if name in ("triangles",) or (name == "kclique" and params.get("k") == 3):
            return _equal(where, output, self.triangles)
        if name == "clustering_coefficient":
            return _close(where, output, self.transitivity)
        if name == "local_clustering":
            return _close(where, output, self.local_clustering)
        if name == "similarity_pairs":
            return _close(where, output, numpy_jaccard(self.graph, params["pairs"]))
        if name == "bfs":
            return self.check_bfs(where, params["root"], output)
        return [f"{where}: no oracle"]

    def check_bfs(self, where: str, root: int, parent) -> list[str]:
        dist = nx.single_source_shortest_path_length(self.nx, root)
        parent = np.asarray(parent)
        reached = {int(v) for v in np.flatnonzero(parent >= 0)}
        if reached != set(dist):
            return [f"{where}: reached {len(reached)} vertices, oracle {len(dist)}"]
        if parent[root] != root:
            return [f"{where}: root parent {parent[root]}"]
        for v in reached - {root}:
            p = int(parent[v])
            if not self.nx.has_edge(v, p) or dist[p] != dist[v] - 1:
                return [f"{where}: parent of {v} is not one BFS level up"]
        return []


# -- per-workload gates --------------------------------------------------


def check_count_bursts(wl, calls) -> list[str]:
    oracle = GraphOracle(wl.graph)
    problems = _equal(
        "numpy triangle count vs networkx",
        numpy_triangles(wl.graph.edge_array(), wl.graph.num_vertices),
        oracle.triangles,
    )
    for i, call in enumerate(calls):
        if call.error is None:
            problems += oracle.check(f"call {i}", call.label, wl.params(call.label), call.output)
    return problems


def check_recursive_scalar(wl, calls) -> list[str]:
    by_label = {call.label: call for call in calls if call.error is None}
    problems = []
    if "subgraph_iso" in by_label:
        d = np.asarray(wl.vf2_graph.degrees, dtype=np.int64)
        problems += _equal(
            "subgraph_iso star-3 embeddings",
            by_label["subgraph_iso"].output,
            int((d * (d - 1) * (d - 2)).sum()),
        )
    if "maximal_cliques" in by_label:
        problems += check_maximal_cliques(
            wl.graph, by_label["maximal_cliques"].output, wl.max_cliques
        )
    # kclique stops at a soft pattern cutoff (it may overshoot by one
    # frontier), so only the reference digest pins its exact count.
    if "kclique" in by_label and not by_label["kclique"].output > 0:
        problems.append(f"kclique: found {by_label['kclique'].output} 5-cliques")
    return problems


def check_maximal_cliques(graph: CSRGraph, cliques, cap: int) -> list[str]:
    adjacency = [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]
    if not 0 < len(cliques) <= cap:
        return [f"maximal_cliques: {len(cliques)} cliques outside (0, {cap}]"]
    if len({frozenset(c) for c in cliques}) != len(cliques):
        return ["maximal_cliques: duplicate clique listed"]
    for clique in cliques:
        members = [int(v) for v in clique]
        for a, b in itertools.combinations(members, 2):
            if b not in adjacency[a]:
                return [f"maximal_cliques: {clique} is not a clique"]
        common = set.intersection(*(adjacency[v] for v in members)) - set(members)
        if common:
            return [f"maximal_cliques: {clique} extends by {min(common)}"]
    return []


def check_serving_mix(wl, samples) -> list[str]:
    """``samples`` holds ``(epoch, key, name, output)`` for the seeded
    sample of each epoch's successful results."""
    live = {tuple(e) for e in wl.graphs["stream"].edge_array().tolist()}
    n_stream = wl.graphs["stream"].num_vertices
    graphs_at = {}
    for epoch, batch in enumerate(wl.stream.batches):
        live -= {tuple(e) for e in batch.deletions.tolist()}
        live |= {tuple(e) for e in batch.insertions.tolist()}
        graphs_at[epoch] = CSRGraph.from_edges(n_stream, np.asarray(sorted(live), dtype=np.int64).reshape(-1, 2))
    problems = []
    oracles: dict = {}
    for epoch, key, name, output in samples:
        graph = graphs_at[epoch] if key == "stream" else wl.graphs["static"]
        params = wl.params[key][name]
        where = f"epoch {epoch} {key}"
        fresh = SisaSession(graph, result_cache=False).run(name, **params).output
        if digest_value(fresh) != digest_value(output):
            problems.append(f"{where} {name}: differs from a fresh session at that epoch")
        cache_key = (epoch if key == "stream" else -1, key)
        if cache_key not in oracles:
            oracles[cache_key] = GraphOracle(graph)
        problems += oracles[cache_key].check(where, name, params, output)
    return problems


def digest_value(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()
