"""Whole-stage count-burst execution vs the per-burst path: wall time.

Warm, result-cache-off ``triangles`` on a Chung-Lu graph (default
n=20k, m=60k, the ROADMAP headline graph), timed four ways side by
side:

* ``per_burst`` — the eager kernel
  ``triangle_count_oriented(batch=True)``: one ``intersect_count_batch``
  burst per vertex, each a kernel call, an SCU dispatch and an engine
  charge (the reference path);
* ``stage`` — ``session.run("triangles")``: the plan executor runs the
  ``bursts:triangles`` stage whole, one flat kernel, one SCU pass and
  one engine pass per stage chunk;
* ``networkx`` — ``nx.triangles`` on the same graph;
* ``numpy`` — one vectorized whole-graph pass (orient by the
  degeneracy order, build the oriented CSR, one ``searchsorted``): the
  ceiling for a NumPy implementation with no cost model at all.

Every time is the median of 5 runs after one warm-up (min
and max are recorded too).  The stage and per-burst runs are asserted
to return the same count and bit-identical modeled cycles.

Env knobs: ``BENCH_STAGE_N`` / ``BENCH_STAGE_M`` (graph size) and
``BENCH_STAGE_MIN_SPEEDUP`` (the stage-vs-per-burst floor, default
3.0; CI passes a smaller graph and a looser floor).
"""

import os

import networkx as nx
import numpy as np

from repro.algorithms.triangles import triangle_count_oriented
from repro.graphs.generators import chung_lu_graph
from repro.session import ExecutionConfig, SisaSession

from common import emit, emit_json, provenance, timed

N = int(os.environ.get("BENCH_STAGE_N", "20000"))
M = int(os.environ.get("BENCH_STAGE_M", "60000"))
REPEATS = 5
MIN_SPEEDUP = float(os.environ.get("BENCH_STAGE_MIN_SPEEDUP", "3.0"))


def _session(graph):
    session = SisaSession(graph, ExecutionConfig(result_cache=False))
    session.setgraph
    session.oriented_setgraph
    return session


def numpy_triangles(graph, order) -> int:
    """Triangle count in one vectorized pass over the oriented CSR."""
    n = graph.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    u, v = graph.edge_array().T
    forward = rank[u] < rank[v]
    src = np.where(forward, u, v)
    dst = np.where(forward, v, u)
    keys = np.sort(src * n + dst)
    src, dst = keys // n, keys % n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    # For every oriented edge (a, b), probe each w in N+(b) for (a, w).
    fanout = offsets[dst + 1] - offsets[dst]
    idx = np.repeat(offsets[dst] - np.cumsum(fanout) + fanout, fanout)
    idx += np.arange(idx.size)
    queries = np.repeat(src, fanout) * n + dst[idx]
    pos = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    return int(np.count_nonzero(keys[pos] == queries))


def _run():
    graph = chung_lu_graph(N, M, gamma=2.2, seed=0)
    staged, eager = _session(graph), _session(graph)
    # Cold first runs on identical sessions: same count, same cycles.
    first = staged.run("triangles")
    mark = eager.ctx.mark()
    count = triangle_count_oriented(eager.oriented_setgraph, eager.ctx)
    cycles = eager.ctx.report_since(mark).runtime_cycles
    assert first.output == count
    assert first.report.runtime_cycles == cycles

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.num_vertices))
    nx_graph.add_edges_from(graph.edge_array().tolist())
    order = staged.degeneracy.order
    rows = {}
    rows["per_burst"], out = timed(
        lambda: triangle_count_oriented(eager.oriented_setgraph, eager.ctx),
        REPEATS,
    )
    assert out == count
    rows["stage"], out = timed(lambda: staged.run("triangles").output, REPEATS)
    assert out == count
    rows["networkx"], out = timed(
        lambda: sum(nx.triangles(nx_graph).values()) // 3, REPEATS
    )
    assert out == count
    rows["numpy"], out = timed(lambda: numpy_triangles(graph, order), REPEATS)
    assert out == count
    return graph, count, cycles, rows


def _render(graph, count, rows, speedup):
    print("== Whole-stage count bursts: warm uncached triangles ==")
    print(
        f"Chung-Lu n={graph.num_vertices} m={graph.num_edges}, "
        f"{count} triangles, median of {REPEATS}"
    )
    print(f"{'path':<12}{'median ms':>11}{'min ms':>9}{'max ms':>9}")
    for name, t in rows.items():
        print(
            f"{name:<12}{t['median_s'] * 1e3:>11.1f}"
            f"{t['min_s'] * 1e3:>9.1f}{t['max_s'] * 1e3:>9.1f}"
        )
    print(f"\nstage vs per-burst: {speedup:.2f}x (floor {MIN_SPEEDUP:.1f}x)")


def test_stage_exec_speedup(benchmark):
    graph, count, cycles, rows = _run()
    speedup = rows["per_burst"]["median_s"] / rows["stage"]["median_s"]
    emit("stage_exec", lambda: _render(graph, count, rows, speedup))
    emit_json(
        "stage_exec",
        {
            "graph": {"n": graph.num_vertices, "m": graph.num_edges},
            "triangles": count,
            "modeled_cycles": cycles,
            "repeats": REPEATS,
            "times": rows,
            "speedup_stage_vs_per_burst": speedup,
            "provenance": provenance(),
        },
        floors={"min_speedup": MIN_SPEEDUP},
    )
    assert speedup >= MIN_SPEEDUP
    session = _session(graph)
    benchmark(lambda: session.run("triangles"))


if __name__ == "__main__":
    graph, count, cycles, rows = _run()
    _render(
        graph, count, rows,
        rows["per_burst"]["median_s"] / rows["stage"]["median_s"],
    )
