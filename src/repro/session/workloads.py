"""Built-in session workloads.

Each workload wraps one of the set-centric algorithm kernels
(``repro.algorithms.*_on``) and pulls its input structures from the
owning session's caches, so repeated runs skip context construction,
neighborhood-set registration and degeneracy orientation.  The kernels
themselves are untouched — a cold session issues exactly the
instruction stream of the kernel run on a freshly built context and
SetGraph (asserted against the ``*_on`` kernels in the session tests).

This module is imported lazily by the registry, on first workload
lookup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.algorithms.bfs import bfs_on
from repro.algorithms.bron_kerbosch import maximal_cliques_on
from repro.algorithms.clique_star import (
    kclique_star_from_k1_on,
    kclique_star_intersect_on,
)
from repro.algorithms.clustering import clusters_from_edges, jarvis_patrick_on
from repro.algorithms.degeneracy import approx_degeneracy_on
from repro.algorithms.fsm import frequent_subgraphs_on
from repro.algorithms.kclique import four_clique_count_on, kclique_count_on
from repro.algorithms.link_prediction import (
    LinkPredictionResult,
    candidate_pairs,
    edge_ids,
)
from repro.algorithms.similarity import all_pairs_similarity_on, similarity_on
from repro.algorithms.subgraph_iso import subgraph_isomorphism_on
from repro.algorithms.triangles import triangle_count_oriented
from repro.errors import ConfigError, GraphError
from repro.graphs.csr import CSRGraph
from repro.runtime.setgraph import SetGraph
from repro.session.registry import workload
from repro.streaming.incremental import degrees_of, local_triangle_counts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.session.plan import BurstTable, PlanStage


def _batch(session, batch):
    return session.config.batch if batch is None else batch


# ---------------------------------------------------------------------------
# Stage compilers (plan API)
#
# Each builder decomposes its workload into the declarative stage list a
# WorkloadPlan executes: prep (which cached structure to touch), the
# count-form frontier bursts declared as one flat BurstTable per stage,
# and host-side finalization.  Executed in order, the stages reproduce
# the eager kernel's instruction stream op for op — asserted
# bit-identical in tests — while exposing the bursts for cross-plan
# fusion (through the generic table-to-units adapter) and the shared
# sub-requests (e.g. the triangle count inside clustering_coefficient)
# for dedup.  A builder returns None when the requested parameters are
# not decomposable (e.g. batch=False); the plan then falls back to one
# opaque call stage.
# ---------------------------------------------------------------------------


def _prep_stage(which: str) -> "PlanStage":
    from repro.session.plan import PlanStage

    def run(session, state, *, _which=which):
        if _which in ("undirected", "both"):
            session.setgraph
        if _which in ("oriented", "both"):
            session.oriented_setgraph
        return None

    # A prep stage *constructs* the cached structure it names; the bare
    # name in ``writes`` expands to the ``struct:`` tokens (build-once,
    # so concurrent prep of one struct is sharing, not a WAW hazard).
    return PlanStage(
        kind="call",
        label=f"prep:{which}",
        reads=(which,),
        writes=(which,),
        run=run,
    )


def _neighborhood_table(sg, ctx, kind: str, reduce) -> "BurstTable":
    """The node-iterator burst table over a SetGraph: task ``u`` scans
    ``N(u)`` and counts it against ``N(v)`` for every ``v ∈ N(u)``
    (neighborhood values are read model-internally, uncharged)."""
    from repro.session.plan import BurstTable

    ids = np.asarray(sg.set_ids, dtype=np.int64)
    arrays = [value.to_array() for value in ctx.sm.values_of(sg.set_ids)]
    offsets = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=offsets[1:])
    nbrs = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)
    return BurstTable(
        kind=kind,
        probes=ids,
        offsets=offsets,
        frontier=ids[nbrs],
        reduce=reduce,
        scan=True,
    )


def _task_sums(counts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-task sums of a stage's concatenated burst counts."""
    cum = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    return cum[offsets[1:]] - cum[offsets[:-1]]


def _triangle_burst_stage() -> "PlanStage":
    """The shared triangle-count burst stage (Algorithm 1's oriented
    ``|N+(u) ∩ N+(v)|`` bursts) — the sub-request both ``triangles``
    and ``clustering_coefficient`` plans schedule, under one dedup key."""
    from repro.session.plan import PlanStage, subrequest_key

    def table(session, state):
        def reduce(state, counts):
            state["triangles"] = int(counts.sum())

        return _neighborhood_table(
            session.oriented_setgraph, session.ctx, "intersect", reduce
        )

    return PlanStage(
        kind="bursts",
        label="bursts:triangles",
        reads=("oriented",),
        key=subrequest_key("triangles", {"batch": True}),
        table=table,
        result=lambda state: state["triangles"],
        seed=lambda state, value: state.__setitem__("triangles", value),
        writes=("state:triangles",),
        seeds=("state:triangles",),
    )


def _triangles_stages(session, params):
    if not _batch(session, params.get("batch")):
        return None  # the scalar per-pair stream is not decomposable
    return [_prep_stage("oriented"), _triangle_burst_stage()]


def _normalize_batch_only(session, params):
    """Cache-key normalizer for workloads whose only knob is ``batch``:
    ``None`` resolves against the session config, so ``run("triangles")``
    and a plan's ``("triangles", {"batch": True})`` sub-request share
    one key (``batch`` does not change outputs or modeled cycles)."""
    return {"batch": _batch(session, params.get("batch"))}


def _clustering_coefficient_stages(session, params):
    from repro.session.plan import PlanStage

    if not _batch(session, params.get("batch")):
        return None

    def finalize(session, state):
        count = state["triangles"]
        degrees = session.current_graph.degrees.astype(float)
        wedges = float((degrees * (degrees - 1) / 2).sum())
        return 3.0 * count / wedges if wedges > 0 else 0.0

    return [
        _prep_stage("oriented"),
        _triangle_burst_stage(),
        PlanStage(
            kind="call",
            label="finalize:wedges",
            reads=("state:triangles",),
            run=finalize,
        ),
    ]


def _local_clustering_stages(session, params):
    from repro.session.plan import PlanStage, subrequest_key

    def table(session, state):
        def reduce(state, counts):
            state["counts"] = _task_sums(counts, burst_table.offsets) // 2

        burst_table = _neighborhood_table(
            session.setgraph, session.ctx, "intersect", reduce
        )
        return burst_table

    def finalize(session, state):
        counts = state["counts"]
        d = degrees_of(session.setgraph).astype(np.float64)
        denom = d * (d - 1.0)
        return np.divide(
            2.0 * counts.astype(np.float64),
            denom,
            out=np.zeros(counts.size, dtype=np.float64),
            where=denom > 0,
        )

    return [
        _prep_stage("undirected"),
        PlanStage(
            kind="bursts",
            label="bursts:local_triangles",
            reads=("undirected",),
            key=subrequest_key("local_triangle_counts", {}),
            table=table,
            result=lambda state: state["counts"],
            seed=lambda state, value: state.__setitem__("counts", value),
            writes=("state:counts",),
            seeds=("state:counts",),
        ),
        PlanStage(
            kind="call",
            label="finalize:coefficients",
            reads=("state:counts",),
            run=finalize,
        ),
    ]


# Count measures whose per-run burst + hoisted cardinality fetches the
# stage compiler can reproduce exactly (shared-neighbor measures batch
# through the materializing fan-out and stay opaque).
_PLANNABLE_MEASURES = ("jaccard", "overlap", "common_neighbors", "total_neighbors")


def _similarity_pairs_stages(session, params):
    from repro.session.plan import BurstTable, PlanStage, subrequest_key

    measure = params.get("measure", "jaccard")
    if (
        "pairs" not in params  # let the opaque path raise the usual error
        or not _batch(session, params.get("batch"))
        or measure not in _PLANNABLE_MEASURES
    ):
        return None
    pairs = np.asarray(params["pairs"], dtype=np.int64)
    kind = "union" if measure == "total_neighbors" else "intersect"
    # One task per run of pairs sharing their first vertex (the
    # grouping of all_pairs_similarity_on); the ratio measures follow
    # each burst with similarity_batch_on's cardinality fetches.
    ratio = measure in ("jaccard", "overlap")
    us, vs = pairs.reshape(-1, 2).T
    heads = np.flatnonzero(np.diff(us, prepend=-1) != 0)

    def table(session, state):
        sg = session.setgraph
        ids = np.asarray(sg.set_ids, dtype=np.int64)
        degrees = degrees_of(sg).astype(np.float64)

        def reduce(state, counts):
            inter = counts.astype(np.float64)
            if not ratio:
                state["scores"] = inter
                return
            du = degrees[us]
            dv = degrees[vs]
            if measure == "jaccard":
                denom = du + dv - inter
            else:  # overlap
                denom = np.minimum(du, dv)
            state["scores"] = np.divide(
                inter, denom, out=np.zeros_like(inter), where=denom > 0
            )

        return BurstTable(
            kind=kind,
            probes=ids[us[heads]],
            offsets=np.append(heads, us.size),
            frontier=ids[vs],
            reduce=reduce,
            fetch_cardinalities=ratio,
        )

    return [
        _prep_stage("undirected"),
        PlanStage(
            kind="bursts",
            label=f"bursts:watchlist-{measure}",
            reads=("undirected",),
            key=subrequest_key(
                "similarity_pairs",
                {"pairs": pairs, "measure": measure, "batch": True},
            ),
            table=table,
            result=lambda state: state["scores"],
            seed=lambda state, value: state.__setitem__("scores", value),
            writes=("state:scores",),
            seeds=("state:scores",),
        ),
    ]


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


@workload(
    "triangles",
    requires="oriented",
    view_capable=True,
    description="Triangle count (Algorithm 1, oriented count bursts)",
    stages=_triangles_stages,
    normalize=_normalize_batch_only,
)
def _triangles(session, *, batch=None, view=None):
    ctx = session.ctx
    if view is not None:
        # Unoriented full recompute on a snapshot / live view: per-
        # vertex count bursts; each triangle is seen twice per vertex.
        return int(local_triangle_counts(view, ctx).sum()) // 3
    return triangle_count_oriented(
        session.oriented_setgraph, ctx, batch=_batch(session, batch)
    )


@workload(
    "clustering_coefficient",
    requires="oriented",
    description="Global clustering coefficient 3T / open wedges",
    stages=_clustering_coefficient_stages,
    normalize=_normalize_batch_only,
    subrequests=("triangles",),
)
def _clustering_coefficient(session, *, batch=None):
    count = triangle_count_oriented(
        session.oriented_setgraph, session.ctx, batch=_batch(session, batch)
    )
    degrees = session.current_graph.degrees.astype(float)
    wedges = float((degrees * (degrees - 1) / 2).sum())
    return 3.0 * count / wedges if wedges > 0 else 0.0


@workload(
    "local_clustering",
    requires="undirected",
    view_capable=True,
    description="Per-vertex local clustering coefficients",
    stages=_local_clustering_stages,
    subrequests=("local_triangle_counts",),
)
def _local_clustering(session, *, view=None):
    target = view if view is not None else session.setgraph
    counts = local_triangle_counts(target, session.ctx)
    degrees = degrees_of(target)
    d = degrees.astype(np.float64)
    denom = d * (d - 1.0)
    return np.divide(
        2.0 * counts.astype(np.float64),
        denom,
        out=np.zeros(counts.size, dtype=np.float64),
        where=denom > 0,
    )


@workload(
    "kclique",
    requires="oriented",
    effect_writes=("sets:scratch",),
    description="k-clique counting/listing (Algorithm 3)",
)
def _kclique(session, *, k, max_patterns=None, collect=False, batch=None):
    return kclique_count_on(
        session.ctx,
        session.oriented_setgraph,
        k,
        max_patterns=max_patterns,
        collect=collect,
        batch=_batch(session, batch),
    )


@workload(
    "four_clique",
    requires="oriented",
    effect_writes=("sets:scratch",),
    description="Specialized 4-clique counting (Table 4)",
)
def _four_clique(session, *, max_patterns=None, batch=None):
    return four_clique_count_on(
        session.ctx,
        session.oriented_setgraph,
        max_patterns=max_patterns,
        batch=_batch(session, batch),
    )


@workload(
    "kclique_star",
    # Algorithm 5 (from_k1) reads only the orientation; Algorithm 4
    # (intersect) also intersects *undirected* neighborhoods.
    requires=lambda params: (
        "both" if params.get("variant") == "intersect" else "oriented"
    ),
    description="k-clique-star listing (Algorithms 4 and 5)",
    effect_writes=("sets:scratch",),
)
def _kclique_star(session, *, k, variant="from_k1", max_patterns=None):
    if variant not in ("intersect", "from_k1"):
        raise ConfigError("variant must be 'intersect' or 'from_k1'")
    ctx = session.ctx
    oriented = session.oriented_setgraph
    if variant == "from_k1":
        return kclique_star_from_k1_on(ctx, oriented, k, max_patterns=max_patterns)
    return kclique_star_intersect_on(
        session.current_graph,
        ctx,
        session.setgraph,
        oriented,
        k,
        max_patterns=max_patterns,
    )


@workload(
    "maximal_cliques",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Bron-Kerbosch maximal clique listing (Algorithm 2)",
)
def _maximal_cliques(session, *, max_patterns=None, max_patterns_per_root=None):
    return maximal_cliques_on(
        session.current_graph,
        session.ctx,
        session.setgraph,
        max_patterns=max_patterns,
        max_patterns_per_root=max_patterns_per_root,
        order=session.degeneracy.order,
    )


@workload(
    "subgraph_iso",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="VF2 subgraph isomorphism (Algorithm 7)",
)
def _subgraph_iso(
    session,
    *,
    pattern,
    target_labels=None,
    pattern_labels=None,
    max_matches=None,
    collect=False,
):
    return subgraph_isomorphism_on(
        session.current_graph,
        session.ctx,
        session.setgraph,
        pattern,
        target_labels=target_labels,
        pattern_labels=pattern_labels,
        max_matches=max_matches,
        collect=collect,
    )


@workload(
    "fsm",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Apriori frequent subgraph mining (Algorithm 8)",
)
def _fsm(session, *, sigma=0.5, max_size=3, max_matches_per_pattern=2_000):
    return frequent_subgraphs_on(
        session.current_graph,
        session.ctx,
        session.setgraph,
        sigma=sigma,
        max_size=max_size,
        max_matches_per_pattern=max_matches_per_pattern,
    )


# ---------------------------------------------------------------------------
# Learning / similarity
# ---------------------------------------------------------------------------


@workload(
    "similarity",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Vertex-pair neighborhood similarity (Algorithm 9)",
)
def _similarity(session, *, u, v, measure="jaccard"):
    return similarity_on(session.ctx, session.setgraph, u, v, measure=measure)


@workload(
    "similarity_pairs",
    requires="undirected",
    view_capable=True,
    description="Batched similarity scores for a pair list",
    stages=_similarity_pairs_stages,
    normalize=lambda session, params: {
        "pairs": np.asarray(params["pairs"], dtype=np.int64),
        "measure": params.get("measure", "jaccard"),
        "batch": _batch(session, params.get("batch")),
    }
    if "pairs" in params
    else params,
)
def _similarity_pairs(session, *, pairs, measure="jaccard", batch=None, view=None):
    target = view if view is not None else session.setgraph
    return all_pairs_similarity_on(
        session.ctx,
        target,
        np.asarray(pairs, dtype=np.int64),
        measure=measure,
        batch=_batch(session, batch),
    )


@workload(
    "jarvis_patrick",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Jarvis-Patrick similarity clustering (Algorithm 11)",
)
def _jarvis_patrick(session, *, tau=2.0, measure="common_neighbors", batch=None):
    graph = session.current_graph
    kept = jarvis_patrick_on(
        graph,
        session.ctx,
        session.setgraph,
        tau=tau,
        measure=measure,
        batch=_batch(session, batch),
    )
    clusters = clusters_from_edges(graph.num_vertices, kept)
    return {"edges": kept, "clusters": clusters}


@workload(
    "link_prediction",
    requires="none",
    effect_writes=("sets:scratch",),
    description="Link prediction + accuracy test (Algorithm 10)",
)
def _link_prediction(
    session,
    *,
    removal_fraction=0.1,
    measure="jaccard",
    batch=None,
    top_k=None,
    candidate_limit=20_000,
    seed=7,
):
    """Full Algorithm 10 pipeline on a per-run sparsified graph.

    The sparsification (and thus the candidate SetGraph) is part of the
    workload, not the session: each run removes its own random edge
    subset, so the session's cached sets are not used here and the
    per-run setup is re-registered (uncharged) every time.  The per-run
    sets are released (model-internal, uncharged — the legacy one-shot
    path discarded the whole context instead) before returning, so a
    long-lived session stays bounded under repeated runs.
    """
    if not 0.0 < removal_fraction < 1.0:
        raise ConfigError("removal_fraction must be in (0, 1)")
    ctx = session.ctx
    config = session.config
    graph = session.current_graph
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    m = edges.shape[0]
    # Checked at run time, not submit time: a stream can empty the
    # graph after the plan was compiled.
    if m == 0:
        raise GraphError(
            "link_prediction needs at least one edge to hold out",
            details={"num_vertices": n, "num_edges": 0},
        )
    removed_count = max(1, int(removal_fraction * m))
    removed_idx = rng.choice(m, size=removed_count, replace=False)
    removed_mask = np.zeros(m, dtype=bool)
    removed_mask[removed_idx] = True
    sparse_edges = edges[~removed_mask]
    removed_edges = edges[removed_mask]

    sparse_graph = CSRGraph.from_edges(n, sparse_edges)
    sg = SetGraph.from_graph(
        sparse_graph, ctx, t=config.t, budget=config.budget, policy=config.policy
    )

    # E_rndm and (later) E_predict live in the pair-id universe.
    pair_universe = n * n
    e_rndm = ctx.create_set(
        edge_ids(removed_edges, n), universe=pair_universe, dense=False
    )

    pairs = candidate_pairs(sparse_graph, limit=candidate_limit)
    scores = all_pairs_similarity_on(
        ctx, sg, pairs, measure=measure, batch=_batch(session, batch)
    )
    if top_k is None:
        top_k = removed_count
    top_k = min(top_k, len(pairs))
    top_idx = np.argsort(-scores, kind="stable")[:top_k]
    predicted = pairs[np.sort(top_idx)]
    e_predict = ctx.create_set(
        edge_ids(predicted, n) if len(predicted) else [],
        universe=pair_universe,
        dense=False,
    )
    eff = ctx.intersect_count(e_predict, e_rndm)
    for sid in (*sg.set_ids, e_rndm, e_predict):
        ctx.release(sid)
    return LinkPredictionResult(
        effectiveness=eff,
        removed_edges=removed_count,
        predicted_edges=top_k,
        precision=eff / top_k if top_k else 0.0,
    )


# ---------------------------------------------------------------------------
# Orders / traversal
# ---------------------------------------------------------------------------


@workload(
    "approx_degeneracy",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Streaming approximate degeneracy order (Algorithm 6)",
)
def _approx_degeneracy(session, *, eps=0.5):
    return approx_degeneracy_on(
        session.current_graph, session.ctx, session.setgraph, eps=eps
    )


@workload(
    "bfs",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Set-centric direction-optimizing BFS (Algorithm 12)",
)
def _bfs(session, *, root=0, direction="auto"):
    return bfs_on(
        session.current_graph,
        session.ctx,
        session.setgraph,
        root,
        direction=direction,
    )
