"""Incremental degeneracy-orientation maintenance.

The oriented algorithms (triangle counting, k-clique, clique-star —
paper Section 7.1) consume an acyclic orientation of the graph: each
edge points from its lower-ranked endpoint under some total vertex
order.  *Which* total order is used never changes the functional
output — every clique is still enumerated exactly once from its
lowest-ranked vertex — it only changes the *work bound*: a degeneracy
order bounds every out-degree by the degeneracy ``c``.

That makes the orientation an ideal candidate for incremental
maintenance across stream epochs: instead of re-peeling and rebuilding
the oriented ``N+`` sets per run,

* each inserted edge is oriented by the **current** rank (one element
  insert into the source's ``N+`` set),
* each deleted edge removes its arc from whichever endpoint owns it,
* per-vertex out-degrees are tracked host-side, and
* only when the maintained maximum out-degree drifts past the
  ``(2 + eps) * c`` quality bound (the approximation ratio of the
  paper's streaming Algorithm 6) is the order repaired — first
  locally, by demoting the violating vertices to the end of the order
  (flipping only their out-arcs), then, if the repair cascade exceeds
  its budget, by a full re-peel.

All set mutations dispatch SISA element-update instructions on the
owning context, and a full re-peel is charged as the real rebuild it
is (one DELETE + one CREATE per ``N+`` set, plus the host-side
bucket-peel work), so maintained and rebuilt orientations compete on
equal modeled-cycle footing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.graphs.csr import CSRGraph
from repro.graphs.digraph import DiGraph, orient_by_order
from repro.graphs.orientation import degeneracy_order, induced_out_degrees
from repro.streaming.graph import ensure_live_view
from repro.streaming.incremental import StreamMaintainer


@dataclass
class OrientationStats:
    """What the maintainer actually did, for assertions and reporting."""

    batches: int = 0  # update batches observed
    arc_updates: int = 0  # element updates applied to the N+ sets
    repairs: int = 0  # localized rank-repair passes
    repair_flips: int = 0  # arcs flipped by localized repairs
    full_repeels: int = 0  # drift-triggered full re-peels
    resyncs: int = 0  # recoveries from updates applied outside the hooks


class IncrementalOrientation(StreamMaintainer):
    """Keeps a degeneracy-style orientation valid across stream epochs.

    Construct it over the live :class:`DynamicSetGraph`, the oriented
    ``N+`` :class:`~repro.runtime.setgraph.SetGraph` to maintain (its
    sets are mutated in place through the shared context) and the
    :class:`~repro.graphs.orientation.DegeneracyResult` that seeded the
    orientation; then either subscribe it to the dynamic graph
    (``dynamic.subscribe(maintainer)``) or hand it to a
    :class:`~repro.streaming.engine.StreamingEngine`.

    ``eps`` sets the drift bound: the maintained maximum out-degree may
    grow to ``(2 + eps) * c`` (with ``c`` the degeneracy measured at
    the last peel) before any repair work is spent — the same quality
    bound the paper's streaming Algorithm 6 guarantees.

    ``repeel_every_batch=True`` turns the maintainer into the
    *reference* policy that re-peels after every batch — the baseline
    the orientation-maintenance benchmark (and the drift fallback)
    compares against.
    """

    def __init__(
        self,
        dynamic,
        oriented,
        seed,
        *,
        eps: float = 0.5,
        repair_limit: int = 64,
        repeel_every_batch: bool = False,
    ):
        ensure_live_view(dynamic)
        if eps <= 0:
            raise ConfigError("eps must be positive")
        if repair_limit < 0:
            raise ConfigError("repair_limit must be non-negative")
        if oriented.num_vertices != dynamic.num_vertices:
            raise ConfigError(
                "oriented SetGraph and dynamic graph disagree on the "
                "vertex universe"
            )
        self.dynamic = dynamic
        self.ctx = dynamic.ctx
        self.oriented = oriented
        self.eps = float(eps)
        self.repair_limit = int(repair_limit)
        self.repeel_every_batch = bool(repeel_every_batch)
        n = dynamic.num_vertices
        # Maintained rank: any array of distinct keys induces a valid
        # acyclic orientation, so localized repair can append past n.
        self.rank = np.asarray(seed.rank, dtype=np.int64).copy()
        self._next_rank = int(self.rank.max(initial=-1)) + 1
        self.base_degeneracy = int(seed.degeneracy)
        sm = self.ctx.sm
        self.out_degree = np.asarray(
            [sm.meta(sid).cardinality for sid in oriented.set_ids],
            dtype=np.int64,
        )
        self.stats = OrientationStats()
        # Optional observability hub (set by the owning session);
        # mirrors maintenance events into labeled counters.
        self.obs = None
        # Optional mutation hook ``(op) -> None`` — the race detector's
        # shim.  Every mutation of the maintained rank/out-degree state
        # (incremental arc updates, repairs, re-peels, desyncs) reports
        # through it; repolint's session-state-mutation rule keeps
        # direct ``rank``/``out_degree`` writes confined to this module
        # so the hook stays complete.
        self.event = None
        # Bumped on every mutation of the maintained orientation
        # (incremental updates, repairs, re-peels): consumers caching
        # derived views (e.g. the session's DiGraph export) key on it.
        self.revision = 0
        self._synced_mutations = dynamic.mutations
        self._n = n

    # ------------------------------------------------------------------

    @property
    def bound(self) -> int:
        """Maximum tolerated out-degree, ``(2 + eps) * c`` (at least 1,
        so an empty seed graph does not re-peel on every insertion)."""
        return int((2.0 + self.eps) * max(1, self.base_degeneracy))

    @property
    def max_out_degree(self) -> int:
        return int(self.out_degree.max(initial=0))

    @property
    def synced_mutations(self) -> int:
        """The ``DynamicSetGraph.mutations`` value this maintainer has
        fully incorporated.  A mismatch with the live counter means
        updates were applied outside the hook protocol (raw
        ``apply_insertions``/``apply_deletions``) and the orientation
        needs a :meth:`resync`."""
        return self._synced_mutations

    @property
    def in_sync(self) -> bool:
        return self._synced_mutations == self.dynamic.mutations

    # ------------------------------------------------------------------
    # StreamMaintainer hooks
    # ------------------------------------------------------------------

    def _oriented_arcs(
        self, edges: np.ndarray
    ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """(set_id, element) updates plus the source vertex per edge,
        orienting each edge by the current rank."""
        ids = self.oriented.set_ids
        rank = self.rank
        updates: list[tuple[int, int]] = []
        srcs = np.empty(len(edges), dtype=np.int64)
        for k, (u, v) in enumerate(edges):
            u, v = int(u), int(v)
            src, dst = (u, v) if rank[u] < rank[v] else (v, u)
            updates.append((ids[src], dst))
            srcs[k] = src
        # Rank comparisons are host-side bookkeeping.
        self.ctx.charge_host_ops(2.0 * len(edges))
        return updates, srcs

    def on_deletions(self, dynamic, edges: np.ndarray) -> None:
        ensure_live_view(dynamic)
        if self.repeel_every_batch or len(edges) == 0:
            return
        if self.event is not None:
            self.event("write")
        updates, srcs = self._oriented_arcs(edges)
        flags = self.ctx.remove_batch(updates)
        np.subtract.at(self.out_degree, srcs[flags], 1)
        self.stats.arc_updates += len(updates)
        self.revision += 1
        self._synced_mutations = dynamic.mutations

    def on_insertions(self, dynamic, edges: np.ndarray) -> None:
        ensure_live_view(dynamic)
        if self.repeel_every_batch or len(edges) == 0:
            return
        if self.event is not None:
            self.event("write")
        updates, srcs = self._oriented_arcs(edges)
        flags = self.ctx.insert_batch(updates)
        np.add.at(self.out_degree, srcs[flags], 1)
        self.stats.arc_updates += len(updates)
        self.revision += 1

    def on_applied(self, dynamic, touched: np.ndarray) -> None:
        ensure_live_view(dynamic)
        self.stats.batches += 1
        if self.obs is not None:
            self.obs.orientation_event("batch")
        if self.repeel_every_batch:
            if touched.size:
                self._repeel(dynamic)
            self._synced_mutations = dynamic.mutations
            return
        self._synced_mutations = dynamic.mutations
        if touched.size and self.max_out_degree > self.bound:
            self._repair(dynamic)

    # ------------------------------------------------------------------
    # Repair paths
    # ------------------------------------------------------------------

    def _repair(self, dynamic) -> None:
        """Localized rank repair: demote each violating vertex to the
        end of the order, flipping only its out-arcs.  A demoted
        vertex's out-degree drops to zero while each former out-
        neighbor gains one, so the cascade usually dies out in a few
        steps; if it exceeds ``repair_limit`` demotions, fall back to a
        full re-peel."""
        if self.event is not None:
            self.event("write")
        ctx = self.ctx
        ids = self.oriented.set_ids
        out = self.out_degree
        bound = self.bound
        queue = [int(v) for v in np.flatnonzero(out > bound)]
        demoted = 0
        flips = 0
        while queue:
            if demoted >= self.repair_limit:
                self._repeel(dynamic)
                return
            v = queue.pop()
            if out[v] <= bound:
                continue
            # Stream N+(v) out of memory (charged scan), then flip each
            # out-arc v->w into w->v.
            out_nbrs = ctx.elements(ids[v])
            self.rank[v] = self._next_rank
            self._next_rank += 1
            removes = [(ids[v], int(w)) for w in out_nbrs]
            inserts = [(ids[int(w)], v) for w in out_nbrs]
            ctx.remove_batch(removes)
            ctx.insert_batch(inserts)
            self.stats.arc_updates += len(removes) + len(inserts)
            out[v] = 0
            for w in out_nbrs:
                w = int(w)
                out[w] += 1
                if out[w] == bound + 1:
                    queue.append(w)
            ctx.charge_host_ops(2.0 * out_nbrs.size + 2.0)
            demoted += 1
            flips += int(out_nbrs.size)
        self.stats.repairs += 1
        self.stats.repair_flips += flips
        self.revision += 1
        if self.obs is not None:
            self.obs.orientation_event("repair")

    def _repeel(self, dynamic) -> None:
        """Full re-peel: recompute the exact degeneracy order of the
        current graph and rebuild every ``N+`` set.

        Charged as the rebuild it models — ``O(n + m)`` host work for
        the Matula–Beck bucket peel plus one DELETE and one CREATE per
        ``N+`` set — so avoiding re-peels is what the maintainer's
        modeled-cycle win is measured against.
        """
        if self.event is not None:
            self.event("write")
        ctx = self.ctx
        n = dynamic.num_vertices
        edges = dynamic.edge_array()
        graph = CSRGraph.from_edges(n, edges)
        result = degeneracy_order(graph)
        ctx.charge_host_ops(float(n + 2 * edges.shape[0]))
        self.rank = result.rank.astype(np.int64, copy=True)
        self._next_rank = n
        self.base_degeneracy = int(result.degeneracy)
        digraph = orient_by_order(graph, result.order)
        ids = self.oriented.set_ids
        dense_mask = self.oriented.dense_mask
        for v in range(n):
            ctx.free(ids[v])
            ids[v] = ctx.create_set(
                digraph.out_neighbors(v),
                universe=n,
                dense=bool(dense_mask[v]),
            )
        self.out_degree = digraph.out_degrees.astype(np.int64, copy=True)
        self.stats.full_repeels += 1
        self.revision += 1
        self._synced_mutations = dynamic.mutations
        if self.obs is not None:
            self.obs.orientation_event("repeel")

    def repeel(self) -> None:
        """Force a full re-peel of the maintained orientation now."""
        self._repeel(self.dynamic)

    def resync(self) -> None:
        """Recover from updates applied outside the hook protocol (raw
        ``apply_insertions``/``apply_deletions`` on the dynamic graph):
        the maintained rank and out-degrees can no longer be trusted,
        so re-peel from the current graph state."""
        self.stats.resyncs += 1
        if self.obs is not None:
            self.obs.orientation_event("resync")
        self._repeel(self.dynamic)

    def mark_desynced(self) -> None:
        """Declare the maintained orientation untrusted without
        touching it, as if raw updates had bypassed the hooks.  The
        next oriented-structure access degrades to a charged
        :meth:`resync` — the serving fault injector uses this to
        exercise that path on demand."""
        if self.event is not None:
            self.event("write")
        self._synced_mutations = -1
        if self.obs is not None:
            self.obs.orientation_event("desync")

    # ------------------------------------------------------------------
    # Verification (model-internal, test support)
    # ------------------------------------------------------------------

    def export_digraph(self) -> DiGraph:
        """The maintained orientation as an immutable
        :class:`~repro.graphs.digraph.DiGraph` (model-internal
        export)."""
        sm = self.ctx.sm
        arcs = []
        for v, sid in enumerate(self.oriented.set_ids):
            targets = sm.value(sid).to_array()
            if targets.size:
                arcs.append(
                    np.column_stack(
                        [np.full(targets.size, v, dtype=np.int64), targets]
                    )
                )
        if not arcs:
            return DiGraph.from_arcs(self._n, np.empty((0, 2), dtype=np.int64))
        return DiGraph.from_arcs(self._n, np.concatenate(arcs))

    def assert_consistent(self, dynamic=None) -> None:
        """Assert the maintained state equals a fresh orientation of
        the current graph by the maintained rank: same arcs, same
        out-degrees, out-degree within the drift bound.  Model-internal
        (charges nothing); used by tests and the benchmark."""
        dynamic = self.dynamic if dynamic is None else dynamic
        sm = self.ctx.sm
        graph = CSRGraph.from_edges(dynamic.num_vertices, dynamic.edge_array())
        expected_out = induced_out_degrees(graph, self.rank)
        if not np.array_equal(expected_out, self.out_degree):
            raise AssertionError("maintained out-degrees drifted")
        if self.max_out_degree > max(self.bound, self.base_degeneracy):
            raise AssertionError("maintained out-degree exceeds the bound")
        rank = self.rank
        for v in range(dynamic.num_vertices):
            nbrs = graph.neighbors(v)
            expected = np.sort(nbrs[rank[nbrs] > rank[v]])
            actual = np.sort(sm.value(self.oriented.set_ids[v]).to_array())
            if not np.array_equal(expected, actual):
                raise AssertionError(f"oriented set of vertex {v} drifted")
