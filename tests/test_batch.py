"""Equivalence suite for batched and count-only set instructions.

The contract under test (ISSUE: batched set-instruction execution
engine + zero-materialization counting fast path):

* count-form ops return the same numbers as materializing ops for all
  representation pairs (sorted SA, unsorted SA, DB) without allocating
  a result set,
* batched execution is bit-identical to sequential execution in
  functional outputs, simulated cycles, SCU stats, SMB behaviour and
  traces — batching amortizes Python overhead, not modeled cost.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kclique import four_clique_count_on, kclique_count_on
from repro.algorithms.similarity import (
    COUNT_MEASURES,
    all_pairs_similarity_on,
    similarity_batch_on,
    similarity_on,
)
from repro.algorithms.common import make_context, oriented_setgraph
from repro.algorithms.triangles import triangle_count_oriented
from repro.graphs.generators import gnp_random_graph
from repro.runtime import batch as batchmod
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph
from repro.session import SisaSession
from repro.sets import kernels
from repro.sets.bitops import _popcount_unpackbits, popcount
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import SparseArray

UNIVERSE = 96

subsets = st.sets(st.integers(min_value=0, max_value=UNIVERSE - 1), max_size=40)


def sa(elements, *, shuffle_seed=None):
    s = SparseArray(np.asarray(sorted(elements), dtype=np.int64), UNIVERSE)
    if shuffle_seed is not None:
        s = s.shuffled(shuffle_seed)
    return s


def db(elements):
    return DenseBitvector.from_elements(np.asarray(sorted(elements)), UNIVERSE)


def variants(elements):
    """The three storage variants of one logical set."""
    return [sa(elements), sa(elements, shuffle_seed=3), db(elements)]


class TestCountKernels:
    """Count-form kernels agree with set semantics for every pair."""

    @given(subsets, subsets)
    @settings(max_examples=40, deadline=None)
    def test_intersect_cardinality_all_pairs(self, a, b):
        for va in variants(a):
            for vb in variants(b):
                assert kernels.intersect_cardinality(va, vb) == len(a & b)

    @given(subsets, subsets)
    @settings(max_examples=40, deadline=None)
    def test_union_cardinality_all_pairs(self, a, b):
        for va in variants(a):
            for vb in variants(b):
                assert kernels.union_cardinality(va, vb) == len(a | b)

    @given(subsets, subsets)
    @settings(max_examples=40, deadline=None)
    def test_difference_cardinality_all_pairs(self, a, b):
        for va in variants(a):
            for vb in variants(b):
                assert kernels.difference_cardinality(va, vb) == len(a - b)

    def test_counts_allocate_no_result_set(self, monkeypatch):
        """The §6.2.3 contract: no VertexSet is constructed by a
        count-form instruction, for any representation pair."""

        pairs = [
            (va, vb)
            for va in variants({1, 2, 3, 40})
            for vb in variants({2, 3, 70})
        ]

        def boom(*args, **kwargs):
            raise AssertionError("count op materialized a result set")

        monkeypatch.setattr(SparseArray, "__init__", boom)
        monkeypatch.setattr(DenseBitvector, "__init__", boom)
        for va, vb in pairs:
            assert kernels.intersect_cardinality(va, vb) == 2
            assert kernels.union_cardinality(va, vb) == 5
            assert kernels.difference_cardinality(va, vb) == 2

    def test_context_counts_allocate_no_result_set(self, monkeypatch):
        ctx = SisaContext(threads=2)
        ids = [
            ctx.create_set([1, 2, 3], universe=50),
            ctx.create_set([2, 3, 4], universe=50, dense=True),
            ctx.create_set([3, 4, 5], universe=50),
        ]

        def boom(*args, **kwargs):
            raise AssertionError("count op materialized a result set")

        monkeypatch.setattr(SparseArray, "__init__", boom)
        monkeypatch.setattr(DenseBitvector, "__init__", boom)
        assert ctx.intersect_count(ids[0], ids[1]) == 2
        assert ctx.union_count(ids[0], ids[2]) == 5
        assert ctx.difference_count(ids[1], ids[0]) == 1
        assert list(ctx.intersect_count_batch(ids[0], ids[1:])) == [2, 1]
        assert list(ctx.union_count_batch(ids[0], ids[1:])) == [4, 5]
        assert list(ctx.difference_count_batch(ids[0], ids[1:])) == [1, 2]

    def test_popcount_fallback_matches_numpy(self):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**63, size=37, dtype=np.uint64)
        assert np.array_equal(
            np.asarray(_popcount_unpackbits(words), dtype=np.int64),
            np.asarray(popcount(words), dtype=np.int64),
        )
        empty = np.zeros(0, dtype=np.uint64)
        assert _popcount_unpackbits(empty).size == 0

    @given(subsets, st.lists(subsets, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_flat_batch_counts(self, a, bs):
        """The one-pass flat kernels equal per-pair counts."""
        for va in (sa(a), db(a)):
            values = [v for b in bs for v in (sa(b), sa(b, shuffle_seed=7), db(b))]
            got = batchmod.intersect_counts(va, values)
            expected = [kernels.intersect_cardinality(va, v) for v in values]
            assert list(got) == expected

    @given(st.lists(subsets, min_size=1, max_size=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_stage_kernel_counts(self, sets, data):
        """The whole-stage kernel equals per-pair counts for any mix of
        sorted, unsorted and dense operands."""
        values = [v for s in sets for v in variants(s)]
        pairs = data.draw(
            st.lists(st.tuples(*[st.integers(0, len(values) - 1)] * 2), max_size=30)
        )
        a = np.asarray([p[0] for p in pairs], dtype=np.int64)
        b = np.asarray([p[1] for p in pairs], dtype=np.int64)
        got = batchmod.stage_intersect_counts(batchmod.StageLayout(values), a, b)
        expected = [
            kernels.intersect_cardinality(values[i], values[j]) for i, j in pairs
        ]
        assert list(got) == expected

    def test_stage_kernel_wide_keys(self):
        """Rank-keyed probes stay exact when ``rank * universe`` needs
        64 bits."""
        universe = 3_000_000_000
        rng = np.random.default_rng(0)
        values = [
            SparseArray(np.unique(rng.integers(0, universe, 40)), universe)
            for _ in range(3)
        ]
        shared = values[0].to_array()[:10]
        values.append(SparseArray(np.unique(np.concatenate([shared, [5]])), universe))
        a = np.asarray([0, 3, 2, 3], dtype=np.int32)
        b = np.asarray([3, 0, 3, 3], dtype=np.int32)
        got = batchmod.stage_intersect_counts(batchmod.StageLayout(values), a, b)
        assert list(got) == [
            kernels.intersect_cardinality(values[i], values[j]) for i, j in zip(a, b)
        ]
        assert got[0] == 10


def _mixed_context(seed=0, threads=4, mode="sisa", trace=False):
    """A context with a spread of sorted-SA / unsorted-SA / DB sets."""
    rng = np.random.default_rng(seed)
    ctx = SisaContext(threads=threads, mode=mode, trace=trace)
    ids = []
    for i in range(36):
        k = int(rng.integers(0, 50))
        elems = rng.choice(150, size=k, replace=False)
        if i % 4 == 0:
            ids.append(ctx.create_set(elems, universe=150, dense=True))
        elif i % 4 == 1:
            ids.append(ctx.create_set(elems, universe=150, sorted_=False))
        else:
            ids.append(ctx.create_set(np.sort(elems), universe=150))
    return ctx, ids


class TestBatchSequentialEquivalence:
    """Batched execution == sequential execution, bit for bit."""

    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    @pytest.mark.parametrize(
        "batch_name,scalar_name",
        [
            ("intersect_count_batch", "intersect_count"),
            ("union_count_batch", "union_count"),
            ("difference_count_batch", "difference_count"),
        ],
    )
    def test_count_batch_matches_scalar(self, mode, batch_name, scalar_name):
        ctx_b, ids_b = _mixed_context(mode=mode, trace=True)
        ctx_s, ids_s = _mixed_context(mode=mode, trace=True)
        a_b, a_s = ids_b[5], ids_s[5]
        bs_b, bs_s = ids_b[1:], ids_s[1:]
        ctx_b.begin_task()
        got = getattr(ctx_b, batch_name)(a_b, bs_b)
        ctx_s.begin_task()
        scalar_op = getattr(ctx_s, scalar_name)
        expected = [scalar_op(a_s, b) for b in bs_s]
        assert list(got) == expected
        assert ctx_b.runtime_cycles == ctx_s.runtime_cycles
        assert ctx_b.scu.stats == ctx_s.scu.stats
        assert ctx_b.scu.smb.stats == ctx_s.scu.smb.stats
        assert ctx_b.trace.events == ctx_s.trace.events

    def test_intersect_batch_matches_scalar(self):
        ctx_b, ids_b = _mixed_context(seed=2, trace=True)
        ctx_s, ids_s = _mixed_context(seed=2, trace=True)
        a_b, a_s = ids_b[8], ids_s[8]
        ctx_b.begin_task()
        got_ids = ctx_b.intersect_batch(a_b, ids_b[:20])
        ctx_s.begin_task()
        exp_ids = [ctx_s.intersect(a_s, b) for b in ids_s[:20]]
        assert got_ids == exp_ids
        for g, e in zip(got_ids, exp_ids):
            assert np.array_equal(
                ctx_b.value(g).to_array(), ctx_s.value(e).to_array()
            )
            assert type(ctx_b.value(g)) is type(ctx_s.value(e))
        assert ctx_b.runtime_cycles == ctx_s.runtime_cycles
        assert ctx_b.scu.stats == ctx_s.scu.stats
        assert ctx_b.trace.events == ctx_s.trace.events

    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    @pytest.mark.parametrize(
        "batch_name,scalar_name",
        [("union_batch", "union"), ("difference_batch", "difference")],
    )
    def test_materializing_union_difference_batch_matches_scalar(
        self, mode, batch_name, scalar_name
    ):
        """The PR 5 satellite: materializing union/difference fan-outs,
        cycle-identical to the per-op stream for every representation
        pair (same dispatch path as intersect_batch)."""
        ctx_b, ids_b = _mixed_context(mode=mode, trace=True)
        ctx_s, ids_s = _mixed_context(mode=mode, trace=True)
        a_b, a_s = ids_b[8], ids_s[8]
        ctx_b.begin_task()
        got_ids = getattr(ctx_b, batch_name)(a_b, ids_b[:20])
        ctx_s.begin_task()
        scalar_op = getattr(ctx_s, scalar_name)
        exp_ids = [scalar_op(a_s, b) for b in ids_s[:20]]
        assert got_ids == exp_ids
        for g, e in zip(got_ids, exp_ids):
            assert np.array_equal(
                ctx_b.value(g).to_array(), ctx_s.value(e).to_array()
            )
            assert type(ctx_b.value(g)) is type(ctx_s.value(e))
        assert ctx_b.runtime_cycles == ctx_s.runtime_cycles
        assert ctx_b.scu.stats == ctx_s.scu.stats
        assert ctx_b.scu.smb.stats == ctx_s.scu.smb.stats
        assert ctx_b.trace.events == ctx_s.trace.events

    def test_empty_batch_charges_nothing(self):
        ctx, ids = _mixed_context()
        before = ctx.runtime_cycles
        instr = ctx.instruction_count
        assert ctx.intersect_count_batch(ids[0], []).size == 0
        assert ctx.intersect_batch(ids[0], []) == []
        assert ctx.union_batch(ids[0], []) == []
        assert ctx.difference_batch(ids[0], []) == []
        assert ctx.runtime_cycles == before
        assert ctx.instruction_count == instr


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(60, 0.2, seed=9)


class TestAlgorithmEquivalence:
    """Rewired algorithms: batch=True == batch=False, cycles included."""

    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    def test_triangles(self, graph, mode):
        runs = []
        for batch in (True, False):
            ctx = make_context(threads=8, mode=mode)
            __, sg = oriented_setgraph(graph, ctx)
            out = triangle_count_oriented(sg, ctx, batch=batch)
            runs.append((out, ctx.runtime_cycles, ctx.opcode_counts()))
        assert runs[0] == runs[1]

    def test_four_clique(self, graph):
        runs = []
        for batch in (True, False):
            ctx = make_context(threads=8)
            __, sg = oriented_setgraph(graph, ctx)
            out = four_clique_count_on(ctx, sg, batch=batch)
            runs.append((out, ctx.runtime_cycles, ctx.opcode_counts()))
        assert runs[0] == runs[1]

    def test_kclique_fast_path(self, graph):
        runs = []
        for batch in (True, False):
            ctx = make_context(threads=8)
            __, sg = oriented_setgraph(graph, ctx)
            out = kclique_count_on(ctx, sg, 4, batch=batch)
            runs.append((out, ctx.runtime_cycles, ctx.opcode_counts()))
        assert runs[0] == runs[1]

    def test_kclique_fast_path_matches_materializing_recursion(self, graph):
        """The counting fast path must not change the functional count
        relative to the full materializing recursion (forced via
        collect, which disables the fast path)."""
        ctx = make_context(threads=4)
        __, sg = oriented_setgraph(graph, ctx)
        fast = kclique_count_on(ctx, sg, 4)
        ctx2 = make_context(threads=4)
        __, sg2 = oriented_setgraph(graph, ctx2)
        listed = kclique_count_on(ctx2, sg2, 4, collect=True)
        assert fast == len(listed)

    @pytest.mark.parametrize("measure", COUNT_MEASURES)
    def test_similarity_batch_scores(self, graph, measure):
        ctx = make_context(threads=4)
        sg = SetGraph.from_graph(graph, ctx)
        vs = list(range(1, 20))
        got = similarity_batch_on(ctx, sg, 0, vs, measure=measure)
        expected = [
            similarity_on(ctx, sg, 0, v, measure=measure) for v in vs
        ]
        assert list(got) == expected

    def test_all_pairs_batch_scores(self, graph):
        pairs = np.asarray(
            [(u, v) for u in range(12) for v in range(u + 1, 14)]
        )
        ctx = make_context(threads=4)
        sg = SetGraph.from_graph(graph, ctx)
        got = all_pairs_similarity_on(ctx, sg, pairs, measure="jaccard")
        ctx2 = make_context(threads=4)
        sg2 = SetGraph.from_graph(graph, ctx2)
        expected = all_pairs_similarity_on(
            ctx2, sg2, pairs, measure="jaccard", batch=False
        )
        assert np.array_equal(got, expected)
        # The batched path hoists the shared |N(u)| fetch per frontier
        # (a deliberate modeled-cost win): it must never issue MORE
        # instructions than the per-pair stream.
        assert ctx.instruction_count < ctx2.instruction_count

    def test_jarvis_patrick_batch_functional(self, graph):
        batched = SisaSession(graph, threads=4).run("jarvis_patrick", tau=1.5)
        scalar = SisaSession(graph, threads=4).run(
            "jarvis_patrick", tau=1.5, batch=False
        )
        assert batched.output == scalar.output

    def test_link_prediction_unchanged(self, graph):
        run = SisaSession(graph, threads=4).run(
            "link_prediction", removal_fraction=0.15, seed=3
        )
        assert run.output.effectiveness >= 0
        assert run.output.predicted_edges > 0


class TestMetadataSlotReuse:
    def test_free_list_recycles_ids_and_records(self):
        ctx = SisaContext(threads=2)
        a = ctx.create_set([1, 2], universe=10)
        b = ctx.create_set([3], universe=10)
        meta_b = ctx.sm.meta(b)
        ctx.free(b)
        c = ctx.create_set([4, 5, 6], universe=10)
        assert c == b  # slot reused
        assert ctx.sm.meta(c) is meta_b  # record recycled in place
        assert ctx.sm.meta(c).cardinality == 3
        assert ctx.cardinality(a) == 2

    def test_freed_id_still_rejected_until_reuse(self):
        from repro.errors import SetError

        ctx = SisaContext(threads=2)
        sid = ctx.create_set([1], universe=10)
        ctx.free(sid)
        with pytest.raises(SetError):
            ctx.cardinality(sid)


class TestTraceOverhead:
    def test_disabled_trace_records_nothing(self):
        ctx, ids = _mixed_context(trace=False)
        ctx.intersect_count_batch(ids[0], ids[1:8])
        ctx.intersect(ids[0], ids[1])
        assert len(ctx.trace) == 0

    def test_enabled_trace_records_batch_ops(self):
        ctx, ids = _mixed_context(trace=True)
        before = len(ctx.trace)
        ctx.intersect_count_batch(ids[0], ids[1:8])
        assert len(ctx.trace) == before + 7
