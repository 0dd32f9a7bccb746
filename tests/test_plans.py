"""Plan/execute split: compiled WorkloadPlans, the fusing executor and
the multi-tenant SessionPool.

Contracts under test:

* ``session.compile`` is declarative (no instructions, no structure
  builds) and pins the stream version; executing a stale plan fails
  fast with ``SisaError``,
* a fusion-disabled ``run_many`` is **bit-identical** to sequential
  ``session.run`` calls — outputs, per-plan simulated cycles, dispatch
  stats and set registrations (hypothesis property, including across a
  stream epoch advance),
* a fused ``run_many`` returns identical outputs while dedicating no
  instructions to deduped sub-requests (the triangle count inside
  ``clustering_coefficient``), fusing cross-plan bursts into macros,
  and never issuing *more* instructions per plan than the sequential
  stream,
* ``SessionPool`` shares SCU decision memos bit-identically, evicts
  sessions LRU, schedules tenants round-robin and accounts modeled
  cycles per tenant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.similarity import all_pairs_similarity_on
from repro.algorithms.triangles import triangle_count_oriented
from repro.errors import ConfigError, SisaError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import chung_lu_graph, gnp_random_graph
from repro.graphs.streams import EdgeBatch, canonical_edges
from repro.hw.config import HardwareConfig
from repro.isa.scu import Scu
from repro.runtime import batch as batchmod
from repro.serving.admission import RetryPolicy
from repro.session import (
    ExecutionConfig,
    PlanExecutor,
    SessionPool,
    SisaSession,
    WorkloadPlan,
)
from repro.analysis.static.schedule import certify_schedule
from repro.session.plan import compile_plan
from repro.session.registry import get_workload
from repro.streaming.incremental import (
    clustering_coefficients_from_counts,
    degrees_of,
)

from reference_executor import PerUnitExecutor


def _graph(seed=3, n=60, p=0.12):
    return gnp_random_graph(n, p, seed=seed)


def _watchlist(n, count, seed=7):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(count * 2, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][:count]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _mix(graph):
    """The mixed workload batch the serving layer targets."""
    pairs = _watchlist(graph.num_vertices, 40)
    return [
        ("triangles", {}),
        ("clustering_coefficient", {}),
        ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
        ("similarity_pairs", {"pairs": pairs, "measure": "total_neighbors"}),
        ("local_clustering", {}),
        ("kclique", {"k": 3}),  # opaque call-stage plan
    ]


def _run_sequential(graph, batch, config):
    session = SisaSession(graph, config)
    return session, [session.run(name, **params) for name, params in batch]


def _assert_results_identical(expected, actual):
    for e, a in zip(expected, actual):
        assert repr(a.output) == repr(e.output)
        assert a.runtime_cycles == e.runtime_cycles
        assert a.instructions == e.instructions
        assert a.opcode_counts() == e.opcode_counts()
        assert a.registrations == e.registrations
        assert a.warm == e.warm
        assert a.cached == e.cached


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class TestCompile:
    def test_compile_is_declarative(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        plan = session.compile("triangles")
        assert isinstance(plan, WorkloadPlan)
        assert plan.version == (0, 0)
        assert plan.requires == "oriented"
        assert plan.fusable
        assert plan.describe() == ["prep:oriented", "bursts:triangles"]
        # Nothing built, nothing dispatched.
        assert session.ctx.instruction_count == 0
        assert session._oriented is None
        assert session._setgraph is None

    def test_opaque_fallback_for_undecomposed_workloads(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        plan = session.compile("kclique", k=3)
        assert not plan.fusable
        assert plan.describe() == ["run:kclique"]
        # batch=False makes even triangles non-decomposable.
        scalar = session.compile("triangles", batch=False)
        assert not scalar.fusable

    def test_clustering_shares_the_triangle_subrequest_key(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        tri = session.compile("triangles")
        cc = session.compile("clustering_coefficient")
        tri_keys = [s.key for s in tri.stages if s.kind == "bursts"]
        cc_keys = [s.key for s in cc.stages if s.kind == "bursts"]
        assert tri_keys == cc_keys != [None]

    def test_compile_rejects_views_and_unknown_names(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        with pytest.raises(ConfigError):
            session.compile("triangles", view=object())
        with pytest.raises(ConfigError, match="available"):
            session.compile("triangle")

    def test_unknown_parameters_rejected_at_compile(self):
        """A decomposed plan never calls the workload fn, so misspelled
        parameters must fail at compile instead of silently computing
        the defaults."""
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        with pytest.raises(ConfigError, match="bogus"):
            session.compile("triangles", bogus=123)
        with pytest.raises(ConfigError, match="measur"):
            session.run(
                "similarity_pairs",
                pairs=_watchlist(60, 5),
                measur="overlap",  # typo'd 'measure'
            )

    def test_foreign_plan_rejected(self):
        a = SisaSession(_graph(), ExecutionConfig(threads=8))
        b = SisaSession(_graph(), ExecutionConfig(threads=8))
        plan = a.compile("triangles")
        with pytest.raises(ConfigError, match="SessionPool"):
            b.run_many([plan])


# ---------------------------------------------------------------------------
# Stream-version pinning
# ---------------------------------------------------------------------------


def _insert_batch(edges):
    return EdgeBatch(
        insertions=np.asarray(edges, dtype=np.int64),
        deletions=np.empty((0, 2), dtype=np.int64),
    )


class TestVersionPinning:
    def test_stale_plan_fails_fast(self):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        plan = session.compile("triangles")
        assert not plan.stale
        edges = canonical_edges(
            np.asarray([[0, 5], [1, 11]], dtype=np.int64), graph.num_vertices
        )
        dyn.apply_batch(_insert_batch(edges))
        assert plan.stale
        with pytest.raises(SisaError, match="recompile"):
            session.run_many([plan])
        # A plan compiled at the new version runs fine and matches a
        # fresh session over the evolved graph.
        fresh = SisaSession(
            session.current_graph.__class__.from_edges(
                graph.num_vertices, dyn.edge_array()
            ),
            ExecutionConfig(threads=8),
        ).run("triangles")
        (rerun,) = session.run_many([session.compile("triangles")])
        assert rerun.output == fresh.output

    def test_midbatch_mutation_also_drifts(self):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        plan = session.compile("triangles")
        dyn.apply_insertions(
            canonical_edges(
                np.asarray([[0, 5]], dtype=np.int64), graph.num_vertices
            )
        )  # epoch not advanced, but mutations counted
        with pytest.raises(SisaError):
            session.run_many([plan], fuse=True)


# ---------------------------------------------------------------------------
# Fusion-disabled executor == sequential session.run (bit-identical)
# ---------------------------------------------------------------------------


class TestSequentialIdentity:
    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    def test_mixed_batch_bit_identical(self, mode):
        graph = _graph()
        batch = _mix(graph)
        config = ExecutionConfig(threads=8, mode=mode)
        ref_session, expected = _run_sequential(graph, batch, config)

        session = SisaSession(graph, config)
        results = session.run_many(
            [(name, params) for name, params in batch], fuse=False
        )
        _assert_results_identical(expected, results)
        assert session.ctx.runtime_cycles == ref_session.ctx.runtime_cycles
        assert session.ctx.opcode_counts() == ref_session.ctx.opcode_counts()
        assert (
            session.ctx.scu.smb.stats.hits == ref_session.ctx.scu.smb.stats.hits
        )

    def test_duplicate_plans_hit_the_cache_like_repeated_runs(self):
        graph = _graph()
        config = ExecutionConfig(threads=8)
        batch = [("triangles", {}), ("triangles", {})]
        ref_session, expected = _run_sequential(graph, batch, config)
        assert expected[1].cached
        session = SisaSession(graph, config)
        results = session.run_many(batch, fuse=False)
        _assert_results_identical(expected, results)

    @given(
        n=st.integers(min_value=10, max_value=40),
        p=st.floats(min_value=0.05, max_value=0.35),
        seed=st.integers(min_value=0, max_value=2**16),
        order=st.permutations(list(range(4))),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_any_plan_order_matches_sequential(self, n, p, seed, order):
        """Property: for any graph and any plan ordering, the
        fusion-disabled executor is bit-identical to sequential
        ``session.run`` calls, and the fused executor returns identical
        outputs while issuing per plan no more instructions than the
        sequential stream."""
        graph = gnp_random_graph(n, p, seed=seed)
        pairs = _watchlist(n, 12, seed=seed % 97)
        menu = [
            ("triangles", {}),
            ("clustering_coefficient", {}),
            ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
            ("local_clustering", {}),
        ]
        batch = [menu[i] for i in order]
        config = ExecutionConfig(threads=4)
        ref_session, expected = _run_sequential(graph, batch, config)

        session = SisaSession(graph, config)
        results = session.run_many(batch, fuse=False)
        _assert_results_identical(expected, results)

        fused_session = SisaSession(graph, config)
        fused = fused_session.run_many(batch, fuse=True)
        for e, f in zip(expected, fused):
            np.testing.assert_array_equal(
                np.asarray(e.output), np.asarray(f.output)
            )
            assert f.instructions <= e.instructions
            assert f.fused

    def test_property_holds_across_epoch_advance(self):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=11)
        batch = [("triangles", {}), ("clustering_coefficient", {})]
        config = ExecutionConfig(threads=8)
        edges = canonical_edges(
            np.asarray([[0, 7], [2, 13], [5, 31]], dtype=np.int64),
            graph.num_vertices,
        )

        def drive(session, fuse):
            dyn = session.attach_stream()
            first = session.run_many(batch, fuse=fuse)
            dyn.apply_batch(_insert_batch(edges))
            second = session.run_many(batch, fuse=fuse)
            return first + second

        ref_session = SisaSession(graph, config)
        dyn = ref_session.attach_stream()
        expected = [ref_session.run(n, **p) for n, p in batch]
        dyn.apply_batch(_insert_batch(edges))
        expected += [ref_session.run(n, **p) for n, p in batch]

        plain = drive(SisaSession(graph, config), fuse=False)
        _assert_results_identical(expected, plain)
        fused = drive(SisaSession(graph, config), fuse=True)
        for e, f in zip(expected, fused):
            np.testing.assert_array_equal(
                np.asarray(e.output), np.asarray(f.output)
            )


# ---------------------------------------------------------------------------
# Fused execution
# ---------------------------------------------------------------------------


class TestFusedExecution:
    def test_subrequest_dedup_spends_zero_instructions(self):
        """clustering_coefficient's triangle count dedups against the
        triangles plan in the same batch: after shared prep, the
        clustering plan issues nothing.  With the result cache off the
        dedup runs on the batch-local map alone."""
        graph = _graph()
        session = SisaSession(
            graph, ExecutionConfig(threads=8, result_cache=False)
        )
        session.run("triangles")  # warm the orientation
        tri, cc = session.run_many(
            ["triangles", "clustering_coefficient"], fuse=True
        )
        assert cc.instructions == 0
        assert tri.instructions > 0
        ref = SisaSession(graph, ExecutionConfig(threads=8))
        assert cc.output == ref.run("clustering_coefficient").output
        assert tri.output == ref.run("triangles").output

    def test_subrequest_dedup_through_the_result_cache(self):
        """A warm cached ``triangles`` result satisfies the triangle
        sub-request inside a later ``clustering_coefficient`` plan —
        the normalized key makes every spelling of the request meet."""
        graph = _graph()
        session = SisaSession(graph, ExecutionConfig(threads=8))
        session.run("triangles")  # computes and caches
        (cc,) = session.run_many(["clustering_coefficient"], fuse=True)
        assert cc.instructions == 0
        ref = SisaSession(graph, ExecutionConfig(threads=8))
        assert cc.output == ref.run("clustering_coefficient").output

    def test_fused_macros_cross_plans(self):
        graph = _graph()
        pairs = _watchlist(graph.num_vertices, 30)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        before = session.ctx.scu.stats.fused_macros
        results = session.run_many(
            [
                ("triangles", {}),
                ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
            ],
            fuse=True,
            fuse_width=4,
        )
        macros = session.ctx.scu.stats.fused_macros - before
        assert macros > 0
        assert all(r.fused for r in results)
        # Fewer macro decodes than constituent bursts: fusion crossed
        # the begin_task boundary.
        total_tasks = sum(r.report.tasks for r in results)
        assert macros < total_tasks

    def test_fused_total_cycles_beat_sequential_on_the_mix(self):
        graph = chung_lu_graph(400, 1600, gamma=2.3, seed=5)
        pairs = _watchlist(400, 60)
        batch = [
            ("triangles", {}),
            ("clustering_coefficient", {}),
            ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
        ]
        config = ExecutionConfig(threads=8, result_cache=False)

        seq = SisaSession(graph, config)
        seq.run("triangles")
        seq.run("similarity_pairs", pairs=pairs, measure="jaccard")
        mark = seq.ctx.mark()
        for name, params in batch:
            seq.run(name, **params)
        seq_cycles = seq.ctx.report_since(mark).runtime_cycles

        fused = SisaSession(graph, config)
        fused.run("triangles")
        fused.run("similarity_pairs", pairs=pairs, measure="jaccard")
        mark = fused.ctx.mark()
        fused.run_many(batch, fuse=True)
        fused_cycles = fused.ctx.report_since(mark).runtime_cycles
        assert fused_cycles < seq_cycles

    def test_fused_batch_seeds_the_result_cache(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        session.run_many(["triangles"], fuse=True)
        hit = session.run("triangles")
        assert hit.cached
        assert hit.instructions == 0

    def test_identical_plans_dedup_within_the_batch(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        first, second = session.run_many(["triangles", "triangles"], fuse=True)
        assert first.output == second.output
        assert second.cached
        assert second.instructions == 0

    def test_blocked_runs_look_their_keys_up_once(self):
        """A run waiting on a dedup key another run owns re-polls only
        the batch's published values: one result-cache lookup per run
        and key (triangles: plan + stage; the duplicate: its plan key;
        clustering_coefficient: plan + the shared stage key), however
        many rounds the waiters spend blocked."""
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        stats = session.cache_stats
        results = session.run_many(
            ["triangles", "triangles", "clustering_coefficient"], fuse=True
        )
        assert (stats.hits, stats.misses) == (0, 5)
        assert [r.cached for r in results] == [False, True, False]
        assert results[2].instructions == 0

    def test_host_baseline_runs_without_fusion(self):
        graph = _graph()
        session = SisaSession(graph, ExecutionConfig(threads=8, mode="cpu-set"))
        results = session.run_many(
            ["triangles", "clustering_coefficient"], fuse=True
        )
        assert session.ctx.scu.stats.fused_macros == 0
        ref = SisaSession(graph, ExecutionConfig(threads=8, mode="cpu-set"))
        assert results[0].output == ref.run("triangles").output
        # Dedup still applies on the host.
        assert results[1].instructions == 0

    def test_executor_validates_fuse_width(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        with pytest.raises(ConfigError):
            PlanExecutor(session, fuse_width=0)

    def test_empty_batch(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        assert session.run_many([], fuse=True) == []
        assert session.run_many([], fuse=False) == []

    def test_failed_fused_batch_leaks_no_tenant_state(self):
        _check_failed_batch_leaks_no_tenant_state(scheduled=False)

    def test_failed_scheduled_batch_leaks_no_tenant_state(self):
        # Fused and certified-schedule execution share one batch
        # loop, so the tenant-lane teardown on failure is one code
        # path; pin it from both entry points.
        _check_failed_batch_leaks_no_tenant_state(scheduled=True)

    @settings(max_examples=25, deadline=None)
    @given(
        at=st.integers(1, 64),
        scheduled=st.booleans(),
        fuse_width=st.integers(1, 9),
    )
    def test_failure_at_any_stage_matches_per_unit_stream(
        self, at, scheduled, fuse_width
    ):
        _check_failed_batch_leaks_no_tenant_state(
            scheduled=scheduled,
            at=1 + (at - 1) % _stage_boundaries(scheduled),
            fuse_width=fuse_width,
        )


class _FailAt:
    """A fault injector raising at the ``at``-th stage boundary the
    executor reaches (``at=None``: at the ``fsm`` plan's first)."""

    def __init__(self, at=None):
        self.at = at
        self.seen = 0

    def on_stage(self, plan, stage):
        self.seen += 1
        if self.seen == self.at or (self.at is None and plan.name == "fsm"):
            raise SisaError("injected mid-batch failure")


def _failing_batch(session):
    """A multi-plan batch mixing every burst-stage kind and tenants,
    with a duplicate (dedup) and an opaque plan."""
    pairs = _watchlist(session.graph.num_vertices, 30)
    picks = [
        ("triangles", {}, "a"),
        ("local_clustering", {}, "b"),
        ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}, "a"),
        ("clustering_coefficient", {}, None),
        ("similarity_pairs", {"pairs": pairs, "measure": "total_neighbors"}, "b"),
        ("triangles", {}, "b"),
        ("kclique", {"k": 3}, None),
    ]
    return [
        compile_plan(session, name, params, tenant=tenant)
        for name, params, tenant in picks
    ]


def _check_failed_batch_leaks_no_tenant_state(*, scheduled, at=None, fuse_width=8):
    """Fail a batch at a stage boundary, on the burst-log driver and on
    the per-unit reference: both leak no tenant state and leave the
    machine identical (what the per-unit stream had executed when the
    fault struck still charged it), and the session then serves the
    batch correctly."""
    graph = _graph()
    sessions = [
        SisaSession(graph, ExecutionConfig(threads=8)) for __ in range(2)
    ]
    for session, cls in zip(sessions, (PlanExecutor, PerUnitExecutor)):
        plans = _failing_batch(session) if at is not None else [
            session.compile("triangles"),
            session.compile("fsm", sigma=0.5),
        ]
        executor = cls(
            session,
            schedule=certify_schedule(plans) if scheduled else None,
            fault_injector=_FailAt(at),
            fuse_width=fuse_width,
        )
        with pytest.raises(SisaError, match="mid-batch"):
            executor.execute(plans)
        assert session.ctx.engine._tenants == {}
    assert _batch_machine_state(sessions[0]) == _batch_machine_state(
        sessions[1]
    )
    # The session still serves follow-up batches normally.
    session = sessions[0]
    fresh = SisaSession(graph, ExecutionConfig(threads=8))
    served = session.run_many(_failing_batch(session), fuse=True)
    expected = [fresh.run(p.name, **p.params) for p in _failing_batch(fresh)]
    assert [repr(r.output) for r in served] == [repr(r.output) for r in expected]


def _stage_boundaries(scheduled):
    session = SisaSession(_graph(), ExecutionConfig(threads=8))
    plans = _failing_batch(session)
    counter = _FailAt(at=0)
    PlanExecutor(
        session,
        schedule=certify_schedule(plans) if scheduled else None,
        fault_injector=counter,
    ).execute(plans)
    return counter.seen


# ---------------------------------------------------------------------------
# SessionPool
# ---------------------------------------------------------------------------


class TestSessionPool:
    def test_session_reuse_and_unknown_key(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        g = _graph()
        s1 = pool.session("g", g)
        assert pool.session("g") is s1
        with pytest.raises(ConfigError, match="unknown session key"):
            pool.session("other")

    def test_lru_eviction(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        pool.session("a", _graph(seed=1))
        pool.session("b", _graph(seed=2))
        pool.session("a")  # refresh a: b is now LRU
        pool.session("c", _graph(seed=3))
        assert pool.session_keys == ("a", "c")
        assert pool.evictions == 1

    def test_pending_sessions_are_pinned(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=1)
        pool.submit("a", "triangles", graph=_graph(seed=1))
        pool.session("b", _graph(seed=2))
        # "a" has a queued plan, so it survives past the bound.
        assert "a" in pool and "b" in pool
        pool.run()
        pool.session("c", _graph(seed=3))
        assert "a" not in pool

    def test_shared_memo_is_bit_identical(self):
        graph = _graph()
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=4)
        s1 = pool.session("g1", graph)
        s2 = pool.session("g2", graph)
        assert s1.ctx.scu._decision_memo is s2.ctx.scu._decision_memo
        r1 = s1.run("triangles")
        r2 = s2.run("triangles")  # served from a memo s1's run warmed
        standalone = SisaSession(graph, ExecutionConfig(threads=8)).run(
            "triangles"
        )
        assert r1.output == r2.output == standalone.output
        assert r1.runtime_cycles == r2.runtime_cycles == standalone.runtime_cycles
        assert r1.opcode_counts() == standalone.opcode_counts()

    def test_different_machine_signatures_do_not_share(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=4)
        s1 = pool.session("a", _graph(seed=1))
        s2 = pool.session(
            "b", _graph(seed=2), config=ExecutionConfig(threads=8, mode="cpu-set")
        )
        assert s1.ctx.scu._decision_memo is not s2.ctx.scu._decision_memo

    def test_round_robin_and_tenant_accounting(self):
        graph = chung_lu_graph(200, 800, gamma=2.2, seed=5)
        pairs = _watchlist(200, 30)
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        pool.submit("g", "triangles", tenant="alice", graph=graph)
        pool.submit("g", "similarity_pairs", tenant="bob", pairs=pairs)
        pool.submit("g", "clustering_coefficient", tenant="alice")
        results = pool.run()
        assert pool.pending == 0
        assert [r.workload for r in results] == [
            "triangles",
            "similarity_pairs",
            "clustering_coefficient",
        ]  # submission order, whatever the schedule
        cycles = pool.tenant_cycles
        assert cycles["alice"] > 0 and cycles["bob"] > 0
        assert pool.tenant_runs == {"alice": 2, "bob": 1}
        ref = SisaSession(graph, ExecutionConfig(threads=8))
        assert results[0].output == ref.run("triangles").output
        np.testing.assert_array_equal(
            results[1].output,
            ref.run("similarity_pairs", pairs=pairs).output,
        )

    def test_cross_graph_batches(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=4)
        g1, g2 = _graph(seed=1), _graph(seed=2)
        pool.submit("g1", "triangles", tenant="t1", graph=g1)
        pool.submit("g2", "triangles", tenant="t2", graph=g2)
        r1, r2 = pool.run()
        assert r1.output == SisaSession(g1, threads=8).run("triangles").output
        assert r2.output == SisaSession(g2, threads=8).run("triangles").output

    def test_pool_validates_max_sessions(self):
        with pytest.raises(ConfigError):
            SessionPool(max_sessions=0)

    @pytest.mark.parametrize("hardened", [False, True])
    def test_pool_validates_fuse_width(self, hardened):
        # Rejected at construction, before any plan can be queued
        # against a pool whose every run() would fail.
        retry = RetryPolicy() if hardened else None
        with pytest.raises(ConfigError, match="fuse_width"):
            SessionPool(fuse_width=0, retry=retry)

    def test_key_collision_with_different_graph_rejected(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        g1, g2 = _graph(seed=1), _graph(seed=2)
        pool.submit("k", "triangles", graph=g1)
        with pytest.raises(ConfigError, match="different graph"):
            pool.submit("k", "triangles", graph=g2)
        pool.submit("k", "triangles", graph=g1)  # same graph object is fine

    def test_stale_plan_fails_before_any_tenant_work(self):
        """One tenant's stale plan must not cost another tenant's
        results: run() fails fast with the whole queue intact, and
        discard_stale() recovers."""
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        pool.submit("a", "triangles", tenant="alice", graph=graph)
        session_a = pool.session("a")
        dyn = session_a.attach_stream()
        stale = pool.submit("a", "clustering_coefficient", tenant="bob")
        dyn.apply_batch(
            _insert_batch(
                canonical_edges(
                    np.asarray([[0, 9]], dtype=np.int64), graph.num_vertices
                )
            )
        )
        # Wait: the triangles plan was compiled before attach_stream, at
        # version (0, 0); both plans are stale now.
        assert stale.stale
        with pytest.raises(SisaError):
            pool.run()
        assert pool.pending == 2  # nothing was dequeued or executed
        assert pool.tenant_runs == {}
        dropped = pool.discard_stale()
        assert len(dropped) == 2 and pool.pending == 0
        pool.submit("a", "triangles", tenant="alice")
        (result,) = pool.run()
        rebuilt = SisaSession(
            session_a.current_graph, ExecutionConfig(threads=8)
        ).run("triangles")
        assert result.output == rebuilt.output

    def test_tenant_work_includes_all_lanes(self):
        graph = chung_lu_graph(120, 480, gamma=2.2, seed=5)
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        pool.submit("g", "triangles", tenant="solo", graph=graph)
        (result,) = pool.run()
        assert pool.tenant_cycles["solo"] >= sum(result.report.lane_times)
        assert pool.tenant_cycles["solo"] >= result.runtime_cycles > 0


class TestInvalidation:
    def test_per_workload_invalidation_drops_subrequests(self):
        """Explicitly invalidating clustering_coefficient must also
        drop the triangle sub-request it could otherwise seed from —
        the re-run has to issue instructions again."""
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        session.run_many(["triangles", "clustering_coefficient"], fuse=True)
        dropped = session.invalidate_results("clustering_coefficient")
        assert dropped >= 2  # its own entry + the triangles sub-request
        (rerun,) = session.run_many(["clustering_coefficient"], fuse=True)
        assert not rerun.cached
        assert rerun.instructions > 0


# ---------------------------------------------------------------------------
# Whole-stage count-burst execution is exact
# ---------------------------------------------------------------------------


def _star(n):
    return CSRGraph.from_edges(
        n, np.column_stack([np.zeros(n - 1, np.int64), np.arange(1, n)])
    )


def _complete(n):
    u, v = np.triu_indices(n, k=1)
    return CSRGraph.from_edges(n, np.column_stack([u, v]).astype(np.int64))


def _edgeless(n):
    return CSRGraph.from_edges(n, np.zeros((0, 2), dtype=np.int64))


_STAGE_GRAPHS = {
    "empty": lambda: _edgeless(0),
    "single": lambda: _edgeless(1),
    "edgeless": lambda: _edgeless(9),
    "complete": lambda: _complete(12),
    "star": lambda: _star(40),
    "gnp": lambda: gnp_random_graph(50, 0.15, seed=5),
    "chung-lu": lambda: chung_lu_graph(120, 420, gamma=2.2, seed=2),
}

_STAGE_REGIMES = {
    "default": {},
    "sa-only": {"t": 0.0},
    # Every neighborhood of degree >= 2 becomes a DB (a star's hub
    # crosses the threshold, its leaves stay SAs).
    "db-heavy": {"policy": "threshold", "t": 0.04, "budget": 100.0},
    "cpu-set": {"mode": "cpu-set"},
}

_SMB = {
    "on": {},
    "off": {"smb_enabled": False},
    "capacity-1": {"hw": HardwareConfig(smb_entries=1)},
    "capacity-2": {"hw": HardwareConfig(smb_entries=2)},
}


def _stage_machine_state(session) -> dict:
    """Everything the stage path must leave exactly as the per-burst
    stream does."""
    ctx = session.ctx
    engine = ctx.engine
    stats = ctx.scu.stats
    smb = ctx.scu.smb
    return {
        "lanes": [
            (lane.compute_cycles, lane.memory_bytes, lane.latency_cycles, lane.tasks)
            for lane in engine._lanes
        ],
        "current": (engine._current, ctx._current_lane, list(engine._lane_times)),
        "stats": (
            stats.instructions, stats.pum_ops, stats.pnm_ops, stats.host_ops,
            stats.merge_picks, stats.gallop_picks, list(stats.by_opcode.items()),
        ),
        "smb": (smb.stats.hits, smb.stats.misses, list(smb._entries)),
        "memo": list(ctx.scu._decision_memo.items()),
        "trace": list(ctx.trace.events),
    }


def _eager_reference(session, stage, pairs, measure, batch):
    """The per-burst reference: the eager kernel, issuing each burst as
    one ``*_count_batch`` call (``batch=True``) or as a scalar
    ``intersect_count`` loop (``batch=False``)."""
    ctx = session.ctx
    if stage == "triangles":
        return triangle_count_oriented(session.oriented_setgraph, ctx, batch=batch)
    if stage == "local_clustering":
        if batch:
            return get_workload("local_clustering").fn(session)
        sg = session.setgraph
        counts = np.zeros(sg.num_vertices, dtype=np.int64)
        for v in range(sg.num_vertices):
            ctx.begin_task()
            nv = sg.neighborhood(v)
            counts[v] = sum(
                ctx.intersect_count(nv, sg.neighborhood(int(u)))
                for u in ctx.elements(nv)
            ) // 2
        return clustering_coefficients_from_counts(counts, degrees_of(sg))
    return all_pairs_similarity_on(ctx, session.setgraph, pairs, measure=measure)


# (stage, batch) draws.  A watchlist stage is only compared against the
# batched fan-out: ``all_pairs_similarity_on(batch=False)`` opens one
# task per pair instead of one per shared-first-vertex run, so its lane
# placement is a different schedule, not a per-burst reference.
_STAGE_DRAWS = [
    (stage, batch)
    for stage in ("triangles", "local_clustering")
    for batch in (True, False)
] + [
    (measure, True)
    for measure in ("jaccard", "overlap", "common_neighbors", "total_neighbors")
]


class TestWholeStageExactness:
    """``session.run`` executes the ``bursts:triangles``,
    ``bursts:local_triangles`` and ``bursts:watchlist-*`` stages as
    whole-stage calls; outputs and every piece of modeled state must
    equal the per-burst stream's, across representation, SMB, variant,
    memo and chunking regimes and degenerate graphs."""

    @settings(max_examples=60, deadline=None)
    @given(
        graph=st.sampled_from(sorted(_STAGE_GRAPHS)),
        regime=st.sampled_from(sorted(_STAGE_REGIMES)),
        smb=st.sampled_from(sorted(_SMB)),
        gallop=st.sampled_from([None, 0.25, 4.0]),
        stage_batch=st.sampled_from(_STAGE_DRAWS),
        memo_limit=st.sampled_from([None, 0, 3, 12]),
        budget=st.sampled_from([None, 1, 16, 64]),
        seed=st.integers(0, 3),
    )
    def test_stage_path_matches_per_burst_stream(
        self, graph, regime, smb, gallop, stage_batch, memo_limit, budget, seed
    ):
        stage, batch = stage_batch
        g = _STAGE_GRAPHS[graph]()
        config = ExecutionConfig(
            threads=8,
            result_cache=False,
            trace=True,
            gallop_threshold=gallop,
            **_STAGE_REGIMES[regime],
            **_SMB[smb],
        )
        n = g.num_vertices
        pairs = _watchlist(max(n, 1), 30, seed=seed) if n > 1 else np.zeros((0, 2), np.int64)
        measure = stage if stage not in ("triangles", "local_clustering") else None
        name = "similarity_pairs" if measure else stage
        params = {"pairs": pairs, "measure": measure} if measure else {}
        with pytest.MonkeyPatch.context() as mp:
            if memo_limit is not None:
                # The shared memo starts full: every shape of the stage
                # arrives after the limit.
                mp.setattr(Scu, "_MEMO_LIMIT", memo_limit)
            if budget is not None:
                mp.setattr(batchmod, "STAGE_PROBE_BUDGET", budget)
            sessions = [SisaSession(g, config) for _ in range(2)]
            memo_events = [[], []]
            for s, events in zip(sessions, memo_events):
                s.setgraph
                s.oriented_setgraph
                if memo_limit is not None:
                    s.ctx.scu._decision_memo.update(
                        {("prefill", i): None for i in range(memo_limit)}
                    )
                s.ctx.scu.memo_event = lambda op, key, _e=events: _e.append(
                    (op, key)
                )
            stage_session, eager_session = sessions
            result = stage_session.run(name, **params)
            mark = eager_session.ctx.mark()
            expected = _eager_reference(
                eager_session, name, pairs, measure, batch
            )
        assert repr(result.output) == repr(expected)
        reference = eager_session.ctx.report_since(mark)
        assert result.report.lane_times == reference.lane_times
        assert result.report.lane_memory_times == reference.lane_memory_times
        assert result.report.tasks == reference.tasks
        assert result.stats == eager_session.ctx.stats_since(mark)
        assert _stage_machine_state(stage_session) == _stage_machine_state(
            eager_session
        )
        assert memo_events[0] == memo_events[1]

    def test_stage_spans_several_chunks(self):
        calls = []
        original = batchmod.stage_intersect_counts

        def counting(*args):
            calls.append(args[1].size)
            return original(*args)

        g = chung_lu_graph(150, 500, gamma=2.2, seed=4)
        config = ExecutionConfig(threads=8, result_cache=False)
        stage_session, eager_session = SisaSession(g, config), SisaSession(g, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batchmod, "STAGE_PROBE_BUDGET", 200)
            mp.setattr(batchmod, "stage_intersect_counts", counting)
            out = stage_session.run("local_clustering").output
        assert len(calls) >= 2
        assert sum(calls) == 2 * g.num_edges  # every op counted once
        expected = get_workload("local_clustering").fn(eager_session)
        assert np.array_equal(out, expected)
        assert _stage_machine_state(stage_session) == _stage_machine_state(
            eager_session
        )

    def test_sequential_bursts_stage_needs_a_table(self):
        session = SisaSession(_graph())
        plan = session.compile("triangles")
        plan.stages[1].table = None
        with pytest.raises(ConfigError, match="declares no table"):
            PlanExecutor(session, fuse=False).execute([plan])


# ---------------------------------------------------------------------------
# Batch burst log: the fused driver against the per-unit stream
# ---------------------------------------------------------------------------


_MEASURES = (
    "jaccard", "overlap", "common_neighbors", "total_neighbors",
    "adamic_adar", "resource_allocation", "preferential_attachment",
)


def _batch_machine_state(session) -> dict:
    """Everything a batch leaves behind that the burst log must leave
    exactly as the per-unit stream does."""
    state = _stage_machine_state(session)
    ctx = session.ctx
    engine = ctx.engine
    state["stats"] += (ctx.scu.stats.fused_macros,)
    state["tenants"] = {
        tag: [
            (lane.compute_cycles, lane.memory_bytes, lane.latency_cycles, lane.tasks)
            for lane in lanes
        ]
        for tag, lanes in engine._tenants.items()
    }
    cache = session._results
    state["cache"] = (
        list(cache._entries),
        (cache.stats.hits, cache.stats.misses, cache.stats.skips),
    )
    obs = session.obs
    if obs is not None:
        families = {}
        for name, family in obs.registry.families().items():
            if name == "plan_wall_seconds":
                continue  # wall clock
            families[name] = [
                (label, (v.counts, v.sum, v.count) if hasattr(v, "sum") else v)
                for label, v in family.series.items()
            ]
        state["obs"] = (
            families,
            {t: (h.counts, h.total) for t, h in obs.set_sizes.items()},
            (obs.tenant, obs.workload),
        )
    return state


def _result_state(result) -> tuple:
    spans = None
    if result.spans is not None:
        spans = [
            (span.name, depth, span.cycles)
            for span, depth in result.spans.walk()
            if not span.name.startswith("kernel:")
        ]
    return (
        repr(result.output),
        result.report.lane_times,
        result.report.lane_memory_times,
        result.report.tasks,
        result.report.runtime_cycles,
        result.stats,
        list(result.stats.by_opcode.items()),
        result.registrations,
        result.warm,
        result.cached,
        spans,
    )


def _batch_sessions(graph, config, observability):
    sessions = []
    for __ in range(2):
        session = SisaSession(graph, config, observability=observability)
        session.setgraph
        session.oriented_setgraph
        events = []
        session.ctx.scu.memo_event = lambda op, key, _e=events: _e.append((op, key))
        sessions.append((session, events))
    return sessions


class TestBatchBurstLog:
    """The fused batch driver logs pulled units and executes them at
    the sync points in one kernel call, one SCU pass and one engine
    pass; everything it computes and models must equal the per-unit
    stream's (:class:`PerUnitExecutor`), fused or not."""

    @settings(max_examples=100, deadline=None)
    @given(
        graph=st.sampled_from(sorted(_STAGE_GRAPHS)),
        regime=st.sampled_from(["default", "sa-only", "db-heavy", "cpu-set"]),
        smb=st.sampled_from(sorted(_SMB)),
        picks=st.lists(
            st.sampled_from(
                ["triangles", "clustering_coefficient", "local_clustering"]
                + [f"sim:{m}" for m in _MEASURES]
            ),
            min_size=1,
            max_size=7,
        ),
        tenants=st.lists(st.sampled_from(["a", "b", None]), min_size=7, max_size=7),
        fuse_width=st.integers(1, 9),
        threads=st.sampled_from([1, 3, 8]),
        observability=st.booleans(),
        trace=st.booleans(),
        result_cache=st.booleans(),
        scheduled=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_log_matches_per_unit_stream(
        self, graph, regime, smb, picks, tenants, fuse_width, threads,
        observability, trace, result_cache, scheduled, seed,
    ):
        g = _STAGE_GRAPHS[graph]()
        n = g.num_vertices
        pairs = _watchlist(n, 20, seed=seed) if n > 1 else np.zeros((0, 2), np.int64)
        config = ExecutionConfig(
            threads=threads,
            result_cache=result_cache,
            trace=trace,
            **_STAGE_REGIMES[regime],
            **_SMB[smb],
        )
        sessions = _batch_sessions(g, config, observability)
        results, published, shadows = [], [], []
        for (session, __), cls in zip(sessions, (PlanExecutor, PerUnitExecutor)):
            plans = [
                compile_plan(
                    session,
                    "similarity_pairs",
                    {"pairs": pairs, "measure": pick[4:]},
                    tenant=tenant,
                )
                if pick.startswith("sim:")
                else compile_plan(session, pick, {}, tenant=tenant)
                for pick, tenant in zip(picks, tenants)
            ]
            executor = cls(
                session,
                fuse_width=fuse_width,
                schedule=certify_schedule(plans) if scheduled else None,
            )
            # Every plan's shadow lanes, as the batch drops them.
            engine = session.ctx.engine
            dropped = {}
            drop = engine.drop_tenant

            def snapshot(tag, _engine=engine, _dropped=dropped, _drop=drop):
                _dropped[tag] = [
                    (lane.compute_cycles, lane.memory_bytes,
                     lane.latency_cycles, lane.tasks)
                    for lane in _engine._tenants.get(tag, ())
                ]
                _drop(tag)

            engine.drop_tenant = snapshot
            results.append(executor.execute(plans))
            published.append(list(executor._done))
            shadows.append(dropped)
        log, ref = results
        assert [_result_state(r) for r in log] == [_result_state(r) for r in ref]
        assert published[0] == published[1]
        assert shadows[0] == shadows[1]
        (s0, e0), (s1, e1) = sessions
        assert _batch_machine_state(s0) == _batch_machine_state(s1)
        assert e0 == e1

    @pytest.mark.parametrize("scheduled", [False, True])
    def test_batch_bursts_stage_needs_a_table(self, scheduled):
        session = SisaSession(_graph())
        plan = session.compile("triangles")
        plan.stages[1].table = None  # its units adapter stays
        schedule = certify_schedule([plan]) if scheduled else None
        with pytest.raises(ConfigError, match="declares no table"):
            PlanExecutor(session, schedule=schedule).execute([plan])
        assert session.ctx.engine._tenants == {}
