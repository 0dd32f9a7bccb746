"""Tests for the static-analysis layer: the plan effect system and
hazard verifier, the dynamic burst-contract checker, and the project
contract linter (plus the satellite exception-handling fixes that rode
along with them)."""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static import (
    AnalysisReport,
    DEFAULT_RULES,
    analyze_batch,
    available_lint_rules,
    check_plan_dynamic,
    lint_paths,
    lint_source,
)
from repro.analysis.static.effects import EffectSet, normalize_tokens
from repro.analysis.static.smoke import (
    compile_batch,
    full_grid,
    make_session,
    soak_batch,
)
from repro.errors import ConfigError, HazardError, ReproError, SisaError
from repro.graphs.generators import gnp_random_graph
from repro.graphs.streams import EdgeBatch, canonical_edges
from repro.session import (
    ExecutionConfig,
    PlanExecutor,
    SessionPool,
    SisaSession,
)
from repro.session.plan import BurstUnit, PlanStage

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _graph(seed=3, n=60, p=0.12):
    return gnp_random_graph(n, p, seed=seed)


def _session(graph=None):
    return SisaSession(graph or _graph(), ExecutionConfig(threads=8))


# ---------------------------------------------------------------------------
# Effect-token model
# ---------------------------------------------------------------------------


class TestEffects:
    def test_bare_names_expand_to_struct_tokens(self):
        assert normalize_tokens(("oriented",)) == {
            "struct:oriented",
            "struct:order",
        }
        assert normalize_tokens(("both",)) == {
            "struct:undirected",
            "struct:oriented",
            "struct:order",
        }
        assert normalize_tokens(("none",)) == frozenset()
        assert normalize_tokens(("state:triangles",)) == {"state:triangles"}

    def test_conflicts_raw_war_waw(self):
        a = EffectSet.of(reads=("state:x",), writes=("state:y",))
        b = EffectSet.of(reads=("state:y",), writes=("state:x",))
        kinds = {k for k, _ in a.conflicts(b)}
        assert kinds == {"RAW", "WAR"}
        waw = EffectSet.of(writes=("state:y",)).conflicts(
            EffectSet.of(writes=("state:y",))
        )
        assert ("WAW", "state:y") in waw

    def test_struct_writes_are_build_once_not_waw(self):
        a = EffectSet.of(writes=("oriented",))
        b = EffectSet.of(writes=("oriented",))
        assert a.conflicts(b) == []

    def test_qualification_separates_plan_private_state(self):
        a = EffectSet.of(writes=("state:triangles",)).qualified("p0")
        b = EffectSet.of(writes=("state:triangles",)).qualified("p1")
        assert a.conflicts(b) == []


# ---------------------------------------------------------------------------
# Static verifier
# ---------------------------------------------------------------------------


class TestVerifier:
    def test_every_registered_workload_certifies(self):
        session = make_session()
        grid = full_grid(session.graph.num_vertices)
        # Each plan certifies alone...
        for (name, params), plan in zip(
            grid, compile_batch(session, grid)
        ):
            report = analyze_batch([plan])
            assert report.certified, (name, report.summary())
        # ...and the whole grid certifies as one batch.
        report = analyze_batch(compile_batch(session, grid))
        assert isinstance(report, AnalysisReport)
        assert report.certified, report.summary()
        assert len(report.plans) == len(grid)
        assert report.as_dict()["certified"] is True

    def test_soak_batch_certifies(self):
        session = make_session()
        report = analyze_batch(soak_batch(session))
        assert report.certified, report.summary()

    def test_illegal_burst_write_rejected_with_structured_report(self):
        session = _session()
        tri = session.compile("triangles")
        lc = session.compile("local_clustering")
        for stage in lc.stages:
            if stage.kind == "bursts":
                stage.writes = ("sets:session",)
        report = analyze_batch([tri, lc])
        assert not report.certified
        kinds = {h.kind for h in report.hazards}
        assert "illegal-burst-write" in kinds
        # The hazard names the offending token, plan and stage.
        hazard = next(
            h for h in report.hazards if h.kind == "illegal-burst-write"
        )
        assert hazard.token == "sets:session"
        assert hazard.plans == ("p1:local_clustering",)
        assert hazard.stages == ("bursts:local_triangles",)
        # A burst writing shared state also collides with the other
        # plan's implicit sets:session read.
        assert "WAR" in kinds or "RAW" in kinds

    def test_verify_true_raises_hazard_error_with_details(self):
        session = _session()
        tri = session.compile("triangles")
        lc = session.compile("local_clustering")
        for stage in lc.stages:
            if stage.kind == "bursts":
                stage.writes = ("sets:session",)
        executor = PlanExecutor(session, fuse=True, verify=True)
        with pytest.raises(HazardError) as err:
            executor.execute([tri, lc])
        details = err.value.details
        assert details["certified"] is False
        assert details["hazards"]
        assert executor.last_analysis is not None
        assert not executor.last_analysis.certified

    def test_dedup_divergence_when_seed_shape_mismatches(self):
        session = _session()
        plan = session.compile("triangles")
        for stage in plan.stages:
            if stage.kind == "bursts":
                stage.seeds = ("state:wrong_slot",)
        report = analyze_batch([plan])
        assert not report.certified
        assert {h.kind for h in report.hazards} == {"dedup-divergence"}

    def test_unsatisfied_state_read_detected(self):
        session = _session()
        plan = session.compile("clustering_coefficient")
        # Drop the burst stage that feeds state:triangles to the
        # finalize stage.
        plan.stages = [
            s for s in plan.stages if s.kind != "bursts"
        ]
        report = analyze_batch([plan])
        assert any(h.kind == "unsatisfied-read" for h in report.hazards)

    def test_stale_plan_is_a_hazard(self):
        session = _session()
        dyn = session.attach_stream()
        plan = session.compile("triangles")
        edges = canonical_edges(
            np.asarray([[0, 5], [1, 11]], dtype=np.int64),
            session.graph.num_vertices,
        )
        dyn.apply_batch(
            EdgeBatch(
                insertions=edges,
                deletions=np.empty((0, 2), dtype=np.int64),
            )
        )
        report = analyze_batch([plan])
        assert any(h.kind == "stale-plan" for h in report.hazards)

    def test_verified_fused_run_is_unchanged_and_matches_reference(self):
        graph = _graph()
        batch = [
            ("triangles", {}),
            ("clustering_coefficient", {}),
            ("local_clustering", {}),
        ]
        plain = _session(graph).run_many(batch, fuse=True)
        verified = _session(graph).run_many(batch, fuse=True, verify=True)
        sequential = _session(graph).run_many(batch, fuse=False)
        for p, v, s in zip(plain, verified, sequential):
            # verify=True is pure host-side analysis: outputs and
            # modeled cycles are bit-identical to the unverified run.
            assert repr(v.output) == repr(p.output)
            assert v.report.runtime_cycles == p.report.runtime_cycles
            assert v.stats == p.stats
            assert repr(v.output) == repr(s.output)

    def test_pool_run_verify_flag(self):
        graph = _graph()
        pool = SessionPool(ExecutionConfig(threads=8))
        pool.submit("g", "triangles", graph=graph, tenant="a")
        pool.submit("g", "clustering_coefficient", tenant="b")
        results = pool.run(verify=True)
        assert [r.workload for r in results] == [
            "triangles",
            "clustering_coefficient",
        ]


_MIX = [
    ("triangles", {}),
    ("clustering_coefficient", {}),
    ("local_clustering", {}),
    ("kclique", {"k": 3}),
    ("bfs", {"root": 0}),
]


class TestVerifierProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        idx=st.lists(
            st.integers(min_value=0, max_value=len(_MIX) - 1),
            min_size=1,
            max_size=6,
        )
    )
    def test_certified_batches_execute_bit_identical(self, idx):
        graph = _graph()
        batch = [_MIX[i] for i in idx]
        session = _session(graph)
        plans = [session.compile(n, **dict(p)) for n, p in batch]
        report = analyze_batch(plans)
        assert report.certified, report.summary()
        fused = PlanExecutor(session, fuse=True, verify=True).execute(plans)
        reference = _session(graph).run_many(batch, fuse=False)
        for f, r in zip(fused, reference):
            assert repr(f.output) == repr(r.output), f.workload


# ---------------------------------------------------------------------------
# Dynamic burst-contract checker
# ---------------------------------------------------------------------------


def _stub_plan(name, stages):
    return SimpleNamespace(
        name=name,
        params={},
        stages=stages,
        check_version=lambda: None,
    )


class TestDynamicChecker:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("triangles", {}),
            ("clustering_coefficient", {}),
            ("local_clustering", {}),
        ],
    )
    def test_clean_plans_pass_under_maximal_deferral(self, name, params):
        session = _session()
        report = check_plan_dynamic(session, session.compile(name, **params))
        assert report.certified, [v.as_dict() for v in report.violations]
        assert report.matches_reference is True

    def test_generator_reading_sink_state_is_caught(self):
        session = _session()

        def units(sess, state):
            sg = sess.setgraph
            ctx = sess.ctx
            state["acc"] = 0

            def sink(counts):
                state["acc"] += int(counts.sum())

            for u in range(4):
                lane = ctx.begin_task()
                nbrs = ctx.elements(sg.neighborhood(u))
                if not nbrs.size:
                    continue
                yield BurstUnit(
                    a=sg.neighborhood(u),
                    bs=[sg.neighborhood(int(v)) for v in nbrs],
                    kind="intersect",
                    lane=lane,
                    sink=sink,
                    writes=("state:acc",),
                )
                state["acc"]  # contract violation: reads a deferred sink

        stage = PlanStage(
            kind="bursts",
            label="bursts:bad",
            reads=("undirected",),
            units=units,
            result=lambda state: state["acc"],
            writes=("state:acc",),
        )
        report = check_plan_dynamic(
            session, _stub_plan("bad", [stage]), compare=False
        )
        assert not report.certified
        kinds = {v.kind for v in report.violations}
        assert "generator-reads-sink-state" in kinds

    def test_undeclared_sink_effect_is_caught(self):
        session = _session()

        def units(sess, state):
            sg = sess.setgraph
            ctx = sess.ctx
            state["acc"] = 0

            def sink(counts):
                state["acc"] += int(counts.sum())
                state["smuggled"] = True  # not declared anywhere

            lane = ctx.begin_task()
            nbrs = ctx.elements(sg.neighborhood(0))
            yield BurstUnit(
                a=sg.neighborhood(0),
                bs=[sg.neighborhood(int(v)) for v in nbrs],
                kind="intersect",
                lane=lane,
                sink=sink,
                writes=("state:acc",),
            )

        stage = PlanStage(
            kind="bursts",
            label="bursts:smuggler",
            reads=("undirected",),
            units=units,
            result=lambda state: state["acc"],
            writes=("state:acc",),
        )
        report = check_plan_dynamic(
            session, _stub_plan("smuggler", [stage]), compare=False
        )
        assert any(
            v.kind == "undeclared-effect" and v.slot == "smuggled"
            for v in report.violations
        )


# ---------------------------------------------------------------------------
# Contract linter
# ---------------------------------------------------------------------------


class TestLinter:
    def test_all_default_rules_registered(self):
        rules = available_lint_rules()
        for name in DEFAULT_RULES:
            assert name in rules and rules[name]

    def test_unseeded_rng(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert [v.rule for v in lint_source(src)] == ["unseeded-rng"]
        src = "import numpy as np\ng = np.random.default_rng()\n"
        assert [v.rule for v in lint_source(src)] == ["unseeded-rng"]
        src = "import numpy as np\ng = np.random.default_rng(7)\n"
        assert lint_source(src) == []

    def test_overbroad_except(self):
        src = "try:\n    pass\nexcept Exception:\n    pass\n"
        assert [v.rule for v in lint_source(src)] == ["overbroad-except"]
        # A handler that re-raises is an allowed cleanup idiom.
        src = "try:\n    pass\nexcept BaseException:\n    raise\n"
        assert lint_source(src) == []
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert lint_source(src) == []

    def test_library_assert_and_pragma(self):
        assert [v.rule for v in lint_source("assert True\n")] == [
            "library-assert"
        ]
        suppressed = "assert True  # repolint: disable=library-assert\n"
        assert lint_source(suppressed) == []

    def test_error_details(self):
        src = "raise ReproError('x')\n"
        assert [v.rule for v in lint_source(src)] == ["error-details"]
        src = "raise ValidationError('x', details={'k': 1})\n"
        assert lint_source(src) == []
        # Other error types are not required to carry details.
        src = "raise ConfigError('x')\n"
        assert lint_source(src) == []

    def test_mutable_default_arg(self):
        src = "def f(xs=[]):\n    pass\n"
        assert [v.rule for v in lint_source(src)] == ["mutable-default-arg"]
        src = "def f(xs=None, n=3, s='a'):\n    pass\n"
        assert lint_source(src) == []

    def test_unguarded_obs(self):
        src = (
            "def f(self):\n"
            "    self.obs.ping()\n"
        )
        assert [v.rule for v in lint_source(src)] == ["unguarded-obs"]
        src = (
            "def f(self):\n"
            "    if self.obs is not None:\n"
            "        self.obs.ping()\n"
        )
        assert lint_source(src) == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError):
            lint_source("x = 1\n", rules=("no-such-rule",))

    def test_repository_is_lint_clean(self):
        violations = lint_paths([SRC])
        assert violations == [], "\n".join(v.render() for v in violations)


# ---------------------------------------------------------------------------
# Satellite: exception-handling contracts
# ---------------------------------------------------------------------------


class TestExceptionContracts:
    def test_isolated_run_converts_repro_errors_to_failed_results(self):
        session = _session()
        plan = session.compile("triangles")
        # Sabotage one stage with a package-taxonomy error.
        def boom(sess, state):
            raise SisaError("synthetic kernel fault", details={"x": 1})

        plan.stages[0].run = boom
        (failed,) = session.run_many([plan], isolate=True)
        assert failed.reason == "error"
        assert isinstance(failed.error, SisaError)

    def test_isolated_run_propagates_foreign_exceptions(self):
        session = _session()
        plan = session.compile("triangles")

        def boom(sess, state):
            raise RuntimeError("a genuine bug, not a fault")

        plan.stages[0].run = boom
        with pytest.raises(RuntimeError, match="genuine bug"):
            session.run_many([plan], isolate=True)

    @staticmethod
    def _pool_with_buggy_plan(**pool_kwargs):
        """A pool holding tenant ``a``'s plan whose prep stage raises a
        raw RuntimeError, beside tenant ``b``'s healthy plan."""
        graph = _graph()
        pool = SessionPool(ExecutionConfig(threads=8), **pool_kwargs)
        plan = pool.submit("g", "triangles", graph=graph, tenant="a")
        pool.submit("g", "local_clustering", graph=graph, tenant="b")

        def boom(sess, state):
            raise RuntimeError("a genuine bug, not a fault")

        plan.stages[0].run = boom
        return pool

    def test_hardened_pool_contains_foreign_exceptions(self):
        from repro.serving import RetryPolicy

        pool = self._pool_with_buggy_plan(retry=RetryPolicy(max_retries=2))
        failed, healthy = pool.run()
        assert failed.reason == "internal-error"
        assert failed.attempts == 1  # a bug is not a transient: no retry
        assert isinstance(failed.error, RuntimeError)
        assert failed.details == {"exception": "RuntimeError"}
        assert healthy.ok and healthy.workload == "local_clustering"
        reference = _session().run("local_clustering").output
        assert np.array_equal(healthy.output, reference)
        health = pool.health()
        assert health.failed == 1
        assert health.retries == 0

    def test_strict_pool_propagates_foreign_exceptions(self):
        pool = self._pool_with_buggy_plan()
        with pytest.raises(RuntimeError, match="genuine bug"):
            pool.run()

    @staticmethod
    def _assert_contained(pool):
        failed, healthy = pool.run()
        assert failed.reason == "internal-error"
        assert failed.attempts == 1
        assert isinstance(failed.error, RuntimeError)
        assert failed.details == {"exception": "RuntimeError"}
        assert healthy.ok and healthy.workload == "local_clustering"
        assert pool.health().failed == 1

    def test_hardened_pool_contains_foreign_exceptions_in_recompile(
        self, monkeypatch
    ):
        import repro.session.pool as pool_mod
        from repro.serving import RetryPolicy

        graph = _graph()
        pool = SessionPool(
            ExecutionConfig(threads=8), retry=RetryPolicy(max_retries=2)
        )
        stale = pool.submit("g", "triangles", graph=graph, tenant="a")
        pool.submit("g", "local_clustering", graph=graph, tenant="b")
        stale.version = -1  # pinned to a version the stream has left
        real_compile = pool_mod.compile_plan

        def compile_or_boom(session, name, params, **kw):
            if name == "triangles":
                raise RuntimeError("workload builder bug")
            return real_compile(session, name, params, **kw)

        monkeypatch.setattr(pool_mod, "compile_plan", compile_or_boom)
        self._assert_contained(pool)

    def test_hardened_pool_contains_foreign_exceptions_in_before_plan(self):
        from repro.serving import RetryPolicy

        class BuggyHook:
            injected = {}

            def before_batch(self, session, plans):
                pass

            def before_plan(self, session, plan):
                if plan.name == "triangles":
                    raise RuntimeError("injector hook bug")

            def on_stage(self, plan, stage):
                pass

        graph = _graph()
        pool = SessionPool(
            ExecutionConfig(threads=8),
            retry=RetryPolicy(max_retries=2),
            fault_injector=BuggyHook(),
        )
        pool.submit("g", "triangles", graph=graph, tenant="a")
        pool.submit("g", "local_clustering", graph=graph, tenant="b")
        self._assert_contained(pool)

    def test_internal_invariant_errors_carry_details(self):
        with pytest.raises(ReproError) as err:
            raise SisaError("internal error: example", details={"k": 1})
        assert err.value.details == {"k": 1}
