"""Tests for the schedule certifier and the happens-before race
detector: DAG lowering, lane assignment, the what-if speedup model,
bit-identical scheduled execution (including the hypothesis property
that *every* admissible topological order matches sequential outputs),
the pool's ``lanes``/``racecheck`` path, rogue-write detection, and
the two shared-state lint rules that ride along."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static import (
    DEFAULT_RULES,
    AccessLog,
    CertifiedSchedule,
    certify_schedule,
    find_races,
    lint_source,
    raise_on_races,
    replay_certified,
)
from repro.analysis.static.smoke import (
    SOAK_WORKLOADS,
    compile_batch,
    full_grid,
    make_session,
    racecheck_smoke,
    schedule_smoke,
    soak_batch,
)
from repro.errors import ConfigError, HazardError, RaceError, SisaError
from repro.graphs.streams import EdgeBatch, canonical_edges
from repro.serving import RetryPolicy
from repro.session import PlanExecutor, SessionPool
from repro.session.cache import fingerprint

N = 60


def _grid_plans(session=None, n=N):
    session = session or make_session(n=n)
    return session, compile_batch(session, full_grid(n))


def _reference_outputs(n=N):
    """Sequential per-workload outputs of the soak mix on a fresh
    session — the bit-identity oracle for every scheduled replay."""
    session = make_session(n=n)
    return {
        name: fingerprint(session.run(name, **dict(params)).output)
        for name, params in SOAK_WORKLOADS
    }


@pytest.fixture(scope="module")
def soak_reference():
    return _reference_outputs()


# ---------------------------------------------------------------------------
# Certification: DAG lowering and lane assignment
# ---------------------------------------------------------------------------


class TestCertifySchedule:
    def test_grid_certifies(self):
        _, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=4)
        assert isinstance(schedule, CertifiedSchedule)
        assert len(schedule.nodes) == sum(len(p.stages) for p in plans)
        assert len(schedule.edges) > 0
        assert not schedule.measured

    def test_order_is_a_topological_permutation(self):
        _, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=4)
        assert sorted(schedule.order) == list(range(len(schedule.nodes)))
        assert schedule.is_topological(schedule.order)

    def test_lane_assignment_covers_all_nodes(self):
        _, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=4)
        assert set(schedule.lane_of) == set(range(len(schedule.nodes)))
        assert all(0 <= lane < 4 for lane in schedule.lane_of.values())

    def test_program_order_is_happens_before(self):
        session = make_session(n=N)
        plans = [session.compile("clustering_coefficient")]
        schedule = certify_schedule(plans, lanes=2)
        for later in range(1, len(schedule.nodes)):
            assert schedule.happens_before(0, later)
            assert not schedule.happens_before(later, 0)

    def test_independent_plans_are_unordered(self):
        session = make_session(n=N)
        plans = [
            session.compile("triangles"),
            session.compile("bfs", root=0),
        ]
        schedule = certify_schedule(plans, lanes=2)
        tri_last = len(plans[0].stages) - 1
        bfs_first = len(plans[0].stages)
        # bfs reads no structure triangles writes after the struct
        # build, so the tails of the two plans commute.
        tri_done = schedule.happens_before(tri_last, bfs_first)
        bfs_done = schedule.happens_before(bfs_first, tri_last)
        assert not (tri_done and bfs_done)

    def test_matches_detects_foreign_batch(self):
        session, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=2)
        assert schedule.matches(plans)
        other = [session.compile("triangles")]
        assert not schedule.matches(other)

    def test_lanes_must_be_positive(self):
        _, plans = _grid_plans()
        with pytest.raises(ConfigError):
            certify_schedule(plans, lanes=0)

    def test_multi_session_batch_rejected(self):
        s1, p1 = _grid_plans()
        s2 = make_session(n=N)
        plans = [s1.compile("triangles"), s2.compile("triangles")]
        with pytest.raises(ConfigError):
            certify_schedule(plans)

    def test_uncertified_batch_rejected(self):
        session = make_session(n=N)
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
        )  # the stream advanced past the plan's pinned version
        with pytest.raises(HazardError) as err:
            certify_schedule([plan])
        assert "uncertified" in str(err.value)

    def test_explicit_non_topological_order_rejected(self):
        session = make_session(n=N)
        plans = [session.compile("clustering_coefficient")]
        schedule = certify_schedule(plans, lanes=2)
        backwards = tuple(reversed(schedule.order))
        with pytest.raises(SisaError):
            schedule.with_order(backwards)

    def test_random_topological_orders_are_seeded(self):
        _, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=4)
        a = schedule.random_topological_order(7)
        b = schedule.random_topological_order(7)
        c = schedule.random_topological_order(8)
        assert a == b
        assert schedule.is_topological(a)
        assert schedule.is_topological(c)


class TestWhatIfModel:
    def test_single_lane_has_no_parallelism(self):
        _, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=1)
        model = schedule.what_if()
        assert model.cross_edges == 0
        assert model.merge_cycles == 0.0
        assert model.parallel_cycles == pytest.approx(
            model.sequential_cycles
        )
        assert model.speedup == pytest.approx(1.0)

    def test_makespan_bounded_by_sequential(self):
        _, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=4)
        for lanes in (1, 2, 4, 8):
            model = schedule.what_if(lanes)
            assert model.makespan <= model.sequential_cycles + 1e-9
            assert model.lanes == lanes
            assert len(model.lane_busy) == lanes

    def test_measured_model_after_replay(self, soak_reference):
        session = make_session(n=N)
        plans = soak_batch(session, tenants=4)
        schedule = certify_schedule(plans, lanes=4)
        _results, races, _log = replay_certified(
            session, plans, schedule, lanes=4
        )
        assert races == []
        assert schedule.measured
        model = schedule.what_if()
        assert model.measured
        assert model.parallel_cycles <= model.sequential_cycles
        assert model.speedup > 1.0

    def test_as_dict_roundtrips_to_json(self):
        _, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=2)
        payload = json.dumps(schedule.as_dict())
        data = json.loads(payload)
        assert data["lanes"] == 2
        assert len(data["nodes"]) == len(schedule.nodes)
        assert len(data["edges"]) == len(schedule.edges)


# ---------------------------------------------------------------------------
# Scheduled execution: bit-identity with sequential outputs
# ---------------------------------------------------------------------------


class TestScheduledExecution:
    def test_grid_replay_matches_sequential(self):
        session, plans = _grid_plans()
        results, races, _log = replay_certified(session, plans, lanes=4)
        assert races == []
        ref_session, _ = _grid_plans(make_session(n=N))
        for (name, params), result in zip(full_grid(N), results):
            assert result.ok and result.scheduled and not result.fused
            ref = ref_session.run(name, **dict(params))
            assert fingerprint(result.output) == fingerprint(ref.output)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_every_topological_order_is_bit_identical(
        self, soak_reference, seed
    ):
        session = make_session(n=N)
        plans = soak_batch(session, tenants=2)
        results, races, _log = replay_certified(
            session, plans, lanes=4, seed=seed
        )
        assert races == []
        for plan, result in zip(plans, results):
            assert (
                fingerprint(result.output) == soak_reference[plan.name]
            ), f"{plan.name} diverged under seed {seed}"

    def test_schedule_for_wrong_batch_rejected(self):
        session, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=2)
        other = [session.compile("triangles")]
        with pytest.raises(ConfigError):
            PlanExecutor(session, schedule=schedule).execute(other)

    def test_access_log_requires_schedule(self):
        session = make_session(n=N)
        with pytest.raises(ConfigError):
            PlanExecutor(session, access_log=AccessLog())


# ---------------------------------------------------------------------------
# Pool integration: run(lanes=..., racecheck=...)
# ---------------------------------------------------------------------------


def _submit_soak(pool, tenants=8):
    graph = make_session(n=N).graph
    for tenant in range(tenants):
        for name, params in SOAK_WORKLOADS:
            pool.submit(
                "g", name, tenant=f"tenant-{tenant}", graph=graph, **params
            )
    return tenants * len(SOAK_WORKLOADS)


class TestPoolScheduled:
    def test_racecheck_run_is_race_free_and_bit_identical(
        self, soak_reference
    ):
        pool = SessionPool(threads=8)
        count = _submit_soak(pool)
        results = pool.run(lanes=4, racecheck=True)
        assert len(results) == count
        for result in results:
            assert result.ok and result.scheduled
            assert (
                fingerprint(result.output)
                == soak_reference[result.workload]
            )
        schedule = pool.last_schedules["g"]
        assert schedule.measured
        assert schedule.what_if().speedup >= 1.5

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_lanes_without_racecheck_also_schedules(
        self, soak_reference, lanes
    ):
        pools = [SessionPool(threads=8), SessionPool(threads=8)]
        runs = []
        for pool in pools:
            count = _submit_soak(pool, tenants=2)
            results = pool.run(lanes=lanes)
            assert len(results) == count
            assert all(r.ok and r.scheduled for r in results)
            for result in results:
                assert (
                    fingerprint(result.output)
                    == soak_reference[result.workload]
                )
            runs.append(results)
        # Two fresh pools at the same width charge identically.
        assert [r.report.runtime_cycles for r in runs[0]] == [
            r.report.runtime_cycles for r in runs[1]
        ]
        assert pools[0].tenant_cycles == pools[1].tenant_cycles

    def test_scheduled_run_matches_default_pool_run(self):
        scheduled = SessionPool(threads=8)
        default = SessionPool(threads=8)
        _submit_soak(scheduled, tenants=2)
        _submit_soak(default, tenants=2)
        a = scheduled.run(lanes=4, racecheck=True)
        b = default.run()
        assert [
            fingerprint(r.output) for r in a
        ] == [fingerprint(r.output) for r in b]

    def test_hardened_pool_rejects_scheduling(self):
        pool = SessionPool(threads=8, retry=RetryPolicy(max_retries=2))
        with pytest.raises(ConfigError):
            pool.run(lanes=4)


# ---------------------------------------------------------------------------
# Race detection: rogue undeclared writes are caught
# ---------------------------------------------------------------------------


def _arm_rogue_cache_write(plans):
    """Wrap the first call-kind stage of the *last* plan so executing
    it invalidates the shared result cache — a write the stage never
    declared, unordered against every independent plan's cache reads."""
    for plan in reversed(plans):
        for stage in plan.stages:
            if stage.kind == "call" and stage.run is not None:
                orig = stage.run

                def rogue(session, state, _orig=orig):
                    out = _orig(session, state)
                    session._results.invalidate()  # undeclared shared write
                    return out

                stage.run = rogue
                return plan
    raise AssertionError("no call stage to arm")  # pragma: no cover


class TestRaceDetector:
    def test_injected_undeclared_write_is_caught(self):
        session, plans = _grid_plans()
        rogue_plan = _arm_rogue_cache_write(plans)
        _results, races, _log = replay_certified(session, plans, lanes=4)
        assert races, "rogue cache invalidation went undetected"
        race = races[0]
        assert race.structure == "result-cache"
        assert "write" in (race.a.op, race.b.op)
        assert rogue_plan.name in (race.a.stage or "") or any(
            rogue_plan.name in (r.a.stage or "") + (r.b.stage or "")
            for r in races
        )

    def test_raise_on_races_wraps_in_race_error(self):
        session, plans = _grid_plans()
        _arm_rogue_cache_write(plans)
        _results, races, _log = replay_certified(session, plans, lanes=4)
        with pytest.raises(RaceError) as err:
            raise_on_races(races, context="test replay")
        assert err.value.details["races"]
        assert "test replay" in str(err.value)

    def test_rogue_orientation_desync_is_caught(self):
        session = make_session(n=N)
        session.attach_stream()
        session.maintain_orientation()
        # Two independent oriented readers: their declared orientation
        # accesses are unordered, so a rogue desync inside one races
        # with the other's read.
        plans = [
            session.compile("triangles"),
            session.compile("kclique", k=3),
        ]
        armed = False
        for stage in plans[0].stages:
            if stage.kind == "call" and stage.run is not None:
                orig = stage.run

                def rogue(sess, state, _orig=orig):
                    out = _orig(sess, state)
                    sess.orientation_maintainer.mark_desynced()
                    return out

                stage.run = rogue
                armed = True
                break
        assert armed, "no call stage to arm"
        _results, races, _log = replay_certified(session, plans, lanes=2)
        assert any(race.structure == "orientation" for race in races)

    def test_clean_replay_reports_no_races(self):
        session, plans = _grid_plans()
        schedule = certify_schedule(plans, lanes=4)
        _results, races, log = replay_certified(
            session, plans, schedule, lanes=4
        )
        assert races == []
        assert len(log.accesses) > 0
        assert find_races(schedule, log) == []

    def test_smoke_helpers_are_race_free(self):
        for label, schedule, races in racecheck_smoke(n=N, lanes=4):
            assert races == [], label
            assert schedule.measured, label
        labels = [label for label, _ in schedule_smoke(n=N, lanes=4)]
        assert labels == ["full-grid", "robustness-soak"]


# ---------------------------------------------------------------------------
# Lint rules: shared-structure and session-state mutation
# ---------------------------------------------------------------------------


ROGUE_SNIPPET = """\
class Meddler:
    def poke(self, session, cache, pool):
        cache._entries.clear()
        cache._entries["k"] = 1
        session._results = None
        session._orientation_maintainer = None
        pool._tenant_cycles["t"] = 1.0
        pool._tenant_runs.update({"t": 2})
        scu = session.ctx.scu
        scu._decision_memo.pop(("k",), None)
"""


class TestSharedStateLintRules:
    def test_rules_registered_by_default(self):
        assert "shared-structure-write" in DEFAULT_RULES
        assert "session-state-mutation" in DEFAULT_RULES

    def test_rogue_mutations_flagged(self):
        violations = lint_source(ROGUE_SNIPPET, path="rogue.py")
        rules = {v.rule for v in violations}
        assert "shared-structure-write" in rules
        assert "session-state-mutation" in rules
        flagged = {
            v.line for v in violations if v.rule == "shared-structure-write"
        }
        assert flagged == {3, 4, 10}

    def test_owner_modules_exempt(self):
        owner = "class C:\n    def f(self):\n        self._entries.clear()\n"
        assert (
            lint_source(owner, path="src/repro/session/cache.py") == []
        )
        assert (
            lint_source(owner, path="src/repro/hw/cache.py") == []
        )
        foreign = lint_source(owner, path="src/repro/session/plan.py")
        assert [v.rule for v in foreign] == ["shared-structure-write"]

    def test_ledger_mutation_allowed_in_racecheck_module(self):
        shim = "class S:\n    def f(self, pool):\n        pool._tenant_runs['t'] = 1\n"
        assert (
            lint_source(
                shim, path="src/repro/analysis/static/racecheck.py"
            )
            == []
        )
        assert lint_source(shim, path="src/repro/session/session.py")

    def test_pragma_disables_rule(self):
        line = (
            "class C:\n    def f(self, cache):\n"
            "        cache._entries.clear()  "
            "# repolint: disable=shared-structure-write\n"
        )
        assert lint_source(line, path="elsewhere.py") == []


# ---------------------------------------------------------------------------
# CLI: --schedule / --racecheck / --json
# ---------------------------------------------------------------------------


class TestCli:
    def test_schedule_mode(self, capsys):
        from repro.analysis.static.__main__ import main

        assert main(["--schedule", "--lanes", "2"]) == 0
        out = capsys.readouterr().out
        assert "schedule[full-grid]" in out
        assert "schedule[robustness-soak]" in out

    def test_racecheck_json_report(self, tmp_path, capsys):
        from repro.analysis.static.__main__ import main

        path = tmp_path / "report.json"
        assert main(["--racecheck", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["status"] == 0
        soak = data["racecheck"]["robustness-soak"]
        assert soak["races"] == []
        assert soak["model"]["measured"] is True
        assert soak["model"]["speedup"] >= 1.5

    def test_default_json_covers_lint_and_verify(self, tmp_path):
        from repro.analysis.static.__main__ import main

        path = tmp_path / "default.json"
        assert main(["--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["lint"]["count"] == 0
        assert all(
            section["certified"] for section in data["verify"].values()
        )
