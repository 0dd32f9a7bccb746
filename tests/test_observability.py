"""Observability-layer tests: metrics registry semantics (including
the label-cardinality cap), span-tree recording and cycle accounting,
the exporters (Prometheus text, Chrome-trace JSON, periodic JSONL
sink), the health-snapshot hardening, and the load-bearing invariant
of the whole layer — enabling observability changes *nothing* about
modeled cycles or outputs, asserted as a hypothesis property over a
mixed faulted multi-tenant batch."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.algorithms.similarity import all_pairs_similarity_on
from repro.algorithms.triangles import triangle_count_oriented
from repro.errors import ConfigError
from repro.graphs.generators import chung_lu_graph, gnp_random_graph
from repro.observability import (
    OVERFLOW_LABEL,
    JsonlSink,
    MetricsRegistry,
    Observability,
    SpanRecorder,
    prometheus_text,
    write_chrome_trace,
)
from repro.serving import FaultInjector, RetryPolicy, TenantQuota
from repro.serving.health import HealthSnapshot, TenantHealth
from repro.runtime import batch as batchmod
from repro.session import ExecutionConfig, SessionPool, SisaSession
from repro.streaming.incremental import local_triangle_counts


def _graph(n=24, p=0.25, seed=7):
    return gnp_random_graph(n, p, seed=seed)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "h", ("workload",))
        c.inc(("triangles",))
        c.inc(("triangles",), 2.0)
        assert reg.counter_value("hits_total", ("triangles",)) == 3.0
        assert reg.counter_value("hits_total", ("bfs",)) == 0.0

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "d", ("tenant",))
        g.set(("a",), 4)
        g.set(("a",), 2)
        assert g.get(("a",)) == 2

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "l", (), buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe((), v)
        s = h.series[()]
        assert s.counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert s.count == 3 and s.sum == 55.5

    def test_redeclaration_with_same_shape_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x", ("k",))
        assert reg.counter("x_total", "x", ("k",)) is a

    def test_redeclaration_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", ("k",))
        with pytest.raises(ConfigError):
            reg.counter("x_total", "x", ("other",))
        with pytest.raises(ConfigError):
            reg.gauge("x_total", "x", ("k",))

    def test_cardinality_cap_folds_into_overflow(self):
        reg = MetricsRegistry(max_series=3)
        c = reg.counter("req_total", "r", ("request_id",))
        for i in range(10):
            c.inc((f"req-{i}",))
        # Three real series admitted, the rest folded — totals exact.
        assert len(c.series) == 4  # 3 admitted + the overflow series
        assert c.series[(OVERFLOW_LABEL,)] == 7.0
        assert c.dropped_series == 7
        assert sum(c.series.values()) == 10.0
        # Admitted series keep accumulating under their own key.
        c.inc(("req-0",))
        assert c.series[("req-0",)] == 2.0
        assert c.dropped_series == 7

    def test_cap_applies_per_family_in_hub(self):
        obs = Observability(max_series=2)
        for i in range(6):
            obs.cache_event("miss", f"workload-{i}")
        fam = obs.registry.families()["result_cache_events_total"]
        assert fam.dropped_series == 4
        assert fam.series[(OVERFLOW_LABEL, OVERFLOW_LABEL)] == 4.0

    def test_snapshot_is_json_safe_and_delta_diffs(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total", "", ("k",))
        h = reg.histogram("v", "", (), buckets=(1.0,))
        c.inc(("a",))
        h.observe((), 0.5)
        first = reg.snapshot()
        json.dumps(first)  # round-trippable
        c.inc(("a",), 2.0)
        c.inc(("b",))
        h.observe((), 3.0)
        second = reg.snapshot()
        d = MetricsRegistry.delta(second, first)
        assert d["n_total"] == {"a": 2.0, "b": 1.0}
        assert d["v"][""] == {"count": 1, "sum": 3.0}
        assert MetricsRegistry.delta(second, dict(second)) == {}


# ---------------------------------------------------------------------------
# Span recorder
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_and_walk(self):
        rec = SpanRecorder()
        a = rec.start("a")
        b = rec.start("b")
        rec.end(b, cycles=10.0)
        rec.end(a, cycles=25.0)
        assert [s.name for s, __ in a.walk()] == ["a", "b"]
        assert b.parent is a and a.cycles == 25.0
        assert rec.max_depth() == 2

    def test_end_of_detached_span_does_not_wipe_stack(self):
        rec = SpanRecorder()
        root = rec.start("root")
        d = rec.start_detached("detached", root)
        assert rec.current is root
        rec.end(d)
        assert rec.current is root  # detached end never pops the stack
        rec.end(root)
        assert rec.current is None

    def test_enter_exit_reparents_interleaved_work(self):
        rec = SpanRecorder()
        root = rec.start("root")
        d = rec.start_detached("slice", root)
        rec.enter(d)
        child = rec.start("inner")
        rec.end(child)
        rec.exit(d)
        assert child.parent is d
        assert rec.current is root

    def test_span_cap_drops_and_counts(self):
        rec = SpanRecorder(max_spans=2)
        a = rec.start("a")
        rec.start("b")
        c = rec.start("c")  # past the cap: recorded nowhere
        assert rec.count == 2 and rec.dropped == 1
        assert all(ch.name != "c" for ch, __ in a.walk())
        rec.end(c)
        assert rec.current is not None  # ending a dropped span is safe

    def test_chrome_trace_round_trips_with_depths(self, tmp_path):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner", {"tenant": "a"}):
                pass
        path = tmp_path / "trace.json"
        write_chrome_trace(rec, path)
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        by_name = {e["name"]: e for e in events}
        assert by_name["outer"]["args"]["depth"] == 0
        assert by_name["inner"]["args"]["depth"] == 1
        assert by_name["inner"]["args"]["tenant"] == "a"
        assert all(e["ph"] == "X" for e in events)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExport:
    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "cache hits", ("workload",))
        c.inc(("triangles",), 3)
        h = reg.histogram("lat_seconds", "latency", (), buckets=(1.0, 10.0))
        h.observe((), 0.5)
        h.observe((), 5.0)
        text = prometheus_text(reg)
        assert "# HELP hits_total cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{workload="triangles"} 3' in text
        # Histogram: cumulative buckets, +Inf, _sum/_count.
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="10"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 5.5" in text
        assert "lat_seconds_count 2" in text

    def test_jsonl_sink_flushes_every_n(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = JsonlSink(path, every=3)
        reg = MetricsRegistry()
        c = reg.counter("n_total", "", ())
        wrote = []
        for i in range(7):
            c.inc(())
            wrote.append(sink.maybe_write(reg, {"ok": True}, runs=i + 1))
        assert wrote == [False, False, True, False, False, True, False]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        # Each record carries the delta since the previous one.
        assert records[0]["metrics_delta"]["n_total"][""] == 3.0
        assert records[1]["metrics_delta"]["n_total"][""] == 3.0
        assert records[1]["runs"] == 6
        assert records[0]["health"] == {"ok": True}

    def test_jsonl_sink_rejects_bad_period(self, tmp_path):
        with pytest.raises(ConfigError):
            JsonlSink(tmp_path / "t.jsonl", every=0)


# ---------------------------------------------------------------------------
# Health snapshot hardening (satellite)
# ---------------------------------------------------------------------------


class TestHealthSnapshot:
    def _snap(self, **kw):
        base = dict(
            sessions=1, pending=0, deferred=0, completed=2, failed=0,
            retries=0, drift_recompiles=0, wasted_cycles=0.0, rejections=0,
            cache_corruptions=0, cache_evictions=0, orientation_resyncs=0,
        )
        base.update(kw)
        return HealthSnapshot(**base)

    def test_tenant_lookup_is_mapping_backed(self):
        tenants = tuple(
            TenantHealth(
                tenant=f"t{i}", cycles=float(i), retry_cycles=0.0,
                queued=0, deferred=0, rejections=0,
            )
            for i in range(50)
        )
        snap = self._snap(tenants=tenants)
        assert snap.tenant("t42").cycles == 42.0
        assert snap._by_tenant["t42"] is snap.tenant("t42")
        with pytest.raises(KeyError):
            snap.tenant("nope")

    def test_injected_faults_cannot_be_mutated(self):
        live = {"drift": 2}
        snap = self._snap(injected_faults=live)
        with pytest.raises(TypeError):
            snap.injected_faults["drift"] = 99
        # ...and does not alias the dict it was built from.
        live["drift"] = 99
        assert snap.injected_faults["drift"] == 2

    def test_as_dict_is_a_defensive_copy(self):
        snap = self._snap(
            injected_faults={"cache": 1},
            tenants=(
                TenantHealth(
                    tenant="a", cycles=1.0, retry_cycles=0.0,
                    queued=0, deferred=0, rejections=0, cycle_budget=10.0,
                ),
            ),
        )
        out = snap.as_dict()
        json.dumps(out)
        out["injected_faults"]["cache"] = 99
        out["tenants"][0]["cycles"] = 99.0
        assert snap.injected_faults["cache"] == 1
        assert snap.tenant("a").cycles == 1.0
        assert out["tenants"][0]["spent_cycles"] == 1.0
        assert out["degraded"] is False and out["healthy"] is True


# ---------------------------------------------------------------------------
# The serving stack feeds
# ---------------------------------------------------------------------------


def _drain(pool, limit=50):
    results = []
    for __ in range(limit):
        results.extend(pool.run())
        if pool.pending == 0 and pool.deferred == 0:
            return results
    raise AssertionError("pool failed to drain")


class TestPoolObservability:
    def test_metrics_raise_when_disabled(self):
        pool = SessionPool()
        with pytest.raises(ConfigError):
            pool.metrics()
        with pytest.raises(ConfigError):
            pool.metrics_text()
        assert pool.obs is None

    def test_tenant_counters_mirror_ledgers_exactly(self):
        pool = SessionPool(observability=True, threads=4)
        pool.session("g", _graph()).attach_stream()
        for tenant in ("alice", "bob", "alice"):
            pool.submit("g", "triangles", tenant=tenant)
            pool.submit("g", "bfs", tenant=tenant, root=0)
        results = _drain(pool)
        assert all(r.ok for r in results)
        reg = pool.obs.registry
        for tenant, cycles in pool.tenant_cycles.items():
            assert (
                reg.counter_value("tenant_work_cycles_total", (tenant,))
                == cycles  # exact float equality, not approx
            )

    def test_span_tree_cycles_match_engine_reports(self):
        pool = SessionPool(observability=True, threads=4)
        pool.session("g", _graph())
        pool.submit("g", "triangles", tenant="a")
        pool.submit("g", "clustering_coefficient", tenant="b")
        results = _drain(pool)
        for result in results:
            root = result.spans
            assert root is not None and root.name.startswith("plan:")
            # The plan span carries exactly the run's attributed work.
            assert root.cycles == result.report.work_cycles
            # Parent/child accounting: the stage spans partition the
            # plan's work (kernel spans nest inside stages).
            stage_cycles = sum(
                ch.cycles for ch in root.children
                if ch.name.startswith("stage:")
            )
            assert stage_cycles == pytest.approx(root.cycles, rel=1e-9)

    def test_scheduled_and_fused_runs_give_identical_plan_trees(self):
        # Fused and certified-schedule batches step one state machine,
        # so a deduped stage (the triangle count inside
        # clustering_coefficient) opens no stage span under either.
        def plan_trees(**run_kwargs):
            pool = SessionPool(observability=True, threads=4)
            pool.session("g", _graph())
            for name in ("triangles", "clustering_coefficient", "triangles"):
                pool.submit("g", name)
            return [
                [
                    (span.name, depth)
                    for span, depth in result.spans.walk()
                    if span.name.startswith(("plan:", "stage:"))
                ]
                for result in pool.run(**run_kwargs)
            ]

        fused = plan_trees()
        assert ("stage:bursts:triangles", 1) not in fused[1]
        assert plan_trees(lanes=2) == fused

    def test_batch_trace_has_five_span_levels(self, tmp_path):
        pool = SessionPool(observability=True, threads=4)
        pool.session("g", _graph())
        pool.submit("g", "triangles")
        pool.submit("g", "kclique", k=3)
        _drain(pool)
        assert pool.obs.spans.max_depth() >= 5
        path = tmp_path / "batch.json"
        write_chrome_trace(pool.obs.spans, path)
        events = json.loads(path.read_text())["traceEvents"]
        assert 1 + max(e["args"]["depth"] for e in events) >= 5
        names = {e["name"] for e in events}
        assert any(n.startswith("session:") for n in names)
        assert any(n.startswith("plan:") for n in names)
        assert any(n.startswith("stage:") for n in names)
        assert any(n.startswith("kernel:") for n in names)

    def test_submit_spans_cover_compile_validate_admit(self):
        pool = SessionPool(
            observability=True,
            threads=4,
            default_quota=TenantQuota(max_queue_depth=8),
        )
        pool.session("g", _graph())
        pool.submit("g", "triangles", tenant="a")
        submit = next(
            r for r in pool.obs.spans.roots if r.name == "submit"
        )
        names = [s.name for s, __ in submit.walk()]
        assert names[0] == "submit"
        assert "compile" in names and "validate" in names
        assert "admit" in names
        reg = pool.obs.registry
        assert (
            reg.counter_value("admission_decisions_total", ("admit", "a"))
            == 1.0
        )

    def test_cache_and_dispatch_counters_fire(self):
        pool = SessionPool(observability=True, threads=4)
        pool.session("g", _graph())
        pool.submit("g", "triangles")
        _drain(pool)
        pool.submit("g", "triangles")
        _drain(pool)  # second run: result-cache hit
        snap = pool.metrics()
        cache = snap["metrics"]["result_cache_events_total"]["series"]
        assert cache.get("miss|triangles", 0) >= 1
        assert cache.get("hit|triangles", 0) >= 1
        dispatch = snap["metrics"]["sisa_dispatch_total"]["series"]
        assert sum(dispatch.values()) > 0
        assert snap["metrics"]["pool_runs_total"]["series"][""] == 2.0
        # Fig. 9b per-tenant set-size aggregation saw real sets.
        assert snap["set_sizes"]["default"]["total"] > 0

    def test_retry_cycles_mirrored_into_counters(self):
        class FailOnceLate:
            # Fail at a late stage, after charged work, so the wasted
            # attempt's modeled cycles are visibly nonzero.
            def __init__(self):
                self.armed = True

            def before_batch(self, session, plans):
                pass

            def before_plan(self, session, plan):
                pass

            def on_stage(self, plan, stage):
                if self.armed and stage.startswith("finalize"):
                    self.armed = False
                    raise RuntimeError("injected late-stage failure")

        pool = SessionPool(
            observability=True,
            threads=4,
            retry=RetryPolicy(max_retries=2),
            fault_injector=FailOnceLate(),
        )
        pool.session("g", _graph())
        pool.submit("g", "clustering_coefficient", tenant="a")
        (result,) = _drain(pool)
        assert result.ok
        retry = pool.tenant_retry_cycles["a"]
        assert retry > 0
        assert (
            pool.obs.registry.counter_value(
                "tenant_retry_cycles_total", ("a",)
            )
            == retry
        )

    def test_telemetry_sink_writes_health_and_deltas(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        pool = SessionPool(
            observability=True, threads=4, telemetry_path=path
        )
        pool.session("g", _graph())
        pool.submit("g", "triangles")
        _drain(pool)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records
        assert records[0]["health"]["completed"] == 1
        assert "tenant_work_cycles_total" in records[0]["metrics_delta"]

    def test_telemetry_path_requires_observability(self, tmp_path):
        with pytest.raises(ConfigError):
            SessionPool(telemetry_path=tmp_path / "t.jsonl")

    def test_shared_hub_instance_is_used_verbatim(self):
        hub = Observability()
        pool = SessionPool(observability=hub, threads=4)
        session = pool.session("g", _graph())
        assert pool.obs is hub
        assert session.obs is hub and session.ctx.scu.obs is hub

    def test_session_level_observability_without_pool(self):
        session = SisaSession(
            _graph(), ExecutionConfig(threads=4), observability=True
        )
        run = session.run("triangles")
        assert session.obs is not None
        reg = session.obs.registry
        fam = reg.families()["sisa_dispatch_total"]
        assert sum(fam.series.values()) == run.instructions

    def test_orientation_events_feed_counters(self):
        import numpy as np

        from repro.graphs.streams import EdgeBatch

        pool = SessionPool(observability=True, threads=4)
        session = pool.session("g", _graph())
        stream = session.attach_stream()
        maintainer = session.maintain_orientation()
        absent = stream.absent_edges(
            np.array(
                [[u, v] for u in range(8) for v in range(u + 1, 8)],
                dtype=np.int64,
            )
        )
        stream.apply_batch(
            EdgeBatch(
                insertions=absent[:2],
                deletions=np.empty((0, 2), dtype=np.int64),
            )
        )
        maintainer.mark_desynced()
        maintainer.resync()
        series = pool.metrics()["metrics"]["orientation_events_total"][
            "series"
        ]
        assert series.get("batch", 0) >= 1
        assert series.get("desync", 0) == 1
        assert series.get("resync", 0) == 1


# ---------------------------------------------------------------------------
# The invariant: observability never changes what is computed
# ---------------------------------------------------------------------------

_WORKLOADS = [
    ("triangles", {}),
    ("clustering_coefficient", {}),
    ("bfs", {"root": 0}),
    ("kclique", {"k": 3}),
]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    picks=st.lists(
        st.integers(0, len(_WORKLOADS) - 1), min_size=2, max_size=6
    ),
    drift_rate=st.floats(0.0, 1.0),
    kernel_rate=st.floats(0.0, 0.8),
)
def test_observability_is_bit_identical_to_disabled(
    seed, picks, drift_rate, kernel_rate
):
    """A mixed faulted multi-tenant batch computes bit-identical
    outputs, modeled cycles and tenant ledgers whether observability is
    on or off — instrumentation is observation-only by construction,
    and this property keeps it that way."""
    graph = gnp_random_graph(16, 0.3, seed=3)

    def build(observability):
        pool = SessionPool(
            quotas={
                "alice": TenantQuota(max_queue_depth=4, max_deferred=16),
                "bob": TenantQuota(max_queue_depth=4, max_deferred=16),
            },
            retry=RetryPolicy(max_retries=4),
            fault_injector=FaultInjector(
                seed=seed,
                drift_rate=drift_rate,
                kernel_rate=kernel_rate,
                max_per_kind=2,
            ),
            threads=2,
            observability=observability,
        )
        session = pool.session("g", graph)
        session.attach_stream()
        for i, pick in enumerate(picks):
            name, params = _WORKLOADS[pick]
            pool.submit("g", name, tenant=("alice", "bob")[i % 2], **params)
        return pool

    plain = build(False)
    observed = build(True)
    base = _drain(plain)
    inst = _drain(observed)

    assert len(base) == len(inst) == len(picks)
    for clean, traced in zip(base, inst):
        assert clean.ok == traced.ok
        if clean.ok:
            assert repr(clean.output) == repr(traced.output)
            assert (
                clean.report.runtime_cycles == traced.report.runtime_cycles
            )
            assert traced.spans is not None
    assert plain.tenant_cycles == observed.tenant_cycles
    assert plain.tenant_retry_cycles == observed.tenant_retry_cycles


# ---------------------------------------------------------------------------
# Whole-stage count bursts: same feeds as the per-burst stream
# ---------------------------------------------------------------------------


class TestWholeStageFeeds:
    """``session.run`` executes count-form burst stages whole; with
    tracing and observability on it must record the per-burst stream's
    trace events, dispatch counters and Fig. 9b / burst histograms,
    with one ``kernel:`` span per stage chunk whose modeled cycles add
    up to the stage span's."""

    PAIRS = np.asarray(
        [[u, v] for u in range(0, 140, 3) for v in (u + 1, u + 7, 149)]
    )

    def _eager(self, name, session):
        ctx = session.ctx
        if name == "triangles":
            return triangle_count_oriented(session.oriented_setgraph, ctx)
        if name == "local_clustering":
            return local_triangle_counts(session.setgraph, ctx)
        return all_pairs_similarity_on(ctx, session.setgraph, self.PAIRS)

    @pytest.mark.parametrize(
        "name, stage",
        [
            ("triangles", "bursts:triangles"),
            ("local_clustering", "bursts:local_triangles"),
            ("similarity_pairs", "bursts:watchlist-jaccard"),
        ],
    )
    def test_stage_feeds_match_per_burst_stream(self, monkeypatch, name, stage):
        graph = chung_lu_graph(150, 500, gamma=2.2, seed=1)
        config = ExecutionConfig(threads=8, result_cache=False, trace=True)
        staged, eager = (
            SisaSession(graph, config, observability=True) for _ in range(2)
        )
        for session in (staged, eager):
            session.setgraph
            session.oriented_setgraph
        monkeypatch.setattr(batchmod, "STAGE_PROBE_BUDGET", 256)
        params = {"pairs": self.PAIRS} if name == "similarity_pairs" else {}
        result = staged.run(name, **params)
        eager.obs.set_context("default", name)
        self._eager(name, eager)

        assert staged.ctx.trace.events == eager.ctx.trace.events
        families = [s.obs.registry.families() for s in (staged, eager)]
        assert (
            families[0]["sisa_dispatch_total"].series
            == families[1]["sisa_dispatch_total"].series
        )
        bursts = [
            {k: (v.counts, v.sum, v.count) for k, v in f["burst_modeled_cycles"].series.items()}
            for f in families
        ]
        assert bursts[0] == bursts[1]
        sizes = [s.obs.set_sizes["default"] for s in (staged, eager)]
        assert (sizes[0].counts, sizes[0].total) == (sizes[1].counts, sizes[1].total)

        stage_span = result.spans.find(f"stage:{stage}")
        kernels = [c for c in stage_span.children if c.name.startswith("kernel:")]
        assert len(kernels) >= 2
        assert sum(k.cycles for k in kernels) == pytest.approx(
            stage_span.cycles, rel=1e-12
        )
