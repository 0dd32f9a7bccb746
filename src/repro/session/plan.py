"""Compiled workload plans and the cross-plan fusing executor.

``session.run`` used to execute each workload eagerly and in
isolation; nothing in the API could see that a *batch* of queries was
about to run.  The plan/execute split introduces that visibility:

* :meth:`SisaSession.compile` returns a :class:`WorkloadPlan` — a
  declarative sequence of :class:`PlanStage` records naming the cached
  structures the workload reads (undirected SetGraph, orientation,
  degeneracy order) and, for the count-form workloads, declaring the
  per-task frontier bursts as one flat :class:`BurstTable` per stage
  (from which the schedulable :class:`BurstUnit` stream is derived).
  A plan pins the session's stream version at compile time and fails
  fast (:class:`~repro.errors.SisaError`) if the stream drifted before
  execution.
* :class:`PlanExecutor` runs a batch of plans over one session.  With
  ``fuse=False`` it executes the plans strictly in order, issuing an
  instruction stream bit-identical to sequential ``session.run`` calls
  (outputs, simulated cycles, dispatch stats — asserted in tests and
  benchmarks); a table-declared burst stage runs whole, in a few
  kernel/SCU/engine calls
  (:meth:`~repro.runtime.context.SisaContext.count_stage`).  With
  ``fuse=True`` it additionally

  - shares prep once per graph (the first plan needing a cached
    structure builds it; all others find it built),
  - dedups identical sub-requests through the session's epoch-keyed
    result cache *before any instruction issues* (a plan or plan stage
    whose ``(workload, params, version)`` key another plan in the
    batch owns simply waits and reuses the value), and
  - fuses compatible count-form frontier bursts from *different* plans
    into shared macro dispatches
    (:meth:`~repro.runtime.context.SisaContext.fused_count_burst`) —
    the first crossing of the ``begin_task`` boundary.

Fusion lane-placement rule (the explicit contract the ROADMAP's
"cross-task batching" item asked for): every constituent burst still
opens its own task at unit-creation time and its per-op model costs
land on that task's lane, exactly as unfused; what the macro elides is
the per-op SCU decode and the per-op probe-metadata fetch — the macro
decode is charged once, to the lane (and tenant) of the macro's first
constituent, and each constituent's probe lookup once, to its own
lane.  Burst fusion is an SCU capability: on the ``cpu-set`` host
baseline the executor falls back to the unfused batched stream
(prep sharing and dedup still apply).

Per-plan accounting under fusion uses the engine's per-tenant marks
(:meth:`~repro.hw.engine.ExecutionEngine.set_tenant`): every execution
slice is attributed to its owning plan, so each
:class:`~repro.session.result.RunResult` still reports its own cycles,
instruction stats and registrations even though the instruction
streams interleave.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import (
    ConfigError,
    HazardError,
    InjectedFault,
    ReproError,
    SisaError,
)
from repro.serving.validation import validate_request
from repro.session.cache import canonical_param, isolate_output
from repro.session.registry import WorkloadSpec
from repro.session.result import FailedResult, RunResult

BURST_KINDS = ("intersect", "union", "difference")


@dataclass
class BurstUnit:
    """One schedulable count-form frontier burst (one task's worth).

    Produced lazily by a burst stage's generator — for table-declared
    stages, the generic adapter :func:`table_units` — which has already
    opened the unit's task (``lane``) and paid any charged pre-work
    (e.g. the neighborhood iterator).  The executor runs the burst —
    unfused via ``*_count_batch`` or as a fused-macro constituent — and
    hands the counts to ``sink``, which performs the remaining charged
    work of the task (e.g. cardinality fetches) and folds the counts
    into the stage state.
    """

    a: int
    bs: list
    kind: str  # one of BURST_KINDS
    lane: int
    sink: Callable[[np.ndarray], None]
    # Effect tokens the sink writes (``state:<slot>`` namespace; see
    # repro.analysis.static.effects).  The static verifier unions these
    # with the owning stage's declared writes; the dynamic checker uses
    # them to know which slots a deferred sink may legally touch.
    writes: tuple[str, ...] = ()


@dataclass
class BurstTable:
    """The whole work of a count-form burst stage, declared once as
    flat arrays: one row per task.

    Task ``t`` opens a task, iterates its probe set first when
    ``scan`` is set (the charged neighborhood iterator), issues the
    ``kind`` count burst of ``probes[t]`` against the frontier set ids
    ``frontier[offsets[t]:offsets[t + 1]]`` (a task with an empty
    frontier issues none) and, with ``fetch_cardinalities``, follows a
    non-empty burst with the fetches ``|probes[t]|`` and then every
    ``|B_i|``.  ``reduce(state, counts)`` folds the counts of every
    burst, concatenated in frontier order, into the stage state — the
    vectorized form of the per-unit sinks.
    """

    kind: str  # one of BURST_KINDS
    probes: np.ndarray
    offsets: np.ndarray
    frontier: np.ndarray
    reduce: Callable[[dict, np.ndarray], None]
    scan: bool = False
    fetch_cardinalities: bool = False

    def execute(self, ctx) -> np.ndarray:
        """Run the whole table as one stage on ``ctx``
        (:meth:`~repro.runtime.context.SisaContext.count_stage`)."""
        return ctx.count_stage(
            self.kind,
            self.probes,
            self.offsets,
            self.frontier,
            scan=self.scan,
            fetch_cardinalities=self.fetch_cardinalities,
        )


def table_units(table: BurstTable, ctx, state: dict, writes: tuple[str, ...]):
    """The generic adapter from a :class:`BurstTable` to the
    :class:`BurstUnit` stream the fused, scheduled and dynamic-checker
    executors consume: unit for unit, charge for charge, the stream of
    :meth:`BurstTable.execute`.  Each unit's sink pays its cardinality
    fetches and parks its counts; the last sink runs ``reduce`` (a
    table with no bursts reduces once every task has opened)."""
    offsets = table.offsets.tolist()
    probes = table.probes.tolist()
    frontier = table.frontier.tolist()
    counts = np.zeros(len(frontier), dtype=np.int64)
    last = next(
        (t for t in reversed(range(len(probes))) if offsets[t + 1] > offsets[t]),
        -1,
    )
    fetch = table.fetch_cardinalities

    def sink(burst, *, _t):
        lo, hi = offsets[_t], offsets[_t + 1]
        counts[lo:hi] = burst
        if fetch:
            ctx.cardinality(probes[_t])
            for b in frontier[lo:hi]:
                ctx.cardinality(b)
        if _t == last:
            table.reduce(state, counts)

    for t, a in enumerate(probes):
        lane = ctx.begin_task()
        if table.scan:
            ctx.elements(a)
        if offsets[t + 1] > offsets[t]:
            yield BurstUnit(
                a=a,
                bs=frontier[offsets[t]:offsets[t + 1]],
                kind=table.kind,
                lane=lane,
                sink=functools.partial(sink, _t=t),
                writes=writes,
            )
    if last < 0:
        table.reduce(state, counts)


@dataclass
class PlanStage:
    """One declarative step of a compiled plan.

    ``kind="call"`` stages run ``run(session, state)`` as one opaque
    slice (prep builds, finalization math, non-decomposable kernels).
    ``kind="bursts"`` stages expose their work as a :class:`BurstUnit`
    generator; ``result(state)`` extracts the stage value once every
    unit's sink has run, and ``seed(state, value)`` installs a deduped
    value instead of executing (``key`` names the sub-request the stage
    computes — shared between plans, e.g. the triangle count inside
    ``clustering_coefficient``).

    A bursts stage declares its work as ``table(session, state) ->
    BurstTable``: flat arrays the sequential executor runs as one whole
    stage, and from which ``units`` is derived by the generic adapter
    :func:`table_units` for the fused, scheduled and dynamic-checker
    executors.  A stage given only ``units`` can be fused, replayed or
    checked dynamically, but not run sequentially.

    Burst-generator contract: producing a unit may open its task and
    charge engine costs (``begin_task``, the neighborhood iterator) but
    must not dispatch SISA instructions or register sets — those belong
    in the burst itself and its ``sink``, whose execution the fused
    scheduler defers (generation may run ahead of earlier units'
    sinks, so it must not depend on their effects either).

    Effect declarations (``reads``/``writes``/``seeds``) use the token
    vocabulary of :mod:`repro.analysis.static.effects` — ``struct:``,
    ``state:``, ``sets:`` namespaces, with bare structure names like
    ``"oriented"`` accepted and expanded.  ``writes`` is what executing
    the stage mutates; ``seeds`` is the (``state:``) slots its ``seed``
    hook installs when the stage is deduped instead of executed — the
    verifier certifies the two can never diverge.
    """

    kind: str
    label: str
    reads: tuple[str, ...] = ()  # cached structures the stage touches
    key: tuple | None = None  # (workload, canonical params); version appended
    run: Callable[[Any, dict], Any] | None = None
    units: Callable[[Any, dict], Iterator[BurstUnit]] | None = None
    result: Callable[[dict], Any] | None = None
    seed: Callable[[dict, Any], None] | None = None
    writes: tuple[str, ...] = ()  # effect tokens executing the stage mutates
    seeds: tuple[str, ...] = ()  # state slots the seed hook installs
    table: Callable[[Any, dict], BurstTable] | None = None

    def __post_init__(self) -> None:
        if self.table is not None and self.units is None:
            self.units = self._table_units

    def _table_units(self, session, state: dict) -> Iterator[BurstUnit]:
        return table_units(
            self.table(session, state), session.ctx, state, self.writes
        )


def subrequest_key(name: str, params: dict) -> tuple | None:
    """The version-less dedup key of a sub-request (``None`` when the
    parameters cannot be canonicalized safely)."""
    canon = canonical_param(params)
    if canon is None:
        return None
    return (name, canon)


class WorkloadPlan:
    """A compiled, executable description of one workload run.

    Compilation is declarative — no instructions issue, no structures
    build — and pins the session's stream version: executing a plan
    after the stream advanced raises :class:`SisaError` (recompile at
    the new version instead of silently mixing epochs).
    """

    def __init__(
        self,
        session,
        spec: WorkloadSpec,
        params: dict,
        stages: list[PlanStage],
        *,
        tenant: str | None = None,
    ):
        self.session = session
        self.spec = spec
        self.name = spec.name
        self.params = params
        # Cache/dedup keys use the spec-normalized parameters (e.g.
        # ``batch=None`` resolved against the session config), so every
        # spelling of the same request — eager run, plan, or another
        # plan's sub-request — shares one key.
        self.cache_params = (
            spec.normalize(session, params) if spec.normalize else params
        )
        self.stages = stages
        self.version = session._version
        self.requires = spec.requires_for(params)
        self.tenant = tenant
        self.fusable = any(stage.kind == "bursts" for stage in stages)

    @property
    def stale(self) -> bool:
        """True when the session's stream advanced past the pinned
        version."""
        return self.session._version != self.version

    def check_version(self) -> None:
        if self.stale:
            raise SisaError(
                f"plan for {self.name!r} was compiled at stream version "
                f"{self.version} but the session is at "
                f"{self.session._version}; recompile the plan"
            )

    def describe(self) -> list[str]:
        """The stage labels, in execution order (for logging/tests)."""
        return [stage.label for stage in self.stages]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"WorkloadPlan({self.name!r}, stages={self.describe()}, "
            f"version={self.version}, requires={self.requires!r})"
        )


def failure_reason(plan: WorkloadPlan, exc: BaseException) -> str:
    """The stable :class:`FailedResult` reason tag for one execution
    failure."""
    if isinstance(exc, InjectedFault):
        return "fault"
    if isinstance(exc, SisaError) and plan.stale:
        return "drift"
    return "error"


def compile_plan(
    session, workload: str, params: dict, *, tenant: str | None = None
) -> WorkloadPlan:
    """Compile one registered workload into a :class:`WorkloadPlan`."""
    if not isinstance(workload, str):
        raise ConfigError("plans compile registered workloads by name")
    if "view" in params:
        raise ConfigError(
            "view runs are not plannable; use session.run(..., view=...)"
        )
    obs = getattr(session, "obs", None)
    rec = obs.spans if obs is not None else None
    cspan = (
        rec.start(
            "compile",
            {"workload": str(workload), "tenant": tenant or "default"},
        )
        if rec is not None
        else None
    )
    try:
        return _compile(session, workload, params, tenant=tenant, rec=rec)
    finally:
        if rec is not None:
            rec.end(cspan)


def _compile(session, workload, params, *, tenant, rec):
    # A decomposed plan never calls spec.fn, so a misspelled parameter
    # the eager path would have rejected with TypeError must be caught
    # here — silently ignoring it would return a wrong result (e.g. a
    # typo'd ``measur=`` scoring the default measure).  The serving
    # rule engine is the single door: name, signature and domain rules
    # all run here (and on the eager paths) before any plan exists.
    vspan = rec.start("validate") if rec is not None else None
    spec = validate_request(session, workload, params)
    if rec is not None:
        rec.end(vspan)
    stages = spec.stages(session, dict(params)) if spec.stages else None
    if stages is None:
        # Opaque fallback: the whole kernel runs as one call stage —
        # not burst-fusable, but still schedulable and whole-plan
        # dedupable.
        def run(sess, state, *, _spec=spec, _params=params):
            return _spec.fn(sess, **_params)

        stages = [
            PlanStage(
                kind="call",
                label=f"run:{spec.name}",
                # The opaque kernel's effects come from the spec's
                # registration-time declaration: what structures it
                # reads plus any extra domains (e.g. sets:scratch for
                # kernels that register/release their own sets).
                reads=(spec.requires_for(params),) + tuple(spec.effect_reads),
                writes=tuple(spec.effect_writes),
                run=run,
            )
        ]
    return WorkloadPlan(session, spec, dict(params), stages, tenant=tenant)


class _PlanRun:
    """Execution-time state of one plan inside a fused batch."""

    def __init__(self, plan: WorkloadPlan, tag: object):
        self.plan = plan
        self.tag = tag
        self.state: dict = {}
        self.stage_idx = 0
        self.value: Any = None
        self.started = False
        self.finished = False
        self.warm = False
        self.cached = False
        self.output: Any = None
        self.cache_key: tuple | None = None
        self.owns_key = False
        self.gen: Iterator[BurstUnit] | None = None
        self.stats = None  # DispatchStats accumulator (set on start)
        self.registrations = 0
        # Observability (None when disabled): the plan's detached span,
        # the currently-open stage span, and the tenant-work reading at
        # the stage's start (for the stage span's cycle delta).
        self.span = None
        self.stage_span = None
        self.stage_w0 = 0.0


class PlanExecutor:
    """Executes a batch of compiled plans over one session.

    ``fuse=False`` is the reference mode: plans run strictly in batch
    order and each :class:`RunResult` is bit-identical to the one a
    sequential ``session.run`` call would have produced (``session.run``
    itself is a one-plan wrapper over this mode).  ``fuse=True`` enables
    shared prep, result-cache sub-request dedup and cross-plan burst
    fusion; ``fuse_width`` bounds how many buffered units one fused
    macro may carry.
    """

    def __init__(
        self,
        session,
        *,
        fuse: bool = True,
        fuse_width: int = 8,
        fault_injector=None,
        verify: bool = False,
        schedule=None,
        access_log=None,
    ):
        if fuse_width < 1:
            raise ConfigError("fuse_width must be positive")
        if access_log is not None and schedule is None:
            raise ConfigError(
                "an access_log needs a schedule to attribute accesses to"
            )
        self.session = session
        self.fuse = fuse
        self.fuse_width = fuse_width
        # verify=True runs the static hazard verifier over every batch
        # before execution and raises HazardError on certification
        # failure; the report is kept on ``last_analysis`` either way.
        self.verify = verify
        self.last_analysis = None
        # A CertifiedSchedule (repro.analysis.static.schedule): execute
        # the batch in the schedule's explicit topological node order —
        # the replay mode the certifier's bit-identity guarantee is
        # proven against.  Overrides fuse (node isolation is the point;
        # whole-plan and stage-key dedup still apply, driven by the
        # schedule's dedup edges).  With an AccessLog
        # (repro.analysis.static.racecheck) every node's execution is
        # bracketed so shared-structure hooks attribute to it.
        self.schedule = schedule
        self.access_log = access_log
        # A serving FaultInjector (soak testing): its on_stage hook may
        # raise InjectedFault at any stage boundary.
        self.fault_injector = fault_injector
        # Burst fusion needs the SCU; the host baseline executes the
        # unfused batched stream (dedup/prep sharing still apply).
        # A schedule replays node by node, so it never fuses either.
        self._fuse_bursts = (
            fuse and schedule is None and session.ctx.mode == "sisa"
        )
        self._done: dict[tuple, Any] = {}
        self._owners: dict[tuple, _PlanRun] = {}

    def _inject(self, plan: WorkloadPlan, stage_label: str) -> None:
        """Give the fault injector a shot at this stage boundary.

        Whatever the injector raises *is* an injected fault: foreign
        exception types (soak scripts simulating, say, a kernel
        ``RuntimeError``) are wrapped into
        :class:`~repro.errors.InjectedFault` here so the retry and
        isolation machinery — which deliberately handles only the
        package's own failure taxonomy — treats them as the transients
        they simulate.  A genuine bug in executing code is not wrapped:
        it propagates out of the executor, escapes a strict
        :class:`~repro.session.pool.SessionPool` and becomes an
        ``internal-error`` FailedResult in a hardened one."""
        if self.fault_injector is None:
            return
        try:
            self.fault_injector.on_stage(plan, stage_label)
        except ReproError:
            raise
        except Exception as exc:  # repolint: disable=overbroad-except -- injector raises are faults by definition
            raise InjectedFault(
                f"fault injector raised {type(exc).__name__} at stage "
                f"{stage_label!r}",
                details={"workload": plan.name, "stage": stage_label},
            ) from exc

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, plans: list[WorkloadPlan]) -> list[RunResult]:
        session = self.session
        for plan in plans:
            if plan.session is not session:
                raise ConfigError(
                    "plan belongs to a different session; route cross-graph "
                    "batches through a SessionPool"
                )
            plan.check_version()
        if self.verify:
            # Deferred import: the analysis package is optional at
            # execution time and imports nothing from the hot path.
            from repro.analysis.static.verifier import analyze_batch

            report = analyze_batch(plans, fuse_width=self.fuse_width)
            self.last_analysis = report
            if not report.certified:
                raise HazardError(
                    f"plan batch failed static verification: "
                    f"{report.summary()}",
                    details=report.as_dict(),
                )
        if self.schedule is not None:
            if not self.schedule.matches(plans):
                raise ConfigError(
                    "the certified schedule was built for a different plan "
                    "batch (workloads or stage lists differ); re-certify"
                )
        elif not self.fuse:
            return [self._execute_sequential(plan) for plan in plans]
        return self._execute_batch(plans)

    def execute_isolated(
        self, plans: list[WorkloadPlan]
    ) -> list[RunResult | FailedResult]:
        """Execute each plan in its own blast radius: a plan that
        raises yields a structured :class:`FailedResult` in its slot
        instead of aborting the batch.  No retries here — bounded retry
        with cycle accounting is the :class:`SessionPool`'s job; this
        is the session-level primitive underneath it.  Isolation costs
        fusion *across* plans (each plan runs through its own
        sub-executor), but in-plan dedup against the shared result
        cache still applies."""
        results: list[RunResult | FailedResult] = []
        for plan in plans:
            sub = PlanExecutor(
                self.session,
                fuse=self.fuse,
                fuse_width=self.fuse_width,
                fault_injector=self.fault_injector,
                verify=self.verify,
            )
            try:
                results.append(sub.execute([plan])[0])
            except ReproError as exc:
                # Only the package's own failure taxonomy converts to a
                # structured FailedResult (injected faults, drift,
                # validation); anything else is a bug and propagates.
                results.append(
                    FailedResult(
                        workload=plan.name,
                        params=dict(plan.params),
                        tenant=plan.tenant,
                        reason=failure_reason(plan, exc),
                        error=exc,
                        attempts=1,
                    )
                )
        return results

    # ------------------------------------------------------------------
    # Sequential (reference) mode
    # ------------------------------------------------------------------

    def _execute_sequential(self, plan: WorkloadPlan) -> RunResult:
        """Run one plan exactly as the eager ``session.run`` did:
        result-cache consult, warm probe, one engine mark bracketing
        the stage stream (which reproduces the eager instruction stream
        op for op).  Observability hooks (``obs``/``rec``) are nullable
        and observation-only: they read the engine, never charge it."""
        session = self.session
        ctx = session.ctx
        obs = getattr(session, "obs", None)
        rec = obs.spans if obs is not None else None
        tenant = plan.tenant or "default"
        if obs is not None:
            obs.set_context(tenant, plan.name)
        pspan = (
            rec.start(
                f"plan:{plan.name}",
                {"tenant": tenant, "version": str(plan.version)},
            )
            if rec is not None
            else None
        )
        try:
            cache_key = None
            if session.config.result_cache:
                lspan = rec.start("cache:lookup") if rec is not None else None
                cache_key = session._results.make_key(
                    plan.name, plan.cache_params, plan.version
                )
                hit = (
                    session._results.get(cache_key)
                    if cache_key is not None
                    else None
                )
                if rec is not None:
                    rec.end(lspan)
                if hit is not None:
                    mark = ctx.mark()
                    session.run_count += 1
                    result = RunResult(
                        workload=plan.name,
                        output=hit[0],
                        report=ctx.report_since(mark),
                        stats=ctx.stats_since(mark),
                        registrations=0,
                        config=session.config,
                        params=dict(plan.params),
                        warm=True,
                        session=session,
                        cached=True,
                    )
                    if rec is not None:
                        rec.end(pspan, cycles=0.0)
                        result.spans = pspan
                        obs.plan_wall(tenant, plan.name, pspan.wall_seconds)
                        obs.plan_done("cached")
                    return result
            warm = session._is_warm(plan.spec, None, plan.params)
            mark = ctx.mark()
            state: dict = {}
            value: Any = None
            for stage in plan.stages:
                self._inject(plan, stage.label)
                if rec is not None:
                    sspan = rec.start(f"stage:{stage.label}")
                    w0 = ctx.engine.work_cycles()
                if stage.kind == "call":
                    value = stage.run(session, state)
                else:
                    if stage.table is None:
                        raise ConfigError(
                            f"bursts stage {stage.label!r} declares no "
                            "table; sequential execution runs a bursts "
                            "stage through its table"
                        )
                    table = stage.table(session, state)
                    table.reduce(state, table.execute(ctx))
                    value = stage.result(state)
                if rec is not None:
                    rec.end(sspan, cycles=ctx.engine.work_cycles() - w0)
            report = ctx.report_since(mark)
            result = RunResult(
                workload=plan.name,
                output=value,
                report=report,
                stats=ctx.stats_since(mark),
                registrations=ctx.registrations_since(mark),
                config=session.config,
                params=dict(plan.params),
                warm=warm,
                session=session,
            )
            if cache_key is not None:
                session._results.put(cache_key, value)
            session.run_count += 1
            if rec is not None:
                rec.end(pspan, cycles=report.work_cycles)
                result.spans = pspan
                obs.plan_wall(tenant, plan.name, pspan.wall_seconds)
                obs.plan_done("ok")
            return result
        except BaseException:
            # End the plan span (popping any abandoned inner spans) so
            # a faulted plan cannot wedge the recorder's stack.
            if rec is not None and pspan.t1 is None:
                rec.end(pspan)
            raise

    # ------------------------------------------------------------------
    # Batch mode (fused or certified-schedule replay)
    # ------------------------------------------------------------------

    @contextmanager
    def _slice(self, run: _PlanRun):
        """Attribute one execution slice (charges, stats, set
        registrations) to ``run``'s plan.

        With observability on, the slice also switches the hub's
        tenant/workload context and re-enters the run's open span, so
        kernel-level feeds issued during the slice label and nest under
        the owning plan even when slices of different plans interleave
        (``_flush`` executing deferred units of another run)."""
        ctx = self.session.ctx
        obs = getattr(self.session, "obs", None)
        span = None
        if obs is not None:
            obs.set_context(run.plan.tenant or "default", run.plan.name)
            span = run.stage_span or run.span
            if span is not None:
                obs.spans.enter(span)
        ctx.engine.set_tenant(run.tag)
        stats_mark = ctx.scu.stats.snapshot()
        reg_mark = ctx.sm.registrations
        try:
            yield
        finally:
            ctx.engine.set_tenant(None)
            run.stats.add(ctx.scu.stats.since(stats_mark))
            run.registrations += ctx.sm.registrations - reg_mark
            if span is not None:
                obs.spans.exit(span)

    @contextmanager
    def _attribute(self, run: _PlanRun):
        """Cycle-only attribution for slices that cannot dispatch SISA
        instructions — the per-unit generator pulls (``begin_task`` +
        neighborhood iterator charge the engine but record no stats and
        register no sets), where a full stats snapshot per vertex would
        dominate the fused path's Python time."""
        engine = self.session.ctx.engine
        engine.set_tenant(run.tag)
        try:
            yield
        finally:
            engine.set_tenant(None)

    def _execute_batch(self, plans: list[WorkloadPlan]) -> list[RunResult]:
        """The one batch loop behind fused and certified-schedule
        execution: both step the same per-plan :meth:`_advance` state
        machine and share run setup, failure teardown and result
        assembly.

        Without a schedule, runs advance round-robin one step at a time
        and ready count bursts buffer into fused macros.  With one,
        each ``(plan, stage)`` node runs to completion in exactly the
        order ``schedule.order`` dictates, unfused (node isolation is
        the point of a replay; whole-plan and stage-key dedup still
        apply) — the dependency DAG's dedup edges guarantee every
        cache-key owner publishes before a follower starts, so any
        topological order is output-identical (the certifier's core
        claim, property-tested)."""
        from repro.isa.scu import DispatchStats

        session = self.session
        engine = session.ctx.engine
        obs = getattr(session, "obs", None)
        rec = obs.spans if obs is not None else None
        # Interleaved plans get detached spans under whatever span is
        # current at batch entry (a pool's session span, usually); the
        # recorder re-enters them slice by slice via _slice.
        self._span_parent = rec.current if rec is not None else None
        runs = []
        for i, plan in enumerate(plans):
            run = _PlanRun(plan, ("plan", i, plan.name))
            run.stats = DispatchStats()
            runs.append(run)
        try:
            if self.schedule is None:
                self._drive_fused(runs)
            else:
                for node_id in self.schedule.order:
                    self._replay_node(runs, node_id)
        except BaseException:
            # A failed batch must not leak per-plan shadow lanes into
            # the long-lived engine (pool callers retry batches).
            for run in runs:
                engine.drop_tenant(run.tag)
            raise
        scheduled = self.schedule is not None
        results = []
        for run in runs:
            report = engine.tenant_report(run.tag)
            engine.drop_tenant(run.tag)
            result = RunResult(
                workload=run.plan.name,
                output=run.output,
                report=report,
                stats=run.stats,
                registrations=run.registrations,
                config=session.config,
                params=dict(run.plan.params),
                warm=run.warm,
                session=session,
                cached=run.cached,
                fused=not scheduled,
                scheduled=scheduled,
            )
            if rec is not None and run.span is not None:
                if run.span.t1 is None:
                    # The plan span's cycles are the engine's attributed
                    # tenant work — the exact quantity the pool charges
                    # to this plan's tenant ledger.
                    rec.end(run.span, cycles=report.work_cycles)
                result.spans = run.span
                obs.plan_wall(
                    run.plan.tenant or "default",
                    run.plan.name,
                    run.span.wall_seconds,
                )
                obs.plan_done("cached" if run.cached else "ok")
            results.append(result)
            session.run_count += 1
        return results

    def _drive_fused(self, runs: list[_PlanRun]) -> None:
        """Advance every run one step per round until all finish,
        flushing buffered bursts as fused macros."""
        buffer: list[tuple[BurstUnit, _PlanRun]] = []
        pending = list(runs)
        while pending:
            progressed = False
            still = []
            for run in pending:
                progressed |= self._advance(run, buffer)
                if not run.finished:
                    still.append(run)
            pending = still
            if pending and not progressed:
                # Every remaining run waits on a key whose owner sits
                # in the buffer: drain it so owners can publish.
                if buffer:
                    self._flush(buffer)
                else:  # pragma: no cover - ownership chains are acyclic
                    raise SisaError("plan batch deadlocked on dedup keys")
        self._flush(buffer)

    def _replay_node(self, runs: list[_PlanRun], node_id: int) -> None:
        """Run one schedule node — one whole stage of one plan — and
        record its attributed tenant-work delta back into the schedule
        (:meth:`CertifiedSchedule.record_cost`, feeding the measured
        what-if model).  With an access log the node is bracketed so
        shared-structure hooks attribute to it."""
        schedule = self.schedule
        log = self.access_log
        node = schedule.nodes[node_id]
        run = runs[node.plan_index]
        engine = self.session.ctx.engine
        w0 = engine.tenant_work_cycles(run.tag)
        if log is None:
            self._advance_stage(run)
        else:
            stage = run.plan.stages[node.stage_index]
            log.refresh(self.session)
            log.declared(node_id, stage)
            with log.at(node_id, stage.label):
                self._advance_stage(run)
        schedule.record_cost(node_id, engine.tenant_work_cycles(run.tag) - w0)

    def _advance_stage(self, run: _PlanRun) -> None:
        """Advance ``run`` through its current stage (starting the run
        first if needed, finishing it after its last stage).  A
        whole-plan cache hit at start finishes the run, which makes
        every later node of the plan a zero-cost skip.  Burst fusion is
        off under a schedule, so no unit is ever buffered."""
        stage_idx = run.stage_idx
        while not run.finished and run.stage_idx == stage_idx:
            if not self._advance(run, []):  # pragma: no cover - dedup edges
                raise SisaError(
                    "certified schedule ordered a follower before its "
                    "dedup owner published; the dependency DAG is wrong"
                )
        if not run.finished and run.stage_idx >= len(run.plan.stages):
            self._finish(run)

    # -- key lookup ----------------------------------------------------

    def _lookup(self, key: tuple):
        """Resolve a dedup key against the batch map and the session's
        result cache.  Returns ``(found, value)``."""
        if key in self._done:
            return True, isolate_output(self._done[key])
        session = self.session
        if session.config.result_cache:
            hit = session._results.get(key)
            if hit is not None:
                return True, hit[0]
        return False, None

    def _publish(self, key: tuple, value: Any) -> None:
        self._done[key] = isolate_output(value)
        self._owners.pop(key, None)
        if self.session.config.result_cache:
            self.session._results.put(key, value)

    def _stage_key(self, stage: PlanStage, plan: WorkloadPlan) -> tuple | None:
        if stage.key is None:
            return None
        return (*stage.key, plan.version)

    # -- one scheduling step -------------------------------------------

    def _advance(self, run: _PlanRun, buffer) -> bool:
        """Advance one run by one step; returns False when blocked on a
        key another run owns."""
        plan = run.plan
        if not run.started:
            return self._start(run)
        if run.stage_idx >= len(plan.stages):
            self._finish(run)
            return True
        stage = plan.stages[run.stage_idx]
        if stage.kind == "call":
            # Call stages may register/release sets; drain deferred
            # bursts first so no unit observes mutated SM state.
            self._flush(buffer)
            self._inject(plan, stage.label)
            obs = getattr(self.session, "obs", None)
            if obs is not None:
                run.stage_span = obs.spans.start_detached(
                    f"stage:{stage.label}", run.span
                )
                run.stage_w0 = self.session.ctx.engine.tenant_work_cycles(
                    run.tag
                )
            with self._slice(run):
                run.value = stage.run(self.session, run.state)
            if obs is not None:
                obs.spans.end(
                    run.stage_span,
                    cycles=self.session.ctx.engine.tenant_work_cycles(run.tag)
                    - run.stage_w0,
                )
                run.stage_span = None
            run.stage_idx += 1
            return True
        return self._advance_bursts(run, stage, buffer)

    def _start(self, run: _PlanRun) -> bool:
        session = self.session
        plan = run.plan
        obs = getattr(session, "obs", None)
        if obs is not None and run.span is None:
            run.span = obs.spans.start_detached(
                f"plan:{plan.name}",
                self._span_parent,
                {
                    "tenant": plan.tenant or "default",
                    "version": str(plan.version),
                },
            )
        key = session._results.make_key(
            plan.name, plan.cache_params, plan.version
        )
        run.cache_key = key
        if key is not None:
            found, value = self._lookup(key)
            if found:
                run.output = value
                run.cached = True
                run.warm = True
                run.started = True
                run.finished = True
                if obs is not None:
                    obs.spans.end(run.span, cycles=0.0)
                return True
            owner = self._owners.get(key)
            if owner is not None and owner is not run:
                return False  # an identical plan is already executing
            self._owners[key] = run
            run.owns_key = True
        run.warm = session._is_warm(plan.spec, None, plan.params)
        run.started = True
        return True

    def _advance_bursts(self, run: _PlanRun, stage: PlanStage, buffer) -> bool:
        obs = getattr(self.session, "obs", None)
        key = self._stage_key(stage, run.plan)
        if run.gen is None:
            if key is not None:
                found, value = self._lookup(key)
                if found:
                    # Sub-request dedup: install the shared value with
                    # zero instructions issued.
                    stage.seed(run.state, value)
                    run.value = stage.result(run.state)
                    run.stage_idx += 1
                    if obs is not None:
                        obs.dedup(run.plan.name)
                    return True
                owner = self._owners.get(key)
                if owner is not None and owner is not run:
                    return False
                self._owners[key] = run
            self._inject(run.plan, stage.label)
            if obs is not None:
                run.stage_span = obs.spans.start_detached(
                    f"stage:{stage.label}", run.span
                )
                run.stage_w0 = self.session.ctx.engine.tenant_work_cycles(
                    run.tag
                )
            with self._attribute(run):
                run.gen = stage.units(self.session, run.state)
        with self._attribute(run):
            unit = next(run.gen, None)
        if unit is None:
            # Generator exhausted: drain deferred units so the stage
            # value is complete, then publish it.
            self._flush(buffer)
            run.gen = None
            run.value = stage.result(run.state)
            if key is not None:
                self._publish(key, run.value)
            run.stage_idx += 1
            if obs is not None and run.stage_span is not None:
                obs.spans.end(
                    run.stage_span,
                    cycles=self.session.ctx.engine.tenant_work_cycles(run.tag)
                    - run.stage_w0,
                )
                run.stage_span = None
            return True
        if self._fuse_bursts:
            buffer.append((unit, run))
            if len(buffer) >= self.fuse_width:
                self._flush(buffer)
        else:
            # Host baseline / fusion off: execute in place, unfused.
            # The unit's task is still current (nothing ran since its
            # begin_task), so charges land on its lane naturally.
            with self._slice(run):
                counts = getattr(self.session.ctx, f"{unit.kind}_count_batch")(
                    unit.a, unit.bs
                )
                unit.sink(counts)
        return True

    def _finish(self, run: _PlanRun) -> None:
        run.output = run.value
        if run.cache_key is not None:
            self._publish(run.cache_key, run.output)
        run.finished = True

    def _flush(self, buffer) -> None:
        """Issue every buffered unit as fused macros (one macro per
        maximal same-kind group; the first constituent carries the
        macro decode)."""
        if not buffer:
            return
        ctx = self.session.ctx
        i = 0
        n = len(buffer)
        while i < n:
            kind = buffer[i][0].kind
            j = i
            first = True
            while j < n and buffer[j][0].kind == kind:
                unit, run = buffer[j]
                with self._slice(run), ctx.on_lane(unit.lane):
                    counts = ctx.fused_count_burst(
                        unit.a, unit.bs, kind=kind, include_decode=first
                    )
                    unit.sink(counts)
                first = False
                j += 1
            i = j
        buffer.clear()
