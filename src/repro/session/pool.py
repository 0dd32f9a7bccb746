"""SessionPool: the multi-tenant serving front-end.

One :class:`~repro.session.session.SisaSession` serves one graph; a
production deployment serves *many* graphs for *many* tenants at once.
:class:`SessionPool` manages that fleet:

* **N sessions, LRU-evicted** — ``pool.session(key, graph)`` returns
  the cached session for ``key`` (creating it on first use); beyond
  ``max_sessions`` the least-recently-used idle session is dropped,
  exactly like the result cache bounds its entries.  A session with
  queued plans is never evicted.
* **Shared SCU memo tables** — every session whose
  :meth:`~repro.session.config.ExecutionConfig.memo_signature` matches
  shares one SCU decision table, so the variant-decision work one
  tenant's workload performs warms every other session on the same
  simulated machine.  The memoized values are pure functions of
  operand shapes and the frozen configs, so sharing is bit-identical —
  it changes Python time, never modeled cycles.
* **Fair round-robin scheduling, accounted per tenant** —
  ``pool.submit(key, workload, tenant=..., **params)`` compiles a
  :class:`~repro.session.plan.WorkloadPlan` (pinning the session's
  stream version); ``pool.run()`` executes everything queued, ordering
  each session's batch round-robin across tenants so no tenant's plans
  monopolize a burst window, and charges every modeled cycle to its
  tenant (``pool.tenant_cycles``) via the engine's per-tenant marks.

On top of that, the serving-hardening layer (:mod:`repro.serving`) is
wired in at three points:

* **Validation at the door** — every ``submit`` compiles through the
  serving rule engine, so malformed requests raise one structured
  :class:`~repro.errors.ValidationError` before a plan exists.
* **Admission control** — with ``quotas``/``default_quota`` (or an
  explicit :class:`~repro.serving.admission.AdmissionController`), each
  ``submit`` gets a deterministic admit/defer/reject decision against
  the tenant's :class:`~repro.serving.admission.TenantQuota`: rejected
  submissions raise :class:`~repro.errors.AdmissionError`; deferred
  plans park in a side queue and are promoted, oldest first, when the
  tenant's queue drains at the next ``run()``.
* **Fault isolation + bounded retry** — passing a
  :class:`~repro.serving.admission.RetryPolicy` (and/or a
  :class:`~repro.serving.faults.FaultInjector`) opts ``run()`` into the
  *hardened* path: each plan executes in its own blast radius, stale
  plans are recompiled at the current stream version, failed attempts
  are retried up to the policy bound with every failed attempt's
  modeled cycles charged to the owning tenant's retry ledger, and a
  plan that exhausts its attempts (or its tenant's budget) yields a
  structured :class:`~repro.session.result.FailedResult` in its result
  slot instead of aborting the batch.  ``pool.health()`` snapshots the
  degradation state.  Without those knobs ``run()`` keeps the strict
  PR 5 semantics bit for bit — any stale plan fails the whole call
  before work starts, and modeled cycles are unchanged.

Finally, ``observability=True`` (or a shared
:class:`~repro.observability.Observability` hub) threads one metrics
registry and span recorder through the whole fleet: every SCU
dispatch, kernel burst, cache event, orientation repair, admission
decision and tenant charge lands in labeled counters/histograms
(``pool.metrics()``, ``pool.metrics_text()``), every
``submit → validate → admit`` and ``run → session → plan → stage →
kernel`` step opens a wall-clock + modeled-cycle span
(``result.spans``, dumpable as Chrome-trace JSON), and
``telemetry_path=`` adds a periodic JSONL sink flushed every
``telemetry_every`` completed plans' worth of ``run()`` calls.  All of
it is observation-only: disabled (the default) no instrumentation
code runs at all, and enabled the modeled cycles and outputs are
bit-identical to the uninstrumented pool.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.errors import AdmissionError, ConfigError, ReproError
from repro.observability import JsonlSink, Observability
from repro.serving.admission import AdmissionController, RetryPolicy, TenantQuota
from repro.serving.validation import resolve_execution_config
from repro.session.config import ExecutionConfig
from repro.session.plan import PlanExecutor, WorkloadPlan, compile_plan
from repro.session.result import FailedResult, RunResult
from repro.session.session import SisaSession

_DEFAULT_RETRY = RetryPolicy()


class SessionPool:
    """A bounded fleet of sessions serving a multi-tenant workload mix."""

    def __init__(
        self,
        config: ExecutionConfig | None = None,
        *,
        max_sessions: int = 4,
        fuse: bool = True,
        fuse_width: int = 8,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        admission: AdmissionController | None = None,
        retry: RetryPolicy | None = None,
        fault_injector=None,
        observability: bool | Observability | None = None,
        telemetry_path=None,
        telemetry_every: int = 1,
        **overrides: Any,
    ):
        if max_sessions <= 0:
            raise ConfigError("max_sessions must be positive")
        if fuse_width < 1:
            raise ConfigError("fuse_width must be positive")
        # Override keys go through the serving rule engine: a typo'd
        # knob raises ConfigError naming the bad key in ``details``.
        config = resolve_execution_config(config, overrides)
        if admission is not None and (quotas or default_quota is not None):
            raise ConfigError(
                "pass either an AdmissionController or quotas/default_quota, "
                "not both"
            )
        if admission is None and (quotas or default_quota is not None):
            admission = AdmissionController(quotas, default_quota=default_quota)
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigError("retry must be a RetryPolicy")
        # One shared observability hub for the whole fleet (or None).
        # Every session created by this pool feeds the same registry
        # and span recorder, so pool.metrics() aggregates across the
        # fleet and one submit→run request yields one span tree.
        if isinstance(observability, Observability):
            hub = observability
        else:
            enabled = (
                config.observability
                if observability is None
                else bool(observability)
            )
            hub = Observability() if enabled else None
        self.obs = hub
        if telemetry_path is not None:
            if hub is None:
                raise ConfigError(
                    "telemetry_path requires observability to be enabled"
                )
            hub.sink = JsonlSink(telemetry_path, every=telemetry_every)
        if admission is not None:
            admission.obs = hub
        self.config = config
        self.max_sessions = max_sessions
        self.fuse = fuse
        self.fuse_width = fuse_width
        self.admission = admission
        self.retry = retry
        self.fault_injector = fault_injector
        self._sessions: OrderedDict[Any, SisaSession] = OrderedDict()
        self._memos: dict[tuple, dict] = {}
        # Queued (submit_index, session_key, plan) triples.
        self._pending: list[tuple[int, Any, WorkloadPlan]] = []
        # Admission-deferred triples, promoted at the next run().
        self._deferred: list[tuple[int, Any, WorkloadPlan]] = []
        self._submitted = 0
        self._tenant_cycles: dict[str, float] = {}
        self._tenant_retry_cycles: dict[str, float] = {}
        self._tenant_runs: dict[str, int] = {}
        self.evictions = 0
        self._completed = 0
        self._failed = 0
        self._retries = 0
        self._drift_recompiles = 0
        self._wasted_cycles = 0.0
        # The CertifiedSchedule each session's batch ran under in the
        # most recent scheduled run() (session key → schedule), with
        # measured per-node costs — what-if lane models read from here.
        self.last_schedules: dict[Any, Any] = {}

    @property
    def _hardened(self) -> bool:
        """True when run() takes the isolation/retry path.  Opt-in via
        the retry/fault_injector knobs — the default strict path keeps
        the PR 5 all-or-nothing semantics bit for bit."""
        return self.retry is not None or self.fault_injector is not None

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, key: Any) -> bool:
        return key in self._sessions

    @property
    def session_keys(self) -> tuple:
        """Resident session keys, least- to most-recently used."""
        return tuple(self._sessions)

    def session(
        self,
        key: Any,
        graph=None,
        *,
        config: ExecutionConfig | None = None,
    ) -> SisaSession:
        """The pool's session for ``key`` (most-recently-used after the
        call).  ``graph`` is required the first time a key is seen;
        ``config`` optionally overrides the pool default for that
        session."""
        existing = self._sessions.get(key)
        if existing is not None:
            if graph is not None and existing.graph is not graph:
                raise ConfigError(
                    f"session key {key!r} is already bound to a different "
                    "graph; use a distinct key per graph"
                )
            self._sessions.move_to_end(key)
            return existing
        if graph is None:
            raise ConfigError(
                f"unknown session key {key!r}; pass the graph to create it"
            )
        cfg = config or self.config
        memo = self._memos.setdefault(cfg.memo_signature(), {})
        session = SisaSession(
            graph, cfg, decision_memo=memo, observability=self.obs
        )
        self._sessions[key] = session
        self._evict()
        return session

    def _evict(self) -> None:
        """Drop least-recently-used idle sessions past the bound.

        Sessions with queued or deferred plans are pinned (their
        compiled plans hold the session and its sets); the pool may
        transiently exceed ``max_sessions`` until those drain."""
        busy = {key for __, key, __ in self._pending}
        busy.update(key for __, key, __ in self._deferred)
        while len(self._sessions) > self.max_sessions:
            victim = next(
                (k for k in self._sessions if k not in busy), None
            )
            if victim is None or victim == next(reversed(self._sessions)):
                return
            del self._sessions[victim]
            self.evictions += 1

    # ------------------------------------------------------------------
    # Submitting and running plans
    # ------------------------------------------------------------------

    def submit(
        self,
        key: Any,
        workload: str,
        *,
        tenant: str = "default",
        graph=None,
        **params: Any,
    ) -> WorkloadPlan:
        """Compile ``workload`` against ``key``'s session and queue the
        plan under ``tenant``.  Returns the plan (its stream version is
        pinned now; a stream that advances before :meth:`run` makes the
        plan fail fast).

        The request validates through the serving rule engine before a
        plan exists (:class:`~repro.errors.ValidationError` on a bad
        name, parameter or domain), then — when the pool has admission
        control — through the tenant's quota: a rejected submission
        raises :class:`~repro.errors.AdmissionError` and a deferred one
        parks until the tenant's queue drains at the next :meth:`run`.
        """
        rec = self.obs.spans if self.obs is not None else None
        span = (
            rec.start("submit", {"tenant": tenant, "workload": workload})
            if rec is not None
            else None
        )
        try:
            session = self.session(key, graph)
            plan = compile_plan(session, workload, params, tenant=tenant)
            if self.admission is not None:
                aspan = rec.start("admit") if rec is not None else None
                try:
                    decision = self.admission.decide(
                        tenant,
                        queued=self._tenant_queued(tenant),
                        deferred=self._tenant_deferred(tenant),
                        spent=self._spent(tenant),
                    )
                finally:
                    if rec is not None:
                        rec.end(aspan)
                if decision.action == "reject":
                    raise AdmissionError(
                        f"tenant {tenant!r} submission rejected "
                        f"({decision.reason}) for workload {workload!r}",
                        details={
                            "tenant": tenant,
                            "workload": workload,
                            "reason": decision.reason,
                            **decision.details,
                        },
                    )
                if decision.action == "defer":
                    self._deferred.append((self._submitted, key, plan))
                    self._submitted += 1
                    return plan
            self._pending.append((self._submitted, key, plan))
            self._submitted += 1
            return plan
        finally:
            if rec is not None:
                rec.end(span)

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def deferred(self) -> int:
        """Plans parked by admission control, awaiting promotion."""
        return len(self._deferred)

    def _tenant_queued(self, tenant: str) -> int:
        return sum(
            1
            for __, __, p in self._pending
            if (p.tenant or "default") == tenant
        )

    def _tenant_deferred(self, tenant: str) -> int:
        return sum(
            1
            for __, __, p in self._deferred
            if (p.tenant or "default") == tenant
        )

    def _spent(self, tenant: str) -> float:
        """The tenant's total budget draw: useful plus retry cycles."""
        return self._tenant_cycles.get(tenant, 0.0) + self._tenant_retry_cycles.get(
            tenant, 0.0
        )

    def _promote_deferred(self) -> None:
        """Move parked plans into the main queue, oldest first, up to
        each tenant's queue-depth limit and only while its budget
        lasts.  Runs at the top of every :meth:`run`, so a drained
        queue pulls deferred work in deterministically."""
        if not self._deferred:
            return
        assert self.admission is not None  # repolint: disable=library-assert -- plans only defer via admission
        depth: dict[str, int] = {}
        for __, __, p in self._pending:
            t = p.tenant or "default"
            depth[t] = depth.get(t, 0) + 1
        still: list[tuple[int, Any, WorkloadPlan]] = []
        promoted: list[tuple[int, Any, WorkloadPlan]] = []
        for entry in self._deferred:
            tenant = entry[2].tenant or "default"
            quota = self.admission.quota(tenant)
            if self.admission.budget_exhausted(tenant, self._spent(tenant)):
                still.append(entry)
                continue
            if (
                quota is not None
                and quota.max_queue_depth is not None
                and depth.get(tenant, 0) >= quota.max_queue_depth
            ):
                still.append(entry)
                continue
            depth[tenant] = depth.get(tenant, 0) + 1
            promoted.append(entry)
        if promoted:
            self._pending = sorted(self._pending + promoted)
            self._deferred = still

    def discard_stale(self) -> list[WorkloadPlan]:
        """Drop queued or deferred plans whose stream drifted past
        their pinned version (returns them, so callers can resubmit
        recompiled replacements)."""
        stale = [plan for __, __, plan in self._pending if plan.stale]
        stale += [plan for __, __, plan in self._deferred if plan.stale]
        if stale:
            self._pending = [e for e in self._pending if not e[2].stale]
            self._deferred = [e for e in self._deferred if not e[2].stale]
        return stale

    def run(
        self,
        *,
        verify: bool = False,
        lanes: int | None = None,
        racecheck: bool = False,
    ) -> list[RunResult | FailedResult]:
        """Execute every queued plan; results in submission order.

        ``verify=True`` runs the static hazard verifier
        (:func:`repro.analysis.static.analyze_batch`) over each
        session's batch before execution: a batch that cannot be
        certified hazard-free raises
        :class:`~repro.errors.HazardError` in strict mode, or fails
        the offending plans structurally in hardened mode.

        ``lanes=N`` (and/or ``racecheck=True``, which defaults the
        width to 4) takes the **scheduled** path: each session's batch
        is lowered into a
        :class:`~repro.analysis.static.schedule.CertifiedSchedule`
        (implying full static verification — an uncertifiable batch
        raises :class:`~repro.errors.HazardError`) and executed in the
        schedule's topological order, recording measured per-node costs
        back into the schedule (kept on :attr:`last_schedules` for
        what-if lane modeling).  With ``racecheck=True`` the replay
        additionally runs under the happens-before race detector
        (:mod:`repro.analysis.static.racecheck`): the session's shared
        structures and this pool's tenant ledgers are shimmed into an
        access log, and any unordered conflicting access pair raises a
        structured :class:`~repro.errors.RaceError`.  Scheduled
        execution is strict-mode only (outputs must stay bit-identical
        to the sequential reference; retry/fault paths would fork the
        comparison).

        Per session, the batch is ordered round-robin across tenants
        (first tenant's first plan, second tenant's first plan, ...,
        first tenant's second plan, ...) so burst windows interleave
        fairly; each plan's modeled cycles are charged to its tenant.

        **Strict mode** (no retry policy, no fault injector — the
        default): stale plans fail the whole call *before anything
        executes* (nothing is dequeued; :meth:`discard_stale` drops
        them, or resubmit recompiled plans).  On any other executor
        error, plans that did not complete stay queued.

        **Hardened mode** (a :class:`RetryPolicy` and/or
        :class:`FaultInjector` was configured): each plan runs in its
        own blast radius.  Stale plans are recompiled at the current
        version, failed attempts are retried up to the policy bound
        (failed-attempt cycles charged to the owning tenant's retry
        ledger), budget-exhausted tenants' plans never start, and a
        plan the pool gives up on yields a
        :class:`~repro.session.result.FailedResult` in its slot — no
        exception escapes for a plan failure.
        """
        scheduled = lanes is not None or racecheck
        if scheduled and self._hardened:
            raise ConfigError(
                "scheduled execution (lanes/racecheck) is strict-mode "
                "only; drop the retry policy / fault injector"
            )
        self._promote_deferred()
        obs = self.obs
        rec = obs.spans if obs is not None else None
        span = (
            rec.start("run", {"pending": len(self._pending)})
            if rec is not None
            else None
        )
        try:
            if racecheck and lanes is None:
                lanes = 4
            results = self._run_batches(
                verify=verify, lanes=lanes, racecheck=racecheck
            )
        finally:
            if rec is not None:
                rec.end(span)
        if obs is not None:
            obs.run_done()
            if obs.sink is not None:
                obs.flush_sink(self.health().as_dict(), self._completed)
        return results

    def _run_batches(
        self, *, verify: bool, lanes: int | None, racecheck: bool
    ) -> list[RunResult | FailedResult]:
        """The one run loop: drain the queue, group plans by session,
        order each session's batch round-robin across tenants, execute
        it, charge each result as it lands, and evict.  Only how a batch
        executes differs per mode (:meth:`_execute`)."""
        if not self._hardened:
            # Fail fast on drift before any tenant's work starts — one
            # tenant's stale plan must not cost another tenant's
            # computed results.
            for __, __, plan in self._pending:
                plan.check_version()
        if lanes is not None:
            self.last_schedules = {}
        pending, self._pending = self._pending, []
        by_session: OrderedDict[Any, list] = OrderedDict()
        for idx, key, plan in pending:
            by_session.setdefault(key, []).append((idx, plan))
        results: dict[int, RunResult | FailedResult] = {}
        rec = self.obs.spans if self.obs is not None else None

        def deliver(idx: int, plan: WorkloadPlan, result) -> None:
            results[idx] = result
            if isinstance(result, FailedResult):
                self._failed += 1
            else:
                self._charge(plan.tenant or "default", result)

        try:
            for key, entries in by_session.items():
                ordered = _round_robin_by_tenant(entries)
                sspan = (
                    rec.start(f"session:{key}", {"plans": len(ordered)})
                    if rec is not None
                    else None
                )
                try:
                    self._execute(
                        key,
                        ordered,
                        deliver,
                        verify=verify,
                        lanes=lanes,
                        racecheck=racecheck,
                    )
                finally:
                    if rec is not None:
                        rec.end(sspan)
        except BaseException:
            # Re-queue everything that has no result yet, ahead of any
            # plans submitted by an exception handler in the meantime.
            self._pending = [
                e for e in pending if e[0] not in results
            ] + self._pending
            raise
        self._evict()
        return [results[idx] for idx, __, __ in pending]

    def _execute(
        self, key, ordered, deliver, *, verify, lanes, racecheck
    ) -> None:
        """Execute one session's round-robin-ordered ``(idx, plan)``
        batch, handing each result to ``deliver`` in batch order.  This
        is the loop's only per-mode branch: hardened per-plan retry, a
        certified schedule (optionally under the race detector), or one
        plain executor call."""
        session = self._sessions[key]
        plans = [plan for __, plan in ordered]
        if self._hardened:
            if self.fault_injector is not None:
                self.fault_injector.before_batch(session, plans)
            for idx, plan in ordered:
                result = self._run_plan_hardened(session, plan, verify=verify)
                deliver(idx, plan, result)
            return
        rec = self.obs.spans if self.obs is not None else None
        schedule = log = None
        if lanes is not None:
            # Deferred import: analysis is outside the serving hot path.
            from repro.analysis.static.racecheck import AccessLog
            from repro.analysis.static.schedule import certify_schedule

            cspan = (
                rec.start("schedule:certify", {"lanes": lanes})
                if rec is not None
                else None
            )
            try:
                schedule = certify_schedule(
                    plans, lanes=lanes, fuse_width=self.fuse_width
                )
            finally:
                if rec is not None:
                    rec.end(cspan)
            self.last_schedules[key] = schedule
            log = AccessLog() if racecheck else None
        executor = PlanExecutor(
            session,
            fuse=self.fuse,
            fuse_width=self.fuse_width,
            # Certifying the schedule already verified the batch.
            verify=verify and schedule is None,
            schedule=schedule,
            access_log=log,
        )
        if log is None:
            for (idx, plan), result in zip(ordered, executor.execute(plans)):
                deliver(idx, plan, result)
            return
        from repro.analysis.static.racecheck import (
            find_races,
            instrument_pool_ledgers,
            instrument_session,
            raise_on_races,
        )

        rspan = (
            rec.start("racecheck:replay", {"nodes": len(schedule)})
            if rec is not None
            else None
        )
        try:
            with instrument_session(session, log), \
                    instrument_pool_ledgers(self, log):
                for (idx, plan), result in zip(
                    ordered, executor.execute(plans)
                ):
                    deliver(idx, plan, result)
            raise_on_races(
                find_races(schedule, log),
                context=f"session {key!r} scheduled replay (lanes={lanes})",
            )
        finally:
            if rec is not None:
                rec.end(rspan)

    def _run_plan_hardened(
        self, session: SisaSession, plan: WorkloadPlan, *, verify: bool = False
    ) -> RunResult | FailedResult:
        """One plan, isolated: budget gate → (re)compile if stale →
        attempt → on failure charge the wasted cycles to the tenant's
        retry ledger and try again, up to the policy bound.  Each
        attempt runs through :meth:`PlanExecutor.execute_isolated`,
        which turns the package's own failures into FailedResults; an
        exception outside that taxonomy, raised by the plan, by the
        drift recompile or by the injector's ``before_plan`` hook, ends
        the plan at once as an ``internal-error`` FailedResult (a bug
        is not retried)."""
        tenant = plan.tenant or "default"
        retry = self.retry if self.retry is not None else _DEFAULT_RETRY
        injector = self.fault_injector
        current = plan
        attempts = 0
        plan_retry_cycles = 0.0
        last_failure: FailedResult | None = None

        def give_up(reason: str, details: dict) -> FailedResult:
            return FailedResult(
                workload=plan.name,
                params=dict(plan.params),
                tenant=plan.tenant,
                reason=reason,
                error=last_failure.error if last_failure else None,
                attempts=attempts,
                retry_cycles=plan_retry_cycles,
                details=details,
            )

        while attempts < retry.max_attempts:
            if self.admission is not None and self.admission.budget_exhausted(
                tenant, self._spent(tenant)
            ):
                return give_up(
                    "budget-exhausted",
                    {
                        "tenant": tenant,
                        "spent_cycles": self._spent(tenant),
                        "cycle_budget": self.admission.quota(tenant).cycle_budget,
                    },
                )
            if current.stale and not retry.recompile_on_drift:
                return give_up(
                    "drift",
                    {
                        "pinned_version": current.version,
                        "stream_version": session._version,
                    },
                )
            mark = None
            try:
                if current.stale:
                    current = compile_plan(
                        session,
                        current.name,
                        dict(current.params),
                        tenant=current.tenant,
                    )
                    self._drift_recompiles += 1
                if injector is not None:
                    injector.before_plan(session, current)
                mark = session.ctx.mark()
                (result,) = PlanExecutor(
                    session,
                    fuse=self.fuse,
                    fuse_width=self.fuse_width,
                    fault_injector=injector,
                    verify=verify,
                ).execute_isolated([current])
            except ReproError:
                raise
            except Exception as exc:  # repolint: disable=overbroad-except -- hardened mode contains any plan failure
                # A foreign exception (from the drift recompile, the
                # injector hook or the plan itself) is a bug, not a
                # transient: it is contained to this plan (other
                # tenants keep their results) but never retried.
                result = FailedResult(
                    workload=current.name,
                    params=dict(current.params),
                    tenant=current.tenant,
                    reason="internal-error",
                    error=exc,
                    attempts=1,
                    details={"exception": type(exc).__name__},
                )
            if not isinstance(result, FailedResult):
                return result
            attempts += 1
            last_failure = result
            wasted = (
                _report_work_cycles(session.ctx.report_since(mark))
                if mark is not None
                else 0.0
            )
            plan_retry_cycles += wasted
            self._wasted_cycles += wasted
            self._tenant_retry_cycles[tenant] = (
                self._tenant_retry_cycles.get(tenant, 0.0) + wasted
            )
            if self.obs is not None:
                self.obs.charge_retry(tenant, wasted)
            if result.reason == "internal-error":
                return give_up("internal-error", result.details)
            if attempts < retry.max_attempts:
                self._retries += 1
        # max_attempts >= 1, so the loop only exits after a failure.
        return give_up(
            last_failure.reason if last_failure else "error",
            {"tenant": tenant, "max_attempts": retry.max_attempts},
        )

    def _charge(self, tenant: str, result: RunResult) -> None:
        # The hub mirror performs the same float addition in the same
        # order as the ledger dict, so pool.metrics() tenant counters
        # equal pool.tenant_cycles *exactly* (not just approximately).
        w = _work_cycles(result)
        self._tenant_cycles[tenant] = (
            self._tenant_cycles.get(tenant, 0.0) + w
        )
        self._tenant_runs[tenant] = self._tenant_runs.get(tenant, 0) + 1
        self._completed += 1
        if self.obs is not None:
            self.obs.charge(tenant, w)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def tenant_cycles(self) -> dict[str, float]:
        """Modeled work cycles charged to each tenant across every
        ``run()`` so far (the pool's fairness ledger)."""
        return dict(self._tenant_cycles)

    @property
    def tenant_retry_cycles(self) -> dict[str, float]:
        """Modeled cycles each tenant spent on failed attempts (also
        counted against its budget)."""
        return dict(self._tenant_retry_cycles)

    @property
    def tenant_runs(self) -> dict[str, int]:
        """Plans completed per tenant."""
        return dict(self._tenant_runs)

    def metrics(self) -> dict:
        """One JSON-safe snapshot of the pool's observability hub:
        every metric family's series, the per-tenant processed-set-size
        histograms (the paper's Fig. 9b, aggregated per tenant) and the
        span recorder's counters.  Raises
        :class:`~repro.errors.ConfigError` when observability is off —
        an empty snapshot would be indistinguishable from an idle
        pool."""
        if self.obs is None:
            raise ConfigError(
                "observability is not enabled on this pool; construct it "
                "with observability=True (or an Observability hub)"
            )
        return self.obs.metrics()

    def metrics_text(self) -> str:
        """The hub's registry in Prometheus text exposition format."""
        if self.obs is None:
            raise ConfigError(
                "observability is not enabled on this pool; construct it "
                "with observability=True (or an Observability hub)"
            )
        return self.obs.prometheus_text()

    def health(self):
        """One immutable :class:`~repro.serving.health.HealthSnapshot`
        of the pool: queues, failure/retry/degradation counters,
        injector tallies, per-session cache and orientation state, and
        each tenant's budget position."""
        from repro.serving.health import HealthSnapshot, TenantHealth

        cache_corruptions = 0
        cache_evictions = 0
        orientation_resyncs = 0
        for session in self._sessions.values():
            stats = session.cache_stats
            cache_corruptions += stats.corruptions
            cache_evictions += stats.evictions
            maintainer = session.orientation_maintainer
            if maintainer is not None:
                orientation_resyncs += maintainer.stats.resyncs
        names = set(self._tenant_cycles) | set(self._tenant_retry_cycles)
        names.update(p.tenant or "default" for __, __, p in self._pending)
        names.update(p.tenant or "default" for __, __, p in self._deferred)
        rejections: dict[str, int] = {}
        if self.admission is not None:
            rejections = self.admission.rejections
            names.update(rejections)
        tenants = []
        for name in sorted(names):
            quota = (
                self.admission.quota(name) if self.admission is not None else None
            )
            tenants.append(
                TenantHealth(
                    tenant=name,
                    cycles=self._tenant_cycles.get(name, 0.0),
                    retry_cycles=self._tenant_retry_cycles.get(name, 0.0),
                    queued=self._tenant_queued(name),
                    deferred=self._tenant_deferred(name),
                    rejections=rejections.get(name, 0),
                    cycle_budget=quota.cycle_budget if quota is not None else None,
                )
            )
        injected = (
            dict(self.fault_injector.injected)
            if self.fault_injector is not None
            else {}
        )
        return HealthSnapshot(
            sessions=len(self._sessions),
            pending=len(self._pending),
            deferred=len(self._deferred),
            completed=self._completed,
            failed=self._failed,
            retries=self._retries,
            drift_recompiles=self._drift_recompiles,
            wasted_cycles=self._wasted_cycles,
            rejections=sum(rejections.values()),
            cache_corruptions=cache_corruptions,
            cache_evictions=cache_evictions,
            orientation_resyncs=orientation_resyncs,
            injected_faults=injected,
            tenants=tuple(tenants),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SessionPool(sessions={len(self._sessions)}/{self.max_sessions}, "
            f"pending={len(self._pending)}, tenants={sorted(self._tenant_cycles)})"
        )


def _round_robin_by_tenant(entries):
    """Interleave ``(idx, plan)`` entries fairly across tenants,
    preserving each tenant's own submission order."""
    queues: OrderedDict[str, list] = OrderedDict()
    for entry in entries:
        queues.setdefault(entry[1].tenant or "default", []).append(entry)
    ordered = []
    while queues:
        for tenant in list(queues):
            queue = queues[tenant]
            ordered.append(queue.pop(0))
            if not queue:
                del queues[tenant]
    return ordered


def _report_work_cycles(report) -> float:
    """Total modeled work in one engine report delta: all lanes summed
    plus the sequential overhead (``runtime_cycles`` folds the latter
    on top of the slowest lane)."""
    lanes = report.lane_times
    sequential = report.runtime_cycles - (max(lanes) if lanes else 0.0)
    return float(sum(lanes) + sequential)


def _work_cycles(result: RunResult) -> float:
    """Total modeled work attributed to one plan run.  This is the
    fairness currency; the makespan lives in ``report.runtime_cycles``."""
    return _report_work_cycles(result.report)
