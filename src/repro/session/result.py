"""RunResult: the uniform result record of every session run.

On top of the functional output and the engine report it carries
*per-run* instruction stats, the set-registration count and a
configuration echo, all delimited by the engine epoch marks the session
takes around each run — so a warm session still reports each run's own
cost, not the context's lifetime accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.hw.engine import EngineReport
from repro.isa.opcodes import Opcode
from repro.isa.scu import DispatchStats
from repro.session.config import ExecutionConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.session.session import SisaSession


@dataclass
class RunResult:
    """Functional output plus the per-run accounting of one workload run."""

    workload: str
    output: Any
    report: EngineReport  # this run's engine delta
    stats: DispatchStats  # this run's SCU counter deltas
    registrations: int  # sets registered during this run
    config: ExecutionConfig  # configuration echo
    params: dict[str, Any]  # workload parameters echo
    warm: bool  # True when cached structures were reused
    session: "SisaSession"
    cached: bool = False  # True when served from the result cache
    # True when this run executed inside a fused plan batch: ``report``
    # then carries the plan's per-tenant attributed engine delta (its
    # own slice of the interleaved stream) rather than a contiguous
    # mark-to-mark region.
    fused: bool = False
    # True when this run executed under a CertifiedSchedule's explicit
    # topological order (repro.analysis.static.schedule); accounting is
    # per-tenant-attributed exactly as in fused mode.
    scheduled: bool = False
    # With observability enabled, the root Span of this run's span tree
    # (``plan:{name}`` → stages → kernels); dump it with
    # :func:`repro.observability.write_chrome_trace`.  None otherwise.
    spans: Any = None

    @property
    def runtime_cycles(self) -> float:
        return self.report.runtime_cycles

    @property
    def runtime_mcycles(self) -> float:
        """Millions of cycles — the unit of the paper's Fig. 6 y-axis."""
        return self.report.runtime_cycles / 1e6

    @property
    def instructions(self) -> int:
        """SISA instructions dispatched by this run."""
        return self.stats.instructions

    def opcode_counts(self) -> dict[Opcode, int]:
        """Per-opcode instruction counts of this run."""
        return dict(self.stats.by_opcode)

    @property
    def context(self):
        """The owning session's context (whole-session state)."""
        return self.session.ctx

    @property
    def ok(self) -> bool:
        """True — this run completed.  Mirror of
        :attr:`FailedResult.ok` so pool batches can be filtered
        uniformly."""
        return True


@dataclass
class FailedResult:
    """The structured record of a plan the hardened pool gave up on.

    Under fault isolation a failed plan no longer aborts its batch;
    its slot in the ``pool.run()`` result list holds one of these
    instead.  ``reason`` is a stable machine-readable tag:

    * ``"fault"`` — an injected kernel fault survived every retry;
    * ``"drift"`` — the plan's pinned stream version went stale and the
      retry policy forbade (or exhausted) recompiles;
    * ``"budget-exhausted"`` — the owning tenant's cycle budget ran out
      before the plan started;
    * ``"error"`` — any other failure from the package's own error
      taxonomy (:class:`~repro.errors.ReproError`);
    * ``"internal-error"`` — an exception outside that taxonomy raised
      by the plan, by its drift recompile or by the fault injector's
      ``before_plan`` hook (a bug, not a transient): contained to its
      plan and never retried;
      ``error`` holds the exception and ``details["exception"]`` its
      type name.

    ``retry_cycles`` is the modeled work spent on this plan's failed
    attempts — already charged to the owning tenant's retry ledger.
    """

    workload: str
    params: dict[str, Any]
    tenant: str
    reason: str
    error: BaseException | None = None
    attempts: int = 0  # execution attempts made (0 = never started)
    retry_cycles: float = 0.0
    details: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return False

    @property
    def message(self) -> str:
        return str(self.error) if self.error is not None else self.reason

    def __repr__(self) -> str:  # keep batch dumps readable
        return (
            f"FailedResult(workload={self.workload!r}, "
            f"tenant={self.tenant!r}, reason={self.reason!r}, "
            f"attempts={self.attempts})"
        )
