"""Exception types for the repro package.

Every error can carry a machine-readable ``details`` dict alongside its
message.  The serving front end relies on this: a rejected request gets
one structured error naming exactly which rule failed and on what
value, instead of a free-text message a caller would have to parse.
Errors raised deep inside the simulator simply leave ``details`` empty.
"""

from __future__ import annotations

from typing import Any, Mapping


class ReproError(Exception):
    """Base class for all errors raised by this package.

    ``details`` is an optional machine-readable payload (plain dict of
    JSON-ish values); it defaults to empty so existing single-argument
    raises are unaffected.
    """

    def __init__(self, *args: Any, details: Mapping[str, Any] | None = None):
        super().__init__(*args)
        self.details: dict[str, Any] = dict(details) if details else {}


class GraphError(ReproError):
    """Malformed graph input or an operation unsupported by a graph."""


class SetError(ReproError):
    """Invalid set representation, universe mismatch, or unknown set id."""


class IsaError(ReproError):
    """Invalid SISA instruction, operand, or encoding."""


class DatasetError(ReproError):
    """Unknown dataset name or invalid dataset specification."""


class ConfigError(ReproError):
    """Invalid hardware or runtime configuration."""


class SisaError(ReproError):
    """Invalid use of the runtime API at execution time (e.g. reading a
    released snapshot whose set IDs may already be recycled)."""


class ValidationError(ConfigError):
    """A request rejected by the serving validation rule engine.

    Subclasses :class:`ConfigError` so every existing ``except
    ConfigError`` front still catches door-rejected requests; the
    ``details`` dict carries the structured payload — the workload, the
    failing rule names and per-violation context — for callers that
    want machine-readable rejections.
    """


class AdmissionError(ReproError):
    """A request refused by per-tenant admission control (queue depth
    or cycle budget); ``details`` names the tenant, the limit and the
    observed value."""


class HazardError(SisaError):
    """A plan batch rejected by the static plan verifier
    (:func:`repro.analysis.static.analyze_batch`): executing it fused
    could produce a data hazard (RAW/WAR between macro constituents,
    dedup-key divergence, or inconsistent stream-version pins).
    ``details`` carries the full structured
    :class:`~repro.analysis.static.verifier.AnalysisReport`."""


class RaceError(SisaError):
    """A happens-before violation found by the dynamic race detector
    (:mod:`repro.analysis.static.racecheck`): two accesses to one
    shared structure — result cache, SCU decision memo, orientation
    maintainer, tenant ledger — from schedule nodes the dependency DAG
    leaves unordered, at least one a non-idempotent write.  ``details``
    carries the structured race list (token, accessors, stages, lanes
    and vector clocks), the same shape the static verifier gives
    hazards."""


class InjectedFault(SisaError):
    """A fault deliberately raised by the serving
    :class:`~repro.serving.faults.FaultInjector` (soak/chaos testing).
    Handled by the pool's retry/isolation machinery like any other
    execution-time fault."""
