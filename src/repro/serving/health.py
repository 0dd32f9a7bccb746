"""Health reporting for the hardened SessionPool.

``pool.health()`` assembles one immutable :class:`HealthSnapshot` from
state the pool already tracks — queues, ledgers, retry/failure
counters, the fault injector's tallies, and each live session's cache
and orientation statistics.  Nothing here mutates the pool; a snapshot
is a value you can log, diff between soak iterations, or assert on in
tests.

"Degraded" deliberately means *recovered-from trouble*, not just
trouble: a pool that retried plans, recompiled drifted plans, detected
cache corruption or resynced an orientation maintainer is degraded
even when every request ultimately succeeded.  ``healthy`` is the
stronger claim — no degradation and no failed or parked work.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True)
class TenantHealth:
    """One tenant's budget and queue state at snapshot time."""

    tenant: str
    cycles: float  # useful work charged to this tenant
    retry_cycles: float  # failed-attempt work charged to this tenant
    queued: int  # plans pending in the main queue
    deferred: int  # plans parked in the deferral queue
    rejections: int  # submissions refused by admission control
    cycle_budget: float | None = None

    @property
    def spent_cycles(self) -> float:
        """Total budget draw: useful plus retry cycles."""
        return self.cycles + self.retry_cycles

    @property
    def remaining_budget(self) -> float | None:
        if self.cycle_budget is None:
            return None
        return max(0.0, self.cycle_budget - self.spent_cycles)

    @property
    def budget_exhausted(self) -> bool:
        return (
            self.cycle_budget is not None
            and self.spent_cycles >= self.cycle_budget
        )

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["spent_cycles"] = self.spent_cycles
        out["remaining_budget"] = self.remaining_budget
        out["budget_exhausted"] = self.budget_exhausted
        return out


@dataclass(frozen=True)
class HealthSnapshot:
    """One immutable pool health reading."""

    sessions: int  # live sessions in the LRU
    pending: int  # plans queued for the next run()
    deferred: int  # plans parked by admission control
    completed: int  # successful plan executions to date
    failed: int  # structured FailedResults returned to date
    retries: int  # failed attempts that were retried
    drift_recompiles: int  # stale plans recompiled at a newer version
    wasted_cycles: float  # modeled cycles spent on failed attempts
    rejections: int  # submissions refused by admission control
    cache_corruptions: int  # poisoned entries caught by fingerprinting
    cache_evictions: int  # entries dropped (LRU bound or injected)
    orientation_resyncs: int  # charged maintainer re-peels
    injected_faults: Mapping = field(default_factory=dict)
    tenants: tuple = ()  # TenantHealth, sorted by tenant name

    def __post_init__(self) -> None:
        # A frozen dataclass holding a plain dict is only shallowly
        # immutable — freeze the mapping too, so a snapshot cannot be
        # edited after the fact (and cannot alias the injector's live
        # tally dict).
        object.__setattr__(
            self,
            "injected_faults",
            MappingProxyType(dict(self.injected_faults)),
        )
        # O(1) per-tenant lookup for .tenant(); built once here rather
        # than scanned per call.
        object.__setattr__(
            self, "_by_tenant", {t.tenant: t for t in self.tenants}
        )

    @property
    def degraded(self) -> bool:
        """True when any degradation path has fired — even if every
        request ultimately succeeded."""
        return bool(
            self.failed
            or self.retries
            or self.drift_recompiles
            or self.cache_corruptions
            or self.orientation_resyncs
        )

    @property
    def healthy(self) -> bool:
        """No degradation, no failures, nothing parked."""
        return not self.degraded and self.deferred == 0

    def tenant(self, name: str) -> TenantHealth:
        """The named tenant's health (O(1); KeyError if unknown)."""
        return self._by_tenant[name]

    def as_dict(self) -> dict:
        """A JSON-safe copy.  Hand-built (``dataclasses.asdict`` would
        deep-copy through the mapping proxy and fail), with every
        mutable container defensively copied so callers cannot reach
        back into the snapshot."""
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in ("injected_faults", "tenants")
        }
        out["injected_faults"] = dict(self.injected_faults)
        out["tenants"] = [t.as_dict() for t in self.tenants]
        out["degraded"] = self.degraded
        out["healthy"] = self.healthy
        return out
