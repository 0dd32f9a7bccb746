"""The execution engine: simulated thread lanes and runtime accounting.

The paper evaluates parallel executions on up to 32 threads with
deterministic scheduling (Section 9.1, "Tackling Long Simulation
Runtimes").  We model a parallel run as a fixed number of *lanes*.
Work is divided into *tasks* (e.g. one per outer-loop vertex); each
task is placed on the least-loaded lane at its start -- a greedy,
deterministic schedule.  A lane accumulates the costs of all
operations executed while its task is active.

The simulated runtime of the whole region is the maximum lane time;
per-lane busy/stall statistics reproduce the paper's load-balance
analysis (Fig. 9a) and the stalled-cycle motivation plot (Fig. 1).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.hw.cost import Cost


@dataclass
class LaneState:
    compute_cycles: float = 0.0
    memory_bytes: float = 0.0
    latency_cycles: float = 0.0
    tasks: int = 0

    def charge(self, cost: Cost) -> None:
        self.compute_cycles += cost.compute_cycles
        self.memory_bytes += cost.memory_bytes
        self.latency_cycles += cost.latency_cycles

    def time(self, bytes_per_cycle: float) -> float:
        memory = self.memory_bytes / bytes_per_cycle if bytes_per_cycle > 0 else 0.0
        return self.compute_cycles + self.latency_cycles + memory

    def memory_time(self, bytes_per_cycle: float) -> float:
        stream = self.memory_bytes / bytes_per_cycle if bytes_per_cycle > 0 else 0.0
        return stream + self.latency_cycles


@dataclass(frozen=True)
class EngineMark:
    """A point-in-time snapshot of the engine's accumulated state.

    Marks delimit *runs* on a long-lived engine (the session API's
    per-run accounting): :meth:`ExecutionEngine.report_since` computes
    the report of everything charged after the mark.  A mark taken on a
    fresh engine is all zeros, so ``report_since(mark)`` on a cold
    engine is bit-identical to :meth:`ExecutionEngine.report`.
    """

    compute: tuple[float, ...]
    memory: tuple[float, ...]
    latency: tuple[float, ...]
    tasks: tuple[int, ...]
    sequential_overhead: float


@dataclass
class EngineReport:
    """Summary of a simulated parallel region."""

    runtime_cycles: float
    lane_times: list[float]
    lane_memory_times: list[float]
    tasks: int

    @property
    def threads(self) -> int:
        return len(self.lane_times)

    @property
    def stall_fractions(self) -> list[float]:
        """Per-lane fraction of the region spent waiting: idle time at
        the barrier plus memory time, over the region runtime.  This is
        the quantity behind Fig. 9a and (aggregated) Fig. 1 right."""
        if self.runtime_cycles <= 0:
            return [0.0] * self.threads
        fractions = []
        for busy, mem in zip(self.lane_times, self.lane_memory_times):
            idle = self.runtime_cycles - busy
            fractions.append(min(1.0, (idle + mem) / self.runtime_cycles))
        return fractions

    @property
    def avg_stall_fraction(self) -> float:
        fracs = self.stall_fractions
        return sum(fracs) / len(fracs) if fracs else 0.0

    @property
    def work_cycles(self) -> float:
        """Total modeled *work* in the region: the sum of per-lane busy
        times plus the sequential overhead (``runtime`` minus the
        longest lane).  This is the quantity session pools charge to
        tenant ledgers — work consumed, not wall-parallel runtime."""
        if not self.lane_times:
            return self.runtime_cycles
        return sum(self.lane_times) + (
            self.runtime_cycles - max(self.lane_times)
        )


class ExecutionEngine:
    """Accumulates costs on lanes and computes simulated runtimes.

    ``bytes_per_cycle`` is the *effective per-lane* streaming bandwidth;
    callers derive it from their platform model (CPU contention model or
    PNM bandwidth proportionality).
    """

    def __init__(self, threads: int, bytes_per_cycle: float):
        if threads <= 0:
            raise ConfigError("threads must be positive")
        if bytes_per_cycle <= 0:
            raise ConfigError("bytes_per_cycle must be positive")
        self.threads = threads
        self.bytes_per_cycle = bytes_per_cycle
        self._lanes = [LaneState() for _ in range(threads)]
        self._current = 0
        self._sequential_overhead = 0.0
        # Cached per-lane times for greedy placement.  Only the current
        # lane accumulates cost between begin_task calls, so it is the
        # only entry that can be stale; refreshing just that one keeps
        # begin_task O(1) amortized with values identical to a full
        # recompute.
        self._lane_times = [0.0] * threads
        # Per-tenant attribution (plan executors / session pools): while
        # a tenant tag is set, every charge is mirrored into that
        # tenant's shadow lanes, so interleaved multi-plan execution can
        # still report who consumed which modeled cycles.  Off (None) on
        # the hot single-run path.
        self._tenants: dict[object, list[LaneState]] = {}
        self._tenant_seq: dict[object, float] = {}
        self._tenant_tag: object | None = None
        self._tenant_lanes: list[LaneState] | None = None

    # -- task scheduling ---------------------------------------------------

    def begin_task(self) -> int:
        """Start a new task on the least-loaded lane (greedy placement);
        returns the lane index."""
        times = self._lane_times
        current = self._current
        times[current] = self._lanes[current].time(self.bytes_per_cycle)
        self._current = current = times.index(min(times))
        self._lanes[current].tasks += 1
        if self._tenant_lanes is not None:
            self._tenant_lanes[current].tasks += 1
        return current

    @contextmanager
    def on_lane(self, lane: int):
        """Temporarily make ``lane`` the charging target.

        Used by the fused cross-task burst path: a constituent burst's
        ops must land on the lane its task was placed on at unit
        creation, even though other plans' tasks have moved the current
        lane since.  Both the outgoing and the pinned lane's cached
        times are refreshed, preserving the begin_task invariant that
        only the current lane's cached time can be stale.
        """
        bpc = self.bytes_per_cycle
        times = self._lane_times
        prev = self._current
        times[prev] = self._lanes[prev].time(bpc)
        self._current = lane
        try:
            yield lane
        finally:
            times[lane] = self._lanes[lane].time(bpc)
            self._current = prev

    def charge(self, cost: Cost) -> None:
        """Charge a cost to the current task's lane."""
        self._lanes[self._current].charge(cost)
        if self._tenant_lanes is not None:
            self._tenant_lanes[self._current].charge(cost)

    def charge_sequential(self, cost: Cost) -> None:
        """Charge a cost that cannot be parallelized (setup, reductions)."""
        cycles = cost.cycles(self.bytes_per_cycle)
        self._sequential_overhead += cycles
        if self._tenant_tag is not None:
            self._tenant_seq[self._tenant_tag] = (
                self._tenant_seq.get(self._tenant_tag, 0.0) + cycles
            )

    def charge_batch(
        self,
        compute: list[float],
        memory: list[float],
        latency: list[float],
    ) -> None:
        """Charge a sequence of per-op cost components to the current
        task's lane.

        Components are accumulated op by op, in order — the float
        additions are exactly the ones a sequence of :meth:`charge`
        calls would perform, so batched and sequential execution yield
        bit-identical lane times."""
        lane = self._lanes[self._current]
        acc = lane.compute_cycles
        for x in compute:
            acc += x
        lane.compute_cycles = acc
        acc = lane.memory_bytes
        for x in memory:
            acc += x
        lane.memory_bytes = acc
        acc = lane.latency_cycles
        for x in latency:
            acc += x
        lane.latency_cycles = acc
        if self._tenant_lanes is not None:
            shadow = self._tenant_lanes[self._current]
            acc = shadow.compute_cycles
            for x in compute:
                acc += x
            shadow.compute_cycles = acc
            acc = shadow.memory_bytes
            for x in memory:
                acc += x
            shadow.memory_bytes = acc
            acc = shadow.latency_cycles
            for x in latency:
                acc += x
            shadow.latency_cycles = acc

    def charge_tasks(
        self,
        offsets: list[int],
        compute: list[float],
        memory: list[float],
        latency: list[float],
    ) -> list[int]:
        """Run a sequence of tasks: task ``t`` is placed exactly as
        :meth:`begin_task` would place it (greedy, least-loaded lane,
        task counted, tenant shadow lanes mirrored), then charged the
        cost components ``[offsets[t], offsets[t + 1])`` left to right —
        the float additions a ``begin_task`` plus one :meth:`charge` per
        component triple would perform.  Returns the lane of every task;
        the last task's lane stays current."""
        bpc = self.bytes_per_cycle
        lanes = self._lanes
        times = self._lane_times
        shadow = self._tenant_lanes
        current = self._current
        # (time, lane) pairs kept sorted: the head is begin_task's
        # ``times.index(min(times))`` (lowest lane among equal times).
        order = sorted(zip(times, range(len(times))))
        placed = []
        hi = offsets[0]
        for t in range(len(offsets) - 1):
            lane = lanes[current]
            time = (
                lane.compute_cycles + lane.latency_cycles
                + lane.memory_bytes / bpc
            )
            if time != times[current]:
                del order[bisect_left(order, (times[current], current))]
                insort(order, (time, current))
                times[current] = time
            current = order[0][1]
            placed.append(current)
            lo = hi
            hi = offsets[t + 1]
            for lane in (lanes[current],) if shadow is None else (
                lanes[current], shadow[current]
            ):
                lane.tasks += 1
                c = lane.compute_cycles
                m = lane.memory_bytes
                lat = lane.latency_cycles
                for i in range(lo, hi):
                    c += compute[i]
                    m += memory[i]
                    lat += latency[i]
                lane.compute_cycles = c
                lane.memory_bytes = m
                lane.latency_cycles = lat
        self._current = current
        return placed

    # -- per-tenant attribution --------------------------------------------

    def set_tenant(self, tag: object | None) -> None:
        """Mirror subsequent charges into ``tag``'s shadow lanes (pass
        ``None`` to stop attributing)."""
        if tag is None:
            self._tenant_tag = None
            self._tenant_lanes = None
            return
        lanes = self._tenants.get(tag)
        if lanes is None:
            lanes = self._tenants[tag] = [
                LaneState() for _ in range(self.threads)
            ]
        self._tenant_tag = tag
        self._tenant_lanes = lanes

    def tenant_report(self, tag: object) -> EngineReport:
        """The engine report of one tenant's attributed charges (zeros
        for an unknown tenant)."""
        lanes = self._tenants.get(tag)
        if lanes is None:
            lanes = [LaneState() for _ in range(self.threads)]
        lane_times = [lane.time(self.bytes_per_cycle) for lane in lanes]
        lane_memory = [lane.memory_time(self.bytes_per_cycle) for lane in lanes]
        sequential = self._tenant_seq.get(tag, 0.0)
        runtime = (max(lane_times) if lane_times else 0.0) + sequential
        return EngineReport(
            runtime_cycles=runtime,
            lane_times=lane_times,
            lane_memory_times=lane_memory,
            tasks=sum(lane.tasks for lane in lanes),
        )

    def tenant_work_cycles(self, tag: object) -> float:
        """One tenant's attributed work (sum of shadow-lane times plus
        attributed sequential overhead) without building a report.
        Cheap enough for span instrumentation to delta per plan stage."""
        lanes = self._tenants.get(tag)
        bpc = self.bytes_per_cycle
        busy = sum(lane.time(bpc) for lane in lanes) if lanes else 0.0
        return busy + self._tenant_seq.get(tag, 0.0)

    def drop_tenant(self, tag: object) -> None:
        """Forget one tenant's attributed charges."""
        self._tenants.pop(tag, None)
        self._tenant_seq.pop(tag, None)
        if self._tenant_tag == tag:
            self._tenant_tag = None
            self._tenant_lanes = None

    # -- run marks -----------------------------------------------------------

    def mark(self) -> EngineMark:
        """Snapshot the accumulated lane state (start of a new run)."""
        lanes = self._lanes
        return EngineMark(
            compute=tuple(lane.compute_cycles for lane in lanes),
            memory=tuple(lane.memory_bytes for lane in lanes),
            latency=tuple(lane.latency_cycles for lane in lanes),
            tasks=tuple(lane.tasks for lane in lanes),
            sequential_overhead=self._sequential_overhead,
        )

    def report_since(self, mark: EngineMark) -> EngineReport:
        """Report of the region charged after ``mark``.

        Per-lane deltas are rebuilt into :class:`LaneState` records and
        timed exactly like :meth:`report` does, so a mark taken on a
        fresh engine yields a report bit-identical to the full one.
        """
        if len(mark.compute) != len(self._lanes):
            raise ConfigError("mark belongs to a different engine shape")
        deltas = [
            LaneState(
                compute_cycles=lane.compute_cycles - mark.compute[i],
                memory_bytes=lane.memory_bytes - mark.memory[i],
                latency_cycles=lane.latency_cycles - mark.latency[i],
                tasks=lane.tasks - mark.tasks[i],
            )
            for i, lane in enumerate(self._lanes)
        ]
        lane_times = [lane.time(self.bytes_per_cycle) for lane in deltas]
        lane_memory = [lane.memory_time(self.bytes_per_cycle) for lane in deltas]
        sequential = self._sequential_overhead - mark.sequential_overhead
        runtime = (max(lane_times) if lane_times else 0.0) + sequential
        return EngineReport(
            runtime_cycles=runtime,
            lane_times=lane_times,
            lane_memory_times=lane_memory,
            tasks=sum(lane.tasks for lane in deltas),
        )

    # -- reporting -----------------------------------------------------------

    @property
    def total_tasks(self) -> int:
        return sum(lane.tasks for lane in self._lanes)

    def report(self) -> EngineReport:
        lane_times = [lane.time(self.bytes_per_cycle) for lane in self._lanes]
        lane_memory = [lane.memory_time(self.bytes_per_cycle) for lane in self._lanes]
        runtime = (max(lane_times) if lane_times else 0.0) + self._sequential_overhead
        return EngineReport(
            runtime_cycles=runtime,
            lane_times=lane_times,
            lane_memory_times=lane_memory,
            tasks=self.total_tasks,
        )

    @property
    def runtime_cycles(self) -> float:
        return self.report().runtime_cycles

    def work_cycles(self) -> float:
        """Lifetime modeled work: sum of lane busy times plus the
        sequential overhead.  Monotone and O(threads) to read, so span
        instrumentation deltas it around plan stages."""
        bpc = self.bytes_per_cycle
        return (
            sum(lane.time(bpc) for lane in self._lanes)
            + self._sequential_overhead
        )
