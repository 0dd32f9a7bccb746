"""The SISA runtime context: functional execution plus timing simulation.

A :class:`SisaContext` is the entry point for running set-centric
algorithms.  It plays the role of the whole simulated machine:

* it holds the Set Metadata table and hands out logical set IDs,
* every set operation runs *functionally* (exact results, via
  ``repro.sets.kernels``) and is *costed* by the SCU dispatch model,
* costs land on the simulated thread lane of the currently running
  task (``repro.hw.engine``), giving deterministic parallel runtimes.

Execution modes (the three bars of the paper's Fig. 6):

* ``mode="sisa"``      — set ops offloaded to PIM (SISA-PUM/PNM),
* ``mode="cpu-set"``   — same set-centric algorithms, set ops executed
  by the host CPU model (the ``_set-based`` baseline),

The ``_non-set`` baselines do not use a SisaContext at all; they charge
a :class:`~repro.baselines.cpu_kernels.CpuCostModel` directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigError
from repro.hw.config import CpuConfig, HardwareConfig
from repro.hw.cost import Cost
from repro.hw.engine import EngineMark, EngineReport, ExecutionEngine
from repro.isa.metadata import SetMetadataTable
from repro.isa.opcodes import Opcode, SetOp
from repro.isa.scu import DispatchStats, Scu, StageOperands
from repro.runtime import batch as batchmod
from repro.runtime.trace import Trace, TraceEvent
from repro.sets import kernels
from repro.sets.base import VertexSet
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import SparseArray

MODES = ("sisa", "cpu-set")

#: Chunk-budget weights of one op and one task of a whole count stage,
#: in probe elements (their SCU/engine bookkeeping costs about this
#: many kernel probe elements' worth of memory).
_STAGE_OP_WORK = 8
_STAGE_TASK_WORK = 4


@dataclass(frozen=True)
class ContextMark:
    """Run boundary on a long-lived context (see :meth:`SisaContext.mark`)."""

    engine: "EngineMark"
    stats: "DispatchStats"
    registrations: int


class SisaContext:
    """Simulated machine state for one algorithm run."""

    def __init__(
        self,
        *,
        threads: int = 32,
        mode: str = "sisa",
        hw: HardwareConfig | None = None,
        cpu: CpuConfig | None = None,
        gallop_threshold: float | None = None,
        smb_enabled: bool = True,
        trace: bool = False,
        decision_memo: dict | None = None,
        observability=None,
    ):
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.hw = hw or HardwareConfig()
        self.cpu = cpu or CpuConfig()
        self.threads = threads
        self.scu = Scu(
            self.hw,
            host_fallback=(mode == "cpu-set"),
            cpu=self.cpu,
            gallop_threshold=gallop_threshold,
            smb_enabled=smb_enabled,
            decision_memo=decision_memo,
        )
        self.sm = SetMetadataTable()
        self.trace = Trace(enabled=trace)
        if mode == "sisa":
            # Bandwidth proportionality (Tesseract): each lane maps to a
            # vault whose full bandwidth it enjoys.
            lanes = min(threads, self.hw.num_vaults)
            bytes_per_cycle = self.hw.vault_bytes_per_cycle
            self.engine = ExecutionEngine(lanes, bytes_per_cycle)
        else:
            lanes = min(threads, self.cpu.max_threads)
            bytes_per_cycle = self.cpu.effective_bandwidth_bytes_per_cycle(lanes)
            self.engine = ExecutionEngine(lanes, bytes_per_cycle)
        self._current_lane = 0
        # Scan costs are pure functions of the set size; cache them so
        # the per-iteration model bookkeeping stays off the hot path.
        self._scan_costs: dict[int, Cost] = {}
        # Optional observability hub (repro.observability), shared with
        # the SCU.  Nullable and observation-only: kernel spans and
        # burst histograms are fed at batch granularity, after the
        # engine charge, from the same BatchDispatch components — so
        # enabling it cannot change modeled cycles or outputs.
        self.obs = observability
        self.scu.obs = observability

    # ------------------------------------------------------------------
    # Task scheduling
    # ------------------------------------------------------------------

    def begin_task(self) -> int:
        """Start a parallel task ("[in par]" loop body in the listings)."""
        self._current_lane = self.engine.begin_task()
        return self._current_lane

    @contextmanager
    def task(self) -> Iterator[int]:
        yield self.begin_task()

    @contextmanager
    def on_lane(self, lane: int) -> Iterator[int]:
        """Pin charging to an already-placed task's lane (fused burst
        execution: ops of a deferred unit must land where its
        ``begin_task`` placed it)."""
        prev = self._current_lane
        with self.engine.on_lane(lane):
            self._current_lane = lane
            try:
                yield lane
            finally:
                self._current_lane = prev

    # ------------------------------------------------------------------
    # Set lifecycle
    # ------------------------------------------------------------------

    def create_set(
        self,
        elements: Iterable[int] | np.ndarray = (),
        *,
        universe: int,
        dense: bool = False,
        sorted_: bool | None = None,
        charge: bool = True,
    ) -> int:
        """Create a set and return its logical set ID.

        ``dense=True`` requests a dense bitvector.  Auxiliary bitsets
        are honored on the ``cpu-set`` host baseline too (tuned CPU
        set-centric codes use std::bitset-style auxiliaries; the paper
        notes matching Eppstein's bound requires bitvector P and X) —
        what the host lacks is SISA's *neighborhood* DB representation
        and the PIM execution of the operations.
        """
        if dense:
            value: VertexSet = DenseBitvector.from_elements(
                np.asarray(list(elements) if not isinstance(elements, np.ndarray) else elements),
                universe,
            )
        else:
            value = SparseArray(
                np.asarray(list(elements) if not isinstance(elements, np.ndarray) else elements),
                universe,
                sorted_=sorted_,
            )
        return self.register(value, charge=charge)

    def register(self, value: VertexSet, *, charge: bool = True) -> int:
        """Register an existing set value; optionally charge allocation."""
        set_id = self.sm.register(value)
        if charge:
            dispatch = self.scu.dispatch_create(
                value.cardinality,
                dense=isinstance(value, DenseBitvector),
                universe=value.universe,
            )
            self.engine.charge(dispatch.cost)
        return set_id

    def free(self, set_id: int) -> None:
        dispatch = self.scu.dispatch_delete(self.sm.meta(set_id))
        self.engine.charge(dispatch.cost)
        self.sm.delete(set_id)

    def release(self, set_id: int) -> None:
        """Model-internal set teardown (graph unloading): drop the SM
        entry and invalidate any cached SMB entry without dispatching a
        DELETE instruction.  Counterpart of ``register(charge=False)``
        — used for structures whose setup was outside the measured
        region.  The SMB invalidation matters: freed IDs are recycled,
        and a stale SMB entry would turn a recycled set's first
        metadata fetch into a false hit."""
        self.scu.smb.invalidate(set_id)
        self.sm.delete(set_id)

    def clone(self, set_id: int) -> int:
        dispatch = self.scu.dispatch_clone(self.sm.meta(set_id))
        self.engine.charge(dispatch.cost)
        return self.sm.register(self.sm.value(set_id))

    def value(self, set_id: int) -> VertexSet:
        """Raw set value (model-internal; charges nothing)."""
        return self.sm.value(set_id)

    # ------------------------------------------------------------------
    # Binary operations
    # ------------------------------------------------------------------

    def _binary(self, op: SetOp, a: int, b: int) -> VertexSet:
        """Materializing binary op: exact result plus modeled cost."""
        va, vb = self.sm.value(a), self.sm.value(b)
        if op is SetOp.INTERSECT:
            result = kernels.intersect(va, vb)
        elif op is SetOp.UNION:
            result = kernels.union(va, vb)
        else:
            result = kernels.difference(va, vb)
        dispatch = self.scu.dispatch_binary(
            op,
            self.sm.meta(a),
            self.sm.meta(b),
            output_size=result.cardinality,
            count_only=False,
        )
        self.engine.charge(dispatch.cost)
        if self.trace.enabled:
            self.trace.record(
                TraceEvent(
                    opcode=dispatch.opcode,
                    lane=self._current_lane,
                    size_a=va.cardinality,
                    size_b=vb.cardinality,
                    output_size=result.cardinality,
                    backend=dispatch.backend,
                    variant=dispatch.variant,
                )
            )
        return result

    def _count(self, op: SetOp, a: int, b: int) -> int:
        """Count-form binary op (§6.2.3): the result cardinality is
        computed by the zero-materialization kernels — no result set is
        allocated for any representation pair."""
        va, vb = self.sm.value(a), self.sm.value(b)
        if op is SetOp.INTERSECT_COUNT:
            card = kernels.intersect_cardinality(va, vb)
        elif op is SetOp.UNION_COUNT:
            card = kernels.union_cardinality(va, vb)
        else:
            card = kernels.difference_cardinality(va, vb)
        dispatch = self.scu.dispatch_binary(
            op,
            self.sm.meta(a),
            self.sm.meta(b),
            output_size=0,
            count_only=True,
        )
        self.engine.charge(dispatch.cost)
        if self.trace.enabled:
            self.trace.record(
                TraceEvent(
                    opcode=dispatch.opcode,
                    lane=self._current_lane,
                    size_a=va.cardinality,
                    size_b=vb.cardinality,
                    output_size=card,
                    backend=dispatch.backend,
                    variant=dispatch.variant,
                )
            )
        return card

    def intersect(self, a: int, b: int) -> int:
        return self.sm.register(self._binary(SetOp.INTERSECT, a, b))

    def union(self, a: int, b: int) -> int:
        return self.sm.register(self._binary(SetOp.UNION, a, b))

    def difference(self, a: int, b: int) -> int:
        return self.sm.register(self._binary(SetOp.DIFFERENCE, a, b))

    def intersect_count(self, a: int, b: int) -> int:
        return self._count(SetOp.INTERSECT_COUNT, a, b)

    def union_count(self, a: int, b: int) -> int:
        return self._count(SetOp.UNION_COUNT, a, b)

    def difference_count(self, a: int, b: int) -> int:
        return self._count(SetOp.DIFFERENCE_COUNT, a, b)

    # ------------------------------------------------------------------
    # Batched count operations (amortized dispatch over a frontier)
    # ------------------------------------------------------------------

    def _count_batch(self, op: SetOp, kind: str, a: int, bs) -> np.ndarray:
        """Count-form ``a op b_i`` for a whole frontier ``bs``.

        Functionally one vectorized kernel over the concatenated
        operand arrays (see :mod:`repro.runtime.batch`); timing-wise an
        amortized SCU dispatch whose per-op costs, stats and SMB
        behaviour — and therefore simulated cycles — are identical to
        issuing the ops sequentially on the current task's lane.
        """
        sm = self.sm
        n = len(bs)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        obs = self.obs
        span = obs.kernel_start(f"{kind}_count", n) if obs is not None else None
        va = sm.value(a)
        values = sm.values_of(bs)
        metas = sm.metas_of(bs)
        inter = batchmod.intersect_counts(va, values)
        if kind == "intersect":
            counts = inter
        else:
            cards = np.fromiter((m.cardinality for m in metas), np.int64, n)
            counts = batchmod.derive_counts(kind, va.cardinality, cards, inter)
        bd = self.scu.dispatch_binary_batch(op, sm.meta(a), metas, count_only=True)
        self.engine.charge_batch(bd.compute, bd.memory, bd.latency)
        if obs is not None:
            obs.kernel_end(
                span,
                sum(bd.compute)
                + sum(bd.latency)
                + sum(bd.memory) / self.engine.bytes_per_cycle,
                va.cardinality,
                (m.cardinality for m in metas),
            )
        if self.trace.enabled:
            size_a = va.cardinality
            lane = self._current_lane
            for i, meta in enumerate(metas):
                self.trace.record(
                    TraceEvent(
                        opcode=bd.opcodes[i],
                        lane=lane,
                        size_a=size_a,
                        size_b=meta.cardinality,
                        output_size=int(counts[i]),
                        backend=bd.backends[i],
                        variant=bd.variants[i],
                    )
                )
        return counts

    def intersect_batch(self, a: int, bs) -> list[int]:
        """Materializing batched intersection ``A ∩ B_i`` over a
        frontier: returns one new set id per operand.

        Functionally one vectorized probe pass (results are zero-copy
        slices of the flattened hit array); the modeled cost, stats and
        SMB behaviour are identical to issuing the ``intersect`` ops
        sequentially (results are registered after the dispatch phase,
        which charges nothing and touches no modeled state)."""
        return self._materialize_batch(
            SetOp.INTERSECT, a, batchmod.intersect_values, bs
        )

    def _materialize_batch(self, op: SetOp, a: int, values_fn, bs) -> list[int]:
        """Shared implementation of the materializing batched fan-outs:
        results from one functional batch kernel, one amortized dispatch
        whose per-op costs/stats/SMB trajectory — and thus simulated
        cycles — are identical to the sequential per-op stream."""
        if not len(bs):
            return []
        sm = self.sm
        obs = self.obs
        span = (
            obs.kernel_start(f"{op.name.lower()}_batch", len(bs))
            if obs is not None
            else None
        )
        va = sm.value(a)
        values = sm.values_of(bs)
        metas = sm.metas_of(bs)
        results = values_fn(va, values)
        output_sizes = [r.cardinality for r in results]
        bd = self.scu.dispatch_binary_batch(
            op,
            sm.meta(a),
            metas,
            output_sizes=output_sizes,
            count_only=False,
        )
        self.engine.charge_batch(bd.compute, bd.memory, bd.latency)
        if obs is not None:
            obs.kernel_end(
                span,
                sum(bd.compute)
                + sum(bd.latency)
                + sum(bd.memory) / self.engine.bytes_per_cycle,
                va.cardinality,
                (m.cardinality for m in metas),
            )
        if self.trace.enabled:
            size_a = va.cardinality
            lane = self._current_lane
            for i, meta in enumerate(metas):
                self.trace.record(
                    TraceEvent(
                        opcode=bd.opcodes[i],
                        lane=lane,
                        size_a=size_a,
                        size_b=meta.cardinality,
                        output_size=output_sizes[i],
                        backend=bd.backends[i],
                        variant=bd.variants[i],
                    )
                )
        register = sm.register
        return [register(r) for r in results]

    def union_batch(self, a: int, bs) -> list[int]:
        """Materializing batched union ``A ∪ B_i`` over a frontier:
        one new set id per operand, cycle-identical to the sequential
        ``union`` stream (same dispatch path as :meth:`intersect_batch`)."""
        return self._materialize_batch(SetOp.UNION, a, batchmod.union_values, bs)

    def difference_batch(self, a: int, bs) -> list[int]:
        """Materializing batched difference ``A \\ B_i`` over a
        frontier, cycle-identical to the sequential ``difference``
        stream."""
        return self._materialize_batch(
            SetOp.DIFFERENCE, a, batchmod.difference_values, bs
        )

    def intersect_count_batch(self, a: int, bs) -> np.ndarray:
        """``|A ∩ B_i|`` for every set id in ``bs`` (one batched
        instruction burst; no result sets are materialized)."""
        return self._count_batch(SetOp.INTERSECT_COUNT, "intersect", a, bs)

    def union_count_batch(self, a: int, bs) -> np.ndarray:
        """``|A ∪ B_i|`` for every set id in ``bs``."""
        return self._count_batch(SetOp.UNION_COUNT, "union", a, bs)

    def difference_count_batch(self, a: int, bs) -> np.ndarray:
        """``|A \\ B_i|`` for every set id in ``bs``."""
        return self._count_batch(SetOp.DIFFERENCE_COUNT, "difference", a, bs)

    _COUNT_OPS = {
        "intersect": SetOp.INTERSECT_COUNT,
        "union": SetOp.UNION_COUNT,
        "difference": SetOp.DIFFERENCE_COUNT,
    }

    def fused_count_burst(
        self, a: int, bs, *, kind: str = "intersect", include_decode: bool = False
    ) -> np.ndarray:
        """One constituent burst of a fused cross-task count macro.

        Functionally identical to the ``*_count_batch`` fan-outs;
        charged to the *current* lane under the fused-dispatch rule of
        :meth:`repro.isa.scu.Scu.dispatch_binary_fused` (one macro
        decode per fused group, one probe-metadata lookup per
        constituent).  Plan executors wrap each constituent in
        :meth:`on_lane` so the charges land on the lane the unit's task
        was placed on.
        """
        op = self._COUNT_OPS[kind]
        sm = self.sm
        n = len(bs)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        obs = self.obs
        span = obs.kernel_start(f"fused_{kind}", n) if obs is not None else None
        va = sm.value(a)
        values = sm.values_of(bs)
        metas = sm.metas_of(bs)
        inter = batchmod.intersect_counts(va, values)
        if kind == "intersect":
            counts = inter
        else:
            cards = np.fromiter((m.cardinality for m in metas), np.int64, n)
            counts = batchmod.derive_counts(kind, va.cardinality, cards, inter)
        bd = self.scu.dispatch_binary_fused(
            op, sm.meta(a), metas, count_only=True, include_decode=include_decode
        )
        self.engine.charge_batch(bd.compute, bd.memory, bd.latency)
        if obs is not None:
            obs.kernel_end(
                span,
                sum(bd.compute)
                + sum(bd.latency)
                + sum(bd.memory) / self.engine.bytes_per_cycle,
                va.cardinality,
                (m.cardinality for m in metas),
            )
        if self.trace.enabled:
            size_a = va.cardinality
            lane = self._current_lane
            for i, meta in enumerate(metas):
                self.trace.record(
                    TraceEvent(
                        opcode=bd.opcodes[i],
                        lane=lane,
                        size_a=size_a,
                        size_b=meta.cardinality,
                        output_size=int(counts[i]),
                        backend=bd.backends[i],
                        variant=bd.variants[i],
                    )
                )
        return counts

    def count_stage(
        self,
        kind: str,
        probes: np.ndarray,
        offsets: np.ndarray,
        frontier: np.ndarray,
        *,
        scan: bool = False,
        fetch_cardinalities: bool = False,
    ) -> np.ndarray:
        """Execute a whole stage of count-form bursts in a few calls.

        Task ``t`` opens a task (``begin_task``), optionally iterates
        its probe set ``probes[t]`` (``scan``: the set iterator's
        charged stream), issues the count burst of ``probes[t]``
        against ``frontier[offsets[t]:offsets[t + 1]]`` and, with
        ``fetch_cardinalities`` and a non-empty burst, fetches
        ``|probes[t]|`` and then every ``|B_i|``.  Returns every
        burst's counts, concatenated in frontier order.

        Outputs, lane charges and task placement, dispatch stats, SMB
        and decision-memo state, trace events and observability feeds
        are exactly those of the per-task stream (``begin_task`` +
        ``elements`` + ``*_count_batch`` + ``cardinality``); what is
        amortized is the Python per-burst overhead.  Tasks run in
        chunks of at most ~:data:`~repro.runtime.batch.STAGE_PROBE_BUDGET`
        probe elements, each chunk one flat kernel call
        (:func:`~repro.runtime.batch.stage_intersect_counts`), one SCU
        pass (:meth:`~repro.isa.scu.Scu.dispatch_stage_batch`) and one
        engine pass (:meth:`~repro.hw.engine.ExecutionEngine.charge_tasks`).
        """
        op = self._COUNT_OPS[kind]
        probes = np.asarray(probes, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        frontier = np.asarray(frontier, dtype=np.int64)
        ntasks = probes.size
        counts = np.zeros(frontier.size, dtype=np.int64)
        if ntasks == 0:
            return counts
        # Rank the stage's operand sets through a table over set ids
        # (SM ids stay dense: freed ids are recycled).
        used = np.zeros(max(probes.max(), frontier.max(initial=0)) + 1, dtype=bool)
        used[probes] = True
        used[frontier] = True
        ids = np.flatnonzero(used)
        rank_of = np.cumsum(used, dtype=np.int32)
        rank_of -= 1
        p_rank = rank_of[probes]
        f_rank = rank_of[frontier]
        del used, rank_of
        operands = StageOperands(ids, self.sm.metas_of(ids.tolist()))
        layout = batchmod.StageLayout(self.sm.values_of(ids.tolist()))
        cards = layout.cards
        k = np.diff(offsets)
        scans = None
        if scan:
            # Scan cost components by probe size: (sizes, costs) rows.
            sizes = np.unique(cards[p_rank])
            scans = sizes, np.asarray(
                [
                    (c.compute_cycles, c.memory_bytes, c.latency_cycles)
                    for c in map(self._scan_cost, sizes.tolist())
                ],
                dtype=np.float64,
            )
        # Chunk boundaries: every task starts in the chunk its leading
        # cumulative work falls in, counting each probe element once
        # and each op and task as the few elements their bookkeeping
        # costs (so empty-set work is bounded too).
        work = np.zeros(frontier.size + 1, dtype=np.int64)
        np.minimum(cards[f_rank], cards[np.repeat(p_rank, k)], out=work[1:])
        work[1:] += _STAGE_OP_WORK
        np.cumsum(work, out=work)
        chunk_of = (
            work[offsets[:-1]] + _STAGE_TASK_WORK * np.arange(ntasks)
        ) // batchmod.STAGE_PROBE_BUDGET
        del work
        bounds = [0, *(np.flatnonzero(np.diff(chunk_of)) + 1).tolist(), ntasks]
        for t0, t1 in zip(bounds[:-1], bounds[1:]):
            o0, o1 = int(offsets[t0]), int(offsets[t1])
            self._count_stage_chunk(
                op, kind, operands, layout, p_rank[t0:t1],
                offsets[t0:t1 + 1] - o0, f_rank[o0:o1],
                scans,
                fetch_cardinalities, counts[o0:o1],
            )
        return counts

    def _count_stage_chunk(
        self, op, kind, operands, layout, probes, offsets, frontier,
        scans, fetch_cardinalities, out,
    ) -> None:
        """One chunk of :meth:`count_stage`: kernel, SCU pass, engine
        pass, then the observation-only feeds; counts land in ``out``."""
        obs = self.obs
        engine = self.engine
        span = (
            obs.kernel_start(f"{kind}_stage", int(frontier.size))
            if obs is not None
            else None
        )
        w0 = engine.work_cycles() if obs is not None else 0.0
        k = np.diff(offsets)
        a = np.repeat(probes, k)
        cards = layout.cards
        inter = batchmod.stage_intersect_counts(layout, a, frontier)
        out[:] = batchmod.derive_counts(kind, cards[a], cards[frontier], inter)
        sd = self.scu.dispatch_stage_batch(
            op, operands, probes, offsets, frontier,
            fetch_cardinalities=fetch_cardinalities,
        )
        # Per task: [scan] + the burst's ops + the cardinality fetches.
        lead = 0 if scans is None else 1
        fetched = np.diff(sd.fetch_offsets)
        task_start = np.zeros(k.size + 1, dtype=np.int64)
        np.cumsum(lead + k + fetched, out=task_start[1:])
        size = int(task_start[-1])
        compute = np.zeros(size)
        memory = np.zeros(size)
        latency = np.zeros(size)
        if scans is not None:
            sizes, costs = scans
            scan = costs[np.searchsorted(sizes, cards[probes])]
            heads = task_start[:-1]
            compute[heads] = scan[:, 0]
            memory[heads] = scan[:, 1]
            latency[heads] = scan[:, 2]
        op_pos = np.repeat(task_start[:-1] + lead - offsets[:-1], k)
        op_pos += np.arange(frontier.size, dtype=np.int64)
        compute[op_pos] = sd.compute
        memory[op_pos] = sd.memory
        latency[op_pos] = sd.latency
        fetch_start = sd.fetch_offsets
        fetch_pos = np.repeat(task_start[:-1] + lead + k - fetch_start[:-1], fetched)
        fetch_pos += np.arange(int(fetch_start[-1]), dtype=np.int64)
        compute[fetch_pos] = sd.fetch_compute
        latency[fetch_pos] = sd.fetch_latency
        lanes = engine.charge_tasks(
            task_start.tolist(), compute.tolist(), memory.tolist(), latency.tolist()
        )
        if lanes:
            self._current_lane = lanes[-1]
        if obs is not None:
            self._observe_stage_chunk(
                span, engine.work_cycles() - w0, sd, offsets,
                cards[probes], cards[frontier],
            )
        if self.trace.enabled:
            key_of = sd.key_of.tolist()
            op_lanes = np.repeat(lanes, k).tolist()
            sizes_a = cards[a].tolist()
            sizes_b = cards[frontier].tolist()
            record = self.trace.record
            for i, kk in enumerate(key_of):
                record(
                    TraceEvent(
                        opcode=sd.opcodes[kk],
                        lane=op_lanes[i],
                        size_a=sizes_a[i],
                        size_b=sizes_b[i],
                        output_size=int(out[i]),
                        backend=sd.backends[kk],
                        variant=sd.variants[kk],
                    )
                )

    def _observe_stage_chunk(
        self, span, cycles, sd, offsets, sizes_a, sizes_b
    ) -> None:
        """Observability feeds of one stage chunk: its kernel span with
        the chunk's exact modeled work, plus every non-empty burst's
        modeled cycles and set sizes as per-burst ``kernel_end`` calls
        would have fed them."""
        obs = self.obs
        if obs is None:
            return
        bpc = self.engine.bytes_per_cycle
        compute = sd.compute.tolist()
        memory = sd.memory.tolist()
        latency = sd.latency.tolist()
        bounds = offsets.tolist()
        bursts = []
        probe_sizes = []
        for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                bursts.append(
                    sum(compute[lo:hi])
                    + sum(latency[lo:hi])
                    + sum(memory[lo:hi]) / bpc
                )
                probe_sizes.append(int(sizes_a[t]))
        obs.kernel_stage_end(span, cycles, bursts, probe_sizes, sizes_b.tolist())

    def intersect_many(self, *set_ids: int) -> int:
        """CISC-style multi-set intersection ``A1 ∩ ... ∩ Al`` in one
        instruction (paper Section 11's proposed extension).

        Functionally it folds pairwise intersections smallest-first;
        its timing advantage over a chain of binary instructions is a
        single dispatch/metadata phase and no write-back of the
        intermediate results (they stay in the accelerator).
        """
        if len(set_ids) < 2:
            raise ConfigError("intersect_many needs at least two sets")
        from repro.isa.metadata import SetMeta

        ordered = sorted(set_ids, key=lambda sid: self.sm.meta(sid).cardinality)
        values = [self.sm.value(sid) for sid in ordered]
        result = values[0]
        total_cost = Cost()
        sizes_trace = []
        for sid, value in zip(ordered[1:], values[1:]):
            # The running intermediate stays inside the accelerator; it
            # is described by an ephemeral metadata record, not an SM
            # entry.
            running_meta = SetMeta(
                set_id=ordered[0],
                representation=result.representation,
                cardinality=result.cardinality,
                universe=result.universe,
                address=0,
            )
            inter = kernels.intersect(result, value)
            # Chain step cost: the binary-op cost without the output
            # write (output_size=0), since the intermediate never
            # leaves the accelerator.
            step = self.scu.dispatch_binary(
                SetOp.INTERSECT,
                running_meta,
                self.sm.meta(sid),
                output_size=0,
                count_only=False,
            )
            sizes_trace.append((result.cardinality, value.cardinality))
            result = inter
            total_cost += step.cost
        # One final output write.
        total_cost += Cost(
            memory_bytes=result.cardinality * self.hw.word_bits / 8
        )
        self.engine.charge(total_cost)
        if self.trace.enabled:
            self.trace.record(
                TraceEvent(
                    opcode=Opcode.INTERSECT_MANY,
                    lane=self._current_lane,
                    size_a=sizes_trace[0][0] if sizes_trace else 0,
                    size_b=sizes_trace[0][1] if sizes_trace else 0,
                    output_size=result.cardinality,
                    backend="pim",
                    variant="chained",
                )
            )
        return self.sm.register(result)

    # In-place variants ("∩=", "∪=", "\\=" in the listings).

    def intersect_into(self, a: int, b: int) -> None:
        self.sm.update(a, self._binary(SetOp.INTERSECT, a, b))

    def union_into(self, a: int, b: int) -> None:
        self.sm.update(a, self._binary(SetOp.UNION, a, b))

    def difference_into(self, a: int, b: int) -> None:
        self.sm.update(a, self._binary(SetOp.DIFFERENCE, a, b))

    # ------------------------------------------------------------------
    # Scalar / element operations
    # ------------------------------------------------------------------

    def cardinality(self, set_id: int) -> int:
        dispatch = self.scu.dispatch_cardinality(self.sm.meta(set_id))
        self.engine.charge(dispatch.cost)
        return self.sm.meta(set_id).cardinality

    def member(self, set_id: int, x: int) -> bool:
        dispatch = self.scu.dispatch_member(self.sm.meta(set_id))
        self.engine.charge(dispatch.cost)
        return self.sm.value(set_id).contains(x)

    def insert(self, set_id: int, x: int) -> None:
        """``A ∪= {x}`` (Table 5 opcode 0x5 for DBs)."""
        dispatch = self.scu.dispatch_element_update(
            self.sm.meta(set_id), insert=True
        )
        self.engine.charge(dispatch.cost)
        value = self.sm.value(set_id)
        self.sm.update(set_id, value.with_element(x))

    def remove(self, set_id: int, x: int) -> None:
        """``A \\= {x}`` (Table 5 opcode 0x6 for DBs)."""
        dispatch = self.scu.dispatch_element_update(
            self.sm.meta(set_id), insert=False
        )
        self.engine.charge(dispatch.cost)
        value = self.sm.value(set_id)
        self.sm.update(set_id, value.without_element(x))

    # ------------------------------------------------------------------
    # Batched element updates (amortized dispatch over an update burst)
    # ------------------------------------------------------------------

    def _element_update_batch(self, updates, *, insert: bool) -> np.ndarray:
        """Apply ``(set_id, x)`` element updates as one dispatch burst.

        Functionally each target set is rewritten once by a bulk
        ``with_elements``/``without_elements`` merge; timing-wise the
        SCU dispatches one element-update instruction per requested
        update, in stream order, each observing the cardinality the
        equivalent sequential ``insert``/``remove`` stream would have
        seen (no-op updates — element already present/absent — still
        dispatch and pay, exactly like the scalar path).  Returns a
        bool array marking which updates took effect (the changed-bit
        an update instruction reports back).
        """
        n = len(updates)
        if n == 0:
            return np.zeros(0, dtype=bool)
        obs = self.obs
        span = (
            obs.kernel_start("insert" if insert else "remove", n)
            if obs is not None
            else None
        )
        sm = self.sm
        # Group updates per target set, remembering stream positions.
        groups: dict[int, list[tuple[int, int]]] = {}
        for pos, (set_id, x) in enumerate(updates):
            groups.setdefault(int(set_id), []).append((pos, int(x)))
        metas = [sm.meta(int(set_id)) for set_id, _ in updates]
        cards = [0] * n
        effective = np.zeros(n, dtype=bool)
        new_values: list[tuple[int, VertexSet]] = []
        for set_id, items in groups.items():
            value = sm.value(set_id)
            xs = np.asarray([x for _, x in items], dtype=np.int64)
            present = value.contains_many(xs)
            card = value.cardinality
            applied: set[int] = set()
            changed: list[int] = []
            for (pos, x), was_present in zip(items, present):
                cards[pos] = card
                takes_effect = (
                    (not was_present and x not in applied)
                    if insert
                    else (was_present and x not in applied)
                )
                if takes_effect:
                    applied.add(x)
                    changed.append(x)
                    card += 1 if insert else -1
                    effective[pos] = True
            if changed:
                arr = np.asarray(changed, dtype=np.int64)
                new_values.append(
                    (set_id, value.with_elements(arr) if insert else value.without_elements(arr))
                )
        bd = self.scu.dispatch_element_update_batch(metas, cards, insert=insert)
        self.engine.charge_batch(bd.compute, bd.memory, bd.latency)
        if obs is not None:
            obs.kernel_end(
                span,
                sum(bd.compute)
                + sum(bd.latency)
                + sum(bd.memory) / self.engine.bytes_per_cycle,
                None,
                cards,
            )
        for set_id, value in new_values:
            sm.update(set_id, value)
        return effective

    def insert_batch(self, updates) -> np.ndarray:
        """Batched ``A_i ∪= {x_i}`` for ``(set_id, x)`` pairs: one
        amortized dispatch burst, cycle-identical to the sequential
        ``insert`` stream."""
        return self._element_update_batch(updates, insert=True)

    def remove_batch(self, updates) -> np.ndarray:
        """Batched ``A_i \\= {x_i}`` for ``(set_id, x)`` pairs."""
        return self._element_update_batch(updates, insert=False)

    def convert_representation(self, set_id: int, *, dense: bool) -> bool:
        """Re-materialize a set in the other representation (SA ↔ DB).

        The paper fixes representations at program start (Section 6.1);
        a streaming workload re-decides them as neighborhoods grow or
        shrink across the density threshold.  Modeled as one streaming
        read of the old representation plus a CREATE of the new one;
        the logical set id (and its SM entry) is preserved.  Returns
        True when a conversion actually happened.
        """
        value = self.sm.value(set_id)
        if isinstance(value, DenseBitvector) == dense:
            return False
        size = value.cardinality
        self.engine.charge(self._scan_cost(size))
        dispatch = self.scu.dispatch_create(
            size, dense=dense, universe=value.universe
        )
        self.engine.charge(dispatch.cost)
        arr = value.to_array()
        new_value: VertexSet
        if dense:
            new_value = DenseBitvector.from_elements(arr, value.universe)
        else:
            new_value = SparseArray.from_sorted(arr, value.universe)
        self.sm.update(set_id, new_value)
        return True

    def elements(self, set_id: int) -> np.ndarray:
        """Iterate a set (the software layer's set iterator): streams
        the set out of memory once."""
        value = self.sm.value(set_id)
        self.engine.charge(self._scan_cost(value.cardinality))
        return value.to_array()

    def _scan_cost(self, size: int) -> Cost:
        """The set iterator's streaming cost for a set of ``size``."""
        cost = self._scan_costs.get(size)
        if cost is None:
            if self.mode == "cpu-set":
                cost = self.scu.cpu.neighborhood_scan(size)
            else:
                cost = self.scu.pnm.scan(size)
            self._scan_costs[size] = cost
        return cost

    def is_empty(self, set_id: int) -> bool:
        return self.cardinality(set_id) == 0

    # ------------------------------------------------------------------
    # Host-side (non-SISA) work
    # ------------------------------------------------------------------

    def charge_host(self, cost: Cost) -> None:
        """Charge non-SISA instruction work (loop control, scoring, ...)."""
        self.engine.charge(cost)

    def charge_host_ops(self, operations: float) -> None:
        self.engine.charge(Cost(compute_cycles=operations))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def mark(self) -> "ContextMark":
        """Snapshot engine + SCU + SM state (start of a run).

        The session API brackets each ``run`` with a mark so a
        long-lived context can still report per-run cycles, instruction
        stats and set registrations.  On a fresh context the deltas are
        bit-identical to the absolute report.
        """
        return ContextMark(
            engine=self.engine.mark(),
            stats=self.scu.stats.snapshot(),
            registrations=self.sm.registrations,
        )

    def report_since(self, mark: "ContextMark") -> EngineReport:
        return self.engine.report_since(mark.engine)

    def stats_since(self, mark: "ContextMark"):
        return self.scu.stats.since(mark.stats)

    def registrations_since(self, mark: "ContextMark") -> int:
        return self.sm.registrations - mark.registrations

    def report(self) -> EngineReport:
        return self.engine.report()

    @property
    def runtime_cycles(self) -> float:
        return self.engine.runtime_cycles

    @property
    def instruction_count(self) -> int:
        return self.scu.stats.instructions

    def opcode_counts(self) -> dict[Opcode, int]:
        return dict(self.scu.stats.by_opcode)
