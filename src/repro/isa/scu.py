"""The SISA Controller Unit (SCU).

The SCU receives SISA instructions from the host core, looks up operand
metadata (through the SMB cache), and schedules execution on the most
beneficial accelerator (paper Sections 3, 8.2):

* two dense bitvectors  -> SISA-PUM (in-situ bulk bitwise),
* anything else         -> SISA-PNM (logic-layer cores), with the
  merge-vs-galloping choice made by the Section 8.3 performance models.

In ``host_fallback`` mode the same decisions are made but the set
algorithms run on the host CPU model instead of PIM — this is the
paper's ``_set-based`` baseline (set-centric formulations without
memory acceleration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import IsaError
from repro.hw.cache import LruCache
from repro.hw.config import CpuConfig, HardwareConfig
from repro.hw.cost import Cost
from repro.hw.cpu import CpuBackend
from repro.hw.pnm import PnmBackend
from repro.hw.pum import PumBackend
from repro.isa.metadata import SetMeta
from repro.isa.opcodes import Opcode, SetOp
from repro.isa.perfmodel import choose_intersection_variant
from repro.sets.base import Representation


@dataclass
class DispatchStats:
    """Counters the evaluation section reports on."""

    instructions: int = 0
    pum_ops: int = 0
    pnm_ops: int = 0
    host_ops: int = 0
    merge_picks: int = 0
    gallop_picks: int = 0
    fused_macros: int = 0  # cross-task fused count-burst macros issued
    by_opcode: dict[Opcode, int] = field(default_factory=dict)

    def record(self, opcode: Opcode) -> None:
        self.instructions += 1
        self.by_opcode[opcode] = self.by_opcode.get(opcode, 0) + 1

    def snapshot(self) -> "DispatchStats":
        """A frozen copy of the counters (start of a new run)."""
        return DispatchStats(
            instructions=self.instructions,
            pum_ops=self.pum_ops,
            pnm_ops=self.pnm_ops,
            host_ops=self.host_ops,
            merge_picks=self.merge_picks,
            gallop_picks=self.gallop_picks,
            fused_macros=self.fused_macros,
            by_opcode=dict(self.by_opcode),
        )

    def since(self, mark: "DispatchStats") -> "DispatchStats":
        """Counter deltas accumulated after ``mark`` (per-run stats)."""
        by_opcode = {
            opcode: count - mark.by_opcode.get(opcode, 0)
            for opcode, count in self.by_opcode.items()
            if count != mark.by_opcode.get(opcode, 0)
        }
        return DispatchStats(
            instructions=self.instructions - mark.instructions,
            pum_ops=self.pum_ops - mark.pum_ops,
            pnm_ops=self.pnm_ops - mark.pnm_ops,
            host_ops=self.host_ops - mark.host_ops,
            merge_picks=self.merge_picks - mark.merge_picks,
            gallop_picks=self.gallop_picks - mark.gallop_picks,
            fused_macros=self.fused_macros - mark.fused_macros,
            by_opcode=by_opcode,
        )

    def add(self, other: "DispatchStats") -> None:
        """Accumulate another delta in place (per-plan attribution of a
        fused batch, where one plan's work arrives in many slices)."""
        self.instructions += other.instructions
        self.pum_ops += other.pum_ops
        self.pnm_ops += other.pnm_ops
        self.host_ops += other.host_ops
        self.merge_picks += other.merge_picks
        self.gallop_picks += other.gallop_picks
        self.fused_macros += other.fused_macros
        for opcode, count in other.by_opcode.items():
            self.by_opcode[opcode] = self.by_opcode.get(opcode, 0) + count


@dataclass(frozen=True)
class Dispatch:
    """Outcome of SCU decision-making for one instruction."""

    opcode: Opcode
    backend: str  # "pum" | "pnm" | "host"
    variant: str  # "merge" | "galloping" | "bitwise" | "probe" | "bitwrite" | ...
    cost: Cost


@dataclass
class BatchDispatch:
    """Outcome of one amortized SCU dispatch over a whole frontier.

    Per-op decisions and cost components are kept as parallel lists so
    the engine can accumulate them in exactly the order a sequential
    instruction stream would have (simulated cycles stay identical);
    only the Python-level dispatch overhead is amortized.
    """

    opcodes: list[Opcode]
    backends: list[str]
    variants: list[str]
    compute: list[float]
    memory: list[float]
    latency: list[float]

    def __len__(self) -> int:
        return len(self.opcodes)


@dataclass
class StageDispatch:
    """Outcome of one SCU pass over a chunk of a whole count stage.

    Decisions are stored once per unique operand-shape key
    (``opcodes``/``backends``/``variants``) and referenced per op by
    ``key_of``; per-op cost components are float64 arrays formed by
    the same float additions, in the same order, as
    :meth:`Scu.dispatch_binary_batch`.  ``fetch_compute`` /
    ``fetch_latency`` cost the post-burst cardinality fetches (their
    memory component is zero); task ``t``'s fetches are
    ``fetch_offsets[t]:fetch_offsets[t + 1]``.
    """

    opcodes: list[Opcode]
    backends: list[str]
    variants: list[str]
    key_of: np.ndarray
    compute: np.ndarray
    memory: np.ndarray
    latency: np.ndarray
    fetch_compute: np.ndarray
    fetch_latency: np.ndarray
    fetch_offsets: np.ndarray


#: Representation codes the stage dispatch packs into shape keys.
_REP_CODE = {
    Representation.SPARSE_SORTED: 0,
    Representation.SPARSE_UNSORTED: 1,
    Representation.DENSE: 2,
}


def _shape_key(
    op: SetOp, a: SetMeta, b: SetMeta, output_size: int, count_only: bool
) -> tuple:
    """The decision-memo key of ``a op b``: everything the variant
    decision and model cost depend on, and nothing else."""
    dense = Representation.DENSE
    a_dense = a.representation is dense
    b_dense = b.representation is dense
    if a_dense and b_dense:
        return ("d", op, count_only, a.universe)
    if a_dense or b_dense:
        sparse_card = b.cardinality if a_dense else a.cardinality
        return ("m", op, a_dense, sparse_card, output_size)
    bigger = a if a.cardinality >= b.cardinality else b
    return (
        "s",
        op,
        a.cardinality,
        b.cardinality,
        output_size,
        bigger.representation is Representation.SPARSE_UNSORTED,
    )


def _first_occurrence_keys(
    ca: np.ndarray, cb: np.ndarray, ra: np.ndarray, rb: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group count-form ops by their :func:`_shape_key` class.

    ``ca``/``cb`` rank the operands' cardinalities (order-preserving,
    below ``2**30``) and ``ra``/``rb`` are their representation codes;
    each op's class, flag and cardinality ranks are packed into one
    int64, unique among the keys of one stage (one op, one universe).
    Returns ``(key_of, first, counts)``: each op's key number (keys
    numbered in first-occurrence order), the first op of every key and
    every key's op count.
    """
    a_dense = ra == 2
    b_dense = rb == 2
    mixed = a_dense != b_dense
    sparse = ~(a_dense | b_dense)
    bigger_unsorted = np.where(ca >= cb, ra, rb) == 1
    cls = np.where(sparse, 4 + bigger_unsorted, np.where(mixed, 2 + a_dense, 0))
    x = np.where(sparse, ca, np.where(mixed, np.where(a_dense, cb, ca), 0))
    y = np.where(sparse, cb, 0)
    __, first, inverse = np.unique(
        (cls << 60) | (x << 30) | y, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    renumber = np.empty_like(order)
    renumber[order] = np.arange(order.size)
    key_of = renumber[inverse.ravel()]
    counts = np.bincount(key_of, minlength=order.size)
    return key_of, first[order], counts


class StageOperands:
    """The SM entries of every operand set of one count stage.

    Sets are addressed by rank (position in ``metas``, whose set ids
    are ``set_ids``).  The shape columns the stage dispatch keys
    decisions on are extracted once per stage.
    """

    def __init__(self, set_ids: np.ndarray, metas: list[SetMeta]):
        n = len(metas)
        code = _REP_CODE
        self.metas = metas
        self.set_ids = set_ids
        cards = np.fromiter((m.cardinality for m in metas), np.int64, n)
        self.card_rank = np.unique(cards, return_inverse=True)[1].ravel()
        self.codes = np.fromiter(
            (code[m.representation] for m in metas), np.int64, n
        )


class Scu:
    """Decides instruction variants and accounts their costs."""

    def __init__(
        self,
        hw: HardwareConfig,
        *,
        host_fallback: bool = False,
        cpu: CpuConfig | None = None,
        gallop_threshold: float | None = None,
        smb_enabled: bool = True,
        decision_memo: dict | None = None,
    ):
        self.hw = hw
        self.host_fallback = host_fallback
        self.gallop_threshold = gallop_threshold
        self.pum = PumBackend(hw)
        self.pnm = PnmBackend(hw)
        self.cpu = CpuBackend(cpu or CpuConfig())
        self.smb = LruCache(hw.smb_entries if smb_enabled else 0)
        self.stats = DispatchStats()
        # Optional observability hub (repro.observability).  Nullable
        # and observation-only: feeds mirror what stats already record,
        # labeled by opcode/backend, and never affect costs.
        self.obs = None
        # Dispatch memoizes (variant decision, model cost) per
        # operand-shape key.  The stored Cost is the exact object a
        # fresh computation would produce, so memoized and fresh
        # dispatches are bit-identical; only Python work is saved.
        # Bounded (see _MEMO_LIMIT): materializing ops key on the
        # output size, so long large-graph runs would otherwise grow
        # the table without bound; past the cap, shapes are simply
        # recomputed, which yields the same values.
        # A SessionPool passes a shared ``decision_memo`` so every
        # session over the same hardware/mode shares one table: the
        # memoized values are pure functions of the operand shapes and
        # the fixed configs, so sharing changes nothing but Python time.
        self._decision_memo: dict[tuple, tuple] = (
            {} if decision_memo is None else decision_memo
        )
        # Optional memo access hook ``(op, key) -> None`` — the race
        # detector's shim.  Every read/fill of the (possibly pool-
        # shared) decision table reports through it; repolint's
        # shared-structure-write rule keeps direct ``_decision_memo``
        # mutation confined to this module so the hook stays complete.
        self.memo_event = None

    _MEMO_LIMIT = 1 << 16

    # ------------------------------------------------------------------
    # Metadata access costs
    # ------------------------------------------------------------------

    def _metadata_cost(self, *set_ids: int) -> Cost:
        """SCU dispatch plus one SM lookup per operand (SMB-cached).

        A miss is one additional access to the in-memory SM structure;
        the SM lives near the SCU (logic layer), so the miss pays the
        near-memory access latency rather than a full off-chip round
        trip (paper Section 8.4, "Set Metadata").
        """
        cost = Cost(compute_cycles=self.hw.scu_dispatch_cycles)
        for set_id in set_ids:
            if self.smb.access(set_id):
                cost += Cost(compute_cycles=self.hw.sm_hit_cycles)
            else:
                cost += Cost(latency_cycles=self.hw.pnm_random_access_cycles)
        return cost

    # ------------------------------------------------------------------
    # Binary set operations
    # ------------------------------------------------------------------

    def dispatch_binary(
        self,
        op: SetOp,
        a: SetMeta,
        b: SetMeta,
        *,
        output_size: int = 0,
        count_only: bool = False,
    ) -> Dispatch:
        """Decide and cost a binary set operation ``a op b``.

        The metadata phase (SCU dispatch + one SMB-cached SM lookup per
        operand, plus the host's descriptor pointer chase in
        ``host_fallback`` mode) is accumulated in the same order as
        :meth:`_metadata_cost`; the variant decision and model cost are
        memoized per operand shape (see :meth:`_decide`).
        """
        hw = self.hw
        comp = hw.scu_dispatch_cycles
        lat = 0.0
        access = self.smb.access
        if access(a.set_id):
            comp += hw.sm_hit_cycles
        else:
            lat += hw.pnm_random_access_cycles
        if access(b.set_id):
            comp += hw.sm_hit_cycles
        else:
            lat += hw.pnm_random_access_cycles
        if self.host_fallback:
            # The host has no SCU/SMB: each set operation starts with a
            # dependent pointer chase to the operand descriptors.
            lat += self.cpu.config.set_op_latency_cycles
        opcode, backend, variant, cost = self._decide(
            op, a, b, output_size, count_only
        )
        self.stats.record(opcode)
        if self.obs is not None:
            self.obs.dispatch(opcode, backend)
        return Dispatch(
            opcode,
            backend,
            variant,
            Cost(
                comp + cost.compute_cycles,
                cost.memory_bytes,
                lat + cost.latency_cycles,
            ),
        )

    def _decide(
        self,
        op: SetOp,
        a: SetMeta,
        b: SetMeta,
        output_size: int,
        count_only: bool,
    ) -> tuple[Opcode, str, str, Cost]:
        """Variant decision + model cost, memoized per operand shape.

        The memo caches the exact objects a fresh computation would
        produce (the decision and cost only depend on the operand
        shapes and the fixed hardware config), so memoized and fresh
        dispatches are bit-identical; backend/variant statistics are
        still updated per call.
        """
        stats = self.stats
        dense = Representation.DENSE
        a_dense = a.representation is dense
        b_dense = b.representation is dense
        key = _shape_key(op, a, b, output_size, count_only)
        hit = self._decision_memo.get(key)
        if self.memo_event is not None:
            self.memo_event("read", key)
        if hit is None:
            if a_dense and b_dense:
                d = self._dispatch_dense_pair(op, a, count_only=count_only)
                picks = 0
            elif a_dense or b_dense:
                d = self._dispatch_mixed(op, a, b, output_size=output_size)
                picks = 0
            else:
                before = stats.gallop_picks
                d = self._dispatch_sparse_pair(op, a, b, output_size=output_size)
                picks = 2 if stats.gallop_picks > before else 1
            if len(self._decision_memo) < self._MEMO_LIMIT:
                self._decision_memo[key] = (
                    d.opcode, d.backend, d.variant, d.cost, picks,
                )
                if self.memo_event is not None:
                    self.memo_event("write-idempotent", key)
            return d.opcode, d.backend, d.variant, d.cost
        opcode, backend, variant, cost, picks = hit
        if backend == "pum":
            stats.pum_ops += 1
        elif backend == "pnm":
            stats.pnm_ops += 1
        else:
            stats.host_ops += 1
        if picks == 1:
            stats.merge_picks += 1
        elif picks == 2:
            stats.gallop_picks += 1
        return opcode, backend, variant, cost

    def dispatch_binary_batch(
        self,
        op: SetOp,
        a: SetMeta,
        bs: list[SetMeta],
        *,
        output_sizes: list[int] | None = None,
        count_only: bool = False,
    ) -> BatchDispatch:
        """Amortized dispatch of ``a op b_i`` for a whole frontier.

        One SCU call replaces ``len(bs)`` :meth:`dispatch_binary` calls.
        Per-op semantics are fully preserved: SMB accesses happen pair
        by pair in instruction order (the LRU trajectory is identical),
        per-op stats are recorded, and every per-op cost is computed by
        the same models — float for float — as the sequential path, so
        simulated cycle totals are identical.  What is amortized is the
        Python-level dispatch overhead: operand metadata is fetched
        once by the caller and variant decisions/model costs are
        memoized per operand shape.
        """
        hw = self.hw
        smb = self.smb
        access = smb.access
        stats = self.stats
        by_opcode = stats.by_opcode
        decide = self._decide
        a_id = a.set_id
        host = self.host_fallback
        disp_c = hw.scu_dispatch_cycles
        hit_c = hw.sm_hit_cycles
        miss_c = hw.pnm_random_access_cycles
        host_c = self.cpu.config.set_op_latency_cycles if host else 0.0
        # After the first op touched A, the A lookup is a guaranteed SMB
        # hit: A is at most second-most-recent, so no later insert can
        # have evicted it (holds for any capacity >= 2).
        a_resident = False
        fast_a = smb.capacity >= 2
        smb_entries = smb._entries
        smb_stats = smb.stats
        opcodes: list[Opcode] = []
        backends: list[str] = []
        variants: list[str] = []
        compute: list[float] = []
        memory: list[float] = []
        latency: list[float] = []
        for i, b in enumerate(bs):
            # Metadata phase: identical accesses and float-accumulation
            # order as `_metadata_cost(a_id, b_id)` + host latency.
            comp = disp_c
            lat = 0.0
            if a_resident:
                smb_entries.move_to_end(a_id)
                smb_stats.hits += 1
                comp += hit_c
            elif access(a_id):
                comp += hit_c
                a_resident = fast_a
            else:
                lat += miss_c
                a_resident = fast_a
            if access(b.set_id):
                comp += hit_c
            else:
                lat += miss_c
            if host:
                lat += host_c
            output_size = 0 if output_sizes is None else output_sizes[i]
            opcode, backend, variant, cost = decide(
                op, a, b, output_size, count_only
            )
            by_opcode[opcode] = by_opcode.get(opcode, 0) + 1
            opcodes.append(opcode)
            backends.append(backend)
            variants.append(variant)
            compute.append(comp + cost.compute_cycles)
            memory.append(cost.memory_bytes)
            latency.append(lat + cost.latency_cycles)
        stats.instructions += len(opcodes)
        if self.obs is not None:
            self.obs.dispatch_batch(opcodes, backends)
        return BatchDispatch(opcodes, backends, variants, compute, memory, latency)

    def dispatch_stage_batch(
        self,
        op: SetOp,
        operands: StageOperands,
        probes: np.ndarray,
        offsets: np.ndarray,
        frontier: np.ndarray,
        *,
        fetch_cardinalities: bool = False,
    ) -> StageDispatch:
        """Amortized dispatch of one chunk of a whole count stage.

        Row ``r`` is one task: the count burst ``probes[r] op b`` for
        every ``b`` in ``frontier[offsets[r]:offsets[r + 1]]`` (ranks
        into ``operands``), followed — with ``fetch_cardinalities`` and
        a non-empty burst — by the fetches ``|probes[r]|`` and then
        every ``|b|``.  The modeled state ends exactly where issuing
        the bursts through :meth:`dispatch_binary_batch` and the
        fetches through :meth:`dispatch_cardinality` would leave it:

        * the SMB replays the chunk's access sequence (a, b₁, a, b₂,
          …, then the fetches) in one loop, so the LRU trajectory and
          hit/miss counts are identical;
        * unique operand-shape keys are resolved in first-occurrence
          order through the shared memo, :meth:`_decide` filling the
          shapes it lacks, so memo fills and their order match; a key's
          later ops add its backend/pick counters (once the memo is
          full, :meth:`_decide` runs for every op of a new shape, as in
          the per-burst stream), and the ``memo_event`` hook sees the
          per-op read/fill sequence;
        * ``by_opcode`` and the observability dispatch counters receive
          new labels in first-dispatch order;
        * per-op cost components are elementwise float adds in the
          sequential order.
        """
        hw = self.hw
        stats = self.stats
        k = np.diff(offsets)
        nops = int(frontier.size)
        a = np.repeat(probes, k)
        b = frontier
        # -- metadata phase: one SMB replay over the access sequence ----
        fetched = (
            np.where(k > 0, k + 1, 0) if fetch_cardinalities else np.zeros_like(k)
        )
        row_start = np.zeros(k.size + 1, dtype=np.int64)
        np.cumsum(2 * k + fetched, out=row_start[1:])
        pos_a = np.repeat(row_start[:-1] - 2 * offsets[:-1], k)
        pos_a += 2 * np.arange(nops, dtype=np.int64)
        seq = np.empty(int(row_start[-1]), dtype=np.int64)
        ids = operands.set_ids
        seq[pos_a] = ids[a]
        seq[pos_a + 1] = ids[b]
        fetch_start = np.zeros(k.size + 1, dtype=np.int64)
        np.cumsum(fetched, out=fetch_start[1:])
        nf = int(fetch_start[-1])
        fpos = np.repeat(row_start[:-1] + 2 * k - fetch_start[:-1], fetched)
        fpos += np.arange(nf, dtype=np.int64)
        if nf:
            heads = fetch_start[:-1][k > 0]
            f_rank = np.empty(nf, dtype=np.int64)
            f_rank[heads] = probes[k > 0]
            rest = np.ones(nf, dtype=bool)
            rest[heads] = False
            f_rank[rest] = b
            seq[fpos] = ids[f_rank]
        hits = np.frombuffer(self.smb.access_many(seq.tolist()), dtype=np.bool_)
        # -- decisions: once per unique shape key -----------------------
        opcodes: list[Opcode] = []
        backends: list[str] = []
        variants: list[str] = []
        costs: list[Cost] = []
        key_of = np.zeros(0, dtype=np.int64)
        if nops:
            key_of, first, counts = _first_occurrence_keys(
                operands.card_rank[a], operands.card_rank[b],
                operands.codes[a], operands.codes[b],
            )
            metas = operands.metas
            memo = self._decision_memo
            hook = self.memo_event
            # Ops whose counters the SCU still has to add (the ops
            # _decide did not already record).
            extras = counts.tolist()
            shape_keys = []
            filled: set[int] = set()
            self.memo_event = None
            try:
                for kk, i in enumerate(first.tolist()):
                    ma = metas[a[i]]
                    mb = metas[b[i]]
                    key = _shape_key(op, ma, mb, 0, True)
                    shape_keys.append(key)
                    entry = memo.get(key)
                    if entry is None:
                        size = len(memo)
                        decision = self._decide(op, ma, mb, 0, True)
                        if len(memo) > size:
                            filled.add(kk)
                            extras[kk] -= 1
                            entry = memo[key]
                        else:
                            # The memo is full: like the per-burst
                            # stream, decide every op of this shape.
                            for __ in range(extras[kk] - 1):
                                self._decide(op, ma, mb, 0, True)
                            extras[kk] = 0
                            entry = (*decision, 0)
                    opcode, backend, variant, cost, picks = entry
                    extra = extras[kk]
                    if backend == "pum":
                        stats.pum_ops += extra
                    elif backend == "pnm":
                        stats.pnm_ops += extra
                    else:
                        stats.host_ops += extra
                    if picks == 1:
                        stats.merge_picks += extra
                    elif picks == 2:
                        stats.gallop_picks += extra
                    opcodes.append(opcode)
                    backends.append(backend)
                    variants.append(variant)
                    costs.append(cost)
            finally:
                self.memo_event = hook
            if hook is not None:
                first_of = first.tolist()
                for i, kk in enumerate(key_of.tolist()):
                    hook("read", shape_keys[kk])
                    if kk in filled and i == first_of[kk]:
                        hook("write-idempotent", shape_keys[kk])
        # -- per-op and per-fetch cost components -----------------------
        disp_c = hw.scu_dispatch_cycles
        hit_c = hw.sm_hit_cycles
        miss_c = hw.pnm_random_access_cycles
        hit_a = hits[pos_a]
        hit_b = hits[pos_a + 1]
        comp = disp_c + np.where(hit_a, hit_c, 0.0)
        comp += np.where(hit_b, hit_c, 0.0)
        lat = np.where(hit_a, 0.0, miss_c)
        lat += np.where(hit_b, 0.0, miss_c)
        if self.host_fallback:
            lat += self.cpu.config.set_op_latency_cycles
        compute = comp + np.asarray([c.compute_cycles for c in costs], dtype=np.float64)[key_of]
        memory = np.asarray([c.memory_bytes for c in costs], dtype=np.float64)[key_of]
        latency = lat + np.asarray([c.latency_cycles for c in costs], dtype=np.float64)[key_of]
        fetch_hit = hits[fpos]
        fetch_compute = disp_c + np.where(fetch_hit, hit_c, 0.0)
        fetch_latency = np.where(fetch_hit, 0.0, miss_c)
        # -- counters: new labels arrive in first-dispatch order -------
        stats.instructions += nops + nf
        firsts = []
        if nops:
            op_pos = pos_a[first].tolist()
            for kk, n in enumerate(counts.tolist()):
                firsts.append((op_pos[kk], opcodes[kk], backends[kk], n))
        if nf:
            firsts.append((int(fpos[0]), Opcode.CARDINALITY, "scu", nf))
        firsts.sort(key=lambda item: item[0])
        by_opcode = stats.by_opcode
        for _, opcode, _, n in firsts:
            by_opcode[opcode] = by_opcode.get(opcode, 0) + n
        if self.obs is not None:
            self.obs.dispatch_counts(
                [((opcode, backend), n) for _, opcode, backend, n in firsts]
            )
        return StageDispatch(
            opcodes, backends, variants, key_of,
            compute, memory, latency, fetch_compute, fetch_latency, fetch_start,
        )

    def dispatch_binary_fused(
        self,
        op: SetOp,
        a: SetMeta,
        bs: list[SetMeta],
        *,
        count_only: bool = True,
        include_decode: bool = False,
    ) -> BatchDispatch:
        """One constituent burst of a *fused* cross-task count macro.

        A plan executor fuses compatible count-form frontier bursts from
        different workload plans into one macro instruction: the SCU
        decodes the macro once and each constituent burst names its
        probe operand once, instead of re-dispatching and re-fetching
        the probe metadata per op as the unfused stream does.  Charging
        rule (the explicit lane-placement model of cross-task fusion):

        * the macro decode (``scu_dispatch_cycles``) is paid once, by
          the constituent with ``include_decode=True`` (the executor
          sets it on the first burst of each macro) — it lands on that
          burst's lane;
        * each constituent pays its probe operand's SMB-cached metadata
          lookup once, on its own lane;
        * each op pays only its frontier operand's metadata lookup plus
          the variant model cost — decided and costed by the very same
          memoized :meth:`_decide` the sequential stream uses, so the
          per-op *work* is unchanged; only the per-op dispatch/metadata
          overhead is elided by the macro encoding.

        Per-op stats and opcodes are recorded exactly like the unfused
        burst (a fused macro is the same logical instruction stream);
        ``stats.fused_macros`` counts the macros.  Not offered in
        ``host_fallback`` mode — the host baseline has no SCU to fuse
        dispatches in, so plan executors fall back to the unfused
        batched stream there.
        """
        if self.host_fallback:
            raise IsaError("fused dispatch requires the SCU (sisa mode)")
        hw = self.hw
        access = self.smb.access
        stats = self.stats
        by_opcode = stats.by_opcode
        decide = self._decide
        hit_c = hw.sm_hit_cycles
        miss_c = hw.pnm_random_access_cycles
        comp0 = hw.scu_dispatch_cycles if include_decode else 0.0
        lat0 = 0.0
        if access(a.set_id):
            comp0 += hit_c
        else:
            lat0 += miss_c
        opcodes: list[Opcode] = []
        backends: list[str] = []
        variants: list[str] = []
        compute: list[float] = []
        memory: list[float] = []
        latency: list[float] = []
        for b in bs:
            comp = comp0
            lat = lat0
            comp0 = 0.0
            lat0 = 0.0
            if access(b.set_id):
                comp += hit_c
            else:
                lat += miss_c
            opcode, backend, variant, cost = decide(op, a, b, 0, count_only)
            by_opcode[opcode] = by_opcode.get(opcode, 0) + 1
            opcodes.append(opcode)
            backends.append(backend)
            variants.append(variant)
            compute.append(comp + cost.compute_cycles)
            memory.append(cost.memory_bytes)
            latency.append(lat + cost.latency_cycles)
        stats.instructions += len(opcodes)
        if include_decode:
            stats.fused_macros += 1
        if self.obs is not None:
            self.obs.dispatch_batch(opcodes, backends)
            if include_decode:
                self.obs.fused_macro()
        return BatchDispatch(opcodes, backends, variants, compute, memory, latency)

    def _dispatch_dense_pair(
        self, op: SetOp, a: SetMeta, *, count_only: bool
    ) -> Dispatch:
        universe = a.universe
        if op in (SetOp.INTERSECT, SetOp.INTERSECT_COUNT):
            opcode = Opcode.INTERSECT_COUNT if count_only else Opcode.INTERSECT_DB_DB
            pim = self.pum.intersect(universe)
        elif op in (SetOp.UNION, SetOp.UNION_COUNT):
            opcode = Opcode.UNION_COUNT if count_only else Opcode.UNION_DB_DB
            pim = self.pum.union(universe)
        elif op in (SetOp.DIFFERENCE, SetOp.DIFFERENCE_COUNT):
            opcode = (
                Opcode.DIFFERENCE_COUNT if count_only else Opcode.DIFFERENCE_DB_DB
            )
            pim = self.pum.difference(universe)
        else:
            raise IsaError(f"not a binary set operation: {op}")
        if count_only:
            pim += self.pum.cardinality_of_result(universe)
        if self.host_fallback:
            self.stats.host_ops += 1
            cost = self.cpu.bitwise(universe, output=not count_only)
            return Dispatch(opcode, "host", "bitwise", cost)
        self.stats.pum_ops += 1
        return Dispatch(opcode, "pum", "bitwise", pim)

    def _dispatch_mixed(
        self, op: SetOp, a: SetMeta, b: SetMeta, *, output_size: int
    ) -> Dispatch:
        sparse = b if a.is_dense else a
        if op in (SetOp.INTERSECT, SetOp.INTERSECT_COUNT):
            opcode = Opcode.INTERSECT_SA_DB
        elif op in (SetOp.UNION, SetOp.UNION_COUNT):
            opcode = Opcode.UNION_SA_DB
        elif op in (SetOp.DIFFERENCE, SetOp.DIFFERENCE_COUNT):
            opcode = Opcode.DIFFERENCE_DB_SA if a.is_dense else Opcode.DIFFERENCE_SA_DB
        else:
            raise IsaError(f"not a binary set operation: {op}")
        if self.host_fallback:
            self.stats.host_ops += 1
            cost = self.cpu.sa_probe_db(sparse.cardinality, output_size=output_size)
            return Dispatch(opcode, "host", "probe", cost)
        self.stats.pnm_ops += 1
        cost = self.pnm.sa_probe_db(sparse.cardinality, output_size=output_size)
        return Dispatch(opcode, "pnm", "probe", cost)

    def _dispatch_sparse_pair(
        self, op: SetOp, a: SetMeta, b: SetMeta, *, output_size: int
    ) -> Dispatch:
        choice = choose_intersection_variant(
            self.hw,
            a.cardinality,
            b.cardinality,
            gallop_threshold=self.gallop_threshold,
        )
        # Galloping needs a sorted larger operand; fall back to merge if
        # the larger set is an unsorted auxiliary SA.
        bigger = a if a.cardinality >= b.cardinality else b
        if (
            choice.variant == "galloping"
            and bigger.representation is Representation.SPARSE_UNSORTED
        ):
            choice = choose_intersection_variant(
                self.hw, a.cardinality, b.cardinality, gallop_threshold=float("inf")
            )
        gallop = choice.variant == "galloping"
        if op in (SetOp.INTERSECT, SetOp.INTERSECT_COUNT):
            opcode = (
                Opcode.INTERSECT_SA_SA_GALLOP if gallop else Opcode.INTERSECT_SA_SA_MERGE
            )
        elif op in (SetOp.UNION, SetOp.UNION_COUNT):
            # Union must touch all elements of both sets; always merge.
            gallop = False
            opcode = Opcode.UNION_SA_SA_MERGE
        elif op in (SetOp.DIFFERENCE, SetOp.DIFFERENCE_COUNT):
            opcode = (
                Opcode.DIFFERENCE_SA_SA_GALLOP
                if gallop
                else Opcode.DIFFERENCE_SA_SA_MERGE
            )
        else:
            raise IsaError(f"not a binary set operation: {op}")
        if gallop:
            self.stats.gallop_picks += 1
        else:
            self.stats.merge_picks += 1
        if self.host_fallback:
            self.stats.host_ops += 1
            if gallop:
                cost = self.cpu.galloping(
                    a.cardinality, b.cardinality, output_size=output_size
                )
            else:
                cost = self.cpu.merge(
                    a.cardinality, b.cardinality, output_size=output_size
                )
            return Dispatch(opcode, "host", choice.variant, cost)
        self.stats.pnm_ops += 1
        if gallop:
            cost = self.pnm.galloping(
                a.cardinality, b.cardinality, output_size=output_size
            )
        else:
            cost = self.pnm.streaming(
                a.cardinality, b.cardinality, output_size=output_size
            )
        return Dispatch(opcode, "pnm", choice.variant, cost)

    # ------------------------------------------------------------------
    # Unary / scalar operations
    # ------------------------------------------------------------------

    def dispatch_cardinality(self, a: SetMeta) -> Dispatch:
        """|A| is O(1): the size lives in the metadata (Section 6.2.3)."""
        cost = self._metadata_cost(a.set_id)
        self.stats.record(Opcode.CARDINALITY)
        if self.obs is not None:
            self.obs.dispatch(Opcode.CARDINALITY, "scu")
        return Dispatch(Opcode.CARDINALITY, "scu", "metadata", cost)

    def dispatch_member(self, a: SetMeta) -> Dispatch:
        cost = self._metadata_cost(a.set_id)
        backend = "host" if self.host_fallback else "pnm"
        unit = self.cpu if self.host_fallback else self.pnm
        if a.is_dense:
            cost += unit.membership_dense()
        elif a.representation is Representation.SPARSE_SORTED:
            cost += unit.membership_sorted(a.cardinality)
        else:
            cost += unit.membership_unsorted(a.cardinality)
        if self.host_fallback:
            self.stats.host_ops += 1
        else:
            self.stats.pnm_ops += 1
        self.stats.record(Opcode.MEMBER)
        if self.obs is not None:
            self.obs.dispatch(Opcode.MEMBER, backend)
        return Dispatch(Opcode.MEMBER, backend, "membership", cost)

    def dispatch_element_update(self, a: SetMeta, *, insert: bool) -> Dispatch:
        cost = self._metadata_cost(a.set_id)
        if a.is_dense:
            opcode = Opcode.INSERT_DB if insert else Opcode.REMOVE_DB
            if self.host_fallback:
                self.stats.host_ops += 1
                cost += self.cpu.bit_write()
                backend = "host"
            else:
                self.stats.pum_ops += 1
                cost += self.pum.bit_write()
                backend = "pum"
            variant = "bitwrite"
        else:
            opcode = Opcode.INSERT_SA if insert else Opcode.REMOVE_SA
            if self.host_fallback:
                self.stats.host_ops += 1
                cost += self.cpu.element_update_sa(a.cardinality)
                backend = "host"
            else:
                self.stats.pnm_ops += 1
                cost += self.pnm.element_update_sa(a.cardinality)
                backend = "pnm"
            variant = "shift"
        self.stats.record(opcode)
        if self.obs is not None:
            self.obs.dispatch(opcode, backend)
        return Dispatch(opcode, backend, variant, cost)

    def dispatch_element_update_batch(
        self,
        metas: list[SetMeta],
        cardinalities: list[int],
        *,
        insert: bool,
    ) -> BatchDispatch:
        """Amortized dispatch of a whole element-update burst.

        ``metas[i]`` is the SM entry of the set the i-th update targets
        and ``cardinalities[i]`` the cardinality that update observes
        (the caller advances it as earlier updates of the burst take
        effect, exactly as the sequential stream's ``sm.update`` calls
        would).  Per-op semantics are preserved: SMB accesses happen
        update by update in instruction order, per-op stats are
        recorded, and each per-op cost is computed by the same models —
        float for float — as :meth:`dispatch_element_update`, so
        simulated cycles are identical to the sequential stream.  Only
        the Python-level dispatch overhead is amortized (the variant
        decision and model cost are memoized per operand shape).
        """
        hw = self.hw
        access = self.smb.access
        stats = self.stats
        by_opcode = stats.by_opcode
        memo = self._decision_memo
        memo_event = self.memo_event
        host = self.host_fallback
        disp_c = hw.scu_dispatch_cycles
        hit_c = hw.sm_hit_cycles
        miss_c = hw.pnm_random_access_cycles
        opcodes: list[Opcode] = []
        backends: list[str] = []
        variants: list[str] = []
        compute: list[float] = []
        memory: list[float] = []
        latency: list[float] = []
        for meta, card in zip(metas, cardinalities):
            comp = disp_c
            lat = 0.0
            if access(meta.set_id):
                comp += hit_c
            else:
                lat += miss_c
            dense = meta.is_dense
            key = ("e", insert, dense, 0 if dense else card)
            hit = memo.get(key)
            if memo_event is not None:
                memo_event("read", key)
            if hit is None:
                if dense:
                    opcode = Opcode.INSERT_DB if insert else Opcode.REMOVE_DB
                    cost = self.cpu.bit_write() if host else self.pum.bit_write()
                    backend = "host" if host else "pum"
                    variant = "bitwrite"
                else:
                    opcode = Opcode.INSERT_SA if insert else Opcode.REMOVE_SA
                    cost = (
                        self.cpu.element_update_sa(card)
                        if host
                        else self.pnm.element_update_sa(card)
                    )
                    backend = "host" if host else "pnm"
                    variant = "shift"
                if len(memo) < self._MEMO_LIMIT:
                    memo[key] = (opcode, backend, variant, cost, 0)
                    if memo_event is not None:
                        memo_event("write-idempotent", key)
            else:
                opcode, backend, variant, cost, _ = hit
            if host:
                stats.host_ops += 1
            elif dense:
                stats.pum_ops += 1
            else:
                stats.pnm_ops += 1
            by_opcode[opcode] = by_opcode.get(opcode, 0) + 1
            opcodes.append(opcode)
            backends.append(backend)
            variants.append(variant)
            compute.append(comp + cost.compute_cycles)
            memory.append(cost.memory_bytes)
            latency.append(lat + cost.latency_cycles)
        stats.instructions += len(opcodes)
        if self.obs is not None:
            self.obs.dispatch_batch(opcodes, backends)
        return BatchDispatch(opcodes, backends, variants, compute, memory, latency)

    def dispatch_create(self, size: int, *, dense: bool, universe: int) -> Dispatch:
        """Allocate + initialize a set.

        Allocation is a standard ``malloc`` plus an SM entry write
        (paper Section 8.4, "Life Cycle of a Set"); the data write
        streams the initial contents.  Empty dense sets are zeroed with
        one bulk row-clear, so only touched rows count.
        """
        bits = self.hw.word_bits * size if not dense else min(
            universe, max(size, 1) * self.hw.word_bits
        )
        cost = Cost(
            compute_cycles=2 * self.hw.scu_dispatch_cycles,
            memory_bytes=bits / 8,
        )
        self.stats.record(Opcode.CREATE)
        return Dispatch(Opcode.CREATE, "pnm", "alloc", cost)

    def dispatch_delete(self, a: SetMeta) -> Dispatch:
        hw = self.hw
        comp = hw.scu_dispatch_cycles
        lat = 0.0
        if self.smb.access(a.set_id):
            comp += hw.sm_hit_cycles
        else:
            lat += hw.pnm_random_access_cycles
        self.smb.invalidate(a.set_id)
        self.stats.record(Opcode.DELETE)
        return Dispatch(Opcode.DELETE, "scu", "free", Cost(comp, 0.0, lat))

    def dispatch_clone(self, a: SetMeta) -> Dispatch:
        """Copy a set.  Dense clones are in-DRAM RowClone copies
        (row-granular, near-free); sparse clones stream the elements."""
        if a.is_dense:
            rows = max(1, a.universe // self.hw.row_size_bits)
            cost = self._metadata_cost(a.set_id) + Cost(
                latency_cycles=rows * self.hw.effective_op_latency_cycles
            )
        else:
            cost = self._metadata_cost(a.set_id) + Cost(
                memory_bytes=a.cardinality * self.hw.word_bits / 8,
                latency_cycles=self.hw.effective_op_latency_cycles,
            )
        self.stats.record(Opcode.CLONE)
        return Dispatch(Opcode.CLONE, "pnm", "copy", cost)
