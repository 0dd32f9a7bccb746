"""Batched set-instruction execution: the functional fan-out kernels.

This module implements the *functional* half of SISA's batched
count-form instructions.  It maps to the paper's Section 6.2.3:
cardinality-of-result instruction variants (``|A ∩ B|``, ``|A ∪ B|``,
``|A \\ B|``) exist precisely so graph-mining kernels never materialize
intermediate sets.  Graph algorithms issue these instructions in dense
bursts — one probe set ``A`` (a neighborhood or a running candidate
set) against a whole frontier ``B_1 .. B_k`` — so the runtime exposes a
batched form (:meth:`repro.runtime.context.SisaContext.intersect_count_batch`
and friends) that:

* fetches operand values/metadata once per frontier,
* runs ONE vectorized kernel over the concatenated (CSR-style) element
  arrays of all sparse operands instead of ``k`` per-op kernel
  launches (:func:`repro.sets.kernels.intersect_count_flat_sa` /
  ``intersect_count_flat_db``),
* charges the SCU the aggregate of the per-op model costs through
  :meth:`repro.isa.scu.Scu.dispatch_binary_batch`, preserving per-op
  stats, SMB behaviour and bit-identical simulated cycles.

Only interpreter overhead is amortized; the modeled hardware cost of a
batch equals that of the equivalent sequential instruction stream.

Union and difference counts are derived from the intersection counts
by the identities ``|A ∪ B| = |A| + |B| - |A ∩ B|`` and
``|A \\ B| = |A| - |A ∩ B|`` — the same identities the scalar
cardinality kernels use, so results match exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SetError
from repro.sets import kernels
from repro.sets.base import VertexSet
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import SparseArray


def intersect_counts(a: VertexSet, values: Sequence[VertexSet]) -> np.ndarray:
    """``|A ∩ B_i|`` for every ``B_i``, with zero materialization.

    Sparse operands are concatenated into one flat frontier array and
    counted in a single vectorized pass; dense operands are counted by
    per-set popcounts/bit probes (their words are already contiguous).
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        v = values[0]
        if v.universe != a.universe:
            raise SetError(f"universe mismatch: {a.universe} vs {v.universe}")
        return np.asarray([kernels.intersect_cardinality(a, v)], dtype=np.int64)
    universe = a.universe
    sa_idx: list[int] = []
    sa_arrays: list[np.ndarray] = []
    db_pairs: list[tuple[int, DenseBitvector]] = []
    boundaries = [0]
    total = 0
    for i, v in enumerate(values):
        if v.universe != universe:
            raise SetError(f"universe mismatch: {universe} vs {v.universe}")
        if type(v) is SparseArray:
            arr = v.elements
            total += arr.size
            boundaries.append(total)
            sa_idx.append(i)
            sa_arrays.append(arr)
        else:
            db_pairs.append((i, v))
    if not db_pairs and type(a) is SparseArray:
        # Hot path (all-SA frontier, SA probe): skip the scatter back
        # through an index list.
        flat = np.concatenate(sa_arrays)
        return kernels.intersect_count_flat_sa(
            a.to_array(), flat, np.asarray(boundaries)
        )
    out = np.zeros(n, dtype=np.int64)
    if sa_idx:
        flat = np.concatenate(sa_arrays)
        offsets = np.asarray(boundaries)
        if isinstance(a, DenseBitvector):
            out[sa_idx] = kernels.intersect_count_flat_db(a.words, flat, offsets)
        else:
            out[sa_idx] = kernels.intersect_count_flat_sa(
                a.to_array(), flat, offsets
            )
    if db_pairs:
        if isinstance(a, DenseBitvector):
            for i, v in db_pairs:
                out[i] = kernels.intersect_count_db_db(a, v)
        else:
            arr = a.elements
            if arr.size:
                word_idx = arr // 64
                shift = (arr % 64).astype(np.uint64)
                one = np.uint64(1)
                for i, v in db_pairs:
                    out[i] = int(
                        np.count_nonzero((v.words[word_idx] >> shift) & one)
                    )
    return out


def intersect_values(a: VertexSet, values: Sequence[VertexSet]) -> list[VertexSet]:
    """Materializing batched intersection ``A ∩ B_i`` for every ``B_i``.

    Sparse operands are probed against ``A`` in one vectorized pass;
    each result is a zero-copy slice of the single flattened hit array
    (segment hits preserve the segment's sorted order, so the slices
    are valid sorted SAs as-is).  Dense operands fall back to the
    pairwise kernels — their results stay dense and word-contiguous.
    """
    n = len(values)
    results: list[VertexSet | None] = [None] * n
    if n == 0:
        return []  # type: ignore[return-value]
    universe = a.universe
    sa_idx: list[int] = []
    sa_arrays: list[np.ndarray] = []
    boundaries = [0]
    total = 0
    for i, v in enumerate(values):
        if v.universe != universe:
            raise SetError(f"universe mismatch: {universe} vs {v.universe}")
        if type(v) is SparseArray:
            # Segment hits inherit the segment's order; materialized
            # results must be sorted SAs, so unsorted operands are
            # probed via their sorted view.
            arr = v.elements if v.is_sorted else v.to_array()
            total += arr.size
            boundaries.append(total)
            sa_idx.append(i)
            sa_arrays.append(arr)
        else:
            results[i] = kernels.intersect(a, v)
    if sa_idx:
        flat = np.concatenate(sa_arrays)
        offsets = np.asarray(boundaries)
        if isinstance(a, DenseBitvector):
            mask = kernels._probe_bits(a.words, flat) if flat.size else np.zeros(0, bool)
        else:
            mask = kernels._probe_sorted(a.to_array(), flat)
        hits = flat[mask]
        cum = np.zeros(mask.size + 1, dtype=np.int64)
        np.cumsum(mask, dtype=np.int64, out=cum[1:])
        starts = cum[offsets[:-1]]
        ends = cum[offsets[1:]]
        for j, i in enumerate(sa_idx):
            results[i] = SparseArray.from_sorted(
                hits[starts[j]:ends[j]], universe
            )
    return results  # type: ignore[return-value]


def union_values(a: VertexSet, values: Sequence[VertexSet]) -> list[VertexSet]:
    """Materializing batched union ``A ∪ B_i`` for every ``B_i``.

    All-sparse frontiers run as one flat probe pass (which elements of
    each ``B_i`` are new w.r.t. ``A``) followed by a per-segment
    disjoint merge with ``A``'s sorted array — representation for
    representation the same results as :func:`repro.sets.kernels.union`
    per pair; dense operands fall back to the pairwise kernels (their
    results stay dense).
    """
    n = len(values)
    if n == 0:
        return []
    universe = a.universe
    results: list[VertexSet | None] = [None] * n
    sa_idx: list[int] = []
    sa_arrays: list[np.ndarray] = []
    boundaries = [0]
    total = 0
    for i, v in enumerate(values):
        if v.universe != universe:
            raise SetError(f"universe mismatch: {universe} vs {v.universe}")
        if type(v) is SparseArray and type(a) is SparseArray:
            arr = v.elements if v.is_sorted else v.to_array()
            total += arr.size
            boundaries.append(total)
            sa_idx.append(i)
            sa_arrays.append(arr)
        else:
            results[i] = kernels.union(a, v)
    if sa_idx:
        arr_a = a.to_array()
        flat = np.concatenate(sa_arrays)
        offsets = np.asarray(boundaries)
        mask = kernels._probe_sorted(arr_a, flat)
        for j, i in enumerate(sa_idx):
            seg = flat[offsets[j]:offsets[j + 1]]
            new = seg[~mask[offsets[j]:offsets[j + 1]]]
            results[i] = SparseArray.from_sorted(
                kernels._merge_sorted_disjoint(arr_a, new), universe
            )
    return results  # type: ignore[return-value]


def difference_values(a: VertexSet, values: Sequence[VertexSet]) -> list[VertexSet]:
    """Materializing batched difference ``A \\ B_i`` for every ``B_i``.

    The probe direction is per-operand (``A``'s elements against each
    ``B_i``), so there is no shared flat pass; the batch amortizes the
    dispatch/metadata phase while each result comes from the same
    pairwise kernel the scalar stream runs.
    """
    results: list[VertexSet] = []
    universe = a.universe
    for v in values:
        if v.universe != universe:
            raise SetError(f"universe mismatch: {universe} vs {v.universe}")
        results.append(kernels.difference(a, v))
    return results


class StageLayout:
    """Every operand set of one whole count stage, flattened once.

    Sets are addressed by their *rank* (position in ``values``).  Set
    ``r``'s sorted elements ``x`` sit in ``keys[offsets[r]:offsets[r +
    1]]`` as ``r * universe + x``, so the per-set sorted arrays
    concatenate into one globally sorted array and "is ``x`` in set
    ``r``" is one ``searchsorted`` probe of the whole stage.  Dense
    bitvectors additionally keep their words, concatenated, for
    bit-gather probes.
    """

    def __init__(self, values: Sequence[VertexSet]):
        universe = values[0].universe if values else 0
        arrays: list = []
        for v in values:
            if v.universe != universe:
                raise SetError(f"universe mismatch: {universe} vs {v.universe}")
            arrays.append(None if type(v) is DenseBitvector else v.to_array())
        dense = [i for i, a in enumerate(arrays) if a is None]
        # Word offset of every DB's bitvector in ``words`` (-1: an SA).
        self.word_base = np.full(len(arrays), -1, dtype=np.int64)
        self.words = None
        if dense:
            words = np.stack([values[i].words for i in dense])
            nwords = words.shape[1]
            self.word_base[dense] = np.arange(len(dense)) * nwords
            self.words = words.ravel()
            # Every DB's elements from one bit unpack per block of rows.
            step = max(1, (1 << 22) // max(universe, 1))
            for b0 in range(0, len(dense), step):
                bits = np.unpackbits(
                    words[b0:b0 + step].view(np.uint8),
                    axis=1,
                    count=universe,
                    bitorder="little",
                )
                rows, elems = np.nonzero(bits)
                ends = np.cumsum(np.bincount(rows, minlength=bits.shape[0]))
                for i, part in zip(dense[b0:b0 + step], np.split(elems, ends[:-1])):
                    arrays[i] = part
        self.universe = universe
        self.cards = np.fromiter(
            (a.size for a in arrays), dtype=np.int64, count=len(arrays)
        )
        self.offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(self.cards, out=self.offsets[1:])
        # Half-width keys whenever every ``rank * universe + x`` fits.
        dtype = np.int32 if len(arrays) * universe < 1 << 31 else np.int64
        self.keys = np.repeat(
            np.arange(len(arrays), dtype=dtype) * dtype(universe), self.cards
        )
        if arrays:
            self.keys += np.concatenate(arrays).astype(dtype, copy=False)


#: Work budget of one stage chunk, in probe elements: the stage executor
#: splits a stage into chunks under it (weighing each op and task as a
#: few elements of bookkeeping), so one :func:`stage_intersect_counts`
#: call and its SCU and engine passes stay a few MB on any graph.
STAGE_PROBE_BUDGET = 1 << 16


def stage_intersect_counts(
    layout: StageLayout, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``|A_i ∩ B_i|`` for every rank pair ``(a[i], b[i])`` of a stage.

    One vectorized pass: each pair probes its smaller operand's
    elements into the larger one — a bit gather when the larger is a
    dense bitvector, a keyed ``searchsorted`` over ``layout.keys``
    otherwise — and the hits are summed per pair.  Work and temporaries
    scale with ``Σ min(|A_i|, |B_i|)``, which callers keep under
    :data:`STAGE_PROBE_BUDGET` per call.
    """
    cards = layout.cards
    ca = cards[a]
    cb = cards[b]
    swap = ca > cb
    probe = np.where(swap, b, a)
    target = np.where(swap, a, b)
    lens = np.where(swap, cb, ca)
    if layout.words is None:
        return _probe_counts(layout, probe, target, lens, dense=False)
    counts = np.empty(a.size, dtype=np.int64)
    into_db = layout.word_base[target] >= 0
    for dense in (False, True):
        sel = into_db if dense else ~into_db
        counts[sel] = _probe_counts(
            layout, probe[sel], target[sel], lens[sel], dense=dense
        )
    return counts


def _probe_counts(
    layout: StageLayout,
    probe: np.ndarray,
    target: np.ndarray,
    lens: np.ndarray,
    *,
    dense: bool,
) -> np.ndarray:
    """Per pair, how many of the probe set's elements the target set
    holds (all targets dense, or all sparse)."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.zeros(lens.size, dtype=np.int64)
    starts = ends - lens
    # Flat gather index of every probe element: the probe set's start
    # offset, plus the element's position within its pair's segment.
    keys = layout.keys
    idx = np.repeat(layout.offsets[probe] - starts, lens)
    idx += np.arange(total, dtype=np.int64)
    vals = keys[idx]
    del idx
    vals -= np.repeat(probe.astype(keys.dtype) * layout.universe, lens)
    if dense:
        word = np.repeat(layout.word_base[target], lens)
        word += vals >> 6
        bits = layout.words[word]
        del word
        bits >>= (vals & 63).astype(np.uint64)
        bits &= np.uint64(1)
        hit = bits.astype(bool)
    else:
        q = np.repeat(target.astype(keys.dtype) * layout.universe, lens)
        q += vals
        del vals
        pos = np.searchsorted(keys, q)
        np.minimum(pos, keys.size - 1, out=pos)
        hit = keys[pos] == q
    hits = np.flatnonzero(hit)
    return np.searchsorted(hits, ends) - np.searchsorted(hits, starts)


def derive_counts(
    op_kind: str,
    a_cardinality: int,
    b_cardinalities: np.ndarray,
    inter: np.ndarray,
) -> np.ndarray:
    """Turn intersection counts into the requested count form."""
    if op_kind == "intersect":
        return inter
    if op_kind == "union":
        return a_cardinality + b_cardinalities - inter
    if op_kind == "difference":
        return a_cardinality - inter
    raise SetError(f"unknown count form {op_kind!r}")
