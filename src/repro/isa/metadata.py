"""The Set Metadata (SM) structure and set-id management.

The SCU maintains, per logical set ID, the set's representation type,
cardinality, and location (paper Sections 3 and 8.4).  Set IDs are
returned by set-creating instructions and used like pointers.  The SM
is conceptually in memory; the SMB cache (``repro.hw.cache``) makes
lookups cheap when metadata is hot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import SetError
from repro.sets.base import Representation, VertexSet


@dataclass(slots=True)
class SetMeta:
    """One SM entry: what the SCU knows about a set."""

    set_id: int
    representation: Representation
    cardinality: int
    universe: int
    # A synthetic 'address' so the model can mimic address mapping.
    address: int
    # The backing set value, kept on the entry so the table holds one
    # map instead of two.  Model-internal: SCU decisions and costs read
    # only the metadata fields above.
    value: VertexSet | None = field(default=None, compare=False, repr=False)

    @property
    def is_dense(self) -> bool:
        return self.representation is Representation.DENSE


class SetMetadataTable:
    """Maps logical set IDs to SM entries and to the backing set values."""

    def __init__(self) -> None:
        self._meta: dict[int, SetMeta] = {}
        self._ids = itertools.count(1)
        self._next_address = 0x1000_0000
        # Monotonic count of register() calls — the session API's reuse
        # benchmark asserts a warm run performs zero re-registrations.
        self.registrations = 0
        # Freed SM slots are recycled (id + SetMeta record) so hot
        # create/free loops (e.g. per-edge intermediates in k-clique)
        # do not grow the id space or re-allocate metadata records.
        # Cost-model equivalent to fresh ids: the SCU invalidates the
        # SMB entry on delete either way.
        self._free: list[SetMeta] = []

    def register(self, value: VertexSet) -> int:
        self.registrations += 1
        if self._free:
            meta = self._free.pop()
            set_id = meta.set_id
            meta.representation = value.representation
            meta.cardinality = value.cardinality
            meta.universe = value.universe
            meta.address = self._next_address
        else:
            set_id = next(self._ids)
            meta = SetMeta(
                set_id=set_id,
                representation=value.representation,
                cardinality=value.cardinality,
                universe=value.universe,
                address=self._next_address,
            )
        meta.value = value
        self._meta[set_id] = meta
        self._next_address += max(64, value.storage_bits // 8)
        return set_id

    def update(self, set_id: int, value: VertexSet) -> None:
        meta = self.meta(set_id)
        meta.representation = value.representation
        meta.cardinality = value.cardinality
        meta.universe = value.universe
        meta.value = value

    def meta(self, set_id: int) -> SetMeta:
        try:
            return self._meta[set_id]
        except KeyError:
            raise SetError(f"unknown set id {set_id}") from None

    def value(self, set_id: int) -> VertexSet:
        try:
            return self._meta[set_id].value
        except KeyError:
            raise SetError(f"unknown set id {set_id}") from None

    def metas_of(self, set_ids) -> list[SetMeta]:
        """SM entries for a whole frontier (one metadata fetch phase)."""
        meta = self._meta
        try:
            return [meta[s] for s in set_ids]
        except KeyError as exc:
            raise SetError(f"unknown set id {exc.args[0]}") from None

    def values_of(self, set_ids) -> list[VertexSet]:
        """Backing values for a whole frontier."""
        meta = self._meta
        try:
            return [meta[s].value for s in set_ids]
        except KeyError as exc:
            raise SetError(f"unknown set id {exc.args[0]}") from None

    def delete(self, set_id: int) -> None:
        meta = self.meta(set_id)  # raise on unknown ids
        del self._meta[set_id]
        meta.value = None
        self._free.append(meta)

    def __contains__(self, set_id: int) -> bool:
        return set_id in self._meta

    def __len__(self) -> int:
        return len(self._meta)
