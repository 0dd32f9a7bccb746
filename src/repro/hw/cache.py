"""A small LRU cache model: the SCU's Set Metadata Buffer (SMB).

The SCU caches set metadata (representation, size, address) in a 32 KB
scratchpad (paper Sections 3 and 8.4).  A hit costs a couple of cycles;
a miss is one additional memory access to the in-memory SM structure.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class LruCache:
    """Fixed-capacity LRU set of keys with hit/miss accounting."""

    def __init__(self, capacity: int):
        self.capacity = max(0, int(capacity))
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.stats = CacheStats()

    def access(self, key: int) -> bool:
        """Touch ``key``; returns True on hit, False on miss (and inserts)."""
        if self.capacity == 0:
            self.stats.misses += 1
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._entries[key] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    def access_many(self, keys: list[int]) -> bytes:
        """:meth:`access` every key in order; returns one hit flag
        (0/1) per access.  Same trajectory and stats as the loop of
        single accesses, in one tight loop."""
        n = len(keys)
        if self.capacity == 0:
            self.stats.misses += n
            return bytes(n)
        entries = self._entries
        move = entries.move_to_end
        evict = entries.popitem
        capacity = self.capacity
        size = len(entries)
        flags: list[int] = []
        flag = flags.append
        for key in keys:
            if key in entries:
                move(key)
                flag(1)
            else:
                entries[key] = None
                flag(0)
                if size == capacity:
                    evict(False)
                else:
                    size += 1
        hits = sum(flags)
        self.stats.hits += hits
        self.stats.misses += n - hits
        return bytes(flags)

    def invalidate(self, key: int) -> None:
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)
