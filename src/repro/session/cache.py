"""Epoch-keyed result caching for session workloads.

Every registered workload is a deterministic function of (workload
name, parameters, graph state), and a session knows exactly when its
graph state changes: the attached stream's ``(epoch, mutations)``
version.  So repeated identical runs on an unchanged graph can be
answered from a cache in O(1) — no instructions dispatched, no sets
registered — while any mutation (or explicit invalidation) naturally
misses, because the version is part of the key.

Parameters are canonicalized structurally (NumPy arrays by value,
graphs by their CSR arrays); a parameter the cache cannot canonicalize
makes that run uncacheable — counted in :class:`CacheStats.skips` —
rather than risking a false hit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss accounting of one session's result cache."""

    hits: int = 0
    misses: int = 0
    skips: int = 0  # uncacheable runs (views, callables, odd params)
    invalidations: int = 0  # entries dropped by explicit invalidation
    evictions: int = 0  # entries dropped by the LRU size bound
    corruptions: int = 0  # entries failing fingerprint verification


def isolate_output(value: Any):
    """A defensive copy of a cached output's mutable array state.

    Cached outputs are stored and served across runs; without this, a
    caller mutating a returned array in place would poison every later
    cache hit (and the first caller's result would alias the cache
    entry).  Arrays are copied recursively through the common
    containers; other objects pass through by reference.
    """
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [isolate_output(v) for v in value]
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):  # NamedTuple: preserve the type
            return type(value)(*(isolate_output(v) for v in value))
        return tuple(isolate_output(v) for v in value)
    if isinstance(value, dict):
        return {k: isolate_output(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.replace(
            value,
            **{
                f.name: isolate_output(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.init
            },
        )
    return value


def canonical_param(value: Any):
    """A hashable, by-value canonical form of one workload parameter.

    Returns ``None`` when the value cannot be canonicalized safely —
    the caller must then skip caching (``None`` is itself encoded, so
    a literal ``None`` parameter stays cacheable).
    """
    if value is None:
        return ("none",)
    if isinstance(value, (bool, int, float, str, bytes)):
        return (type(value).__name__, value)
    if isinstance(value, np.generic):
        return ("npscalar", value.item())
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        parts = tuple(canonical_param(v) for v in value)
        if any(p is None for p in parts):
            return None
        return ("seq", parts)
    if isinstance(value, (set, frozenset)):
        parts = tuple(sorted(map(canonical_param, value), key=repr))
        if any(p is None for p in parts):
            return None
        return ("set", parts)
    if isinstance(value, dict):
        items = []
        for k in sorted(value, key=repr):
            part = canonical_param(value[k])
            if part is None:
                return None
            items.append((repr(k), part))
        return ("dict", tuple(items))
    offsets = getattr(value, "offsets", None)
    targets = getattr(value, "targets", None)
    if isinstance(offsets, np.ndarray) and isinstance(targets, np.ndarray):
        # CSRGraph / DiGraph pattern arguments, keyed by structure.
        return ("csr", offsets.tobytes(), targets.tobytes())
    return None


def fingerprint(value: Any) -> str:
    """A stable content digest of a cached output.

    Computed at ``put`` time and re-verified on every ``get``: an entry
    whose bytes changed underneath us — bitrot in a real system,
    :meth:`ResultCache.corrupt_one` in a soak — fails the check and is
    treated as a miss, so a poisoned entry is recomputed rather than
    served.  Unlike :func:`canonical_param` this never gives up: values
    it cannot encode structurally are folded in by ``repr``, which is
    sufficient for tamper *detection* (the digest only has to be
    deterministic for equal state, not collision-proof across types).
    """
    digest = hashlib.sha1()
    _feed(digest, value)
    return digest.hexdigest()


def _feed(digest, value: Any) -> None:
    if isinstance(value, np.ndarray):
        digest.update(b"nd")
        digest.update(repr(value.shape).encode())
        digest.update(value.dtype.str.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        digest.update(b"map")
        for k in sorted(value, key=repr):
            digest.update(repr(k).encode())
            _feed(digest, value[k])
    elif isinstance(value, (list, tuple)):
        digest.update(f"seq{type(value).__name__}".encode())
        for v in value:
            _feed(digest, v)
    elif isinstance(value, (set, frozenset)):
        digest.update(b"set")
        for part in sorted((fingerprint(v) for v in value)):
            digest.update(part.encode())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _feed(digest, getattr(value, f.name))
    else:
        digest.update(repr(value).encode())


def _tamper(value: Any) -> Any:
    """A damaged copy of a cached output (fault injection only): the
    first non-empty array gets one element flipped; array-free outputs
    are wrapped so their repr changes."""
    if isinstance(value, np.ndarray):
        if value.size and value.dtype.kind in "iufb":
            out = value.copy()
            flat = out.reshape(-1)
            flat[0] = 0 if flat[0] else 1
            return out
        return value
    if isinstance(value, list):
        return [_tamper(v) for v in value]
    if isinstance(value, tuple) and not hasattr(value, "_fields"):
        return tuple(_tamper(v) for v in value)
    if isinstance(value, dict):
        return {k: _tamper(v) for k, v in value.items()}
    return ("corrupted", value)


class ResultCache:
    """A bounded LRU cache of workload outputs keyed on
    ``(workload, canonical params, stream version)``."""

    def __init__(self, maxsize: int = 128):
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.stats = CacheStats()
        # Optional observability hub; mirrors stats events into labeled
        # counters (by workload = key[0]).  Observation-only.
        self.obs = None
        # Optional access-event hook ``(op, key) -> None`` with op in
        # {"read", "write-idempotent", "write"}: the race detector's
        # shim (repro.analysis.static.racecheck).  Every mutation of
        # cache state must report through it — repolint's
        # shared-structure-write rule forbids touching ``_entries``
        # outside this module precisely so this hook stays complete.
        self._event = None

    def __len__(self) -> int:
        return len(self._entries)

    def make_key(
        self, workload: str, params: dict, version: tuple
    ) -> tuple | None:
        """The cache key for one run, or ``None`` if uncacheable."""
        canon = canonical_param(params)
        if canon is None:
            self.stats.skips += 1
            return None
        return (workload, canon, version)

    def get(self, key: tuple) -> Any:
        """The cached output wrapper for ``key`` (``None`` on miss);
        refreshes LRU order on hit.  Array state is copied out, so
        callers cannot poison the entry.  The entry's content digest is
        re-verified first: a corrupted entry is dropped and counted,
        and the caller recomputes — degradation, not a wrong answer."""
        if self._event is not None:
            self._event("read", key)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            if self.obs is not None:
                self.obs.cache_event("miss", key[0])
            return None
        output, digest = entry
        if fingerprint(output) != digest:
            del self._entries[key]
            self.stats.corruptions += 1
            self.stats.misses += 1
            if self.obs is not None:
                self.obs.cache_event("corruption", key[0])
                self.obs.cache_event("miss", key[0])
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if self.obs is not None:
            self.obs.cache_event("hit", key[0])
        return (isolate_output(output),)

    def put(self, key: tuple, output: Any) -> None:
        # Installing a deterministic output under its content key is
        # idempotent — any interleaving installs the same bytes.
        if self._event is not None:
            self._event("write-idempotent", key)
        stored = isolate_output(output)
        self._entries[key] = (stored, fingerprint(stored))
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            evicted, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            # Capacity eviction is NOT idempotent: another node's get
            # observes presence or absence depending on order.
            if self._event is not None:
                self._event("write", evicted)
            if self.obs is not None:
                self.obs.cache_event("eviction", evicted[0])

    # ------------------------------------------------------------------
    # Fault-injection hooks (serving soak tests)
    # ------------------------------------------------------------------

    def corrupt_one(self) -> bool:
        """Tamper with the most-recently-used entry's stored output,
        leaving its recorded digest untouched — the next hit on that
        (hottest) key must detect the mismatch and degrade to a
        recompute.  Returns True if an entry was damaged."""
        if not self._entries:
            return False
        key = next(reversed(self._entries))
        if self._event is not None:
            self._event("write", key)
        output, digest = self._entries[key]
        self._entries[key] = (_tamper(output), digest)
        return True

    def evict_one(self) -> bool:
        """Drop the least-recently-used entry (simulated capacity
        pressure); the caller degrades to recompute.  Returns True if
        an entry was dropped."""
        if not self._entries:
            return False
        evicted, _ = self._entries.popitem(last=False)
        self.stats.evictions += 1
        if self._event is not None:
            self._event("write", evicted)
        if self.obs is not None:
            self.obs.cache_event("eviction", evicted[0])
        return True

    def invalidate(self, workload: str | None = None) -> int:
        """Drop every entry (or only one workload's entries).  Returns
        the number of entries dropped."""
        if self._event is not None:
            # Wildcard write: conflicts with every key of the cache
            # (per-workload invalidation still drops unknown-param
            # entries, so workload granularity would under-report).
            self._event("write", (workload,) if workload is not None else None)
        if workload is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            stale = [k for k in self._entries if k[0] == workload]
            for k in stale:
                del self._entries[k]
            dropped = len(stale)
        self.stats.invalidations += dropped
        return dropped
