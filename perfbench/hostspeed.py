"""Host-speed probe: scales host times to a fixed machine speed.

On a shared machine the same code runs up to ~40% slower for minutes at
a time while neighbours compete for the core, its caches and memory
bandwidth.  The probe is fixed work of both kinds the simulator's host
time is made of — interpreter-bound small-object code (method calls,
dict and set operations) and a memory-bound pass (sorting and
streaming an 8 MiB array).  It is timed between requests throughout a
run, and every end-to-end host time is multiplied by
``REFERENCE_S / median(probe samples)``: seconds at the speed at which
the probe takes ``REFERENCE_S``.  The probe never changes with the
program, so a faster program still reads faster; the raw host seconds
and the factor are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe seconds that define the reference speed (the probe's time on a
#: quiet 2-core Xeon at 2.1 GHz, so the factor is about 1 there).
REFERENCE_S = 0.03

#: Least seconds between two probe samples.
INTERVAL_S = 1.0


class _Lane:
    __slots__ = ("busy", "weight")

    def __init__(self, weight: float):
        self.busy = 0.0
        self.weight = weight

    def charge(self, cost: float) -> float:
        self.busy += cost * self.weight
        return self.busy


def _interpreter_pass() -> float:
    lanes = [_Lane(i * 0.5) for i in range(64)]
    memo: dict[tuple[int, int], int] = {}
    total = 0.0
    for i in range(20_000):
        total += lanes[i & 63].charge(1.5)
        key = (i & 255, i & 7)
        memo[key] = memo.get(key, 0) + 1
        total += len({i & 15, i & 31} & {1, 2, 3})
    return total


class HostSpeed:
    """Samples the probe at most every ``INTERVAL_S`` seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._data = np.random.default_rng(2021).random(1 << 20)
        self._last = -float("inf")
        self._probe()  # warm-up: the first pass pays page faults

    def _probe(self) -> float:
        return _interpreter_pass() + float(np.sort(self._data).sum() + (self._data * 2.0).sum())

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._probe()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def factor(self) -> float:
        """Multiply a host time by this to get reference-speed seconds."""
        return REFERENCE_S / statistics.median(self.samples)
