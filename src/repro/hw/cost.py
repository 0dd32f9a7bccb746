"""Cost records produced by the timing backends.

Every simulated operation yields a :class:`Cost` with three components:

* ``compute_cycles`` -- cycles of ALU/control work that scale down with
  more parallel lanes,
* ``memory_bytes`` -- bytes streamed through a bandwidth-limited path
  (converted to cycles by the engine using the effective per-lane
  bandwidth, which models contention),
* ``latency_cycles`` -- fixed, non-overlappable latency (DRAM accesses,
  in-situ operation setup, SCU dispatch).

Keeping bytes separate from cycles lets one engine reproduce both the
CPU's bandwidth-saturation behaviour (paper Fig. 1) and the PNM's
bandwidth proportionality (Section 8.4, "Harnessing Parallelism").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Cost:
    compute_cycles: float = 0.0
    memory_bytes: float = 0.0
    latency_cycles: float = 0.0

    def __add__(self, other: "Cost") -> "Cost":
        if not isinstance(other, Cost):
            return NotImplemented
        return Cost(
            self.compute_cycles + other.compute_cycles,
            self.memory_bytes + other.memory_bytes,
            self.latency_cycles + other.latency_cycles,
        )

    def scaled(self, factor: float) -> "Cost":
        return Cost(
            self.compute_cycles * factor,
            self.memory_bytes * factor,
            self.latency_cycles * factor,
        )

    def cycles(self, bytes_per_cycle: float) -> float:
        """Total cycles given an effective streaming bandwidth."""
        memory_cycles = (
            self.memory_bytes / bytes_per_cycle if bytes_per_cycle > 0 else 0.0
        )
        return self.compute_cycles + self.latency_cycles + memory_cycles


ZERO_COST = Cost()
