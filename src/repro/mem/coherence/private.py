"""No-coherence protocol: private caches over flat memory.

This is the paper's *simple backend* ("only a one-level cache per processor",
§2/Table 2): every miss costs a flat DRAM access through one memory
controller; writes install MODIFIED lines that write back on eviction. No
sharing traffic is modeled — functionally safe here because data values live
in the frontends, so staleness cannot corrupt execution, only timing (which
is exactly the fidelity/speed trade the simple backend makes).
"""

from __future__ import annotations

from typing import Tuple

from ..bus import OccupancyResource
from ..cache import LineState
from .base import CoherenceProtocol


class PrivateProtocol(CoherenceProtocol):
    """Flat-memory misses; single contended memory controller."""

    name = "none"

    def __init__(self, dram_latency: int = 60, bus_latency: int = 8,
                 **_ignored) -> None:
        super().__init__()
        self.dram_latency = dram_latency
        self.memctl = OccupancyResource("memctl", bus_latency)

    def state_dict(self):
        st = super().state_dict()
        st["memctl"] = self.memctl.state_dict()
        return st

    def load_state(self, state) -> None:
        super().load_state(state)
        self.memctl.load_state(state["memctl"])

    def read_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        self.count("read_miss")
        return (self.memctl.occupy(now) + self.dram_latency,
                LineState.EXCLUSIVE)

    def write_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        self.count("write_miss")
        return (self.memctl.occupy(now) + self.dram_latency,
                LineState.MODIFIED)

    def writeback(self, cpu: int, line: int, now: int) -> int:
        self.count("writeback")
        # eviction writebacks are buffered; they occupy the controller but
        # do not stall the processor
        self.memctl.occupy(now)
        return 0
