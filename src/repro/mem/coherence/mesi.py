"""MESI snooping protocol on a shared bus (bus-based SMP backend).

Every miss and upgrade is a bus transaction that all peer caches snoop.
Cache-to-cache transfers service misses to dirty remote lines; upgrades
(S→M) are address-only invalidations. The single bus is the contended
resource, so OLTP-style sharing shows up as queueing delay — the first-order
behaviour of the 4-way AIX SMPs profiled in Table 1.
"""

from __future__ import annotations

from typing import Tuple

from ..bus import OccupancyResource
from ..cache import _EXCLUSIVE, _MODIFIED, _SHARED
from .base import CoherenceProtocol


class MesiBusProtocol(CoherenceProtocol):
    """Snooping MESI over one shared split-transaction bus."""

    name = "mesi"

    def __init__(self, dram_latency: int = 60, bus_latency: int = 8,
                 c2c_latency: int = 20, **_ignored) -> None:
        super().__init__()
        self.dram_latency = dram_latency
        self.c2c_latency = c2c_latency
        self.bus = OccupancyResource("bus", bus_latency)

    # -- checkpoint/restore -------------------------------------------------

    def state_dict(self):
        st = super().state_dict()
        st["bus"] = self.bus.state_dict()
        return st

    def load_state(self, state) -> None:
        super().load_state(state)
        self.bus.load_state(state["bus"])

    # -- snoop helpers ------------------------------------------------------
    # The handlers run once per outer-level miss (and ``_snoop`` scans every
    # peer each time), so they probe the peers' state dicts and bump their
    # counters in place.

    def _snoop(self, requester: int, line: int):
        """Peers holding ``line``: returns (dirty_holder, sharers)."""
        dirty = -1
        sharers = []
        for c, cache in enumerate(self.caches):
            if c == requester:
                continue
            st = cache._states.get(line)
            if st is None:
                continue
            if st == _MODIFIED:
                dirty = c
            sharers.append(c)
        return dirty, sharers

    # -- contract -----------------------------------------------------------

    def read_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        counters = self.counters
        counters["bus_read"] = counters.get("bus_read", 0) + 1
        lat = self.bus.occupy(now)
        dirty, sharers = self._snoop(cpu, line)
        if dirty >= 0:
            # intervention: dirty peer supplies the data and both end SHARED;
            # memory is updated in the background
            counters["c2c_transfer"] = counters.get("c2c_transfer", 0) + 1
            self._downgrade_peer(dirty, line)
            return lat + self.c2c_latency, _SHARED
        if sharers:
            for s in sharers:
                self._downgrade_peer(s, line)
            return lat + self.dram_latency, _SHARED
        return lat + self.dram_latency, _EXCLUSIVE

    def write_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        counters = self.counters
        dirty, sharers = self._snoop(cpu, line)
        had_line = line in self.caches[cpu]._states
        lat = self.bus.occupy(now)
        if had_line and dirty < 0:
            # S -> M upgrade: address-only bus transaction
            counters["bus_upgrade"] = counters.get("bus_upgrade", 0) + 1
        else:
            counters["bus_read_exclusive"] = \
                counters.get("bus_read_exclusive", 0) + 1
            if dirty >= 0:
                counters["c2c_transfer"] = counters.get("c2c_transfer", 0) + 1
                lat += self.c2c_latency
            else:
                lat += self.dram_latency
        for s in sharers:
            self._drop_peer(s, line)
        if sharers:
            counters["invalidation"] = \
                counters.get("invalidation", 0) + len(sharers)
        return lat, _MODIFIED

    def writeback(self, cpu: int, line: int, now: int) -> int:
        counters = self.counters
        counters["writeback"] = counters.get("writeback", 0) + 1
        self.bus.occupy(now)   # buffered: occupies the bus, no CPU stall
        return 0
