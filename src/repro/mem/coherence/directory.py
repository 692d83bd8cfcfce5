"""Full-map directory protocol for the CC-NUMA complex backend.

Each line has a *home node* (where its physical frame lives); the home's
directory tracks the sharer set and a dirty owner. Misses pay the classic
2-hop (clean at home) or 3-hop (dirty in a third node) NUMA costs through the
mesh network, plus directory-controller and DRAM occupancy at the home. This
is the backend used for the paper's TPC-D NUMA studies ([14] in the paper).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..bus import OccupancyResource
from ..cache import _EXCLUSIVE, _MODIFIED, _SHARED, refill
from ..network import MeshNetwork
from .base import CoherenceProtocol, bits_of


class DirectoryProtocol(CoherenceProtocol):
    """Full-map invalidate-based directory over a 2D mesh."""

    name = "directory"
    LINE_TABLES = ("sharers", "owner")

    def __init__(self, dram_latency: int = 60, dir_latency: int = 10,
                 hop_latency: int = 20, num_nodes: int = 2,
                 data_flits: int = 2, **_ignored) -> None:
        super().__init__()
        self.dram_latency = dram_latency
        self.num_nodes = num_nodes
        self.network = MeshNetwork(num_nodes, hop_latency)
        self.dirctl = [OccupancyResource(f"dir{n}", dir_latency)
                       for n in range(num_nodes)]
        self.data_flits = data_flits
        #: line -> bitmask of the cpu ids holding it (bit c = cpu c); a line
        #: nobody holds has no key
        self._sharers: Dict[int, int] = {}
        #: line -> cpu id with a MODIFIED copy; clean lines have no key
        self._owner: Dict[int, int] = {}

    # -- checkpoint/restore -------------------------------------------------

    def state_dict(self):
        st = super().state_dict()
        st["sharers"] = self._sharers
        st["owner"] = self._owner
        st["dirctl"] = [r.state_dict() for r in self.dirctl]
        st["network"] = self.network.state_dict()
        return st

    def load_state(self, state) -> None:
        super().load_state(state)
        refill(self._sharers, state["sharers"])
        refill(self._owner, state["owner"])
        for r, rs in zip(self.dirctl, state["dirctl"]):
            r.load_state(rs)
        self.network.load_state(state["network"])

    # -- contract ---------------------------------------------------------
    # The handlers run once per outer-level miss, so they read their masks,
    # home node and counters in place; a message between a node and itself
    # costs nothing and is not sent (MeshNetwork.transfer would return 0).
    # Sharers are visited in ascending cpu id: invalidations occupy mesh
    # links, so the visiting order is part of the simulated timing.

    def read_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        cpu_node = self.cpu_node
        node = cpu_node[cpu]
        home = self.home_of_line(line)
        transfer = self.network.transfer
        lat = transfer(node, home, now) if home != node else 0   # request
        lat += self.dirctl[home].occupy(now + lat)            # dir lookup
        counters = self.counters
        sharers = self._sharers
        bit = 1 << cpu
        owner = self._owner.get(line, -1)
        if owner >= 0 and owner != cpu:
            onode = cpu_node[owner]
            key = ("remote_dirty_3hop" if onode not in (node, home)
                   else "remote_dirty")
            counters[key] = counters.get(key, 0) + 1
            lat += transfer(home, onode, now + lat)
            self._downgrade_peer(owner, line)                 # owner -> S
            lat += transfer(onode, node, now + lat, self.data_flits)
            del self._owner[line]
            sharers[line] = sharers.get(line, 0) | 1 << owner | bit
            return lat, _SHARED
        lat += self.dram_latency
        if home == node:
            counters["local_read"] = counters.get("local_read", 0) + 1
        else:
            counters["remote_read_2hop"] = \
                counters.get("remote_read_2hop", 0) + 1
            lat += transfer(home, node, now + lat, self.data_flits)
        mask = sharers.get(line, 0)
        sharers[line] = mask | bit
        if not mask:
            return lat, _EXCLUSIVE
        # existing sharers may hold EXCLUSIVE: the directory downgrades them
        # so no silent E->M upgrade can bypass it
        for s in bits_of(mask & ~bit):
            self._downgrade_peer(s, line)
        return lat, _SHARED

    def write_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        cpu_node = self.cpu_node
        node = cpu_node[cpu]
        home = self.home_of_line(line)
        transfer = self.network.transfer
        lat = transfer(node, home, now) if home != node else 0
        lat += self.dirctl[home].occupy(now + lat)
        counters = self.counters
        inval_lat = 0
        owner = self._owner.get(line, -1)
        if owner >= 0 and owner != cpu:
            onode = cpu_node[owner]
            counters["ownership_transfer"] = \
                counters.get("ownership_transfer", 0) + 1
            inval_lat = (transfer(home, onode, now + lat)
                         + transfer(onode, node, now + lat, self.data_flits))
            self._drop_peer(owner, line)
        else:
            # invalidate every sharer; acks gathered in parallel — pay the
            # max distance, plus a constant per extra sharer for ack fan-in
            worst = 0
            extras = 0
            for s in bits_of(self._sharers.get(line, 0) & ~(1 << cpu)):
                snode = cpu_node[s]
                d = (transfer(home, snode, now + lat)
                     + transfer(snode, node, now + lat))
                worst = max(worst, d)
                extras += 1
                self._drop_peer(s, line)
                counters["invalidation"] = counters.get("invalidation", 0) + 1
            inval_lat = worst + 2 * max(0, extras - 1)
            if line not in self.caches[cpu]._states:
                lat += self.dram_latency
                if home != node:
                    lat += transfer(home, node, now + lat, self.data_flits)
        self._sharers[line] = 1 << cpu
        self._owner[line] = cpu
        counters["write_miss"] = counters.get("write_miss", 0) + 1
        return lat + inval_lat, _MODIFIED

    def writeback(self, cpu: int, line: int, now: int) -> int:
        node = self.cpu_node[cpu]
        home = self.home_of_line(line)
        counters = self.counters
        counters["writeback"] = counters.get("writeback", 0) + 1
        # buffered: network + home DRAM occupied, requester not stalled
        if home != node:
            self.network.transfer(node, home, now, self.data_flits)
        self.dirctl[home].occupy(now)
        if self._owner.get(line, -1) == cpu:
            self.forget(cpu, line)
        return 0

    def forget(self, cpu: int, line: int) -> None:
        mask = self._sharers.get(line, 0)
        if mask:
            mask &= ~(1 << cpu)
            if mask:
                self._sharers[line] = mask
            else:
                del self._sharers[line]     # nobody left: reclaim the entry
        if self._owner.get(line, -1) == cpu:
            del self._owner[line]

    # -- introspection ------------------------------------------------------

    def sharers_of(self, line: int) -> Set[int]:
        return set(bits_of(self._sharers.get(line, 0)))

    def owner_of(self, line: int) -> int:
        return self._owner.get(line, -1)
