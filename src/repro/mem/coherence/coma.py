"""COMA (Cache-Only Memory Architecture) attraction-memory protocol.

In a COMA every node's DRAM is an *attraction memory* (AM): data has no fixed
home and migrates/replicates to the nodes that use it. We model the AM as a
per-node resident-line set with a global map of holders: a miss fetches the
line from the nearest holder and replicates it locally, so subsequent misses
from the same node become node-local. Writes invalidate remote replicas and
make the writer the owner. This captures COMA's defining advantage over
CC-NUMA (automatic locality for migratory data) and its cost (the extra AM
lookup on every miss).

Capacity: node memories are large relative to working sets in our workloads,
so AM displacement ("last copy relocation") is modeled only when the AM
exceeds ``am_lines`` — the displaced line moves to the least-loaded node and
a relocation counter records it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..bus import OccupancyResource
from ..cache import LineState
from ..network import MeshNetwork
from .base import CoherenceProtocol


class _ComaEntry:
    __slots__ = ("holders", "owner")

    def __init__(self) -> None:
        self.holders: Set[int] = set()   # node ids with a replica
        self.owner = -1                  # node with the master (dirty) copy


class ComaProtocol(CoherenceProtocol):
    """Attraction-memory COMA over a 2D mesh."""

    name = "coma"

    def __init__(self, dram_latency: int = 60, dir_latency: int = 10,
                 hop_latency: int = 20, num_nodes: int = 2,
                 data_flits: int = 2, am_lines: int = 1 << 20,
                 **_ignored) -> None:
        super().__init__()
        self.dram_latency = dram_latency
        #: AM tag lookup adds a directory-like cost on every miss
        self.am_lookup = dir_latency
        self.num_nodes = num_nodes
        self.network = MeshNetwork(num_nodes, hop_latency)
        self.amctl = [OccupancyResource(f"am{n}", dir_latency)
                      for n in range(num_nodes)]
        self.data_flits = data_flits
        self.am_lines = am_lines
        self._map: Dict[int, _ComaEntry] = {}
        self._am_load = [0] * num_nodes
        self.relocations = 0

    def _entry(self, line: int) -> _ComaEntry:
        e = self._map.get(line)
        if e is None:
            e = _ComaEntry()
            self._map[line] = e
            # cold line: initially resident where its frame was allocated
            node = self.home_of_line(line)
            e.holders.add(node)
            self._am_load[node] += 1
        return e

    # -- checkpoint/restore -------------------------------------------------

    def min_remote_latency(self) -> int:
        """Cheapest cross-CPU effect: a one-hop attraction-memory probe
        (request hop + AM tag lookup at the target node)."""
        return max(1, self.network.hop_latency + self.am_lookup)

    def state_dict(self):
        st = super().state_dict()
        st["map"] = {line: (sorted(e.holders), e.owner)
                     for line, e in self._map.items()}
        st["amctl"] = [r.state_dict() for r in self.amctl]
        st["am_load"] = list(self._am_load)
        st["relocations"] = self.relocations
        st["network"] = self.network.state_dict()
        return st

    def load_state(self, state) -> None:
        super().load_state(state)
        self._map.clear()
        for line, (holders, owner) in state["map"].items():
            e = _ComaEntry()
            e.holders = set(holders)
            e.owner = owner
            self._map[line] = e
        for r, rs in zip(self.amctl, state["amctl"]):
            r.load_state(rs)
        self._am_load[:] = state["am_load"]
        self.relocations = state["relocations"]
        self.network.load_state(state["network"])

    def _nearest_holder(self, node: int, e: _ComaEntry) -> int:
        if node in e.holders:
            return node
        return min(e.holders, key=lambda h: (self.network.hops(node, h), h))

    def _replicate(self, node: int, line: int, e: _ComaEntry) -> None:
        if node in e.holders:
            return
        e.holders.add(node)
        self._am_load[node] += 1
        if self._am_load[node] > self.am_lines:
            self._displace(node)

    def _displace(self, node: int) -> None:
        """AM overflow: drop one replica; a last copy relocates elsewhere."""
        for line, e in self._map.items():
            if node in e.holders and e.owner != node:
                e.holders.discard(node)
                self._am_load[node] -= 1
                if not e.holders:
                    dest = min(range(self.num_nodes),
                               key=lambda n: self._am_load[n])
                    e.holders.add(dest)
                    self._am_load[dest] += 1
                    self.relocations += 1
                return

    # -- contract -----------------------------------------------------------

    def read_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        node = self.cpu_node[cpu]
        e = self._entry(line)
        src = e.owner if e.owner >= 0 else self._nearest_holder(node, e)
        lat = self.amctl[node].occupy(now)          # local AM tag check
        if src == node:
            self.count("am_local_hit")
            lat += self.dram_latency
        else:
            self.count("am_remote_fetch")
            lat += self.network.transfer(node, src, now + lat)
            lat += self.amctl[src].occupy(now + lat) + self.dram_latency
            lat += self.network.transfer(src, node, now + lat,
                                         self.data_flits)
            self._replicate(node, line, e)
        if e.owner >= 0:
            e.owner = -1   # master copy demoted to a plain replica
        if len(e.holders) == 1 and node in e.holders:
            # sole holder node: exclusive only if no peer CPU caches it
            if not any(self.caches[c].probe(line) is not None
                       for c in range(len(self.caches)) if c != cpu):
                return lat, LineState.EXCLUSIVE
        # any peer copy (possibly E or M) is demoted: no silent upgrades
        for c in range(len(self.caches)):
            if c != cpu:
                self._downgrade_peer(c, line)
        return lat, LineState.SHARED

    def write_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        node = self.cpu_node[cpu]
        e = self._entry(line)
        lat = self.amctl[node].occupy(now)
        # fetch if not local
        if node not in e.holders:
            src = e.owner if e.owner >= 0 else self._nearest_holder(node, e)
            lat += self.network.transfer(node, src, now + lat)
            lat += self.amctl[src].occupy(now + lat) + self.dram_latency
            lat += self.network.transfer(src, node, now + lat,
                                         self.data_flits)
            self._replicate(node, line, e)
        else:
            lat += self.dram_latency
        # invalidate all other replicas (and any peer CPU caches)
        worst = 0
        for h in list(e.holders):
            if h == node:
                continue
            worst = max(worst, 2 * self.network.hops(node, h)
                        * self.network.hop_latency)
            e.holders.discard(h)
            self._am_load[h] -= 1
            self.count("replica_invalidation")
        for c, cn in enumerate(self.cpu_node):
            if c != cpu:
                self._drop_peer(c, line)
        e.owner = node
        self.count("write_miss")
        return lat + worst, LineState.MODIFIED

    def writeback(self, cpu: int, line: int, now: int) -> int:
        # master copy returns to the local AM: node-local, buffered
        self.count("writeback")
        node = self.cpu_node[cpu]
        self.amctl[node].occupy(now)
        e = self._map.get(line)
        if e is not None and e.owner == node:
            e.owner = -1
        return 0

    # -- introspection ------------------------------------------------------

    def holders_of(self, line: int) -> Set[int]:
        e = self._map.get(line)
        return set(e.holders) if e else set()
