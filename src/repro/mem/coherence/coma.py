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

from typing import Dict, Set, Tuple

from ..bus import OccupancyResource
from ..cache import LineState, refill
from ..network import MeshNetwork
from .base import CoherenceProtocol, bits_of


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
        #: line -> bitmask of the node ids with a replica (never 0: data
        #: lives only in attraction memories)
        self._holders: Dict[int, int] = {}
        #: line -> node with the master (dirty) copy; no key when clean
        self._owner: Dict[int, int] = {}
        self._am_load = [0] * num_nodes
        self.relocations = 0

    def _touch(self, line: int) -> int:
        """The line's holder mask, creating the entry on first touch."""
        mask = self._holders.get(line)
        if mask is None:
            # cold line: initially resident where its frame was allocated
            node = self.home_of_line(line)
            mask = self._holders[line] = 1 << node
            self._am_load[node] += 1
        return mask

    # -- checkpoint/restore -------------------------------------------------

    def state_dict(self):
        st = super().state_dict()
        st["holders"] = self._holders
        st["owner"] = self._owner
        st["amctl"] = [r.state_dict() for r in self.amctl]
        st["am_load"] = list(self._am_load)
        st["relocations"] = self.relocations
        st["network"] = self.network.state_dict()
        return st

    def load_state(self, state) -> None:
        super().load_state(state)
        refill(self._holders, state["holders"])
        refill(self._owner, state["owner"])
        for r, rs in zip(self.amctl, state["amctl"]):
            r.load_state(rs)
        self._am_load[:] = state["am_load"]
        self.relocations = state["relocations"]
        self.network.load_state(state["network"])

    def _source(self, node: int, line: int, mask: int) -> int:
        """Where a miss from ``node`` fetches ``line``: the master copy if
        there is one, else the nearest replica (lowest node id on ties)."""
        owner = self._owner.get(line, -1)
        if owner >= 0:
            return owner
        if mask >> node & 1:
            return node
        return min(bits_of(mask),
                   key=lambda h: (self.network.hops(node, h), h))

    def _replicate(self, node: int, line: int) -> None:
        mask = self._holders[line]
        if mask >> node & 1:
            return
        self._holders[line] = mask | 1 << node
        self._am_load[node] += 1
        if self._am_load[node] > self.am_lines:
            self._displace(node)

    def _displace(self, node: int) -> None:
        """AM overflow: drop one replica; a last copy relocates elsewhere."""
        bit = 1 << node
        for line, mask in self._holders.items():
            if mask & bit and self._owner.get(line, -1) != node:
                mask &= ~bit
                self._am_load[node] -= 1
                if not mask:
                    dest = min(range(self.num_nodes),
                               key=lambda n: self._am_load[n])
                    mask = 1 << dest
                    self._am_load[dest] += 1
                    self.relocations += 1
                self._holders[line] = mask
                return

    # -- contract -----------------------------------------------------------

    def read_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        node = self.cpu_node[cpu]
        src = self._source(node, line, self._touch(line))
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
            self._replicate(node, line)
        # master copy demoted to a plain replica
        self._owner.pop(line, None)
        if self._holders[line] == 1 << node:
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
        mask = self._touch(line)
        lat = self.amctl[node].occupy(now)
        # fetch if not local
        if not mask >> node & 1:
            src = self._source(node, line, mask)
            lat += self.network.transfer(node, src, now + lat)
            lat += self.amctl[src].occupy(now + lat) + self.dram_latency
            lat += self.network.transfer(src, node, now + lat,
                                         self.data_flits)
            # the arriving copy is the master from here on, which is what
            # keeps an overflowing AM from displacing it on its own
            # insertion (_displace never picks a node's master): every
            # other replica is invalidated below, so dropping this one
            # would leave the line with no holder at all
            self._owner[line] = node
            self._replicate(node, line)
        else:
            lat += self.dram_latency
        # invalidate all other replicas (and any peer CPU caches)
        worst = 0
        for h in bits_of(self._holders[line] & ~(1 << node)):
            worst = max(worst, 2 * self.network.hops(node, h)
                        * self.network.hop_latency)
            self._am_load[h] -= 1
            self.count("replica_invalidation")
        self._holders[line] &= 1 << node
        for c, cn in enumerate(self.cpu_node):
            if c != cpu:
                self._drop_peer(c, line)
        self._owner[line] = node
        self.count("write_miss")
        return lat + worst, LineState.MODIFIED

    def writeback(self, cpu: int, line: int, now: int) -> int:
        # master copy returns to the local AM: node-local, buffered
        self.count("writeback")
        node = self.cpu_node[cpu]
        self.amctl[node].occupy(now)
        if self._owner.get(line, -1) == node:
            del self._owner[line]
        return 0

    # -- introspection ------------------------------------------------------

    def holders_of(self, line: int) -> Set[int]:
        return set(bits_of(self._holders.get(line, 0)))
