"""Point-to-point interconnection network for the CC-NUMA / COMA backends.

Nodes are arranged on a 2D mesh (the densest square that fits); messages pay
``hop_latency`` per hop plus per-link occupancy. For small node counts this
degenerates gracefully (1 node → zero cost, 2 nodes → one link).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .bus import OccupancyResource


class MeshNetwork:
    """2D-mesh distance + link-contention model."""

    def __init__(self, num_nodes: int, hop_latency: int,
                 link_occupancy: int = 2) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.hop_latency = hop_latency
        self.cols = max(1, int(math.isqrt(num_nodes)))
        self.rows = (num_nodes + self.cols - 1) // self.cols
        #: per-directed-link occupancy resources, created lazily
        self._links: Dict[Tuple[int, int], OccupancyResource] = {}
        self._link_occ = link_occupancy
        #: (src, dst) -> the route's link resources, in route() order
        self._paths: Dict[Tuple[int, int], List[OccupancyResource]] = {}
        self.messages = 0
        self.total_hops = 0
        #: fault injection: callable(now) -> extra occupancy cycles applied
        #: to every link (a degraded interconnect); None normally
        self.fault_hook = None

    def set_fault_hook(self, hook) -> None:
        """Install a degraded-link hook on every current and future link."""
        self.fault_hook = hook
        for r in self._links.values():
            r.fault_hook = hook

    def coords(self, node: int) -> Tuple[int, int]:
        return node % self.cols, node // self.cols

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Dimension-ordered (X then Y) list of directed links."""
        links: List[Tuple[int, int]] = []
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        cur = src
        while sx != dx:
            sx += 1 if dx > sx else -1
            nxt = sy * self.cols + sx
            links.append((cur, nxt))
            cur = nxt
        while sy != dy:
            sy += 1 if dy > sy else -1
            nxt = sy * self.cols + sx
            links.append((cur, nxt))
            cur = nxt
        return links

    def transfer(self, src: int, dst: int, now: int, flits: int = 1) -> int:
        """Latency to move a ``flits``-unit message src→dst at cycle ``now``
        (wormhole-ish: per-hop latency + contended link occupancy)."""
        if src == dst:
            return 0
        self.messages += 1
        path = self._paths.get((src, dst))
        if path is None:
            path = self._paths[(src, dst)] = [
                self._link(link) for link in self.route(src, dst)]
        self.total_hops += len(path)
        latency = 0
        t = now
        hop = self.hop_latency
        occ = self._link_occ * flits
        for r in path:
            d = hop + r.occupy(t, occ)
            latency += d
            t += d
        return latency

    def _link(self, link: Tuple[int, int]) -> OccupancyResource:
        """The directed link's resource, created on first use."""
        r = self._links.get(link)
        if r is None:
            r = OccupancyResource(f"link{link}", self._link_occ)
            r.fault_hook = self.fault_hook
            self._links[link] = r
        return r

    def state_dict(self) -> dict:
        """Plain-data snapshot: message counters + every lazy link's state."""
        return {
            "messages": self.messages,
            "total_hops": self.total_hops,
            "links": {k: r.state_dict() for k, r in self._links.items()},
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot; links absent from the live set are recreated
        (with the current fault hook reapplied)."""
        self.messages = state["messages"]
        self.total_hops = state["total_hops"]
        self._links.clear()
        self._paths.clear()
        for key, lstate in state["links"].items():
            self._link(key).load_state(lstate)

    def link_stats(self) -> Dict[Tuple[int, int], int]:
        """Directed link -> transactions carried."""
        return {k: v.transactions for k, v in self._links.items()}
