"""Page-granular software DSM protocol.

Software distributed shared memory keeps coherence in page units with the
protocol executed by software handlers: a node's first access to a page it
does not hold triggers a handler that fetches the whole page from the current
owner; a write by a non-owner invalidates the other copies (single-writer,
multiple-reader). Handler cost is thousands of cycles — the defining
difference from hardware CC-NUMA, and what the paper's §5 architecture
comparison is about.

Hardware caches still operate under DSM (nodes cache their local copies); the
page machinery adds its cost on outer-level misses, with node-hit pages
costing only local DRAM.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..bus import OccupancyResource
from ..cache import LineState
from ..network import MeshNetwork
from .base import CoherenceProtocol


class _PageEntry:
    __slots__ = ("holders", "owner")

    def __init__(self, home: int) -> None:
        self.holders: Set[int] = {home}
        self.owner = home


class DsmProtocol(CoherenceProtocol):
    """Single-writer multiple-reader page-based software DSM."""

    name = "dsm"

    def __init__(self, dram_latency: int = 60, hop_latency: int = 20,
                 num_nodes: int = 2, page_size: int = 4096,
                 handler_cycles: int = 8000, data_flits_per_page: int = 64,
                 **_ignored) -> None:
        super().__init__()
        self.dram_latency = dram_latency
        self.num_nodes = num_nodes
        self.page_size = page_size
        self.handler_cycles = handler_cycles
        self.page_flits = data_flits_per_page
        self.network = MeshNetwork(num_nodes, hop_latency)
        self._pages: Dict[int, _PageEntry] = {}
        self.memctl = [OccupancyResource(f"mem{n}", 8)
                       for n in range(num_nodes)]
        #: (node, page) pairs writable locally — avoids re-faulting per line
        self._write_ok: Set[Tuple[int, int]] = set()

    def _page_of_line(self, line: int) -> int:
        return self.line_paddr(line) // self.page_size

    # -- checkpoint/restore -------------------------------------------------

    def min_remote_latency(self) -> int:
        """Cheapest cross-CPU effect: a software protocol handler invocation
        at the remote node (one hop plus half the handler, the invalidation
        path's cheapest leg)."""
        return max(1, self.network.hop_latency + self.handler_cycles // 2)

    def state_dict(self):
        st = super().state_dict()
        st["pages"] = {page: (sorted(e.holders), e.owner)
                       for page, e in self._pages.items()}
        st["memctl"] = [r.state_dict() for r in self.memctl]
        st["write_ok"] = sorted(self._write_ok)
        st["network"] = self.network.state_dict()
        return st

    def load_state(self, state) -> None:
        super().load_state(state)
        self._pages.clear()
        for page, (holders, owner) in state["pages"].items():
            e = _PageEntry(owner if owner >= 0 else 0)
            e.holders = set(holders)
            e.owner = owner
            self._pages[page] = e
        for r, rs in zip(self.memctl, state["memctl"]):
            r.load_state(rs)
        self._write_ok.clear()
        self._write_ok.update(tuple(k) for k in state["write_ok"])
        self.network.load_state(state["network"])

    def _entry(self, page: int) -> _PageEntry:
        e = self._pages.get(page)
        if e is None:
            e = _PageEntry(
                self.home_of_line(page * (self.page_size // self.line_size)))
            self._pages[page] = e
        return e

    def _page_fetch(self, node: int, e: _PageEntry, now: int,
                    page: int) -> int:
        """Software read-fault: pull the page from its owner. The owner's
        write permission is revoked (invalidate-based SWMR: it must re-own
        the page before writing again)."""
        self.count("page_fetch")
        lat = self.handler_cycles
        src = e.owner if e.owner >= 0 else next(iter(e.holders))
        lat += self.network.transfer(node, src, now + lat)
        lat += self.network.transfer(src, node, now + lat, self.page_flits)
        e.holders.add(node)
        self._write_ok.discard((src, page))
        return lat

    def _page_own(self, node: int, e: _PageEntry, page: int, now: int) -> int:
        """Software write-fault: become the single writer."""
        self.count("page_ownership")
        lat = self.handler_cycles
        worst = 0
        for h in list(e.holders):
            if h == node:
                continue
            worst = max(worst, 2 * self.network.hops(node, h)
                        * self.network.hop_latency + self.handler_cycles // 2)
            e.holders.discard(h)
            self._write_ok.discard((h, page))
            self.count("page_invalidation")
        if node not in e.holders:
            src = e.owner
            lat += self.network.transfer(node, src, now + lat)
            lat += self.network.transfer(src, node, now + lat,
                                         self.page_flits)
            e.holders.add(node)
        e.owner = node
        self._write_ok.add((node, page))
        return lat + worst

    # -- contract ---------------------------------------------------------

    def read_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        node = self.cpu_node[cpu]
        page = self._page_of_line(line)
        e = self._entry(page)
        lat = 0
        if node not in e.holders:
            lat += self._page_fetch(node, e, now, page)
        # peer CPUs may cache the line EXCLUSIVE/MODIFIED; demote them so a
        # later write must take the write_miss path (line-level SWMR)
        for c in range(len(self.caches)):
            if c != cpu:
                self._downgrade_peer(c, line)
        lat += self.memctl[node].occupy(now + lat) + self.dram_latency
        self.count("read_miss")
        return lat, LineState.SHARED

    def write_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        node = self.cpu_node[cpu]
        page = self._page_of_line(line)
        e = self._entry(page)
        lat = 0
        if (node, page) not in self._write_ok or e.owner != node:
            lat += self._page_own(node, e, page, now)
        # peer CPUs on other nodes lost the page; peers on this node just
        # lose the line
        for c, cn in enumerate(self.cpu_node):
            if c != cpu:
                self._drop_peer(c, line)
        lat += self.memctl[node].occupy(now + lat) + self.dram_latency
        self.count("write_miss")
        return lat, LineState.MODIFIED

    def writeback(self, cpu: int, line: int, now: int) -> int:
        self.count("writeback")
        node = self.cpu_node[cpu]
        self.memctl[node].occupy(now)
        return 0

    # -- introspection ------------------------------------------------------

    def holders_of_page(self, page: int) -> Set[int]:
        e = self._pages.get(page)
        return set(e.holders) if e else set()

    def owner_of_page(self, page: int) -> int:
        e = self._pages.get(page)
        return e.owner if e else -1
