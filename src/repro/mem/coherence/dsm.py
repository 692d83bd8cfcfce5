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
from ..cache import LineState, refill
from ..network import MeshNetwork
from .base import CoherenceProtocol, bits_of


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
        #: page -> bitmask of the node ids holding a copy (never 0) and
        #: page -> owning node; both gain their key on the first touch
        self._holders: Dict[int, int] = {}
        self._owner: Dict[int, int] = {}
        self.memctl = [OccupancyResource(f"mem{n}", 8)
                       for n in range(num_nodes)]
        #: page -> bitmask of the nodes it is writable on locally (avoids
        #: re-faulting per line); no key when no node may write
        self._write_ok: Dict[int, int] = {}

    def _page_of_line(self, line: int) -> int:
        return self.line_paddr(line) // self.page_size

    # -- checkpoint/restore -------------------------------------------------

    def state_dict(self):
        st = super().state_dict()
        st["holders"] = self._holders
        st["owner"] = self._owner
        st["memctl"] = [r.state_dict() for r in self.memctl]
        st["write_ok"] = self._write_ok
        st["network"] = self.network.state_dict()
        return st

    def load_state(self, state) -> None:
        super().load_state(state)
        refill(self._holders, state["holders"])
        refill(self._owner, state["owner"])
        refill(self._write_ok, state["write_ok"])
        for r, rs in zip(self.memctl, state["memctl"]):
            r.load_state(rs)
        self.network.load_state(state["network"])

    def _touch(self, page: int) -> None:
        """First touch: the page starts held and owned by its home node."""
        if page not in self._owner:
            home = self.home_of_line(page * (self.page_size // self.line_size))
            self._holders[page] = 1 << home
            self._owner[page] = home

    def _revoke_write(self, node: int, page: int) -> None:
        mask = self._write_ok.get(page, 0) & ~(1 << node)
        if mask:
            self._write_ok[page] = mask
        else:
            self._write_ok.pop(page, None)

    def _page_fetch(self, node: int, page: int, now: int) -> int:
        """Software read-fault: pull the page from its owner. The owner's
        write permission is revoked (invalidate-based SWMR: it must re-own
        the page before writing again)."""
        self.count("page_fetch")
        lat = self.handler_cycles
        src = self._owner[page]
        lat += self.network.transfer(node, src, now + lat)
        lat += self.network.transfer(src, node, now + lat, self.page_flits)
        self._holders[page] |= 1 << node
        self._revoke_write(src, page)
        return lat

    def _page_own(self, node: int, page: int, now: int) -> int:
        """Software write-fault: become the single writer."""
        self.count("page_ownership")
        lat = self.handler_cycles
        worst = 0
        bit = 1 << node
        held = self._holders[page] & bit
        for h in bits_of(self._holders[page] & ~bit):
            worst = max(worst, 2 * self.network.hops(node, h)
                        * self.network.hop_latency + self.handler_cycles // 2)
            self.count("page_invalidation")
        if not held:
            src = self._owner[page]
            lat += self.network.transfer(node, src, now + lat)
            lat += self.network.transfer(src, node, now + lat,
                                         self.page_flits)
        self._holders[page] = bit
        self._owner[page] = node
        self._write_ok[page] = bit
        return lat + worst

    # -- contract ---------------------------------------------------------

    def read_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        node = self.cpu_node[cpu]
        page = self._page_of_line(line)
        self._touch(page)
        lat = 0
        if not self._holders[page] >> node & 1:
            lat += self._page_fetch(node, page, now)
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
        self._touch(page)
        lat = 0
        if (not self._write_ok.get(page, 0) >> node & 1
                or self._owner[page] != node):
            lat += self._page_own(node, page, now)
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
        return set(bits_of(self._holders.get(page, 0)))

    def owner_of_page(self, page: int) -> int:
        return self._owner.get(page, -1)
