"""Shared machinery for coherence protocols.

A protocol owns the *global* view of every cached line (who holds it, in what
state) and the shared resources (bus / directories / network). The per-CPU
cache arrays are installed once by the :class:`~repro.mem.hierarchy.
MemorySystem`; protocols mutate peer caches directly on invalidations and
interventions, which is what a snoop or a directory message does.

Contract (all latencies in cycles, ``now`` is the global cycle):

* ``read_miss(cpu, line, now) -> (latency, install_state)``
* ``write_miss(cpu, line, now) -> (latency, install_state)`` — also used for
  S→M upgrades (the line may be present SHARED in the requester)
* ``writeback(cpu, line, now) -> latency`` — eviction of a MODIFIED line
* ``forget(cpu, line)`` — eviction of a clean line (bookkeeping only)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...core.stats import Counter
from ..cache import Cache, _SHARED, patch


def bits_of(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending. Sharer and holder
    sets are stored as bitmasks (bit *i* = cpu / node *i*) so a checkpoint
    captures them with a dict copy; this is their one iteration order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class CoherenceProtocol:
    """Base class; subclasses implement the four-message contract."""

    name = "base"

    #: :meth:`state_dict` keys holding ``line -> int`` tables that change
    #: only at the lines the memory system marks dirty; a delta carries
    #: just those lines of them. Every other key (DSM's page tables, COMA's
    #: attraction memories, which move lines the hierarchy never saw) goes
    #: into a delta whole.
    LINE_TABLES: Tuple[str, ...] = ()

    def __init__(self) -> None:
        #: outer-level (coherence-point) cache per CPU; set by attach()
        self.caches: Sequence[Cache] = ()
        #: inner (L1) cache per CPU, or None; invalidated alongside
        self.l1s: Sequence[Optional[Cache]] = ()
        #: cpu -> NUMA node
        self.cpu_node: Sequence[int] = ()
        #: line address -> home node (installed by MemorySystem; line
        #: granular because every protocol asks once per outer-level miss)
        self.home_of_line: Callable[[int], int] = lambda line: 0
        self.line_size = 32
        self.counters: Dict[str, int] = {}

    def attach(self, caches: Sequence[Cache], l1s: Sequence[Optional[Cache]],
               cpu_node: Sequence[int],
               home_of_line: Callable[[int], int], line_size: int) -> None:
        """Wire the protocol to the hierarchy (called by MemorySystem)."""
        self.caches = caches
        self.l1s = l1s
        self.cpu_node = cpu_node
        self.home_of_line = home_of_line
        self.line_size = line_size

    # -- helpers ------------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- checkpoint/restore -------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Plain-data snapshot; subclasses extend with their global line
        state and shared-resource occupancies. Global line state is held
        as ``line -> int`` dicts and *lent*, not copied: the tables in the
        result are the protocol's own, valid until it next runs (pickle or
        deep-copy to keep), so a checkpoint never costs a step per tracked
        line. ``load_state`` copies in (:func:`~repro.mem.cache.refill`)."""
        return {"counters": dict(self.counters)}

    def load_state(self, state: Dict[str, object]) -> None:
        self.counters.clear()
        self.counters.update(state["counters"])

    def state_delta(self, lines: list) -> Dict[str, object]:
        """:meth:`state_dict` with each of :data:`LINE_TABLES` cut down to
        the values of ``lines``, in order (``None``: no entry); a *borrow*
        like :meth:`state_dict`. :meth:`apply_delta` folds it in."""
        st = self.state_dict()
        for key in self.LINE_TABLES:
            st[key] = list(map(st[key].get, lines))
        return {"state": st, "tables": self.LINE_TABLES}

    @staticmethod
    def apply_delta(state: Dict[str, object], delta: Dict[str, object],
                    lines: list) -> None:
        """Fold a :meth:`state_delta` of ``lines`` into ``state``, a plain
        (owned) ``state_dict()`` taken before it."""
        tables = delta["tables"]
        for key, value in delta["state"].items():
            if key in tables:
                patch(state[key], lines, value)
            else:
                state[key] = value

    def _drop_peer(self, cpu: int, line: int) -> Optional[int]:
        """Invalidate ``line`` in peer ``cpu``'s caches; returns its prior
        outer state (None when absent)."""
        st = self.caches[cpu].invalidate(line)
        l1 = self.l1s[cpu]
        if l1 is not None:
            l1.invalidate(line)
        return st

    def _downgrade_peer(self, cpu: int, line: int) -> None:
        """Demote ``line`` to SHARED in peer ``cpu``'s caches."""
        self.caches[cpu].set_state(line, _SHARED)
        l1 = self.l1s[cpu]
        if l1 is not None:
            l1.set_state(line, _SHARED)

    def line_paddr(self, line: int) -> int:
        return line * self.line_size

    # -- contract ---------------------------------------------------------

    def read_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        raise NotImplementedError

    def write_miss(self, cpu: int, line: int, now: int) -> Tuple[int, int]:
        raise NotImplementedError

    def writeback(self, cpu: int, line: int, now: int) -> int:
        raise NotImplementedError

    def forget(self, cpu: int, line: int) -> None:
        """Clean eviction: default keeps no global state; overridden by
        protocols that track sharers."""
