"""Set-associative cache model with MESI-compatible line states.

Used for both L1 and L2 of the paper's backends. The hot path (lookup +
LRU update) is a dict hit plus a small-list move-to-front; associativities
are ≤ 16 so linear set scans beat fancier structures (see the HPC-guide
notes in DESIGN.md).
"""

from __future__ import annotations

from enum import IntEnum
from itertools import compress
from typing import Dict, List, Optional, Tuple

from ..core.config import CacheConfig


class LineState(IntEnum):
    """MESI states (INVALID lines are simply absent)."""

    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


# hot-path int constants: enum member access costs a descriptor lookup per
# use, which shows up in the fill/flush paths (values are interchangeable
# with LineState members — it is an IntEnum)
_SHARED = 1
_EXCLUSIVE = 2
_MODIFIED = 3


def refill(dst: dict, src: dict) -> None:
    """Copy ``src`` into ``dst`` in place — the *copy in* half of the state
    owners' borrow-out / copy-in rule. ``src`` may be ``dst`` itself (an
    owner loading its own borrowed ``state_dict()``)."""
    if src is not dst:
        dst.clear()
        dst.update(src)


def patch(dst: dict, keys: list, values: list) -> None:
    """Apply one slice of a state delta to a plain table: each of ``keys``
    takes its value, and ``None`` means the key is absent."""
    for key, value in zip(keys, values):
        if value is None:
            dst.pop(key, None)
        else:
            dst[key] = value


class Cache:
    """One cache: maps line address → state, LRU within each set."""

    __slots__ = ("name", "cfg", "line_shift", "n_sets", "set_mask", "assoc",
                 "_sets", "_states", "version", "dirty_sets",
                 "hits", "misses", "evictions", "writebacks", "invalidations")

    def __init__(self, name: str, cfg: CacheConfig) -> None:
        cfg.validate()
        self.name = name
        self.cfg = cfg
        self.line_shift = cfg.line_size.bit_length() - 1
        self.n_sets = cfg.n_sets
        #: power-of-two set counts index with a mask instead of a modulo
        #: (the common geometry; -1 marks the generic fallback)
        self.set_mask = self.n_sets - 1 if self.n_sets & (self.n_sets - 1) == 0 else -1
        #: hoisted from the frozen dataclass: attribute reads off a slot are
        #: measurably cheaper than a dataclass field in the fill path
        self.assoc = cfg.assoc
        #: per-set MRU-ordered list of line addresses (index 0 = MRU)
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        #: line address -> LineState
        self._states: Dict[int, int] = {}
        #: bumped on every mutation that could turn a hit into a decline
        #: (fills, invalidations, state changes, restores), so a batch
        #: classification (mem/vec.py) holds while it stands; LRU reordering
        #: and the hit paths' E->M upgrades do not bump it (a reorder moves
        #: ``hits``, which only a restore rewinds: mem/vec.py's LRU stamp)
        self.version = 0
        #: one flag per set: its contents or LRU order changed since the
        #: last checkpoint capture (set by the memory system's miss and
        #: fast-forward paths, and by :meth:`invalidate`, the protocols'
        #: peer drop); None unless a checkpoint manager tracks this (L2)
        #: cache, and then nothing marks
        self.dirty_sets: Optional[bytearray] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.invalidations = 0

    # -- address helpers -----------------------------------------------------

    def line_of(self, paddr: int) -> int:
        """Line address (paddr with offset bits stripped)."""
        return paddr >> self.line_shift

    def _set_of(self, line: int) -> int:
        mask = self.set_mask
        return line & mask if mask >= 0 else line % self.n_sets

    # -- operations ------------------------------------------------------------

    def lookup(self, line: int, update_lru: bool = True) -> Optional[int]:
        """State of ``line`` if present (MRU-promoted), else None."""
        st = self._states.get(line)
        if st is None:
            self.misses += 1
            return None
        self.hits += 1
        if update_lru:
            s = self._sets[self._set_of(line)]
            if s[0] != line:
                s.remove(line)
                s.insert(0, line)
        return st

    def probe(self, line: int) -> Optional[int]:
        """State without touching LRU or hit/miss counters (snoop path)."""
        return self._states.get(line)

    def insert(self, line: int, state: int) -> Optional[Tuple[int, int]]:
        """Fill ``line`` with ``state``; returns the victim ``(line, state)``
        when an eviction was needed (caller handles the writeback)."""
        victim: Optional[Tuple[int, int]] = None
        self.version += 1
        s = self._sets[self._set_of(line)]
        if line in self._states:
            # refill of a present line: just update state + LRU
            self._states[line] = state
            if s[0] != line:
                s.remove(line)
                s.insert(0, line)
            return None
        if len(s) >= self.assoc:
            vline = s.pop()
            vstate = self._states.pop(vline)
            self.evictions += 1
            if vstate == _MODIFIED:
                self.writebacks += 1
            victim = (vline, vstate)
        s.insert(0, line)
        self._states[line] = state
        return victim

    def set_state(self, line: int, state: int) -> None:
        """Change the state of a present line (upgrade/downgrade)."""
        if line in self._states:
            self._states[line] = state
            self.version += 1

    def invalidate(self, line: int) -> Optional[int]:
        """Drop ``line``; returns its prior state (None if absent)."""
        st = self._states.pop(line, None)
        if st is not None:
            i = self._set_of(line)
            self._sets[i].remove(line)
            if self.dirty_sets is not None:
                self.dirty_sets[i] = 1
            self.invalidations += 1
            self.version += 1
        return st

    def contains(self, line: int) -> bool:
        return line in self._states

    def occupancy(self) -> int:
        """Number of valid lines."""
        return len(self._states)

    def flush_dirty(self) -> List[int]:
        """Return (and clean) every MODIFIED line — used by msync models."""
        dirty = [l for l, s in self._states.items() if s == _MODIFIED]
        for l in dirty:
            self._states[l] = _SHARED
        if dirty:
            self.version += 1
        self.writebacks += len(dirty)
        return dirty

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Per-set MRU order, line states, counters. A *borrow*: ``sets`` and
        ``states`` are this cache's own containers, valid until it next
        runs; pickle or deep-copy to keep (``load_state`` copies in)."""
        return {
            "sets": self._sets,
            "states": self._states,
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "writebacks": self.writebacks,
            "invalidations": self.invalidations,
        }

    def state_delta(self, lines: list) -> dict:
        """The part of :meth:`state_dict` a checkpoint delta carries: the
        states of ``lines`` in order (``None``: absent), the sets
        :attr:`dirty_sets` flags (their indices and contents) and the
        counters. A *borrow* like :meth:`state_dict`; :meth:`apply_delta`
        folds it into a plain ``state_dict()``."""
        touched = list(compress(range(self.n_sets), self.dirty_sets))
        return {
            "states": list(map(self._states.get, lines)),
            "touched": touched,
            "sets": list(map(self._sets.__getitem__, touched)),
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "writebacks": self.writebacks,
            "invalidations": self.invalidations,
        }

    @staticmethod
    def apply_delta(state: dict, delta: dict, lines: list) -> None:
        """Fold a :meth:`state_delta` of ``lines`` into ``state``, a plain
        (owned) ``state_dict()`` taken before it."""
        sets = state["sets"]
        for i, s in zip(delta["touched"], delta["sets"]):
            sets[i] = s
        patch(state["states"], lines, delta["states"])
        for key in ("hits", "misses", "evictions", "writebacks",
                    "invalidations"):
            state[key] = delta[key]

    def load_state(self, state: dict) -> None:
        """Restore a snapshot. The ``_sets``/``_states`` containers are
        mutated in place: the memory system's fast-path filter holds direct
        references to them."""
        for dst, src in zip(self._sets, state["sets"]):
            dst[:] = src
        refill(self._states, state["states"])
        self.version += 1
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.evictions = state["evictions"]
        self.writebacks = state["writebacks"]
        self.invalidations = state["invalidations"]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        a = self.accesses
        return self.misses / a if a else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Cache({self.name}, {self.cfg.size >> 10}KiB, "
                f"hits={self.hits}, misses={self.misses})")
