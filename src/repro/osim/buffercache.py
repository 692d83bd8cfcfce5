"""Kernel buffer cache.

The file-I/O syscall models (kreadv/kwritev, and the VM fault path for
mmapped files) go through this block cache: a hit copies out of a resident
kernel buffer; a miss blocks the caller on the disk. Eviction of a dirty
buffer issues a *delayed* (asynchronous) disk write, as real buffer caches
do. Only timing/residency is tracked here — functional bytes live in the
:class:`~repro.osim.filesystem.FileSystem`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from . import kmem


class BufferCache:
    """LRU cache of (inode, block) -> buffer slot."""

    def __init__(self, nbufs: int = 1024, bsize: int = 4096) -> None:
        if nbufs <= 0:
            raise ValueError("nbufs must be positive")
        self.nbufs = nbufs
        self.bsize = bsize
        #: (ino, blk) -> slot, in LRU order (first = LRU)
        self._map: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._slot_of: Dict[int, Tuple[int, int]] = {}
        self._dirty: set = set()
        self._free = list(range(nbufs - 1, -1, -1))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    def lookup(self, ino: int, blk: int) -> Optional[int]:
        """Slot of a resident block (MRU-promoted), or None."""
        key = (ino, blk)
        slot = self._map.get(key)
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        self._map.move_to_end(key)
        return slot

    def install(self, ino: int, blk: int) -> Tuple[int, Optional[Tuple[int, int, bool]]]:
        """Make (ino, blk) resident; returns ``(slot, evicted)`` where
        ``evicted`` is ``(ino, blk, was_dirty)`` for a displaced block."""
        key = (ino, blk)
        slot = self._map.get(key)
        if slot is not None:
            self._map.move_to_end(key)
            return slot, None
        evicted = None
        if self._free:
            slot = self._free.pop()
        else:
            old_key, slot = self._map.popitem(last=False)
            was_dirty = old_key in self._dirty
            self._dirty.discard(old_key)
            self.evictions += 1
            if was_dirty:
                self.dirty_evictions += 1
            evicted = (old_key[0], old_key[1], was_dirty)
            del self._slot_of[slot]
        self._map[key] = slot
        self._slot_of[slot] = key
        return slot, evicted

    def mark_dirty(self, ino: int, blk: int) -> None:
        if (ino, blk) in self._map:
            self._dirty.add((ino, blk))

    def is_dirty(self, ino: int, blk: int) -> bool:
        return (ino, blk) in self._dirty

    def clean(self, ino: int, blk: int) -> None:
        self._dirty.discard((ino, blk))

    def dirty_blocks_of(self, ino: int) -> list:
        """Dirty (ino, blk) pairs of one file (the msync/fsync scan)."""
        return sorted(k for k in self._dirty if k[0] == ino)

    def resident(self, ino: int, blk: int) -> bool:
        return (ino, blk) in self._map

    def data_addr(self, slot: int) -> int:
        """Kernel address of the slot's data page."""
        return kmem.buf_data_addr(slot, self.bsize)

    def hdr_addr(self, slot: int) -> int:
        """Kernel address of the slot's buffer header."""
        return kmem.buf_hdr_addr(slot)

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-data snapshot; ``_map`` items carry the LRU order."""
        return {
            "map": list(self._map.items()),
            "dirty": sorted(self._dirty),
            "free": list(self._free),
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
        }

    @property
    def occupancy(self) -> int:
        return len(self._map)

    def hit_rate(self) -> float:
        t = self.hits + self.misses
        return self.hits / t if t else 0.0
