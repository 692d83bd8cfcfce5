"""Lock and barrier managers.

Synchronisation instructions generate events (§2); the backend resolves them
here. Locks are FIFO and *spinning*: a waiter keeps its processor (the model
for the latches/spinlocks that dominate database engines), so a grant simply
advances the waiter's execution time to the release point. Barriers release
every party at the time the last one arrives.

Each lock is also given a line-aligned address in the shared-sync region so
the engine can charge real coherence traffic (an RMW reference) for
acquisitions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .errors import CompassError
from .frontend import SimProcess

#: base virtual address of the lock/barrier region (kernel-shared segment)
SYNC_REGION_BASE = 0xF000_0000
#: bytes reserved per lock (one cache line, avoids false sharing)
SYNC_SLOT = 128


def lock_address(lock_id: int) -> int:
    """Line-aligned shared address backing a lock id."""
    return SYNC_REGION_BASE + lock_id * SYNC_SLOT


class _Lock:
    __slots__ = ("holder", "waiters", "acquisitions", "contended")

    def __init__(self) -> None:
        self.holder: Optional[int] = None      # pid
        self.waiters: Deque[SimProcess] = deque()
        self.acquisitions = 0
        self.contended = 0


class LockManager:
    """FIFO spin locks keyed by integer id."""

    def __init__(self) -> None:
        self._locks: Dict[int, _Lock] = {}

    def _get(self, lock_id: int) -> _Lock:
        lk = self._locks.get(lock_id)
        if lk is None:
            lk = _Lock()
            self._locks[lock_id] = lk
        return lk

    def acquire(self, lock_id: int, proc: SimProcess) -> bool:
        """Try to take the lock; False enqueues ``proc`` as a spinner."""
        lk = self._get(lock_id)
        if lk.holder is None:
            lk.holder = proc.pid
            lk.acquisitions += 1
            return True
        lk.contended += 1
        lk.waiters.append(proc)
        return False

    def release(self, lock_id: int, proc: SimProcess) -> Optional[SimProcess]:
        """Release; returns the next waiter (now the holder), if any."""
        lk = self._locks.get(lock_id)
        if lk is None or lk.holder != proc.pid:
            raise CompassError(
                f"pid {proc.pid} released lock {lock_id} it does not hold "
                f"(holder={getattr(lk, 'holder', None)})"
            )
        if lk.waiters:
            nxt = lk.waiters.popleft()
            lk.holder = nxt.pid
            lk.acquisitions += 1
            return nxt
        lk.holder = None
        return None

    def holder_of(self, lock_id: int) -> Optional[int]:
        lk = self._locks.get(lock_id)
        return lk.holder if lk else None

    def stats(self) -> Dict[int, Tuple[int, int]]:
        """lock id -> (acquisitions, contended acquisitions)."""
        return {i: (l.acquisitions, l.contended) for i, l in self._locks.items()}

    def owners(self) -> Dict[int, Tuple[Optional[int], List[int]]]:
        """lock id -> (holder pid, waiter pids) for every non-idle lock."""
        return {i: (l.holder, [w.pid for w in l.waiters])
                for i, l in self._locks.items()
                if l.holder is not None or l.waiters}

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> Dict[str, dict]:
        """Verification snapshot: :meth:`owners` (waiters become pids;
        replay rebuilds the SimProcess references) and :meth:`stats`.
        Every autosave takes it, and most locks are idle: only held ones
        cost more than a tuple."""
        return {"owners": self.owners(), "stats": self.stats()}


class _Barrier:
    __slots__ = ("arrived", "episodes")

    def __init__(self) -> None:
        self.arrived: List[SimProcess] = []
        self.episodes = 0


class BarrierManager:
    """Counted barriers keyed by integer id; spinning semantics."""

    def __init__(self) -> None:
        self._barriers: Dict[int, _Barrier] = {}

    def arrive(self, barrier_id: int, count: int,
               proc: SimProcess) -> Optional[List[SimProcess]]:
        """Record an arrival. When ``proc`` is the last of ``count`` parties,
        returns the earlier arrivals to release (the caller proceeds
        directly); otherwise returns None and ``proc`` must wait."""
        if count <= 0:
            raise CompassError(f"barrier {barrier_id}: count must be positive")
        b = self._barriers.get(barrier_id)
        if b is None:
            b = _Barrier()
            self._barriers[barrier_id] = b
        if len(b.arrived) + 1 > count:
            raise CompassError(
                f"barrier {barrier_id}: more arrivals than count={count}"
            )
        if len(b.arrived) + 1 == count:
            released = b.arrived
            b.arrived = []
            b.episodes += 1
            return released
        b.arrived.append(proc)
        return None

    def waiting(self, barrier_id: int) -> int:
        b = self._barriers.get(barrier_id)
        return len(b.arrived) if b else 0

    def episodes(self, barrier_id: int) -> int:
        b = self._barriers.get(barrier_id)
        return b.episodes if b else 0

    def pending(self) -> Dict[int, List[int]]:
        """barrier id -> pids parked at an incomplete episode."""
        return {i: [p.pid for p in b.arrived]
                for i, b in self._barriers.items() if b.arrived}

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> Dict[int, dict]:
        """Plain-data snapshot (arrivals as pids; see LockManager)."""
        return {i: {"arrived": [p.pid for p in b.arrived],
                    "episodes": b.episodes}
                for i, b in self._barriers.items()}
