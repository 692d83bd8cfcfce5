"""Global event scheduler (the backend's task queue).

When the backend receives an event it "creates a task and inserts it in the
global event scheduler with a time stamp indicating at which global
simulation cycle the task is to be dispatched. [...] Functions may cause
additional tasks to be generated and placed in the global event queue."
(paper §2). Device completions, timer ticks and deferred wakeups all live
here.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from .errors import SchedulerError

Task = Callable[..., None]


class ScheduledTask:
    """Handle for a scheduled task; supports cancellation."""

    __slots__ = ("when", "seq", "fn", "args", "cancelled")

    def __init__(self, when: int, seq: int, fn: Task, args: tuple) -> None:
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the task as cancelled; it will be skipped at dispatch time."""
        self.cancelled = True

    def __lt__(self, other: "ScheduledTask") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class GlobalScheduler:
    """A deterministic min-heap of timestamped backend tasks.

    Ties are broken by insertion order (monotone sequence number), so runs
    are bit-for-bit reproducible.
    """

    def __init__(self) -> None:
        self._heap: List[ScheduledTask] = []
        self._seq = 0
        #: current global simulation cycle (monotone, advanced by the engine)
        self.now = 0
        self.dispatched = 0

    def __len__(self) -> int:
        return len(self._heap)

    def state_dict(self) -> dict:
        """Verification snapshot. The heap holds closures and cannot be
        serialized; a restore rebuilds it by replay, and this summary (time,
        tie-break sequence, queue shape) is what the rebuilt heap must match
        for the tie-break order to stay bit-identical."""
        return {"now": self.now, "seq": self._seq,
                "dispatched": self.dispatched,
                "heap_len": len(self._heap),
                "next_time": self.next_time()}

    def schedule_at(self, when: int, fn: Task, *args: Any) -> ScheduledTask:
        """Schedule ``fn(*args)`` to run at absolute cycle ``when``."""
        if when < self.now:
            raise SchedulerError(
                f"cannot schedule at cycle {when}, now is {self.now}"
            )
        t = ScheduledTask(when, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, t)
        return t

    def schedule_after(self, delay: int, fn: Task, *args: Any) -> ScheduledTask:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SchedulerError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def next_time(self) -> Optional[int]:
        """Timestamp of the earliest live task, or None when empty."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].when if heap else None

    def pop_due(self, horizon: int) -> Optional[ScheduledTask]:
        """Pop the earliest live task with ``when <= horizon``; advance
        ``now`` to its timestamp. Returns None when nothing is due."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            if head.when > horizon:
                return None
            heapq.heappop(heap)
            if head.when > self.now:
                self.now = head.when
            return head
        return None

    def run_task(self, task: ScheduledTask) -> None:
        """Dispatch one task (no-op when it was cancelled meanwhile)."""
        if not task.cancelled:
            self.dispatched += 1
            task.fn(*task.args)

    def advance_to(self, when: int) -> None:
        """Advance the global clock without dispatching (engine use)."""
        if when > self.now:
            self.now = when
