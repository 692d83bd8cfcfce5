"""Interrupts and traps (paper §3.2).

The backend raises an interrupt by setting the "interrupt request" flag in
the target CPU's slot of the CPU-states structure; the frontend notices the
flag when it next sends a memory event and runs the handler before
proceeding (a delay of a few instructions, harmless for asynchronous
events). Handlers are bottom-half kernel code: they run in kernel address
space with interrupts disabled, consume handler cycles, touch a few kernel
cache lines (device registers, queue heads), then perform their completion
actions — typically waking a process blocked in a blocking OS call.

When the target CPU is *idle* there is no frontend to poll the flag, so the
engine services the interrupt directly at post time (the idle loop takes it
immediately); only the time/statistics effects are modeled on that path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..core import events as ev
from ..core.communicator import CpuState

#: kernel addresses of per-source device/queue structures the handler touches
_HANDLER_DATA_BASE = 0xC700_0000

#: the handler's reference kinds, bound once (not an ``EvKind`` lookup each)
_READ = int(ev.EvKind.READ)
_WRITE = int(ev.EvKind.WRITE)


class Interrupt:
    """A posted interrupt: source, cost, and completion actions."""

    __slots__ = ("source", "handler_cycles", "actions", "posted_at", "lines")

    def __init__(self, source: str, handler_cycles: int,
                 actions: Optional[List[Callable[[], None]]] = None,
                 lines: int = 4) -> None:
        self.source = source
        self.handler_cycles = handler_cycles
        self.actions = actions or []
        self.posted_at = 0
        #: number of kernel cache lines the handler touches
        self.lines = lines


class InterruptController:
    """Routes interrupts to CPUs and builds handler frames."""

    def __init__(self, cpus: Sequence[CpuState], route: str = "round_robin") -> None:
        self.cpus = cpus
        self.route = route
        self._rr = 0
        self.posted = 0
        #: source name -> distinct kernel data area (stable per source)
        self._areas: dict = {}
        #: engine hook called after posting: services the interrupt
        #: immediately when the target CPU has no event-producing frontend
        #: (idle, or its process is spinning/blocked) — the idle loop takes
        #: interrupts without waiting for a memory event
        self.post_hook: Optional[Callable[[int], None]] = None

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Routing cursor + counters + source->area map (pending interrupt
        queues are rebuilt by replay and verified via CpuState)."""
        return {"rr": self._rr, "posted": self.posted,
                "areas": dict(self._areas)}

    # -- posting -------------------------------------------------------------

    def post(self, intr: Interrupt, now: int, cpu: int = -1) -> int:
        """Set the interrupt-request flag on a CPU (chosen by routing policy
        when ``cpu`` is -1). Returns the CPU chosen."""
        if cpu < 0:
            if self.route == "cpu0":
                cpu = 0
            else:
                cpu = self._rr
                self._rr = (self._rr + 1) % len(self.cpus)
        intr.posted_at = now
        self.cpus[cpu].irq_pending.append(intr)
        self.posted += 1
        if self.post_hook is not None:
            self.post_hook(cpu)
        return cpu

    def pending_for(self, cpu: int) -> List[Interrupt]:
        """Drain the pending queue of ``cpu`` (delivery)."""
        q = self.cpus[cpu].irq_pending
        if not q:
            return []
        out = list(q)
        q.clear()
        return out

    # -- handler construction ---------------------------------------------

    def _area_of(self, source: str) -> int:
        a = self._areas.get(source)
        if a is None:
            a = _HANDLER_DATA_BASE + len(self._areas) * 0x1_0000
            self._areas[source] = a
        return a

    def handler_frame(self, intr: Interrupt, clock) -> ev.Event:
        """Build the handler coroutine for delivery on a *busy* CPU: it is
        pushed onto the interrupted process's frame stack and emits
        kernel-space references, polluting the caches exactly the way a real
        handler would. ``clock`` is the process's FrontendClock."""
        base = self._area_of(intr.source)

        def handler():
            # device register reads + queue manipulation
            per_line = max(1, intr.handler_cycles // max(1, intr.lines))
            for i in range(intr.lines):
                clock.pending += per_line
                yield ev.Event(_READ if i % 2 == 0 else _WRITE,
                               base + 32 * i, 4)
            for act in intr.actions:
                act()
            return None

        return handler()

    def direct_service(self, intr: Interrupt) -> int:
        """Idle-CPU delivery: run completion actions immediately; the caller
        charges ``handler_cycles`` to that CPU's interrupt time."""
        for act in intr.actions:
            act()
        return intr.handler_cycles
