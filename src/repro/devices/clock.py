"""Real-time clock / interval timer.

Posts a periodic timer interrupt to every CPU (the PowerPC decrementer /
AIX 100 Hz tick). The tick handler is a large share of the "interrupt
handlers" row for TPC-C/TPC-D in Table 1, and it drives pre-emptive
scheduling when enabled.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.scheduler import GlobalScheduler
from .. import osim


class IntervalTimer:
    """Periodic per-CPU timer interrupts."""

    def __init__(self, gsched: GlobalScheduler,
                 intctl: "osim.interrupts.InterruptController",
                 interval: int, handler_cycles: int,
                 num_cpus: int) -> None:
        if interval <= 0:
            raise ValueError("timer interval must be positive")
        self.gsched = gsched
        self.intctl = intctl
        self.interval = interval
        self.handler_cycles = handler_cycles
        self.num_cpus = num_cpus
        self.ticks = 0
        self._running = False
        #: callbacks invoked on each tick with (cpu, now) — the engine hooks
        #: pre-emption here
        self.on_tick: List[Callable[[int, int], None]] = []

    def start(self) -> None:
        """Arm the first tick."""
        if not self._running:
            self._running = True
            self.gsched.schedule_after(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Counters only — the pending tick closure is rebuilt by replay."""
        return {"ticks": self.ticks, "running": self._running}

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.gsched.now
        self.ticks += 1
        for cpu in range(self.num_cpus):
            intr = osim.interrupts.Interrupt(
                "timer", self.handler_cycles, lines=2)
            for cb in self.on_tick:
                # bind loop variables; actions run at delivery time
                intr.actions.append(lambda c=cpu, t=now, f=cb: f(c, t))
            self.intctl.post(intr, now, cpu=cpu)
        self.gsched.schedule_after(self.interval, self._tick)
