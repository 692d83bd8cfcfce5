"""Simulation slowdown measurement (the paper's Tables 2 and 3).

Slowdown = (wall-clock of the simulated run) / (wall-clock of the raw,
uninstrumented run of the same work on the same host). The paper's three
factors — how much code is instrumented, backend complexity, host
parallelism — map to: which workload callable you pass, which SimConfig you
build the engine with, and whether the engine runs inline or in host-
parallel mode.

For ISA workloads the raw baseline is :meth:`Interpreter.run_raw
<repro.isa.interpreter.Interpreter.run_raw>`: the same translated blocks the
simulated run executes, without the instrumentation hooks (the analogue of
COMPASS's uninstrumented binary).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.stats import StatsRegistry


@dataclass(frozen=True)
class SlowdownResult:
    """Raw-vs-simulated timing for one configuration."""

    label: str
    raw_seconds: float
    sim_seconds: float
    simulated_cycles: int
    events: int

    @property
    def slowdown(self) -> float:
        """The paper's slowdown factor."""
        return self.sim_seconds / self.raw_seconds if self.raw_seconds else 0.0

    def row(self) -> tuple:
        return (self.label, f"{self.raw_seconds:.3f}s",
                f"{self.sim_seconds:.3f}s", f"{self.slowdown:.0f}x")


def _best_of(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_slowdown(label: str,
                     raw_fn: Callable[[], object],
                     sim_fn: Callable[[], StatsRegistry],
                     events: Optional[int] = None,
                     repeat_raw: int = 3) -> SlowdownResult:
    """Time the raw baseline (best of ``repeat_raw``) against one simulated
    run. ``sim_fn`` must return the run's StatsRegistry."""
    best_raw = _best_of(raw_fn, repeat_raw)
    t0 = time.perf_counter()
    stats = sim_fn()
    sim_s = time.perf_counter() - t0
    return SlowdownResult(
        label=label,
        raw_seconds=best_raw,
        sim_seconds=sim_s,
        simulated_cycles=stats.end_cycle,
        events=events if events is not None else 0,
    )
