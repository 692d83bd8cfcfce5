"""Interpreter: executes a :class:`~repro.isa.program.Program` either as an
event-generating frontend coroutine (instrumented mode) or natively with no
simulation hooks (raw mode, the Tables 2/3 "raw execution" baseline).

Both modes run the program's basic-block translation
(:mod:`repro.isa.translate`), the one ISA execution path. The instrumented
mode reproduces COMPASS's instrumentation contract exactly:

* at the end of each basic block it adds the block's static cost to the
  frontend's pending-cycles accumulator (the inserted timing code of §2);
* for each memory-reference instruction it fills an event record and yields
  it through the event port, blocking until the backend replies with the
  reference latency;
* ``SIMOFF``/``SIMON`` implement the Simulation ON/OFF switch (§5): while
  OFF, code executes functionally but produces no events and no time.

The raw mode has the same semantics with every hook elided, as COMPASS's
raw baseline is the same application code without the inserted code.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..core import events as ev
from .memory import DataMemory
from .program import Program
from .translate import translated_run, translated_run_raw


class Machine:
    """Architectural state of one interpreted frontend."""

    __slots__ = ("regs", "stack", "mem", "sim_on", "pending", "halted",
                 "reservation", "instret")

    def __init__(self, mem: Optional[DataMemory] = None) -> None:
        self.regs: List[Any] = [0] * 32
        self.stack: List[int] = []          # return block indices
        self.mem = mem if mem is not None else DataMemory()
        self.sim_on = True
        #: cycles accumulated since the last event (read/zeroed by engine)
        self.pending = 0
        self.halted = False
        self.reservation: Optional[int] = None
        self.instret = 0                    # retired instruction count


class Interpreter:
    """Binds a program to a machine and provides the two execution modes."""

    def __init__(self, program: Program, machine: Optional[Machine] = None) -> None:
        self.program = program
        self.machine = machine if machine is not None else Machine()

    def run(self, batched: bool = False) -> Generator[ev.Event, Any, int]:
        """Execute instrumented; yields events, receives backend replies.

        With ``batched=True`` memory references are accumulated into a
        pooled :class:`~repro.core.events.EventBatch` and published as one
        port message per :data:`~repro.core.events.BATCH_CAP` references
        (flushed before every synchronisation/OS-call event so ordering
        effects are preserved). Timing is bit-identical to the per-event
        mode: each reference carries the pending cycles accumulated before
        it, so the engine reconstructs the exact issue times.

        The program is translated here, not at the first resume: a
        :class:`~repro.core.errors.TranslationError` surfaces at the call.
        Returns the program's exit status (r3 at HALT).
        """
        return translated_run(self.program, self.machine, batched=batched)

    def run_raw(self, max_instrs: int = 1 << 62) -> int:
        """Execute natively: no events, no timing. Returns exit status."""
        return translated_run_raw(self.program, self.machine, max_instrs)
