"""Interpreter: executes a :class:`~repro.isa.program.Program` either as an
event-generating frontend coroutine (instrumented mode) or natively with no
simulation hooks (raw mode, used for the Table 2 "raw execution" baseline).

The instrumented loop reproduces COMPASS's instrumentation contract exactly:

* at the end of each basic block it adds the block's static cost to the
  frontend's pending-cycles accumulator (the inserted timing code of §2);
* for each memory-reference instruction it fills an event record and yields
  it through the event port, blocking until the backend replies with the
  reference latency;
* ``SIMOFF``/``SIMON`` implement the Simulation ON/OFF switch (§5): while
  OFF, code executes functionally but produces no events and no time.

The raw loop shares semantics but elides every hook — two specialised loops
are kept deliberately (they are the two hottest paths in the system and the
raw one must not pay even a branch per instruction for instrumentation).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..core import events as ev
from ..core.errors import FrontendError
from .instructions import Instr, Op
from .memory import DataMemory
from .program import Program

#: memory kinds as plain ints, bound once: the per-event arms would
#: otherwise look an ``EvKind`` member up on the enum class per reference
_READ = int(ev.EvKind.READ)
_WRITE = int(ev.EvKind.WRITE)
_RMW = int(ev.EvKind.RMW)


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

    # ------------------------------------------------------------------
    # instrumented execution (frontend coroutine)
    # ------------------------------------------------------------------

    def run(self, batched: bool = False,
            translate: bool = False) -> Generator[ev.Event, Any, int]:
        """Execute instrumented; yields events, receives backend replies.

        With ``batched=True`` memory references are accumulated into a
        pooled :class:`~repro.core.events.EventBatch` and published as one
        port message per :data:`~repro.core.events.BATCH_CAP` references
        (flushed before every synchronisation/OS-call event so ordering
        effects are preserved). Timing is bit-identical to the per-event
        mode: each reference carries the pending cycles accumulated before
        it, so the engine reconstructs the exact issue times.

        With ``translate=True`` execution goes through the basic-block
        translation cache (:mod:`repro.isa.translate`): identical yields,
        replies, state and return value, just a faster host loop. Programs
        the translator cannot handle fall back here transparently.

        Returns the program's exit status (r3 at HALT).
        """
        if translate:
            from .translate import (CACHE_STATS, TranslationError,
                                    translated_run)
            try:
                return translated_run(self.program, self.machine,
                                      batched=batched)
            except TranslationError:
                CACHE_STATS["fallbacks"] += 1
        return self._run_interpreted(batched)

    def _run_interpreted(self,
                         batched: bool = False) -> Generator[ev.Event, Any, int]:
        """The generic dispatch loop (reference semantics for translation)."""
        m = self.machine
        regs = m.regs
        blocks = self.program.blocks
        bi = self.program.entry
        batch = ev.acquire_batch() if batched else None
        cap = ev.BATCH_CAP

        while not m.halted:
            blk = blocks[bi]
            if m.sim_on:
                m.pending += blk.cost
            next_bi = bi + 1  # fall-through default
            for ins in blk.instrs:
                op = ins.op
                m.instret += 1
                # --- memory ---
                if op == Op.LOAD:
                    addr = regs[ins.b] + ins.c
                    regs[ins.a] = m.mem.load(addr, ins.d or 4)
                    if m.sim_on:
                        if batch is not None:
                            batch.append(0, addr, ins.d or 4, m.pending)
                            m.pending = 0
                            if batch.n >= cap:
                                yield batch
                                batch.reset()
                        else:
                            yield ev.Event(_READ, addr, ins.d or 4)
                elif op == Op.STORE:
                    addr = regs[ins.b] + ins.c
                    m.mem.store(addr, regs[ins.a], ins.d or 4)
                    if m.sim_on:
                        if batch is not None:
                            batch.append(1, addr, ins.d or 4, m.pending)
                            m.pending = 0
                            if batch.n >= cap:
                                yield batch
                                batch.reset()
                        else:
                            yield ev.Event(_WRITE, addr, ins.d or 4)
                elif op == Op.LOADX:
                    addr = regs[ins.b] + regs[ins.c]
                    regs[ins.a] = m.mem.load(addr, ins.d or 4)
                    if m.sim_on:
                        if batch is not None:
                            batch.append(0, addr, ins.d or 4, m.pending)
                            m.pending = 0
                            if batch.n >= cap:
                                yield batch
                                batch.reset()
                        else:
                            yield ev.Event(_READ, addr, ins.d or 4)
                elif op == Op.STOREX:
                    addr = regs[ins.b] + regs[ins.c]
                    m.mem.store(addr, regs[ins.a], ins.d or 4)
                    if m.sim_on:
                        if batch is not None:
                            batch.append(1, addr, ins.d or 4, m.pending)
                            m.pending = 0
                            if batch.n >= cap:
                                yield batch
                                batch.reset()
                        else:
                            yield ev.Event(_WRITE, addr, ins.d or 4)
                elif op == Op.LWARX:
                    addr = regs[ins.b]
                    m.reservation = addr
                    regs[ins.a] = m.mem.load(addr, 4)
                    if m.sim_on:
                        if batch is not None:
                            batch.append(0, addr, 4, m.pending)
                            m.pending = 0
                            if batch.n >= cap:
                                yield batch
                                batch.reset()
                        else:
                            yield ev.Event(_READ, addr, 4)
                elif op == Op.STWCX:
                    addr = regs[ins.b]
                    if m.reservation == addr:
                        m.mem.store(addr, regs[ins.a], 4)
                        regs[ins.a] = 1
                        if m.sim_on:
                            if batch is not None:
                                batch.append(2, addr, 4, m.pending)
                                m.pending = 0
                                if batch.n >= cap:
                                    yield batch
                                    batch.reset()
                            else:
                                yield ev.Event(_RMW, addr, 4)
                    else:
                        regs[ins.a] = 0
                    m.reservation = None
                # --- integer ALU ---
                elif op == Op.ADD:
                    regs[ins.a] = regs[ins.b] + regs[ins.c]
                elif op == Op.SUB:
                    regs[ins.a] = regs[ins.b] - regs[ins.c]
                elif op == Op.MUL:
                    regs[ins.a] = regs[ins.b] * regs[ins.c]
                elif op == Op.DIV:
                    regs[ins.a] = regs[ins.b] // regs[ins.c] if regs[ins.c] else 0
                elif op == Op.MOD:
                    regs[ins.a] = regs[ins.b] % regs[ins.c] if regs[ins.c] else 0
                elif op == Op.AND:
                    regs[ins.a] = regs[ins.b] & regs[ins.c]
                elif op == Op.OR:
                    regs[ins.a] = regs[ins.b] | regs[ins.c]
                elif op == Op.XOR:
                    regs[ins.a] = regs[ins.b] ^ regs[ins.c]
                elif op == Op.SHL:
                    regs[ins.a] = regs[ins.b] << regs[ins.c]
                elif op == Op.SHR:
                    regs[ins.a] = regs[ins.b] >> regs[ins.c]
                elif op == Op.ADDI:
                    regs[ins.a] = regs[ins.b] + ins.c
                elif op == Op.MULI:
                    regs[ins.a] = regs[ins.b] * ins.c
                elif op == Op.ANDI:
                    regs[ins.a] = regs[ins.b] & ins.c
                elif op == Op.LI:
                    regs[ins.a] = ins.b
                elif op == Op.MOV:
                    regs[ins.a] = regs[ins.b]
                elif op == Op.CMP:
                    x, y = regs[ins.b], regs[ins.c]
                    regs[ins.a] = (x > y) - (x < y)
                # --- float ---
                elif op == Op.FADD:
                    regs[ins.a] = regs[ins.b] + regs[ins.c]
                elif op == Op.FSUB:
                    regs[ins.a] = regs[ins.b] - regs[ins.c]
                elif op == Op.FMUL:
                    regs[ins.a] = regs[ins.b] * regs[ins.c]
                elif op == Op.FDIV:
                    regs[ins.a] = regs[ins.b] / regs[ins.c] if regs[ins.c] else 0.0
                elif op == Op.FMA:
                    regs[ins.a] = regs[ins.a] + regs[ins.b] * regs[ins.c]
                # --- control flow ---
                elif op == Op.B:
                    next_bi = ins.a
                    break
                elif op == Op.BEQ:
                    if regs[ins.a] == regs[ins.b]:
                        next_bi = ins.c
                    break
                elif op == Op.BNE:
                    if regs[ins.a] != regs[ins.b]:
                        next_bi = ins.c
                    break
                elif op == Op.BLT:
                    if regs[ins.a] < regs[ins.b]:
                        next_bi = ins.c
                    break
                elif op == Op.BGE:
                    if regs[ins.a] >= regs[ins.b]:
                        next_bi = ins.c
                    break
                elif op == Op.BNZ:
                    if regs[ins.a] != 0:
                        next_bi = ins.b
                    break
                elif op == Op.BZ:
                    if regs[ins.a] == 0:
                        next_bi = ins.b
                    break
                elif op == Op.BL:
                    m.stack.append(bi + 1)
                    next_bi = ins.a
                    break
                elif op == Op.RET:
                    if not m.stack:
                        raise FrontendError(
                            f"{self.program.name}: RET with empty call stack"
                        )
                    next_bi = m.stack.pop()
                    break
                # --- sync ---
                elif op == Op.LOCK:
                    if m.sim_on:
                        if batch is not None and batch.n:
                            yield batch
                            batch.reset()
                        yield ev.Event(ev.EvKind.LOCK, arg=regs[ins.a])
                elif op == Op.UNLOCK:
                    if m.sim_on:
                        if batch is not None and batch.n:
                            yield batch
                            batch.reset()
                        yield ev.Event(ev.EvKind.UNLOCK, arg=regs[ins.a])
                elif op == Op.BARRIER:
                    if m.sim_on:
                        if batch is not None and batch.n:
                            yield batch
                            batch.reset()
                        yield ev.Event(ev.EvKind.BARRIER,
                                       arg=(regs[ins.a], regs[ins.b]))
                # --- system ---
                elif op == Op.SYSCALL:
                    if batch is not None and batch.n:
                        yield batch
                        batch.reset()
                    nargs = ins.b
                    args = tuple(regs[3:3 + nargs])
                    res = yield ev.Event(ev.EvKind.SYSCALL,
                                         arg=(ins.a, args))
                    if isinstance(res, ev.SyscallResult):
                        regs[3] = res.value
                        regs[4] = res.errno
                    else:  # pragma: no cover - engine always sends results
                        regs[3] = res if res is not None else 0
                        regs[4] = 0
                    next_bi = bi + 1
                    break
                elif op == Op.HALT:
                    m.halted = True
                    break
                elif op == Op.SIMON:
                    m.sim_on = True
                elif op == Op.SIMOFF:
                    m.sim_on = False
                elif op == Op.NOP:
                    pass
                else:  # pragma: no cover
                    raise FrontendError(f"unimplemented opcode {op}")
            if m.halted:
                break
            if next_bi >= len(blocks):
                m.halted = True
                break
            bi = next_bi
        if batch is not None:
            if batch.n:
                yield batch
            ev.release_batch(batch)
        return regs[3]

    # ------------------------------------------------------------------
    # raw execution (no simulation hooks) — Table 2 baseline
    # ------------------------------------------------------------------

    def run_raw(self, max_instrs: int = 1 << 62,
                translate: bool = False) -> int:
        """Execute natively: no events, no timing. Returns exit status.

        ``translate=True`` routes through the basic-block translation cache
        (same results, faster host loop; falls back here when a program
        cannot be translated).
        """
        if translate:
            from .translate import (CACHE_STATS, TranslationError,
                                    translated_run_raw)
            try:
                return translated_run_raw(self.program, self.machine,
                                          max_instrs)
            except TranslationError:
                CACHE_STATS["fallbacks"] += 1
        return self._run_raw_interpreted(max_instrs)

    def _run_raw_interpreted(self, max_instrs: int = 1 << 62) -> int:
        m = self.machine
        regs = m.regs
        mem = m.mem
        blocks = self.program.blocks
        bi = self.program.entry

        while not m.halted:
            blk = blocks[bi]
            next_bi = bi + 1
            for ins in blk.instrs:
                op = ins.op
                m.instret += 1
                if op == Op.LOAD:
                    regs[ins.a] = mem.load(regs[ins.b] + ins.c, ins.d or 4)
                elif op == Op.STORE:
                    mem.store(regs[ins.b] + ins.c, regs[ins.a], ins.d or 4)
                elif op == Op.LOADX:
                    regs[ins.a] = mem.load(regs[ins.b] + regs[ins.c], ins.d or 4)
                elif op == Op.STOREX:
                    mem.store(regs[ins.b] + regs[ins.c], regs[ins.a], ins.d or 4)
                elif op == Op.LWARX:
                    m.reservation = regs[ins.b]
                    regs[ins.a] = mem.load(regs[ins.b], 4)
                elif op == Op.STWCX:
                    if m.reservation == regs[ins.b]:
                        mem.store(regs[ins.b], regs[ins.a], 4)
                        regs[ins.a] = 1
                    else:
                        regs[ins.a] = 0
                    m.reservation = None
                elif op == Op.ADD:
                    regs[ins.a] = regs[ins.b] + regs[ins.c]
                elif op == Op.SUB:
                    regs[ins.a] = regs[ins.b] - regs[ins.c]
                elif op == Op.MUL:
                    regs[ins.a] = regs[ins.b] * regs[ins.c]
                elif op == Op.DIV:
                    regs[ins.a] = regs[ins.b] // regs[ins.c] if regs[ins.c] else 0
                elif op == Op.MOD:
                    regs[ins.a] = regs[ins.b] % regs[ins.c] if regs[ins.c] else 0
                elif op == Op.AND:
                    regs[ins.a] = regs[ins.b] & regs[ins.c]
                elif op == Op.OR:
                    regs[ins.a] = regs[ins.b] | regs[ins.c]
                elif op == Op.XOR:
                    regs[ins.a] = regs[ins.b] ^ regs[ins.c]
                elif op == Op.SHL:
                    regs[ins.a] = regs[ins.b] << regs[ins.c]
                elif op == Op.SHR:
                    regs[ins.a] = regs[ins.b] >> regs[ins.c]
                elif op == Op.ADDI:
                    regs[ins.a] = regs[ins.b] + ins.c
                elif op == Op.MULI:
                    regs[ins.a] = regs[ins.b] * ins.c
                elif op == Op.ANDI:
                    regs[ins.a] = regs[ins.b] & ins.c
                elif op == Op.LI:
                    regs[ins.a] = ins.b
                elif op == Op.MOV:
                    regs[ins.a] = regs[ins.b]
                elif op == Op.CMP:
                    x, y = regs[ins.b], regs[ins.c]
                    regs[ins.a] = (x > y) - (x < y)
                elif op == Op.FADD:
                    regs[ins.a] = regs[ins.b] + regs[ins.c]
                elif op == Op.FSUB:
                    regs[ins.a] = regs[ins.b] - regs[ins.c]
                elif op == Op.FMUL:
                    regs[ins.a] = regs[ins.b] * regs[ins.c]
                elif op == Op.FDIV:
                    regs[ins.a] = regs[ins.b] / regs[ins.c] if regs[ins.c] else 0.0
                elif op == Op.FMA:
                    regs[ins.a] = regs[ins.a] + regs[ins.b] * regs[ins.c]
                elif op == Op.B:
                    next_bi = ins.a
                    break
                elif op == Op.BEQ:
                    if regs[ins.a] == regs[ins.b]:
                        next_bi = ins.c
                    break
                elif op == Op.BNE:
                    if regs[ins.a] != regs[ins.b]:
                        next_bi = ins.c
                    break
                elif op == Op.BLT:
                    if regs[ins.a] < regs[ins.b]:
                        next_bi = ins.c
                    break
                elif op == Op.BGE:
                    if regs[ins.a] >= regs[ins.b]:
                        next_bi = ins.c
                    break
                elif op == Op.BNZ:
                    if regs[ins.a] != 0:
                        next_bi = ins.b
                    break
                elif op == Op.BZ:
                    if regs[ins.a] == 0:
                        next_bi = ins.b
                    break
                elif op == Op.BL:
                    m.stack.append(bi + 1)
                    next_bi = ins.a
                    break
                elif op == Op.RET:
                    if not m.stack:
                        raise FrontendError(
                            f"{self.program.name}: RET with empty call stack"
                        )
                    next_bi = m.stack.pop()
                    break
                elif op in (Op.LOCK, Op.UNLOCK, Op.BARRIER):
                    pass   # single-threaded raw runs need no sync
                elif op == Op.SYSCALL:
                    regs[3] = 0   # raw mode: syscalls are no-ops
                    regs[4] = 0
                    next_bi = bi + 1
                    break
                elif op == Op.HALT:
                    m.halted = True
                    break
                elif op in (Op.SIMON, Op.SIMOFF, Op.NOP):
                    pass
                else:  # pragma: no cover
                    raise FrontendError(f"unimplemented opcode {op}")
            if m.halted:
                break
            if m.instret > max_instrs:
                raise FrontendError(
                    f"{self.program.name}: exceeded {max_instrs} instructions"
                )
            if next_bi >= len(blocks):
                m.halted = True
                break
            bi = next_bi
        return regs[3]
