"""The generic ISA interpreter: the reference the block translator is held to.

:class:`repro.isa.Interpreter` runs every program through its basic-block
translation (:mod:`repro.isa.translate`). This module keeps the generic
dispatch loops that translation replaced, one ``Op`` branch per executed
instruction, as the semantics the translation must reproduce exactly:
same registers, memory, ``instret``, event stream (batch boundaries and
pending-cycle stamps included), errors and return value.

* :func:`run` / :func:`run_raw` take an ``Interpreter`` and mirror its
  ``run`` / ``run_raw``; ``tests.equivalence``'s ``interpreted``
  substitution patches :func:`run` in as ``Interpreter.run``.
* :data:`RUNS` counts entries of :func:`run` in shared memory, so a
  forked ``ParallelEngine`` worker's runs count in the parent too: a
  substitution that silently misses shows as zero.
* :func:`execute` runs a program on a fresh machine in one of the three
  modes under either implementation and returns what must agree.

A helper module: pytest does not collect it.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Generator

from repro.core import events as ev
from repro.core.errors import FrontendError
from repro.isa import Interpreter, Machine
from repro.isa.instructions import Op
from repro.isa.memory import DataMemory

#: entries of :func:`run` in this process and its forked children
RUNS = multiprocessing.Value("q", 0)

#: memory kinds as plain ints, bound once: the per-event arms would
#: otherwise look an ``EvKind`` member up on the enum class per reference
_READ = int(ev.EvKind.READ)
_WRITE = int(ev.EvKind.WRITE)
_RMW = int(ev.EvKind.RMW)


def run(interp: Interpreter,
        batched: bool = False) -> Generator[ev.Event, Any, int]:
    """The generic dispatch loop (reference semantics for translation)."""
    with RUNS.get_lock():
        RUNS.value += 1
    m = interp.machine
    regs = m.regs
    blocks = interp.program.blocks
    bi = interp.program.entry
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
                        f"{interp.program.name}: RET with empty call stack"
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


def run_raw(interp: Interpreter, max_instrs: int = 1 << 62) -> int:
    """The raw dispatch loop: no events, no timing, sync ops no-ops,
    syscalls return 0."""
    m = interp.machine
    regs = m.regs
    mem = m.mem
    blocks = interp.program.blocks
    bi = interp.program.entry

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
                        f"{interp.program.name}: RET with empty call stack"
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
                f"{interp.program.name}: exceeded {max_instrs} instructions"
            )
        if next_bi >= len(blocks):
            m.halted = True
            break
        bi = next_bi
    return regs[3]


# ---------------------------------------------------------------------------
# differential driver
# ---------------------------------------------------------------------------

#: base of the 4 KiB data segment :func:`execute` maps
BASE = 0x1000
#: :func:`execute`'s modes
MODES = ("raw", "event", "batched")


def execute(prog, mode: str, reference: bool):
    """Run ``prog`` on a fresh machine (4 KiB mapped at :data:`BASE`) in
    ``mode`` ("raw", "event" or "batched"), through the reference loops
    or ``Interpreter``. Returns ``(stream, state)``: every suspension
    (event fields or full batch contents, plus the pending counter) under
    canned replies, and the final architectural state."""
    dm = DataMemory()
    dm.map_segment(BASE, 4096)
    m = Machine(dm)
    interp = Interpreter(prog, m)
    stream = []
    if mode == "raw":
        rc = run_raw(interp) if reference else interp.run_raw()
    else:
        batched = mode == "batched"
        gen = run(interp, batched) if reference else interp.run(batched)
        try:
            evt = gen.send(None)
            while True:
                if isinstance(evt, ev.EventBatch):
                    stream.append(("batch", tuple(evt.kinds),
                                   tuple(evt.addrs), tuple(evt.sizes),
                                   tuple(evt.pendings), m.pending))
                    reply = evt.n
                else:
                    stream.append((int(evt.kind), evt.addr, evt.size,
                                   evt.arg, m.pending))
                    reply = (ev.SyscallResult(42, 0)
                             if evt.kind == ev.EvKind.SYSCALL else 7)
                evt = gen.send(reply)
        except StopIteration as si:
            rc = si.value
    mem = {b: dict(st.data) for b, _s, st in dm._segs}
    return stream, (rc, list(m.regs), m.instret, m.pending, m.halted,
                    m.reservation, list(m.stack), mem)
