"""Basic-block translation cache: compile blocks to specialized closures.

This is the one ISA execution path: :class:`~repro.isa.interpreter.Interpreter`
runs every program through it. COMPASS avoids per-instruction dispatch by
direct execution: application code runs native and only the inserted
instrumentation costs anything. This module is the closest Python
equivalent: each basic block is compiled **once** into straight-line Python
source (operands baked in as literals, no ``Op`` branching, no
per-instruction attribute lookups), the source is compiled and cached, and
thin trampolines chain the resulting closures block to block.

Four variants are generated per block:

``raw``
    Plain function with raw-mode semantics (no events, no timing) — the
    Tables 2/3 "raw execution" baseline.
``plain``
    Plain instrumented function used when the caller can prove no generator
    suspension can occur in the block (no sync/OS ops, and either the event
    batch has headroom for every memory reference or simulation is OFF).
    This is the hot case: most block executions run without suspending.
``gen_batched`` / ``gen_event``
    Generator functions with the full instrumented semantics (batch-cap
    flushes, sync/OS-call yields), entered via ``yield from`` only when a
    suspension is actually possible.

Semantics contract: the trampolines suspend at exactly the points of the
generic dispatch loop kept as the test oracle (``tests/isa_reference.py``):
a batch publish after the append that reaches ``BATCH_CAP``, a flush before
every sync/OS event, one event per reference in unbatched mode. They
accumulate block cost and ``pending`` cycles in the same order and raise the
same errors with the same messages. ``tests/test_translate_equivalence.py``
holds the two to each other on engine rows, on both engines, and by
differential fuzzing of the event streams.

A program the code generator cannot express (an operand that has no
literal form, an unknown opcode) raises
:class:`~repro.core.errors.TranslationError` when it is translated.

Invalidation: translations are cached on the :class:`Program` object and
keyed by block *content* in the shared code cache. Whatever mutates a
program after it may have run (the :mod:`repro.instrument` passes) calls
:func:`invalidate`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core import events as ev
from ..core.errors import FrontendError, TranslationError
from .instructions import BLOCK_ENDERS, Instr, Op
from .program import Program


#: translation-cache observability (read via :func:`cache_stats`)
CACHE_STATS: Dict[str, int] = {
    "programs": 0,        # programs translated
    "program_hits": 0,    # translate() calls served from the program cache
    "blocks": 0,          # basic blocks compiled (all variants)
    "code_hits": 0,       # block variants served from the shared code cache
    "code_misses": 0,     # block variants actually compiled
}

#: shared code cache: generated source -> compiled code object. Keyed by
#: content, so identical blocks across programs (e.g. the same kernel text
#: assembled once per worker) compile once and hit thereafter.
_CODE_CACHE: Dict[str, object] = {}


def cache_stats() -> Dict[str, int]:
    """A snapshot of the translation-cache counters."""
    return dict(CACHE_STATS)


def invalidate(program: Program) -> None:
    """Forget a program's cached translation (call when mutating it)."""
    if hasattr(program, "_translation"):
        del program._translation


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------

def _lit(v) -> str:
    """Bake one operand into source as a literal."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return repr(v)
    raise TranslationError(f"cannot bake operand {v!r} into translated code")


_BINOPS = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.AND: "&", Op.OR: "|",
    Op.XOR: "^", Op.SHL: "<<", Op.SHR: ">>",
    Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*",
}

_CMP_BRANCH = {Op.BEQ: "==", Op.BNE: "!=", Op.BLT: "<", Op.BGE: ">="}

_SYNC_KIND = {Op.LOCK: 4, Op.UNLOCK: 5, Op.BARRIER: 6}

_SYNC_OPS = frozenset({Op.LOCK, Op.UNLOCK, Op.BARRIER})


class _Writer:
    """Tiny indented-source builder."""

    __slots__ = ("lines",)

    def __init__(self) -> None:
        self.lines: List[str] = []

    def __call__(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_mem_tail(w: _Writer, ind: int, kind: int, addr: str, size: int,
                   mode: str) -> None:
    """The instrumentation tail after a memory reference: append to the
    batch (flushing at the cap in generator variants) or yield one event."""
    w(ind, "if m.sim_on:")
    if mode == "gene":
        w(ind + 1, f"yield Event({kind}, {addr}, {size})")
        return
    w(ind + 1, f"batch.append({kind}, {addr}, {size}, m.pending)")
    w(ind + 1, "m.pending = 0")
    if mode == "genb":
        w(ind + 1, f"if batch.n >= {ev.BATCH_CAP}:")
        w(ind + 2, "yield batch")
        w(ind + 2, "batch.reset()")


def _emit(ins: Instr, mode: str, fall: int, w: _Writer) -> bool:
    """Emit one instruction; returns True when it ends the block (emitted a
    terminal ``return``). ``mode`` is "raw" | "plain" | "genb" | "gene"."""
    op = ins.op
    A, B, C = ins.a, ins.b, ins.c
    raw = mode == "raw"
    ind = 1

    if op in _BINOPS:
        w(ind, f"regs[{A}] = regs[{B}] {_BINOPS[op]} regs[{C}]")
    elif op == Op.DIV:
        w(ind, f"regs[{A}] = regs[{B}] // regs[{C}] if regs[{C}] else 0")
    elif op == Op.MOD:
        w(ind, f"regs[{A}] = regs[{B}] % regs[{C}] if regs[{C}] else 0")
    elif op == Op.FDIV:
        w(ind, f"regs[{A}] = regs[{B}] / regs[{C}] if regs[{C}] else 0.0")
    elif op == Op.FMA:
        w(ind, f"regs[{A}] = regs[{A}] + regs[{B}] * regs[{C}]")
    elif op == Op.ADDI:
        w(ind, f"regs[{A}] = regs[{B}] + {_lit(C)}")
    elif op == Op.MULI:
        w(ind, f"regs[{A}] = regs[{B}] * {_lit(C)}")
    elif op == Op.ANDI:
        w(ind, f"regs[{A}] = regs[{B}] & {_lit(C)}")
    elif op == Op.LI:
        w(ind, f"regs[{A}] = {_lit(B)}")
    elif op == Op.MOV:
        w(ind, f"regs[{A}] = regs[{B}]")
    elif op == Op.CMP:
        w(ind, f"_x = regs[{B}]")
        w(ind, f"_y = regs[{C}]")
        w(ind, f"regs[{A}] = (_x > _y) - (_x < _y)")
    elif op == Op.NOP:
        pass

    # --- memory ---
    elif op in (Op.LOAD, Op.LOADX):
        sz = ins.d or 4
        addr = (f"regs[{B}] + {_lit(C)}" if op == Op.LOAD
                else f"regs[{B}] + regs[{C}]")
        if raw:
            w(ind, f"regs[{A}] = mem.load({addr}, {sz})")
        else:
            w(ind, f"_addr = {addr}")
            w(ind, f"regs[{A}] = mem.load(_addr, {sz})")
            _emit_mem_tail(w, ind, 0, "_addr", sz, mode)
    elif op in (Op.STORE, Op.STOREX):
        sz = ins.d or 4
        addr = (f"regs[{B}] + {_lit(C)}" if op == Op.STORE
                else f"regs[{B}] + regs[{C}]")
        if raw:
            w(ind, f"mem.store({addr}, regs[{A}], {sz})")
        else:
            w(ind, f"_addr = {addr}")
            w(ind, f"mem.store(_addr, regs[{A}], {sz})")
            _emit_mem_tail(w, ind, 1, "_addr", sz, mode)
    elif op == Op.LWARX:
        if raw:
            w(ind, f"m.reservation = regs[{B}]")
            w(ind, f"regs[{A}] = mem.load(regs[{B}], 4)")
        else:
            w(ind, f"_addr = regs[{B}]")
            w(ind, "m.reservation = _addr")
            w(ind, f"regs[{A}] = mem.load(_addr, 4)")
            _emit_mem_tail(w, ind, 0, "_addr", 4, mode)
    elif op == Op.STWCX:
        if raw:
            w(ind, f"if m.reservation == regs[{B}]:")
            w(ind + 1, f"mem.store(regs[{B}], regs[{A}], 4)")
            w(ind + 1, f"regs[{A}] = 1")
            w(ind, "else:")
            w(ind + 1, f"regs[{A}] = 0")
            w(ind, "m.reservation = None")
        else:
            w(ind, f"_addr = regs[{B}]")
            w(ind, "if m.reservation == _addr:")
            w(ind + 1, f"mem.store(_addr, regs[{A}], 4)")
            w(ind + 1, f"regs[{A}] = 1")
            _emit_mem_tail(w, ind + 1, 2, "_addr", 4, mode)
            w(ind, "else:")
            w(ind + 1, f"regs[{A}] = 0")
            w(ind, "m.reservation = None")

    # --- control flow ---
    elif op == Op.B:
        w(ind, f"return {_lit(A)}")
        return True
    elif op in _CMP_BRANCH:
        w(ind, f"return {_lit(C)} if regs[{A}] {_CMP_BRANCH[op]} regs[{B}] "
               f"else {fall}")
        return True
    elif op == Op.BNZ:
        w(ind, f"return {_lit(B)} if regs[{A}] != 0 else {fall}")
        return True
    elif op == Op.BZ:
        w(ind, f"return {_lit(B)} if regs[{A}] == 0 else {fall}")
        return True
    elif op == Op.BL:
        w(ind, f"stack.append({fall})")
        w(ind, f"return {_lit(A)}")
        return True
    elif op == Op.RET:
        w(ind, "if not stack:")
        w(ind + 1, "raise FrontendError(PROG_NAME + "
                   "\": RET with empty call stack\")")
        w(ind, "return stack.pop()")
        return True

    # --- sync ---
    elif op in _SYNC_OPS:
        if raw:
            pass   # single-threaded raw runs need no sync
        else:
            kind = _SYNC_KIND[op]
            arg = (f"(regs[{A}], regs[{B}])" if op == Op.BARRIER
                   else f"regs[{A}]")
            w(ind, "if m.sim_on:")
            if mode == "genb":
                w(ind + 1, "if batch.n:")
                w(ind + 2, "yield batch")
                w(ind + 2, "batch.reset()")
            w(ind + 1, f"yield Event({kind}, 0, 0, {arg})")

    # --- system ---
    elif op == Op.SYSCALL:
        if raw:
            w(ind, "regs[3] = 0")
            w(ind, "regs[4] = 0")
            w(ind, f"return {fall}")
            return True
        if mode == "genb":
            w(ind, "if batch.n:")
            w(ind + 1, "yield batch")
            w(ind + 1, "batch.reset()")
        nargs = B if isinstance(B, int) else 0
        w(ind, f"_res = yield Event(7, 0, 0, "
               f"({_lit(A)}, tuple(regs[3:3 + {_lit(nargs)}])))")
        w(ind, "if isinstance(_res, SyscallResult):")
        w(ind + 1, "regs[3] = _res.value")
        w(ind + 1, "regs[4] = _res.errno")
        w(ind, "else:")
        w(ind + 1, "regs[3] = _res if _res is not None else 0")
        w(ind + 1, "regs[4] = 0")
        w(ind, f"return {fall}")
        return True
    elif op == Op.HALT:
        w(ind, "m.halted = True")
        w(ind, "return 0")
        return True
    elif op == Op.SIMON:
        w(ind, "m.sim_on = True")
    elif op == Op.SIMOFF:
        w(ind, "m.sim_on = False")
    else:
        raise TranslationError(f"unimplemented opcode {op}")
    return False


def _block_source(effective: List[Instr], mode: str, fall: int) -> str:
    """Generate the full function source for one block variant."""
    w = _Writer()
    params = ("m, regs, mem, stack" if mode == "raw"
              else "m, regs, mem, stack, batch")
    w(0, f"def _bf({params}):")
    if effective:
        w(1, f"m.instret += {len(effective)}")
    terminal = False
    for ins in effective:
        terminal = _emit(ins, mode, fall, w)
    if not terminal:
        w(1, f"return {fall}")
    src = w.source()
    if mode in ("genb", "gene") and "yield" not in src:
        # force generator-ness: dead code, but marks the code object as a
        # generator so the trampoline's `yield from` stays type-correct
        w.lines.insert(1, "    if False:")
        w.lines.insert(2, "        yield None")
        src = w.source()
    return src


def _compile(src: str):
    code = _CODE_CACHE.get(src)
    if code is None:
        CACHE_STATS["code_misses"] += 1
        code = compile(src, "<translated-block>", "exec")
        _CODE_CACHE[src] = code
    else:
        CACHE_STATS["code_hits"] += 1
    return code


# ---------------------------------------------------------------------------
# translated programs
# ---------------------------------------------------------------------------

class TranslatedProgram:
    """The compiled form of one :class:`Program`: per-block closures plus
    the dispatch metadata the trampolines index by block number."""

    __slots__ = ("name", "entry", "nblocks", "costs", "raw_fns", "plain_fns",
                 "gen_batched", "gen_event", "nmem", "no_simon")

    def __init__(self, program: Program) -> None:
        self.name = program.name
        self.entry = program.entry
        self.nblocks = len(program.blocks)
        self.costs: List[int] = []
        self.raw_fns: List[Callable] = []
        #: None for blocks containing sync/OS ops (those always suspend)
        self.plain_fns: List[Optional[Callable]] = []
        self.gen_batched: List[Callable] = []
        self.gen_event: List[Callable] = []
        #: memory references per block (batch-headroom bound)
        self.nmem: List[int] = []
        #: True when the block cannot turn simulation ON mid-block
        self.no_simon: List[bool] = []
        ns = {
            "Event": ev.Event,
            "SyscallResult": ev.SyscallResult,
            "FrontendError": FrontendError,
            "PROG_NAME": program.name,
        }

        def make(src: str):
            exec(_compile(src), ns)
            return ns.pop("_bf")

        for bi, blk in enumerate(program.blocks):
            # instructions past the first block-ender are dead: control
            # always leaves the block at the ender
            effective: List[Instr] = []
            for ins in blk.instrs:
                effective.append(ins)
                if ins.op in BLOCK_ENDERS:
                    break
            fall = bi + 1
            ops = [i.op for i in effective]
            suspends = any(o in _SYNC_OPS or o == Op.SYSCALL for o in ops)
            self.costs.append(blk.cost)
            self.nmem.append(sum(1 for i in effective if i.is_mem()))
            self.no_simon.append(Op.SIMON not in ops)
            self.raw_fns.append(make(_block_source(effective, "raw", fall)))
            self.plain_fns.append(
                None if suspends
                else make(_block_source(effective, "plain", fall)))
            self.gen_batched.append(
                make(_block_source(effective, "genb", fall)))
            self.gen_event.append(
                make(_block_source(effective, "gene", fall)))


def translate(program: Program) -> TranslatedProgram:
    """Translate (or fetch the cached translation of) ``program``."""
    tp = getattr(program, "_translation", None)
    if tp is not None:
        CACHE_STATS["program_hits"] += 1
        return tp
    try:
        tp = TranslatedProgram(program)
    except TranslationError as e:
        raise TranslationError(f"{program.name}: {e}") from None
    CACHE_STATS["programs"] += 1
    CACHE_STATS["blocks"] += tp.nblocks
    program._translation = tp
    return tp


# ---------------------------------------------------------------------------
# trampolines — the three execution drivers
# ---------------------------------------------------------------------------

def _drive_batched(tp: TranslatedProgram, m):
    """Instrumented batched frontend (``Interpreter.run(batched=True)``).

    The fast case takes the plain closure: possible only when the block has
    no sync/OS ops and either the batch has headroom for every reference in
    the block (so the cap flush cannot trigger) or simulation is OFF and
    the block cannot switch it on.
    """
    regs = m.regs
    mem = m.mem
    stack = m.stack
    nblocks = tp.nblocks
    costs = tp.costs
    gens = tp.gen_batched
    plains = tp.plain_fns
    nmem = tp.nmem
    quiet = tp.no_simon
    cap = ev.BATCH_CAP
    batch = ev.acquire_batch()
    bi = tp.entry
    while not m.halted:
        if m.sim_on:
            m.pending += costs[bi]
        pf = plains[bi]
        if pf is not None and (batch.n + nmem[bi] < cap
                               or (quiet[bi] and not m.sim_on)):
            nb = pf(m, regs, mem, stack, batch)
        else:
            nb = yield from gens[bi](m, regs, mem, stack, batch)
        if m.halted:
            break
        if nb >= nblocks:
            m.halted = True
            break
        bi = nb
    if batch.n:
        yield batch
    ev.release_batch(batch)
    return regs[3]


def _drive_event(tp: TranslatedProgram, m):
    """Instrumented per-event frontend (``Interpreter.run()``)."""
    regs = m.regs
    mem = m.mem
    stack = m.stack
    nblocks = tp.nblocks
    costs = tp.costs
    gens = tp.gen_event
    plains = tp.plain_fns
    nmem = tp.nmem
    quiet = tp.no_simon
    bi = tp.entry
    while not m.halted:
        if m.sim_on:
            m.pending += costs[bi]
        pf = plains[bi]
        if pf is not None and (nmem[bi] == 0
                               or (quiet[bi] and not m.sim_on)):
            nb = pf(m, regs, mem, stack, None)
        else:
            nb = yield from gens[bi](m, regs, mem, stack, None)
        if m.halted:
            break
        if nb >= nblocks:
            m.halted = True
            break
        bi = nb
    return regs[3]


def translated_run(program: Program, machine, batched: bool = False):
    """The instrumented frontend coroutine behind :meth:`Interpreter.run`.
    Translation happens at the call, before the first resume."""
    tp = translate(program)
    if batched:
        return _drive_batched(tp, machine)
    return _drive_event(tp, machine)


def translated_run_raw(program: Program, machine,
                       max_instrs: int = 1 << 62) -> int:
    """The raw loop behind :meth:`Interpreter.run_raw`."""
    tp = translate(program)
    m = machine
    regs = m.regs
    mem = m.mem
    stack = m.stack
    fns = tp.raw_fns
    nblocks = tp.nblocks
    bi = tp.entry
    while not m.halted:
        nb = fns[bi](m, regs, mem, stack)
        if m.halted:
            break
        if m.instret > max_instrs:
            raise FrontendError(
                f"{tp.name}: exceeded {max_instrs} instructions"
            )
        if nb >= nblocks:
            m.halted = True
            break
        bi = nb
    return regs[3]
