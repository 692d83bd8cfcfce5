"""Instrumentation passes over ISA programs.

Every pass mutates the program in place and drops its cached basic-block
translation (:func:`repro.isa.translate.invalidate`), so the next run
executes the rewritten blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from ..core.errors import InstrumentationError
from ..isa.instructions import Instr, MEM_OPS, Op
from ..isa.program import BasicBlock, Program
from ..isa.timing import block_cost
from ..isa.translate import invalidate


@dataclass(frozen=True)
class InstrumentationReport:
    """Static summary of an instrumented program."""

    name: str
    n_blocks: int
    n_instrs: int
    n_mem_sites: int
    n_sync_sites: int
    n_oscall_sites: int
    static_cycles: int
    #: the paper notes instrumentation grows binaries significantly; this is
    #: the inserted-code estimate (one timing update per block, one event
    #: fill per memory reference)
    inserted_instrs: int

    @property
    def size_growth(self) -> float:
        """Estimated binary growth factor from instrumentation."""
        return (self.n_instrs + self.inserted_instrs) / max(1, self.n_instrs)


#: instructions the event-fill insert costs (store type/addr/size/cycle + call)
_EVENT_FILL_COST = 6
#: instructions the per-block timing update costs (load, add, store)
_TIMING_UPDATE_COST = 3


def report(program: Program) -> InstrumentationReport:
    """Analyse an (already resolved) program."""
    mem = sync = osc = 0
    for blk in program.blocks:
        for ins in blk.instrs:
            if ins.op in MEM_OPS:
                mem += 1
            elif ins.op in (Op.LOCK, Op.UNLOCK, Op.BARRIER):
                sync += 1
            elif ins.op == Op.SYSCALL:
                osc += 1
    inserted = (len(program.blocks) * _TIMING_UPDATE_COST
                + (mem + sync + osc) * _EVENT_FILL_COST)
    return InstrumentationReport(
        name=program.name,
        n_blocks=len(program.blocks),
        n_instrs=program.n_instrs,
        n_mem_sites=mem,
        n_sync_sites=sync,
        n_oscall_sites=osc,
        static_cycles=sum(b.cost for b in program.blocks),
        inserted_instrs=inserted,
    )


def instrument_program(program: Program) -> Program:
    """(Re)compute the per-block timing annotations — the pass that inserts
    "special assembly code at end of each basic block" (§2). Idempotent."""
    invalidate(program)
    for blk in program.blocks:
        blk.cost = block_cost(blk.instrs)
    return program


def exclude_regions(program: Program, labels: Iterable[str]) -> Program:
    """Wrap each named block in SIMOFF/SIMON — the Simulation ON/OFF switch
    "inserted anywhere in the application code to selectively disable
    instrumentation of uninteresting parts" (§5).

    The switch brackets exactly the named blocks; control transfers out of
    an excluded block re-enable simulation at the next instrumented block.
    """
    labelset: Set[str] = set(labels)
    missing = labelset - set(program.labels)
    if missing:
        raise InstrumentationError(
            f"exclude_regions: unknown labels {sorted(missing)}"
        )
    invalidate(program)
    for name in labelset:
        blk = program.block_of(name)
        blk.instrs.insert(0, Instr(Op.SIMOFF))
        # re-enable before any control transfer leaves the block
        term = blk.terminator()
        if term is not None:
            blk.instrs.insert(len(blk.instrs) - 1, Instr(Op.SIMON))
        else:
            blk.instrs.append(Instr(Op.SIMON))
        blk.cost = block_cost(blk.instrs)
    return program


def rename_oscalls(program: Program, mapping: Dict[str, str]) -> Program:
    """Rewrite OS-call names — §4 step 3: "rename OS calls that can cause
    deadlocks and supply a stub library for those OS calls"."""
    invalidate(program)
    for blk in program.blocks:
        for ins in blk.instrs:
            if ins.op == Op.SYSCALL and ins.a in mapping:
                ins.a = mapping[ins.a]
    return program
