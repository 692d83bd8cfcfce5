"""Virtual instruction set used by the instrumentation path.

COMPASS instruments PowerPC assembly: inserted code accumulates per-basic-
block timing (100 % I-cache hit assumption) and fills out an event record per
memory reference. We cannot assemble PowerPC here, so this package provides
the closest synthetic equivalent: a small RISC-style virtual ISA
(:mod:`repro.isa.instructions`) with a static per-instruction timing table
(:mod:`repro.isa.timing`), a program/basic-block representation
(:mod:`repro.isa.program`), a textual assembler (:mod:`repro.isa.assembler`)
and an interpreter that executes programs as event-generating frontends
(:mod:`repro.isa.interpreter`) through their basic-block translation
(:mod:`repro.isa.translate`).
"""

from ..core.errors import TranslationError
from .instructions import Op, Instr
from .program import BasicBlock, Program
from .assembler import assemble
from .timing import cost_of, block_cost
from .interpreter import Interpreter, Machine
from .translate import TranslatedProgram, cache_stats, translate

__all__ = [
    "Op",
    "Instr",
    "BasicBlock",
    "Program",
    "assemble",
    "cost_of",
    "block_cost",
    "Interpreter",
    "Machine",
    "TranslatedProgram",
    "TranslationError",
    "cache_stats",
    "translate",
]
