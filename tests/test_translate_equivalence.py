"""Block translation against the reference interpreter.

Block translation (:mod:`repro.isa.translate`) is the one ISA execution
path: ``Interpreter.run`` / ``run_raw`` and every engine and
``ParallelEngine`` frontend run it. It must reproduce the generic
interpreter kept in ``tests/isa_reference.py`` *exactly* — same registers,
memory, instret, event streams (including batch boundaries and
pending-cycle stamps), same simulated result — on engine rows on both
engines (held to the strict run by :func:`tests.equivalence.check`, the
reference reached through the ``interpreted`` substitution) and on seeded
random programs.
"""

from __future__ import annotations

import random

import pytest

from repro import Engine, complex_backend
from repro.core import events as ev
from repro.core.errors import FrontendError, InstrumentationError
from repro.harness import translate_summary
from repro.isa import (BasicBlock, Instr, Interpreter, Machine, Op, Program,
                       TranslationError, assemble, translate)

from tests import isa_reference
from tests.equivalence import (DEFAULT, ISA_KERNEL, WORKLOADS, Isa, check,
                               simulate, sub)

#: two instrumented ISA_KERNEL frontends: every translated event kind
KERNEL = Isa((ISA_KERNEL,) * 2)


# ---------------------------------------------------------------------------
# engine rows: translation must not perturb any simulation path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_bit_identical(name):
    """The registry workloads run no ISA frontend: the ``interpreted`` arm
    reaches no reference run there (``check`` asserts it), and both arms
    land the strict tapped run."""
    check(name, [DEFAULT, sub("interpreted")], "tapped")


@pytest.mark.parametrize("fastpath", [True, False])
def test_isa_engine_bit_identical_tapped(fastpath):
    arm = {"fastpath": fastpath}
    check(KERNEL, [arm, sub("interpreted", arm)], "tapped")


@pytest.mark.parametrize("fastpath", [True, False])
def test_isa_engine_bit_identical_untapped(fastpath):
    arm = {"fastpath": fastpath}
    check(KERNEL, [arm, sub("interpreted", arm)])


def test_parallel_workers_bit_identical():
    check(Isa((ISA_KERNEL,) * 2, parallel=True),
          [DEFAULT, sub("interpreted")])


# ---------------------------------------------------------------------------
# differential fuzzing: seeded random programs, all three execution modes
# ---------------------------------------------------------------------------

_INT = (1, 2, 3, 4, 5, 6)         # integer value registers
_FLT = (12, 13, 14)               # float value registers (FDIV taints them)


def _random_body(rng: random.Random, n: int) -> list:
    """Straight-line instruction mix. Integer and float registers are kept
    disjoint (a float reaching ``&``/addressing would TypeError in both
    implementations, but the fuzz wants *successful* runs); MUL/SHL results
    are masked so values stay bounded across loops."""
    out = []
    for _ in range(n):
        kind = rng.choice(("alu", "alu", "imm", "shift", "fpu",
                           "mem", "mem", "atomic", "sync", "sim"))
        d, a, b = (rng.choice(_INT) for _ in range(3))
        if kind == "alu":
            op = rng.choice(("add", "sub", "mul", "div", "mod",
                             "and", "or", "xor", "cmp"))
            out.append(f"{op} r{d}, r{a}, r{b}")
            if op == "mul":
                out.append(f"andi r{d}, r{d}, 0xffffffff")
        elif kind == "imm":
            op = rng.choice(("addi", "muli", "andi", "li", "mov"))
            if op == "li":
                out.append(f"li r{d}, {rng.randint(-64, 1024)}")
            elif op == "mov":
                out.append(f"mov r{d}, r{a}")
            else:
                out.append(f"{op} r{d}, r{a}, {rng.randint(0, 255)}")
                if op == "muli":
                    out.append(f"andi r{d}, r{d}, 0xffffffff")
        elif kind == "shift":
            out.append(f"andi r9, r{a}, 31")
            out.append(f"{rng.choice(('shl', 'shr'))} r{d}, r{b}, r9")
            out.append(f"andi r{d}, r{d}, 0xffffffff")
        elif kind == "fpu":
            op = rng.choice(("fadd", "fsub", "fmul", "fdiv", "fma"))
            fd, fa, fb = (rng.choice(_FLT) for _ in range(3))
            out.append(f"{op} r{fd}, r{fa}, r{fb}")
        elif kind == "mem":
            off = rng.randrange(0, 1021, 4)
            sz = rng.choice((1, 4, 8))
            if rng.random() < 0.5:
                if rng.random() < 0.5:
                    out.append(f"load r{d}, r10, {off}, {sz}")
                else:
                    out.append(f"store r{a}, r10, {off}, {sz}")
            else:
                out.append(f"andi r9, r{a}, 1020")
                if rng.random() < 0.5:
                    out.append(f"loadx r{d}, r10, r9, {sz}")
                else:
                    out.append(f"storex r{b}, r10, r9, {sz}")
        elif kind == "atomic":
            out.append(f"addi r11, r10, {rng.randrange(0, 1021, 4)}")
            out.append(f"lwarx r{d}, r11")
            if rng.random() < 0.7:      # success path; else lost reservation
                out.append(f"addi r{d}, r{d}, 1")
            else:
                out.append(f"lwarx r{a}, r10")
            out.append(f"stwcx r{d}, r11")
        elif kind == "sync":
            which = rng.random()
            if which < 0.4:
                out.append(f"lock r{a}")
                out.append(f"unlock r{a}")
            elif which < 0.7:
                out.append(f"barrier r{a}, r{b}")
            else:
                out.append("syscall getpid, 0")
        else:   # sim: a SIMOFF stretch with references inside
            out.append("simoff")
            out.append(f"load r{d}, r10, {rng.randrange(0, 1021, 4)}, 4")
            out.append(f"add r{d}, r{d}, r{a}")
            out.append("simon")
    return out


def random_program(seed: int) -> str:
    """A seeded random program: forward-branching block chain (guaranteed
    termination), helper calls, one bounded counted loop, then HALT."""
    rng = random.Random(seed)
    nb = rng.randint(4, 8)
    nh = rng.randint(1, 3)
    lines = [f"    li r10, {isa_reference.BASE}"]
    for r in _INT:
        lines.append(f"    li r{r}, {rng.randint(0, 4096)}")
    for r in _FLT:
        lines.append(f"    li r{r}, {rng.randint(1, 64)}")
    for i in range(nb):
        lines.append(f"b{i}:")
        lines += [f"    {ln}" for ln in _random_body(rng, rng.randint(2, 6))]
        tgt = f"b{rng.randint(i + 1, nb - 1)}" if i + 1 < nb else "fin"
        style = rng.random()
        if style < 0.25:
            pass                                    # fall through
        elif style < 0.45:
            lines.append(f"    b {tgt}")
        elif style < 0.75:
            cond = rng.choice(("beq", "bne", "blt", "bge"))
            a, b = rng.choice(_INT), rng.choice(_INT)
            lines.append(f"    {cond} r{a}, r{b}, {tgt}")
        else:
            lines.append(f"    bl h{rng.randrange(nh)}")
    lines.append("fin:")
    lines.append(f"    li r8, {rng.randint(3, 20)}")
    lines.append("floop:")
    lines += [f"    {ln}" for ln in _random_body(rng, rng.randint(1, 3))]
    lines.append("    addi r8, r8, -1")
    lines.append("    bnz r8, floop")
    lines.append("    mov r3, r1")
    lines.append("    halt")
    for k in range(nh):
        lines.append(f"h{k}:")
        lines += [f"    {ln}" for ln in _random_body(rng, rng.randint(1, 2))]
        lines.append("    ret")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_differential(seed):
    prog = assemble(random_program(seed), f"fuzz{seed}")
    for mode in isa_reference.MODES:
        want = isa_reference.execute(prog, mode, reference=True)
        got = isa_reference.execute(prog, mode, reference=False)
        assert got[1] == want[1], f"final state diverged ({mode})"
        assert got[0] == want[0], f"event stream diverged ({mode})"


def test_fuzz_streams_nontrivial():
    """The fuzz corpus must actually exercise batching and sync yields."""
    kinds = set()
    batches = 0
    for seed in range(12):
        prog = assemble(random_program(seed), f"fz{seed}")
        stream, _ = isa_reference.execute(prog, "batched", reference=False)
        for item in stream:
            if item[0] == "batch":
                batches += 1
                kinds.update(item[1])
            else:
                kinds.add(item[0])
    assert batches > 0
    assert {0, 1, int(ev.EvKind.SYSCALL)} <= kinds


# ---------------------------------------------------------------------------
# structural edge cases
# ---------------------------------------------------------------------------

def test_dead_code_after_block_ender_ignored():
    """Hand-built blocks may carry unreachable instructions after the
    terminator; the reference breaks at the ender and so must the
    translation (including the instret count)."""
    prog = Program("dead")
    prog.add_block(BasicBlock("main", [
        Instr(Op.LI, 1, 5),
        Instr(Op.HALT),
        Instr(Op.LI, 1, 99),       # dead
        Instr(Op.LI, 2, 77),       # dead
    ]))
    prog.resolve()
    for mode in isa_reference.MODES:
        _, want = isa_reference.execute(prog, mode, reference=True)
        _, got = isa_reference.execute(prog, mode, reference=False)
        assert got == want
        assert got[1][1:3] == [5, 0] and got[2] == 2


def test_untranslatable_program_raises():
    """An operand the code generator cannot bake (here: an object
    immediate) is an ``InstrumentationError`` naming the program and the
    operand, raised when the program is translated: by ``run_raw``, by
    ``run`` and by ``spawn_interpreter``, before the engine takes any
    state. There is no fallback."""
    class Weird:
        def __repr__(self):
            return "<Weird>"

    prog = Program("weird")
    prog.add_block(BasicBlock("main", [
        Instr(Op.LI, 1, Weird()),
        Instr(Op.HALT),
    ]))
    prog.resolve()
    assert issubclass(TranslationError, InstrumentationError)
    msg = "weird: cannot bake operand <Weird>"
    with pytest.raises(TranslationError, match=msg):
        Interpreter(prog, Machine()).run_raw()
    with pytest.raises(TranslationError, match=msg):
        Interpreter(prog, Machine()).run(batched=True)
    eng = Engine(complex_backend(num_cpus=1))
    with pytest.raises(TranslationError, match=msg):
        eng.spawn_interpreter("w", Interpreter(prog, Machine()))
    assert eng._live == 0 and not eng.comm.processes


def test_translation_cached_on_program():
    prog = assemble("li r1, 1\nhalt", "cacheme")
    tp1 = translate(prog)
    tp2 = translate(prog)
    assert tp1 is tp2
    assert tp1.nblocks == len(prog.blocks)


def test_ret_empty_stack_same_error():
    prog = assemble("ret", "retprog")
    for mode in isa_reference.MODES:
        for reference in (True, False):
            with pytest.raises(FrontendError,
                               match="^retprog: RET with empty call stack$"):
                isa_reference.execute(prog, mode, reference)


def test_max_instrs_guard_translated():
    prog = assemble("spin:\n    b spin", "spinprog")
    msg = "^spinprog: exceeded 1000 instructions$"
    with pytest.raises(FrontendError, match=msg):
        Interpreter(prog, Machine()).run_raw(max_instrs=1000)
    with pytest.raises(FrontendError, match=msg):
        isa_reference.run_raw(Interpreter(prog, Machine()), max_instrs=1000)


def test_config_toggles_cleanly():
    """No config turns translation off: an engine ISA frontend runs the
    translated closures, and a ``translate`` key is refused."""
    with pytest.raises(TypeError, match="translate"):
        complex_backend(num_cpus=1, translate=False)
    prog = assemble("li r3, 7\nhalt", "toggles")
    eng = Engine(complex_backend(num_cpus=1))
    proc = eng.spawn_interpreter("t", Interpreter(prog, Machine()))
    assert getattr(prog, "_translation", None) is not None
    eng.run()
    assert proc.exit_status == 7


def test_translate_summary_shape():
    _, eng = simulate(KERNEL)
    s = translate_summary(eng)
    assert s["programs"] >= 1
    assert s["blocks"] >= 1
    assert 0.0 <= s["code_hit_rate"] <= 1.0
    assert "fallbacks" not in s
