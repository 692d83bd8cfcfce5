"""Virtual ISA tests: assembler, programs, timing, interpreter."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import FrontendError, InstrumentationError
from repro.core.events import EvKind, SyscallResult
from repro.isa import (Instr, Machine, Op, assemble, block_cost, cost_of,
                       Interpreter)
from repro.isa.memory import DataMemory

from tests import isa_reference


def drive(prog, mem=None, reply=1):
    """Run an instrumented program collecting its events."""
    m = Machine(mem if mem is not None else DataMemory())
    gen = Interpreter(prog, m).run()
    events = []
    try:
        evt = next(gen)
        while True:
            events.append(evt)
            if evt.kind == EvKind.SYSCALL:
                evt = gen.send(SyscallResult(42))
            else:
                evt = gen.send(reply)
    except StopIteration as s:
        return events, s.value, m


class TestAssembler:
    def test_basic_program(self):
        p = assemble("li r1, 5\nhalt")
        assert p.n_instrs == 2
        assert p.blocks[0].label == "__start"

    def test_labels_resolve(self):
        p = assemble("""
            li r1, 0
        top:
            addi r1, r1, 1
            blt r1, r2, top
            halt
        """)
        blt = p.block_of("top").instrs[-1]
        assert blt.op == Op.BLT
        assert blt.c == p.labels["top"]

    def test_undefined_label_raises(self):
        with pytest.raises(InstrumentationError):
            assemble("b nowhere\nhalt")

    def test_duplicate_label_raises(self):
        with pytest.raises(InstrumentationError):
            assemble("x:\nnop\nx:\nhalt")

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(InstrumentationError):
            assemble("frobnicate r1\nhalt")

    def test_register_out_of_range(self):
        with pytest.raises(InstrumentationError):
            assemble("li r32, 1\nhalt")

    def test_comments_and_blank_lines(self):
        p = assemble("""
            ; comment
            li r1, 1   # trailing
            halt
        """)
        assert p.n_instrs == 2

    def test_hex_immediates(self):
        p = assemble("li r1, 0x10\nhalt")
        assert p.blocks[0].instrs[0].b == 16

    def test_blocks_split_after_branches(self):
        p = assemble("""
            li r1, 0
            b skip
            nop
        skip:
            halt
        """)
        # __start(li,b) | auto(nop) | skip(halt)
        assert len(p.blocks) == 3

    def test_empty_program_rejected(self):
        with pytest.raises(InstrumentationError):
            assemble("; nothing here")

    def test_syscall_syntax(self):
        p = assemble("syscall getpid, 0\nhalt")
        ins = p.blocks[0].instrs[0]
        assert ins.op == Op.SYSCALL and ins.a == "getpid" and ins.b == 0


class TestTiming:
    def test_simple_ops_single_cycle(self):
        assert cost_of(Instr(Op.ADD)) == 1
        assert cost_of(Instr(Op.LI)) == 1

    def test_mul_div_latencies(self):
        assert cost_of(Instr(Op.MUL)) == 4
        assert cost_of(Instr(Op.DIV)) == 20

    def test_fp_latencies(self):
        assert cost_of(Instr(Op.FADD)) == 3
        assert cost_of(Instr(Op.FDIV)) == 18

    def test_block_cost_is_sum(self):
        instrs = [Instr(Op.ADD), Instr(Op.MUL), Instr(Op.LOAD)]
        assert block_cost(instrs) == 1 + 4 + 1

    def test_every_opcode_has_a_cost(self):
        from repro.isa.timing import COSTS
        for op in Op:
            assert op in COSTS, op


class TestInterpreter:
    def test_arithmetic(self):
        p = assemble("""
            li r1, 6
            li r2, 7
            mul r3, r1, r2
            halt
        """)
        _ev, rc, m = drive(p)
        assert m.regs[3] == 42

    def test_loop_and_memory(self):
        p = assemble("""
            li r1, 0
            li r2, 16
            li r10, 0x1000
        loop:
            storex r1, r10, r1, 4
            addi r1, r1, 4
            blt r1, r2, loop
            li r3, 0
            halt
        """)
        dm = DataMemory()
        dm.map_segment(0x1000, 4096)
        events, rc, m = drive(p, dm)
        stores = [e for e in events if e.kind == EvKind.WRITE]
        assert len(stores) == 4
        assert dm.load(0x1004) == 4

    def test_call_and_return(self):
        p = assemble("""
            li r1, 1
            bl fn
            addi r1, r1, 100
            halt
        fn:
            addi r1, r1, 10
            ret
        """)
        _ev, _rc, m = drive(p)
        assert m.regs[1] == 111

    def test_ret_without_call_raises(self):
        p = assemble("ret")
        with pytest.raises(FrontendError):
            drive(p)

    def test_syscall_result_lands_in_r3_r4(self):
        p = assemble("""
            syscall getpid, 0
            halt
        """)
        events, _rc, m = drive(p)
        assert m.regs[3] == 42 and m.regs[4] == 0
        assert events[0].kind == EvKind.SYSCALL

    def test_simoff_suppresses_events_and_time(self):
        body = """
            li r10, 0x1000
            {sw}
            load r1, r10, 0, 4
            store r1, r10, 4, 4
            simon
            load r2, r10, 0, 4
            halt
        """
        dm1 = DataMemory(); dm1.map_segment(0x1000, 64)
        on, _, m_on = drive(assemble(body.format(sw="nop")), dm1)
        dm2 = DataMemory(); dm2.map_segment(0x1000, 64)
        off, _, m_off = drive(assemble(body.format(sw="simoff")), dm2)
        assert len(off) == len(on) - 2
        # functional behaviour unchanged
        assert m_off.regs[2] == m_on.regs[2]

    def test_lwarx_stwcx_success(self):
        p = assemble("""
            li r10, 0x1000
            li r1, 9
            lwarx r2, r10
            mov r2, r1
            stwcx r2, r10
            halt
        """)
        dm = DataMemory(); dm.map_segment(0x1000, 64)
        _ev, _rc, m = drive(p, dm)
        assert m.regs[2] == 1          # store-conditional succeeded
        assert dm.load(0x1000) == 9

    def test_raw_and_instrumented_agree(self):
        src = """
            li r1, 0
            li r2, 100
            li r4, 0
        loop:
            add r4, r4, r1
            addi r1, r1, 1
            blt r1, r2, loop
            mov r3, r4
            halt
        """
        m1 = Machine()
        rc1 = Interpreter(assemble(src), m1).run_raw()
        _ev, rc2, m2 = drive(assemble(src))
        assert rc1 == rc2 == sum(range(100))
        assert m1.instret == m2.instret

    def test_instrumented_pending_counts_block_costs(self):
        p = assemble("""
            li r1, 1
            li r2, 2
            add r3, r1, r2
            halt
        """)
        _ev, _rc, m = drive(p)
        assert m.pending == 3   # 3 single-cycle instrs + free halt

    def test_max_instrs_guard(self):
        p = assemble("""
        spin:
            b spin
        """)
        with pytest.raises(FrontendError):
            Interpreter(p, Machine()).run_raw(max_instrs=1000)


#: per-opcode exercise programs: every Op must run in the raw, per-event and
#: batched modes, through the translated closures and the reference
#: interpreter (tests/isa_reference.py). Conditional branches cover both the
#: taken and fall-through arm.
OP_PROGRAMS = {
    Op.ADD: "li r1, 2\nli r2, 3\nadd r3, r1, r2\nhalt",
    Op.SUB: "li r1, 9\nli r2, 3\nsub r3, r1, r2\nhalt",
    Op.MUL: "li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt",
    Op.DIV: "li r1, 7\nli r2, 2\ndiv r3, r1, r2\ndiv r4, r1, r0\nhalt",
    Op.MOD: "li r1, 7\nli r2, 4\nmod r3, r1, r2\nmod r4, r1, r0\nhalt",
    Op.AND: "li r1, 12\nli r2, 10\nand r3, r1, r2\nhalt",
    Op.OR: "li r1, 12\nli r2, 10\nor r3, r1, r2\nhalt",
    Op.XOR: "li r1, 12\nli r2, 10\nxor r3, r1, r2\nhalt",
    Op.SHL: "li r1, 3\nli r2, 4\nshl r3, r1, r2\nhalt",
    Op.SHR: "li r1, 48\nli r2, 4\nshr r3, r1, r2\nhalt",
    Op.ADDI: "li r1, 5\naddi r3, r1, 37\nhalt",
    Op.MULI: "li r1, 6\nmuli r3, r1, 7\nhalt",
    Op.ANDI: "li r1, 0x1ff\nandi r3, r1, 0xff\nhalt",
    Op.LI: "li r3, 42\nhalt",
    Op.MOV: "li r1, 42\nmov r3, r1\nhalt",
    Op.CMP: "li r1, 5\nli r2, 9\ncmp r3, r1, r2\ncmp r4, r2, r1\n"
            "cmp r5, r1, r1\nhalt",
    Op.FADD: "li r1, 2\nli r2, 3\nfadd r3, r1, r2\nhalt",
    Op.FSUB: "li r1, 2\nli r2, 3\nfsub r3, r1, r2\nhalt",
    Op.FMUL: "li r1, 2\nli r2, 3\nfmul r3, r1, r2\nhalt",
    Op.FDIV: "li r1, 3\nli r2, 2\nfdiv r3, r1, r2\nfdiv r4, r1, r0\nhalt",
    Op.FMA: "li r1, 2\nli r2, 3\nli r3, 10\nfma r3, r1, r2\nhalt",
    Op.LOAD: "li r10, 0x1000\nli r1, 7\nstore r1, r10, 8, 4\n"
             "load r3, r10, 8, 4\nhalt",
    Op.STORE: "li r10, 0x1000\nli r1, 7\nstore r1, r10, 12, 8\nhalt",
    Op.LOADX: "li r10, 0x1000\nli r1, 16\nli r2, 5\nstorex r2, r10, r1, 4\n"
              "loadx r3, r10, r1, 4\nhalt",
    Op.STOREX: "li r10, 0x1000\nli r1, 16\nli r2, 5\n"
               "storex r2, r10, r1, 4\nhalt",
    Op.LWARX: "li r10, 0x1000\nlwarx r3, r10\nhalt",
    Op.STWCX: "li r10, 0x1000\nli r11, 0x1004\nli r1, 9\nlwarx r2, r10\n"
              "stwcx r1, r10\nlwarx r2, r10\nstwcx r1, r11\nhalt",
    Op.B: "b over\nli r3, 1\nover:\nli r3, 42\nhalt",
    Op.BEQ: "li r1, 5\nli r2, 5\nbeq r1, r2, t\nhalt\nt:\nli r3, 1\n"
            "beq r1, r0, u\nli r4, 2\nu:\nhalt",
    Op.BNE: "li r1, 5\nli r2, 6\nbne r1, r2, t\nhalt\nt:\nli r3, 1\n"
            "bne r1, r1, u\nli r4, 2\nu:\nhalt",
    Op.BLT: "li r1, 5\nli r2, 6\nblt r1, r2, t\nhalt\nt:\nli r3, 1\n"
            "blt r2, r1, u\nli r4, 2\nu:\nhalt",
    Op.BGE: "li r1, 6\nli r2, 5\nbge r1, r2, t\nhalt\nt:\nli r3, 1\n"
            "bge r2, r1, u\nli r4, 2\nu:\nhalt",
    Op.BNZ: "li r1, 1\nbnz r1, t\nhalt\nt:\nli r3, 1\nbnz r0, u\n"
            "li r4, 2\nu:\nhalt",
    Op.BZ: "li r1, 0\nbz r1, t\nhalt\nt:\nli r3, 1\nbz r2, u\n"
           "li r4, 2\nu:\nhalt",
    Op.BL: "bl fn\nli r3, 42\nhalt\nfn:\nli r4, 7\nret",
    Op.RET: "bl fn\nhalt\nfn:\nli r3, 42\nret",
    Op.LOCK: "li r1, 3\nlock r1\nunlock r1\nhalt",
    Op.UNLOCK: "li r1, 3\nlock r1\nunlock r1\nhalt",
    Op.BARRIER: "li r1, 1\nli r2, 1\nbarrier r1, r2\nhalt",
    Op.SYSCALL: "syscall getpid, 0\nhalt",
    Op.HALT: "li r3, 42\nhalt",
    Op.NOP: "nop\nli r3, 42\nhalt",
    Op.SIMON: "simoff\nli r10, 0x1000\nload r1, r10, 0, 4\nsimon\n"
              "load r2, r10, 0, 4\nhalt",
    Op.SIMOFF: "simoff\nli r10, 0x1000\nstore r0, r10, 0, 4\nsimon\nhalt",
}


class TestOpcodeCoverage:
    """Every opcode runs in all three modes, translated and reference."""

    def test_table_is_complete(self):
        assert set(OP_PROGRAMS) == set(Op)

    @pytest.mark.parametrize("op", sorted(OP_PROGRAMS, key=lambda o: o.value),
                             ids=lambda o: o.name)
    def test_raw_and_instrumented_interpreted_vs_translated(self, op):
        prog = assemble(OP_PROGRAMS[op], "op")
        # static sanity: the snippet really contains the opcode under test
        assert any(i.op == op for b in prog.blocks for i in b.instrs), op
        for mode in isa_reference.MODES:
            assert (isa_reference.execute(prog, mode, reference=False)
                    == isa_reference.execute(prog, mode, reference=True)), \
                (op, mode)


class TestDataMemory:
    def test_unmapped_access_raises(self):
        from repro.core.errors import MemoryError_
        dm = DataMemory()
        with pytest.raises(MemoryError_):
            dm.load(0x5000)

    def test_overlap_rejected(self):
        from repro.core.errors import MemoryError_
        dm = DataMemory()
        dm.map_segment(0x1000, 0x1000)
        with pytest.raises(MemoryError_):
            dm.map_segment(0x1800, 0x1000)

    def test_shared_store_sees_peer_writes(self):
        dm1 = DataMemory("a")
        dm2 = DataMemory("b")
        store = dm1.map_segment(0x1000, 256)
        dm2.map_segment(0x4000, 256, store)
        dm1.store(0x1010, 99)
        assert dm2.load(0x4010) == 99

    def test_unmap(self):
        from repro.core.errors import MemoryError_
        dm = DataMemory()
        dm.map_segment(0x1000, 256)
        dm.unmap_segment(0x1000)
        with pytest.raises(MemoryError_):
            dm.load(0x1000)

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 1 << 30)),
                    max_size=40))
    def test_last_write_wins(self, writes):
        dm = DataMemory()
        dm.map_segment(0, 256)
        expect = {}
        for off, val in writes:
            dm.store(off, val)
            expect[off] = val
        for off, val in expect.items():
            assert dm.load(off) == val
