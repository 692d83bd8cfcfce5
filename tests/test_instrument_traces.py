"""Instrumentor pass and trace-file tests."""

import pytest

from repro.core.errors import InstrumentationError
from repro.core.events import EvKind
from repro.instrument import (exclude_regions, instrument_program,
                              rename_oscalls, report)
from repro.isa import Op, assemble
from repro.traces import HttpRequest, load_trace, save_trace
from tests import isa_reference


SRC = """
    li r1, 0
    li r2, 8
    li r10, 0x1000
loop:
    loadx r3, r10, r1, 4
    addi r3, r3, 1
    storex r3, r10, r1, 4
    addi r1, r1, 4
    blt r1, r2, loop
    syscall open, 2
    lock r5
    unlock r5
    halt
"""


#: a program whose only memory reference sits in block ``hot``
STALE = """
    li r10, 0x1000
hot:
    load r1, r10, 0, 4
    syscall open, 0
    halt
"""


def _events(prog):
    """``(kind, arg)`` of each event of one ``Interpreter.run`` of ``prog``."""
    stream, _state = isa_reference.execute(prog, "event", reference=False)
    return [(kind, arg) for kind, _addr, _size, arg, _pending in stream]


class TestInstrument:
    def test_report_counts_sites(self):
        rep = report(assemble(SRC))
        assert rep.n_mem_sites == 2
        assert rep.n_oscall_sites == 1
        assert rep.n_sync_sites == 2
        assert rep.n_blocks >= 3
        assert rep.size_growth > 1.0

    def test_instrument_sets_block_costs(self):
        from repro.isa.timing import block_cost
        p = assemble(SRC)
        for b in p.blocks:
            b.cost = 0
        instrument_program(p)
        assert all(b.cost == block_cost(b.instrs) for b in p.blocks)
        assert sum(b.cost for b in p.blocks) > 0

    def test_exclude_region_wraps_simoff(self):
        p = assemble(SRC)
        exclude_regions(p, ["loop"])
        blk = p.block_of("loop")
        assert blk.instrs[0].op == Op.SIMOFF
        assert any(i.op == Op.SIMON for i in blk.instrs)
        # the SIMON precedes the terminating branch
        assert blk.instrs[-1].op == Op.BLT

    def test_exclude_unknown_label_raises(self):
        p = assemble(SRC)
        with pytest.raises(InstrumentationError):
            exclude_regions(p, ["nope"])

    def test_excluded_region_generates_no_events(self):
        p = assemble(SRC)
        exclude_regions(p, ["loop"])
        kinds = [k for k, _arg in _events(p)]
        assert EvKind.READ not in kinds and EvKind.WRITE not in kinds
        assert EvKind.SYSCALL in kinds   # outside the excluded region

    def test_rename_oscalls(self):
        p = assemble(SRC)
        rename_oscalls(p, {"open": "compass_open"})
        names = [i.a for b in p.blocks for i in b.instrs
                 if i.op == Op.SYSCALL]
        assert names == ["compass_open"]


class TestPassesAfterARun:
    """A pass applied to a program that already ran (and so has a cached
    translation) takes effect at the next run."""

    def test_exclude_regions(self):
        p = assemble(STALE)
        assert _events(p)[0][0] == EvKind.READ
        exclude_regions(p, ["hot"])
        fresh = exclude_regions(assemble(STALE), ["hot"])
        assert _events(p) == _events(fresh) == \
            [(EvKind.SYSCALL, ("open", ()))]

    def test_rename_oscalls(self):
        p = assemble(STALE)
        assert _events(p)[-1][1] == ("open", ())
        rename_oscalls(p, {"open": "compass_open"})
        assert _events(p)[-1][1] == ("compass_open", ())

    def test_instrument_program(self):
        def pending(prog):
            return isa_reference.execute(prog, "event", reference=False)[1][3]

        p = assemble(STALE)
        for b in p.blocks:
            b.cost = 0
        assert pending(p) == 0
        instrument_program(p)
        assert pending(p) == pending(assemble(STALE)) > 0


class TestTraces:
    def test_roundtrip(self, tmp_path):
        reqs = [HttpRequest(100, "/a"), HttpRequest(0, "/b c")]
        path = tmp_path / "t.trace"
        assert save_trace(reqs, path) == 2
        back = load_trace(path)
        assert back == reqs

    def test_request_bytes_wire_format(self):
        r = HttpRequest(5, "/x")
        assert r.request_bytes() == b"GET /x HTTP/1.0\r\n\r\n"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# header\n\n10 /a\n")
        assert load_trace(path) == [HttpRequest(10, "/a")]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("justonefield\n")
        with pytest.raises(ValueError):
            load_trace(path)
