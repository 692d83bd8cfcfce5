"""Proc API and SimProcess frame-stack unit tests."""

import pytest

from repro import Engine, complex_backend
from repro.core import events as ev
from repro.core.errors import FrontendError
from repro.core.frontend import (FrontendClock, Proc, ProcState, SimProcess,
                                 WaitToken)


def drain(gen, replies=None):
    """Drive a generator collecting its yields."""
    out = []
    try:
        y = next(gen)
        i = 0
        while True:
            out.append(y)
            r = replies[i] if replies and i < len(replies) else 1
            i += 1
            y = gen.send(r)
    except StopIteration as s:
        return out, s.value


class TestProcMacros:
    def setup_method(self):
        self.proc = SimProcess("t")
        self.api = Proc(self.proc)

    def test_compute_accumulates_pending(self):
        self.api.compute(100)
        self.api.compute(50)
        assert self.proc.clock.pending == 150

    def test_negative_compute_rejected(self):
        with pytest.raises(FrontendError):
            self.api.compute(-1)

    def test_load_yields_read(self):
        events, lat = drain(self.api.load(0x100, 8))
        assert len(events) == 1
        e = events[0]
        assert e.kind == ev.EvKind.READ and e.addr == 0x100 and e.size == 8
        assert lat == 1

    def test_memory_macros_refill_one_slot(self):
        """load / store / rmw yield this Proc's one Event every time, with
        the reference's own kind, address and size at its yield."""
        api = self.api
        refs = [(api.load(0x100, 8), ev.EvKind.READ, 0x100, 8),
                (api.store(0x140), ev.EvKind.WRITE, 0x140, 4),
                (api.rmw(0x180, 2), ev.EvKind.RMW, 0x180, 2),
                (api.load(0x1C0), ev.EvKind.READ, 0x1C0, 4)]
        seen = []
        for gen, kind, addr, size in refs:
            e = next(gen)
            assert (e.kind, e.addr, e.size) == (kind, addr, size)
            assert type(e.kind) is int
            seen.append(e)
            with pytest.raises(StopIteration):
                gen.send(1)
        assert all(e is seen[0] for e in seen)

    def test_touch_strides(self):
        events, total = drain(self.api.touch(0x0, 200, stride=64))
        assert len(events) == 4            # ceil(200/64)
        assert [e.addr for e in events] == [0, 64, 128, 192]
        assert events[-1].size == 200 - 192

    def test_touch_write_kind(self):
        events, _ = drain(self.api.touch(0x0, 64, write=True))
        assert all(e.kind == ev.EvKind.WRITE for e in events)

    def test_touch_work_per_line_adds_pending(self):
        drain(self.api.touch(0x0, 128, stride=32, work_per_line=10))
        assert self.proc.clock.pending == 40

    def test_touch_zero_bytes(self):
        events, total = drain(self.api.touch(0x0, 0))
        assert events == [] and total == 0

    def test_sim_off_suppresses_everything(self):
        self.api.sim_off()
        events, lat = drain(self.api.load(0x100))
        assert events == [] and lat == 0
        events, _ = drain(self.api.touch(0x0, 4096))
        assert events == []
        self.api.compute(1000)
        assert self.proc.clock.pending == 0
        self.api.sim_on()
        events, _ = drain(self.api.load(0x100))
        assert len(events) == 1

    def test_call_packs_arguments(self):
        g = self.api.call("open", "/x", 2)
        e = next(g)
        assert e.kind == ev.EvKind.SYSCALL
        assert e.arg == ("open", ("/x", 2))
        with pytest.raises(StopIteration):
            g.send(ev.SyscallResult(3))

    def test_call_rejects_non_result_reply(self):
        g = self.api.call("open", "/x")
        next(g)
        with pytest.raises(FrontendError):
            g.send("not a result")

    def test_exit_emits_event(self):
        events, status = drain(self.api.exit(5))
        assert events[0].kind == ev.EvKind.EXIT
        assert status == 5


def test_app_and_kernel_procs_never_share_a_slot():
    """The app's Proc and every ``Sys.k`` that ``context_for`` builds for
    the same process (one per syscall, one per VM fault) own distinct
    slots, so a kernel reference never overwrites a suspended app one."""
    eng = Engine(complex_backend(num_cpus=1))
    apis = {}

    def app(proc):
        apis["app"] = proc
        yield from proc.exit(0)

    sp = eng.spawn("a", app)
    syscall = eng.os_server.context_for(sp)
    fault = eng.os_server.context_for(sp)
    app_ref = next(apis["app"].load(0x100))
    k_refs = [next(syscall.k.load(0x200)), next(fault.k.store(0x300))]
    assert len({id(app_ref), *map(id, k_refs)}) == 3
    assert [e.addr for e in [app_ref, *k_refs]] == [0x100, 0x200, 0x300]


class TestFrameStack:
    def test_base_frame_once(self):
        p = SimProcess("t")
        p.base_frame(iter(()))
        with pytest.raises(FrontendError):
            p.base_frame(iter(()))

    def test_mode_tracks_frames(self):
        p = SimProcess("t")
        p.base_frame(iter(()))
        assert p.mode == "user" and not p.kernel_mode
        p.push_frame(iter(()), "kernel", ("syscall", ("x", 0)))
        assert p.mode == "kernel" and p.kernel_mode
        p.push_frame(iter(()), "interrupt", ("interrupt", (None, None, 0)))
        assert p.mode == "interrupt"
        kind, payload = p.pop_frame()
        assert kind == "interrupt"
        assert p.mode == "kernel"
        p.pop_frame()
        assert p.mode == "user"

    def test_wait_token_idempotent_wake(self):
        t = WaitToken("x")
        calls = []
        t.waker = lambda tok: calls.append(tok.value)
        t.wake(1)
        t.wake(2)
        assert calls == [1]
        assert t.value == 1

    def test_pid_allocation_monotone(self):
        a, b = SimProcess("a"), SimProcess("b")
        assert b.pid == a.pid + 1

    def test_clock_injection(self):
        clk = FrontendClock()
        p = SimProcess("t", clock=clk)
        Proc(p).compute(7)
        assert clk.pending == 7

    def test_initial_state(self):
        p = SimProcess("t")
        assert p.state == ProcState.NEW
        assert p.cpu == -1
        assert p.events_enabled
        assert p.intr_enabled
