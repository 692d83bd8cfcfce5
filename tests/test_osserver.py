"""OS-server registry, extensibility (§3.1) and Sys helper tests."""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Engine, complex_backend
from repro.core import events as ev
from repro.core.errors import OSError_
from repro.core.frontend import Proc, SimProcess
from repro.osim import kmem
from repro.osim.server import (COPY_WORK_PER_LINE, FdEntry, OSServer, Sys,
                               SYSCALL_ENTRY_CYCLES, syscall_handler)


class TestRegistry:
    def test_builtin_calls_registered(self, engine2):
        names = engine2.os_server.syscall_names()
        for n in ('open', 'close', 'kreadv', 'kwritev', 'statx', 'mmap',
                  'munmap', 'msync', 'socket', 'naccept', 'select', 'send',
                  'recv', 'connect', 'shmget', 'shmat', 'shmdt', 'getpid',
                  'nanosleep', 'sigaction', 'kill'):
            assert n in names

    def test_categories_valid(self, engine2):
        for name in engine2.os_server.syscall_names():
            cat, fn = engine2.os_server.lookup(name)
            assert cat in (1, 2) and callable(fn)

    def test_register_new_category2_service(self, engine2):
        """§3.1: 'When new OS services are to be supported, they can be
        added to the existing OS server'."""
        def sys_double(engine, proc, x):
            return ev.SyscallResult(2 * x), 50

        engine2.os_server.register("double", 2, sys_double)
        out = {}

        def app(proc):
            out["r"] = yield from proc.call("double", 21)
            yield from proc.exit(0)

        engine2.spawn("a", app)
        engine2.run()
        assert out["r"].value == 42

    def test_register_new_category1_service(self, engine2):
        def sys_touchk(sys: Sys, n: int):
            sys.entry()
            for i in range(n):
                yield from sys.k.store(kmem.PROC_TABLE + 64 * i)
            return sys.result(n)

        engine2.os_server.register("touchk", 1, sys_touchk)
        out = {}

        def app(proc):
            out["r"] = yield from proc.call("touchk", 5)
            yield from proc.exit(0)

        engine2.spawn("a", app)
        stats = engine2.run()
        assert out["r"].value == 5
        assert stats.syscall_cycles["touchk"] > 0

    def test_replace_existing_service(self, engine2):
        """Stub redirection (§4 step 3): a renamed/replacement service."""
        def fake_getpid(engine, proc):
            return ev.SyscallResult(-99), 10

        engine2.os_server.register("getpid", 2, fake_getpid)
        out = {}

        def app(proc):
            out["r"] = yield from proc.call("getpid")
            yield from proc.exit(0)

        engine2.spawn("a", app)
        engine2.run()
        assert out["r"].value == -99

    def test_bad_category_rejected(self, engine2):
        with pytest.raises(OSError_):
            engine2.os_server.register("x", 3, lambda: None)


class TestFdTable:
    def test_alloc_starts_at_3(self, engine2):
        srv = engine2.os_server
        srv._fdtables.setdefault(99, {})
        fd = srv.fd_alloc(99, FdEntry("file", ino=1))
        assert fd == 3

    def test_alloc_fills_gaps(self, engine2):
        srv = engine2.os_server
        srv._fdtables.setdefault(99, {})
        a = srv.fd_alloc(99, FdEntry("file", ino=1))
        b = srv.fd_alloc(99, FdEntry("file", ino=2))
        srv.fd_close(99, a)
        c = srv.fd_alloc(99, FdEntry("file", ino=3))
        assert c == a

    def test_entry_lookup_and_close(self, engine2):
        srv = engine2.os_server
        srv._fdtables.setdefault(99, {})
        fd = srv.fd_alloc(99, FdEntry("socket", sid=7))
        assert srv.fd_entry(99, fd).sid == 7
        assert srv.fd_close(99, fd).sid == 7
        assert srv.fd_entry(99, fd) is None


class TestKmem:
    def test_regions_disjoint(self):
        spots = [kmem.buf_hdr_addr(0), kmem.buf_data_addr(0, 4096),
                 kmem.mbuf_addr(0), kmem.socket_cb_addr(0),
                 kmem.kstack_addr(0), kmem.file_entry_addr(0)]
        assert len(set(a >> 24 for a in spots)) == len(spots)

    def test_all_above_kernel_base(self):
        from repro.mem.pagetable import KERNEL_BASE
        for a in (kmem.buf_hdr_addr(10), kmem.buf_data_addr(3, 4096),
                  kmem.mbuf_addr(77), kmem.socket_cb_addr(5),
                  kmem.kstack_addr(2), kmem.file_entry_addr(123)):
            assert a >= KERNEL_BASE

    def test_slots_distinct(self):
        assert kmem.buf_hdr_addr(1) != kmem.buf_hdr_addr(2)
        assert kmem.kstack_addr(1) - kmem.kstack_addr(0) == kmem.KSTACK_SIZE


class TestSysContext:
    def test_entry_charges_pending(self, engine2):
        def app(proc):
            sys = engine2.os_server.context_for(proc.process)
            before = proc.process.clock.pending
            sys.entry()
            assert proc.process.clock.pending - before == SYSCALL_ENTRY_CYCLES
            yield from proc.exit(0)

        engine2.spawn("a", app)
        engine2.run()

    def test_copy_block_event_count(self, engine2):
        counted = {}

        def app(proc):
            sys = engine2.os_server.context_for(proc.process)
            before = engine2.events_processed
            yield from sys.copy_block(kmem.BUFCACHE_DATA, 0x100000, 1024)
            counted["n"] = None
            yield from proc.exit(0)

        engine2.spawn("a", app)
        engine2.run()
        # 1024/32-byte lines = 32 lines, read+write each = 64 memory events
        line = engine2.cfg.backend.l1.line_size
        assert engine2.stats.counters == engine2.stats.counters  # smoke
        assert 1024 // line * 2 <= engine2.events_processed


# ---------------------------------------------------------------------------
# copy_block: the bulk-filled batched arm == the per-event arm
# ---------------------------------------------------------------------------

LINE = 32
_COPY_SERVER = SimpleNamespace(engine=SimpleNamespace(cfg=SimpleNamespace(
    backend=SimpleNamespace(l1=SimpleNamespace(line_size=LINE)))))


def _stream(make_gen, batching, entry_pending, parked, enabled):
    """Drive a reference producer the way the engine does and return the
    ``(kind, addr, size, issue time)`` of every reference, the generator's
    result and the cycles left in the clock. ``parked[j]`` cycles are left
    in the process clock by handler frames that run once
    ``(j + 1) * BATCH_CAP`` references have completed — for a batched
    producer, exactly while its batch ``j`` is parked."""
    pid0 = SimProcess._next_pid[0]
    proc = SimProcess("producer")
    SimProcess._next_pid[0] = pid0
    proc.batching = batching
    proc.events_enabled = enabled
    proc.clock.pending = entry_pending
    gen = make_gen(proc)
    out, t, reply = [], 0, None

    def retire(kind, addr, size, pending):
        nonlocal t
        t += pending
        out.append((int(kind), addr, size, t))
        lat = 3 + (addr >> 5) % 5           # any deterministic latency
        t += lat
        if len(out) % ev.BATCH_CAP == 0:
            proc.clock.pending += parked.get(len(out) // ev.BATCH_CAP - 1, 0)
        return lat

    try:
        while True:
            e = gen.send(reply)
            if isinstance(e, ev.EventBatch):
                assert proc.clock.pending == 0 and 0 < e.n <= ev.BATCH_CAP
                assert e.n == len(e.kinds) == len(e.addrs) == len(e.sizes) \
                    == len(e.pendings)
                reply = sum(retire(e.kinds[i], e.addrs[i], e.sizes[i],
                                   e.pendings[i]) for i in range(e.n))
            else:
                pending, proc.clock.pending = proc.clock.pending, 0
                reply = retire(e.kind, e.addr, e.size, pending)
    except StopIteration as stop:
        return out, stop.value, proc.clock.pending


def _copy_stream(batching, src, dst, nbytes, entry_pending, parked, enabled):
    return _stream(
        lambda proc: Sys(_COPY_SERVER, proc).copy_block(src, dst, nbytes),
        batching, entry_pending, parked, enabled)


@settings(max_examples=60, deadline=None)
@given(nbytes=st.one_of(
           st.sampled_from([1, LINE - 1, LINE, LINE + 1, 512 * LINE,
                            513 * LINE, 1024 * LINE, 1024 * LINE + 5]),
           st.integers(1, 1100 * LINE)),
       src=st.integers(0x1000, 0x1000 + 2 * LINE),
       dst=st.integers(0x80000, 0x80000 + 2 * LINE),
       entry_pending=st.sampled_from([0, 1, 180]),
       parked=st.dictionaries(st.integers(0, 2), st.integers(1, 900)),
       enabled=st.booleans())
def test_copy_block_batched_equals_per_event(nbytes, src, dst, entry_pending,
                                             parked, enabled):
    args = (src, dst, nbytes, entry_pending, parked, enabled)
    per_event = _copy_stream(False, *args)
    assert _copy_stream(True, *args) == per_event
    stream, total, _left = per_event
    lines = -(-nbytes // LINE)
    assert len(stream) == 2 * lines
    assert stream[-1][2] == stream[-2][2] == nbytes - (lines - 1) * LINE
    work = COPY_WORK_PER_LINE if enabled else 0
    assert stream[0][3] == entry_pending + work
    assert total == sum(3 + (a >> 5) % 5 for _k, a, _s, _t in stream)


@settings(max_examples=40, deadline=None)
@given(nbytes=st.one_of(
           st.sampled_from([1, 63, 64, 65, 1024 * 64, 1025 * 64]),
           st.integers(1, 2100 * 64)),
       addr=st.integers(0x1000, 0x1040), write=st.booleans(),
       stride=st.sampled_from([32, 64]), work=st.sampled_from([0, 3]),
       entry_pending=st.sampled_from([0, 17]),
       parked=st.dictionaries(st.integers(0, 3), st.integers(1, 900)))
@example(nbytes=1024 * 64, addr=0x1000, write=False, stride=64, work=0,
         entry_pending=0, parked={0: 55})   # cycles parked behind the last
def test_touch_batched_equals_per_event(nbytes, addr, write, stride, work,
                                        entry_pending, parked):
    """``Proc.touch`` shares ``events.strided_batches`` with copy_block
    (one lane instead of two): same differential, same parked cycles —
    including cycles left behind a touch that ends exactly on a full batch,
    which stay in the clock for whatever the process does next."""
    def run(batching):
        return _stream(
            lambda proc: Proc(proc).touch(addr, nbytes, write, stride, work),
            batching, entry_pending, parked, True)

    per_event = run(False)
    assert run(True) == per_event
    assert len(per_event[0]) == -(-nbytes // stride)


def test_copy_block_of_nothing_emits_nothing():
    proc = SimProcess("copier")
    proc.batching = True
    assert list(Sys(_COPY_SERVER, proc).copy_block(0x1000, 0x2000, 0)) == []
