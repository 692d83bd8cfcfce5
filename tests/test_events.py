"""Event vocabulary tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Engine, complex_backend
from repro.core import events as ev
from repro.core.frontend import SimProcess
from repro.service.workloads import full_fingerprint


def test_memory_kinds_set():
    assert ev.EvKind.READ in ev.MEMORY_KINDS
    assert ev.EvKind.WRITE in ev.MEMORY_KINDS
    assert ev.EvKind.RMW in ev.MEMORY_KINDS
    assert ev.EvKind.SYSCALL not in ev.MEMORY_KINDS


def test_read_constructor():
    e = ev.read(0x1000, 8)
    assert e.kind == ev.EvKind.READ
    assert e.addr == 0x1000
    assert e.size == 8
    assert e.mode == "user"
    assert not e.kernel


def test_syscall_constructor_packs_args():
    e = ev.syscall("open", "/x", 2)
    assert e.kind == ev.EvKind.SYSCALL
    assert e.arg == ("open", ("/x", 2))


def test_barrier_constructor():
    e = ev.barrier(3, 4)
    assert e.arg == (3, 4)


def test_exit_event_status():
    assert ev.exit_event(7).arg == 7


def test_syscall_result_ok():
    assert ev.SyscallResult(5).ok
    assert not ev.SyscallResult(-1, ev.ENOENT).ok


def test_syscall_result_data_payload():
    r = ev.SyscallResult(3, data=b"abc")
    assert r.data == b"abc"


def test_errno_names_cover_values():
    assert ev.ERRNO_NAMES[ev.ENOENT] == "ENOENT"
    assert ev.ERRNO_NAMES[ev.EBADF] == "EBADF"


def test_event_defaults():
    e = ev.advance()
    assert e.addr == 0 and e.size == 0 and e.arg is None
    assert e.time == 0 and e.pid == -1


def test_event_batch_kind_protocol():
    b = ev.EventBatch()
    assert b.kind == ev.EvKind.BATCH
    assert b.arg is None
    assert b.n == 0 and b.cursor == 0 and b.total == 0


def test_event_batch_append_and_reset():
    b = ev.EventBatch()
    b.append(int(ev.EvKind.READ), 0x100, 4, 10)
    b.append(int(ev.EvKind.WRITE), 0x200, 8, 0)
    assert b.n == 2
    assert b.kinds == [0, 1]
    assert b.addrs == [0x100, 0x200]
    assert b.sizes == [4, 8]
    assert b.pendings == [10, 0]
    b.cursor = 1
    b.total = 99
    b.depth = 3
    b.reset()
    assert b.n == 0 and b.cursor == 0 and b.total == 0 and b.depth == 0
    assert not b.kinds and not b.addrs and not b.sizes and not b.pendings


def test_batch_pool_reuses_released_objects():
    ev._batch_pool.clear()
    b = ev.acquire_batch()
    b.append(0, 0x10, 4, 0)
    ev.release_batch(b)
    assert b.n == 0          # released batches come back clean
    again = ev.acquire_batch()
    assert again is b
    ev.release_batch(again)


def test_batch_pool_is_bounded():
    ev._batch_pool.clear()
    batches = [ev.acquire_batch() for _ in range(ev._BATCH_POOL_MAX + 8)]
    for b in batches:
        ev.release_batch(b)
    assert len(ev._batch_pool) == ev._BATCH_POOL_MAX


def test_batch_cap_is_sane():
    # BATCH_CAP bounds producer run-ahead; engine logic assumes >= 1
    assert ev.BATCH_CAP >= 1


# -- kept fillings: a re-issued filling is a fresh fill, classified ---------

class _Clock:
    def __init__(self, pending):
        self.pending = pending


def _fillings(kind, base, nbytes, stride, work, pending, consume=None):
    """Every filling ``strided_batches`` publishes for one touch, as
    ``(batch, prefix, fields)``; ``consume`` plays the consumer on each."""
    clock = _Clock(pending)
    gen = ev.strided_batches([kind], (base,), nbytes, stride, work, clock)
    out = []
    try:
        b = next(gen)
        while True:
            out.append((b, b.prefix, (list(b.kinds), list(b.addrs),
                                      list(b.sizes), list(b.pendings), b.n,
                                      b.cursor, b.total, b.depth)))
            if consume is not None:
                consume(b)
            clock.pending = pending     # cycles left behind by a handler
            b = gen.send(1)
    except StopIteration:
        pass
    return out


def _scribble(b):
    """What a consumer leaves on a filling it is done with, a
    classification of it included."""
    b.cursor = b.n
    b.total = 777
    b.depth = 3
    b.time = 12345
    b.prefix = ("classified", id(b))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from([0, 1, 2]), stride=st.sampled_from([4, 32, 64]),
       work=st.sampled_from([0, 5, 200]),
       nbytes=st.one_of(st.integers(1, 3000),
                        st.sampled_from([32 * 1024, 32 * 2048 + 7])),
       pending=st.sampled_from([0, 3, 901]),
       again=st.sampled_from([0, 3, 44]))
def test_reissued_filling_equals_a_fresh_fill(kind, stride, work, nbytes,
                                              pending, again):
    ev._kept.clear()
    first = _fillings(kind, 0x4000, nbytes, stride, work, pending, _scribble)
    rescan = _fillings(kind, 0x4000, nbytes, stride, work, again, _scribble)
    ev._kept.clear()
    fresh = _fillings(kind, 0x4000, nbytes, stride, work, again)
    assert [f for _b, _s, f in rescan] == [f for _b, _s, f in fresh]
    old = {id(b) for b, _p, _f in first}
    whole = sum(f[2][-1] == stride for _b, _p, f in first)     # not ragged
    for b, prefix, fields in rescan:
        kept = fields[2][-1] == stride and whole <= ev._KEPT_MAX
        assert b.reissued == kept
        assert not b.reissued or id(b) in old
        # a re-issued filling keeps its classification, a reset one drops it
        assert prefix == (("classified", id(b)) if kept else None)
    assert len(ev._kept) <= ev._KEPT_MAX
    ev._kept.clear()


def test_kept_fillings_are_bounded():
    ev._kept.clear()
    for s in range(3 * ev._KEPT_MAX):
        _fillings(1, 0x10_0000 * (s + 1), 32 * ev.BATCH_CAP * 2, 32, 0, 0)
    assert len(ev._kept) == ev._KEPT_MAX
    assert all(b.n <= ev.BATCH_CAP and len(b.addrs) == b.n
               for b in ev._kept.values())
    ev._kept.clear()


def test_multi_lane_and_ragged_fillings_are_not_kept():
    ev._kept.clear()
    gen = ev.strided_batches([0, 1], (0x1000, 0x9000), 4096, 32, 2,
                             _Clock(0))
    assert next(gen).n == 256
    with pytest.raises(StopIteration):
        gen.send(1)
    _fillings(0, 0x1000, 100, 32, 0, 0)       # one ragged filling
    assert not ev._kept


def _mmap_rescan(fastpath):
    """A major fault at the second page of a ``work_per_line`` touch (the
    middle of its one filling), then a re-scan of the same buffer."""
    SimProcess.set_pid_counter(1)
    eng = Engine(complex_backend(num_cpus=2, fastpath=fastpath))
    eng.os_server.fs.create("/map", b"m" * 16384)

    def app(proc):
        r = yield from proc.call("open", "/map", 2)
        r = yield from proc.call("mmap", r.value, 16384)
        for _ in range(3):
            yield from proc.touch(r.value, 8192, write=True, stride=32,
                                  work_per_line=20)
        yield from proc.exit(0)

    def rival(proc):
        for _ in range(40):
            yield from proc.touch(0x20_0000, 2048, stride=32,
                                  work_per_line=7)
        yield from proc.exit(0)

    eng.spawn("m", app)
    eng.spawn("r", rival)
    stats = eng.run()
    return eng, full_fingerprint(eng, stats)


def test_faulted_filling_rescan_lands_the_strict_result():
    """The engine's fault arm writes nothing into the filling, so the kept
    filling the re-scan takes back issues every reference as the strict
    per-event path does."""
    eng, fp = _mmap_rescan(True)
    assert eng.batch_stats["cut_fault"] >= 2
    assert eng.reissued_fillings >= 2
    assert fp == _mmap_rescan(False)[1]
    assert len(ev._kept) <= ev._KEPT_MAX
