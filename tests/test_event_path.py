"""Pin the per-reference event path to recorded behaviour at every exit.

One single-reference event walks ``Engine._handle_event`` -> (charge) ->
either straight into ``Engine._step`` or, when something is deliverable,
through ``Engine._after_event``. Each scenario below is a small
per-reference program that forces one of the exits of that straight line
(interrupt, signal, pre-emption, major fault, kernel/interrupt-mode
reference, stashed batch, app return, wait token, bounded ``run``), under
MESI and directory coherence with the batched pipeline on and off. Every
run is compared with ``tests/golden/event_path.json`` on

* the full stats fingerprint (end cycle and event count in clear, the rest
  as a CRC32),
* the ``(cycle, pid, kind)`` stream an instance-level ``memsys.access`` tap
  sees — each reference exactly once, in order, with the ``now`` the engine
  passed — as count + CRC32,
* ``diagnostic_report()["recent_events"]``, the 8-deep forensic ring.

The file was recorded from the per-event path of the commit *before* the
one-pass rewrite of ``_handle_event``. Regenerate deliberately with::

    COMPASS_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_event_path.py
"""

import json
import os
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro import Engine, WaitToken, complex_backend
from repro.core import events as ev
from repro.core.config import with_os
from repro.core.frontend import Proc, SimProcess
from repro.core.jsonable import to_jsonable
from repro.osim import kmem
from repro.osim.signals import SIGUSR1
from repro.service.workloads import WORKLOADS, full_fingerprint

GOLDEN = Path(__file__).resolve().parent / "golden" / "event_path.json"
UPDATE = os.environ.get("COMPASS_UPDATE_GOLDEN") == "1"

VARIANTS = [(coh, fp) for coh in ("mesi", "directory")
            for fp in (True, False)]

HEAP = 0x20_0000


def _loop(n, base, work=1_500, stride=64):
    """``n`` load/store pairs with compute between them, then exit."""
    def app(proc):
        for i in range(n):
            proc.compute(work)
            yield from proc.load(base + stride * (i % 48))
            yield from proc.store(base + stride * (i % 48) + 8)
        yield from proc.exit(0)
    return app


# -- scenarios: each takes the base config, returns (engine, run-callable) --

def timer_irq(cfg):
    """Timer interrupts land between single references; the handler frame
    itself issues single references in interrupt mode."""
    eng = Engine(with_os(cfg, timer_interval=40_000))
    eng.spawn("a", _loop(60, HEAP))
    eng.spawn("b", _loop(60, HEAP + 0x4000, work=1_900))
    return eng, eng.run


def signal(cfg):
    """A pending signal at a reference boundary pushes the wrapper frame."""
    eng = Engine(cfg)
    holder = {}

    def handler(api, signo):
        yield from api.load(HEAP)       # suppressed: events are off

    def receiver(proc):
        yield from proc.call("sigaction", SIGUSR1, handler)
        for i in range(80):
            proc.compute(2_000)
            yield from proc.load(HEAP + 32 * i)
        yield from proc.exit(0)

    def sender(proc):
        yield from proc.call("nanosleep", 30_000)
        for _ in range(3):
            yield from proc.call("kill", holder["pid"], SIGUSR1)
            yield from proc.load(HEAP + 0x8000)
        yield from proc.exit(0)

    holder["pid"] = eng.spawn("recv", receiver).pid
    eng.spawn("send", sender)
    return eng, eng.run


def _preempt(cfg, nprocs):
    eng = Engine(with_os(replace(cfg, num_cpus=1), preemptive=True,
                         quantum=30_000, timer_interval=20_000))
    for i in range(nprocs):
        eng.spawn(f"p{i}", _loop(50, HEAP + 0x4000 * i))
    return eng, eng.run


def preempt_ready(cfg):
    """``preempt_pending`` with a ready process: the CPU changes hands."""
    return _preempt(cfg, 3)


def preempt_none(cfg):
    """``preempt_pending`` with nobody waiting: flag cleared, run goes on."""
    return _preempt(cfg, 1)


def _mmap_app(npages):
    def app(proc):
        r = yield from proc.call("open", "/map", 2)
        r = yield from proc.call("mmap", r.value, npages * 4096)
        for pg in range(npages):
            yield from proc.load(r.value + pg * 4096)
            yield from proc.store(r.value + pg * 4096 + 64)
        yield from proc.exit(0)
    return app


def major_fault(cfg):
    """A single reference takes a major fault: retry frame, then retry."""
    eng = Engine(cfg)
    eng.os_server.fs.create("/map", b"m" * 16384)
    eng.spawn("m", _mmap_app(4))
    eng.spawn("bg", _loop(40, HEAP))
    return eng, eng.run


def major_fault_on_retry(cfg):
    """The retried reference faults again (the first trap of each page is
    spurious: kernel work and a kernel reference, no PTE installed)."""
    eng = Engine(cfg)
    eng.os_server.fs.create("/map", b"m" * 16384)
    real = eng.os_server.vm_fault_handler
    seen = set()

    def flaky(proc, fault):
        if fault.vpn in seen:
            return real(proc, fault)
        seen.add(fault.vpn)
        sys = eng.os_server.context_for(proc)

        def spurious():
            sys.entry(300)
            yield from sys.k.load(kmem.file_entry_addr(3))
            return None
        return spurious()

    eng.os_server.vm_fault_handler = flaky
    eng.spawn("m", _mmap_app(3))
    return eng, eng.run


def kernel_refs(cfg):
    """Single references issued from a category-1 syscall body (kernel
    mode), with a short timer so interrupt-mode references mix in."""
    eng = Engine(with_os(cfg, timer_interval=9_000))

    def kprobe(sys, n):
        sys.entry()
        for i in range(n):
            sys.k.compute(300)
            yield from sys.k.load(kmem.file_entry_addr(i))
            yield from sys.k.store(kmem.buf_hdr_addr(i))
        return sys.result(n)

    eng.os_server.register("kprobe", 1, kprobe)

    def app(proc):
        for _ in range(6):
            yield from proc.load(HEAP)
            r = yield from proc.call("kprobe", 12)
            assert r.value == 12
        yield from proc.exit(0)

    eng.spawn("k0", app)
    eng.spawn("k1", app)
    return eng, eng.run


def batch_under_irq(cfg):
    """A half-consumed batch is stashed under an interrupt frame whose
    handler issues single references (per-reference when batching is off)."""
    eng = Engine(with_os(cfg, timer_interval=25_000))

    def app(proc):
        for _ in range(3):
            yield from proc.touch(HEAP, 16_384, stride=32, work_per_line=90)
            yield from proc.load(HEAP + 0x10_000)
        yield from proc.exit(0)

    eng.spawn("t0", app)
    eng.spawn("t1", _loop(40, HEAP + 0x20_000))
    return eng, eng.run


def no_exit(cfg):
    """The app returns right after a reference, without ``exit()``."""
    eng = Engine(cfg)

    def app(proc):
        proc.compute(500)
        yield from proc.load(HEAP)
        yield from proc.store(HEAP + 4)

    eng.spawn("r0", app)
    eng.spawn("r1", app)
    return eng, eng.run


def wait_token(cfg):
    """A syscall body yields a ``WaitToken`` right after a reference."""
    eng = Engine(cfg)

    def knap(sys, delay):
        sys.entry()
        yield from sys.k.load(kmem.file_entry_addr(1))
        token = WaitToken("knap")
        eng.gsched.schedule_after(delay, token.wake, 7)
        got = yield token
        yield from sys.k.store(kmem.file_entry_addr(1))
        return sys.result(got)

    eng.os_server.register("knap", 1, knap)

    def app(proc):
        for i in range(5):
            yield from proc.load(HEAP + 64 * i)
            r = yield from proc.call("knap", 9_000 + 1_000 * i)
            assert r.value == 7
        yield from proc.exit(0)

    eng.spawn("w0", app)
    eng.spawn("w1", _loop(30, HEAP + 0x4000))
    return eng, eng.run


def sync_refs(cfg):
    """Locks and a barrier between references (the non-memory arms)."""
    eng = Engine(cfg)

    def app(proc):
        for i in range(15):
            yield from proc.lock(1)
            yield from proc.rmw(HEAP)
            yield from proc.unlock(1)
            proc.compute(700 + 90 * (proc.process.pid % 3))
            yield from proc.load(HEAP + 0x1000 * proc.process.pid)
        yield from proc.barrier(2, 3)
        yield from proc.exit(0)

    for i in range(3):
        eng.spawn(f"s{i}", app)
    return eng, eng.run


def step_max_events(cfg):
    """``run(max_events=1)`` stepping: one event per call, to the end."""
    eng = Engine(cfg)
    eng.spawn("a", _loop(25, HEAP))
    eng.spawn("b", _loop(25, HEAP + 0x4000, work=1_100))

    def run():
        trail = 0
        while eng._live > 0:
            stats = eng.run(max_events=1)
            trail = zlib.crc32(
                repr((eng.events_processed, eng.gsched.now)).encode(), trail)
        return stats, trail
    return eng, run


def until_cuts(cfg):
    """``run(until=...)`` in 7 777-cycle slices."""
    eng = Engine(cfg)
    eng.spawn("a", _loop(40, HEAP))
    eng.spawn("b", _loop(40, HEAP + 0x4000, work=1_100))

    def run():
        trail = 0
        until = 0
        while eng._live > 0:
            until += 7_777
            stats = eng.run(until=until)
            trail = zlib.crc32(
                repr((eng.events_processed, eng.gsched.now)).encode(), trail)
        return stats, trail
    return eng, run


SCENARIOS = [timer_irq, signal, preempt_ready, preempt_none, major_fault,
             major_fault_on_retry, kernel_refs, batch_under_irq, no_exit,
             wait_token, sync_refs, step_max_events, until_cuts]


def _tap(eng, sink):
    """Install an instance-level ``memsys.access`` tap (the simulator's own
    tap idiom) reporting ``sink(now, pid, kind, vaddr)`` per reference."""
    inner = eng.memsys.access

    def tap(pid, vaddr, size, write, cpu, now, atomic=False):
        sink(now, pid, 2 if atomic else int(bool(write)), vaddr)
        return inner(pid, vaddr, size, write, cpu, now, atomic=atomic)

    eng.memsys.access = tap


def _observe(scenario, coh, fastpath, tapped):
    """Run one scenario; returns its record (see module docstring)."""
    SimProcess.set_pid_counter(1)
    cfg = complex_backend(num_cpus=2, coherence=coh, fastpath=fastpath)
    eng, run = scenario(cfg)
    stream = [0, 0]     # count, CRC32 of the (cycle, pid, kind) stream

    def sink(now, pid, kind, _vaddr):
        stream[0] += 1
        stream[1] = zlib.crc32(repr((now, pid, kind)).encode(), stream[1])

    if tapped:
        _tap(eng, sink)
    out = run()
    stats, trail = out if isinstance(out, tuple) else (out, None)
    fp = to_jsonable(full_fingerprint(eng, stats))
    rec = {
        "end_cycle": stats.end_cycle,
        "events": eng.events_processed,
        "fingerprint_crc": zlib.crc32(
            json.dumps(fp, sort_keys=True).encode()),
        "recent_events": eng.diagnostic_report("probe")["recent_events"],
    }
    if trail is not None:
        rec["segment_trail_crc"] = trail
    if tapped:
        rec["tap"] = stream
    return rec


def _key(scenario, coh, fastpath):
    return f"{scenario.__name__}/{coh}/{'batched' if fastpath else 'plain'}"


CASES = [(s, coh, fp) for s in SCENARIOS for coh, fp in VARIANTS]


@pytest.mark.parametrize("scenario,coh,fastpath", CASES,
                         ids=[_key(*c) for c in CASES])
def test_event_path(scenario, coh, fastpath):
    actual = {"run": _observe(scenario, coh, fastpath, tapped=False),
              "tapped": _observe(scenario, coh, fastpath, tapped=True)}
    key = _key(scenario, coh, fastpath)
    if UPDATE:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[key] = actual
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    assert key in golden, f"no recording for {key}; see the module docstring"
    assert actual == golden[key], (
        f"{key}: the per-event path no longer behaves as recorded")


def test_tap_sees_every_single_reference_once():
    """Without batches the tap count is the number of memory events the
    frontends issued plus the lock-word references — nothing is skipped
    and nothing is replayed by the straight-line arm."""
    SimProcess.set_pid_counter(1)
    eng = Engine(complex_backend(num_cpus=2, fastpath=False))
    eng.spawn("a", _loop(30, HEAP))
    eng.spawn("b", _loop(30, HEAP + 0x4000))
    seen = []
    _tap(eng, lambda now, pid, _kind, vaddr: seen.append((now, pid, vaddr)))
    eng.run()
    user = [s for s in seen if s[2] < 0xC000_0000]
    assert len(user) == 2 * 2 * 30
    assert [s[0] for s in seen] == sorted(s[0] for s in seen)


def test_splash_allocates_no_event_per_reference(monkeypatch):
    """Every memory reference of a ``splash`` run reuses its ``Proc``'s
    slot: ``Event`` objects are made only for non-memory events (syscalls,
    locks, barriers, exits) and one slot per ``Proc`` instance."""
    counts = {"events": 0, "procs": 0, "non_memory": 0, "memory": 0}

    def counting(cls, key):
        init = cls.__init__

        def wrapper(self, *a, **kw):
            counts[key] += 1
            init(self, *a, **kw)
        monkeypatch.setattr(cls, "__init__", wrapper)

    counting(ev.Event, "events")
    counting(Proc, "procs")
    handle = Engine._handle_event

    def spy(self, proc, event):
        counts["non_memory" if event.kind > 2 else "memory"] += 1
        return handle(self, proc, event)
    monkeypatch.setattr(Engine, "_handle_event", spy)

    SimProcess.set_pid_counter(1)
    eng = WORKLOADS["splash"](complex_backend)
    eng.run()
    assert eng.batch_stats["batches"] == 0
    assert counts["memory"] > 10 * counts["non_memory"]
    assert counts["events"] <= counts["non_memory"] + counts["procs"]


def test_recent_events_ring_holds_single_references():
    SimProcess.set_pid_counter(1)
    eng = Engine(complex_backend(num_cpus=1, fastpath=False))
    eng.spawn("a", _loop(10, HEAP))
    eng.run()
    ring = eng.diagnostic_report("probe")["recent_events"]
    assert len(ring) == 8
    # 10 load/store pairs then EXIT: the ring ends ... READ WRITE EXIT
    assert [r[2] for r in ring[-3:]] == [0, 1, 8]
