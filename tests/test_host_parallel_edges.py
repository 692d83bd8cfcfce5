"""ParallelEngine edge cases: tiny programs, mixed workloads, many workers,
mixed inline + parallel frontends, and worker supervision (crash, kill,
restart-with-replay, forensic reports)."""

import json
import multiprocessing as mp
import os
import signal
import sys
import time

import pytest

from repro import DeadlockError, complex_backend, simple_backend
from repro.core.errors import (HostError, InstrumentationError,
                               TranslationError)
from repro.core.frontend import SimProcess
from repro.host import ParallelEngine, WorkerSpec
import repro.isa.translate  # noqa: F401  (the module, not the function)

from tests.equivalence import HOT_PROG

TRIVIAL = """
    li r3, 7
    halt
"""

ONE_REF = """
    li r10, 0x100000
    li r1, 1
    storex r1, r10, r1, 4
    li r3, 0
    halt
"""

SLEEPY = """
    li r3, 50000
    syscall nanosleep, 1
    li r3, 0
    halt
"""


def test_trivial_program_exits_with_status():
    eng = ParallelEngine(simple_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec("t", TRIVIAL))
        eng.run()
    assert p.exit_status == 7


def test_single_reference_program():
    eng = ParallelEngine(simple_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec("t", ONE_REF))
        eng.run()
    assert p.exit_status == 0
    assert eng.events_processed >= 1


def test_blocking_syscall_from_worker():
    eng = ParallelEngine(complex_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec("t", SLEEPY))
        stats = eng.run()
    assert p.exit_status == 0
    assert stats.end_cycle >= 50_000


def test_more_workers_than_cpus():
    eng = ParallelEngine(simple_backend(num_cpus=2))
    with eng:
        procs = [eng.spawn_worker(WorkerSpec(f"w{i}", ONE_REF))
                 for i in range(5)]
        eng.run()
    assert all(p.exit_status == 0 for p in procs)


def test_mixed_inline_and_parallel_frontends():
    """Parallel workers and ordinary coroutine frontends coexist."""
    eng = ParallelEngine(complex_backend(num_cpus=2))
    done = []

    def inline_app(proc):
        for _ in range(20):
            proc.compute(500)
            yield from proc.store(0x30_000)
        done.append("inline")
        yield from proc.exit(0)

    with eng:
        w = eng.spawn_worker(WorkerSpec("w", ONE_REF))
        eng.spawn("inline", inline_app)
        eng.run()
    assert w.exit_status == 0
    assert done == ["inline"]


def _kill_worker_child(w, timeout=5.0):
    """Wait until the worker has sent something, then SIGKILL it."""
    deadline = time.time() + timeout
    while not w.conn.poll() and time.time() < deadline:
        time.sleep(0.01)
    os.kill(w.process.pid, signal.SIGKILL)
    w.process.join()


def test_worker_killed_mid_run_is_restarted():
    """SIGKILL a worker blocked in a syscall: the supervisor relaunches it,
    replays the consumed prefix, and the run completes bit-normally."""
    eng = ParallelEngine(complex_backend(num_cpus=1))
    eng.worker_backoff = 0.01
    with eng:
        p = eng.spawn_worker(WorkerSpec("victim", SLEEPY))
        w = eng._workers[p.pid]
        _kill_worker_child(w)
        stats = eng.run()
    assert p.exit_status == 0
    assert stats.end_cycle >= 50_000
    assert w.restarts >= 1
    assert stats.get("worker_restarts") >= 1


def test_worker_death_with_no_restarts_is_forensic():
    eng = ParallelEngine(complex_backend(num_cpus=1))
    eng.max_worker_restarts = 0
    with eng:
        p = eng.spawn_worker(WorkerSpec("victim", SLEEPY))
        w = eng._workers[p.pid]
        _kill_worker_child(w)
        with pytest.raises(HostError) as ei:
            eng.run()
    assert "forensic" in str(ei.value)
    assert "victim" in str(ei.value)
    report = ei.value.report
    assert report is not None
    assert report["worker"] == "victim"
    assert report["restarts"] == 0
    assert report["max_restarts"] == 0


def test_forensic_report_summarises_batches():
    """The message ring holds ``("B", n, first address, last address)``,
    not four 1 024-element lists: a post-mortem stays a screenful."""
    eng = ParallelEngine(complex_backend(num_cpus=1))
    eng.max_worker_restarts = 0
    with eng:
        p = eng.spawn_worker(WorkerSpec("streamer", HOT_PROG))
        _kill_worker_child(eng._workers[p.pid])
        with pytest.raises(HostError) as ei:
            eng.run()
    report = ei.value.report
    assert len(json.dumps(report)) < 4096
    assert ["B", 1024, 0x100000, 0x100000 + 8192 - 32] in report["last_messages"]
    assert "'streamer'" in str(ei.value) and "['B', 1024," in str(ei.value)


def test_runaway_worker_program_hits_max_cycles():
    """``Engine.run`` holds a worker's proxy to ``max_cycles`` too."""
    eng = ParallelEngine(complex_backend(num_cpus=1, max_cycles=30_000))
    with eng, pytest.raises(DeadlockError, match="max_cycles=30000"):
        eng.spawn_worker(WorkerSpec("w", HOT_PROG))
        eng.run()
    assert 0 < eng.gsched.now <= 30_000


def test_worker_crash_message_exhausts_restarts():
    """A deterministic in-worker failure (``ret`` with an empty return
    stack) crashes every relaunch; the final HostError carries the
    worker's own crash reason."""
    eng = ParallelEngine(simple_backend(num_cpus=1))
    eng.max_worker_restarts = 1
    eng.worker_backoff = 0.01
    with eng:
        eng.spawn_worker(WorkerSpec("crasher", "ret"))
        with pytest.raises(HostError) as ei:
            eng.run()
    msg = str(ei.value)
    assert "forensic" in msg
    assert "crashed" in msg
    assert ei.value.report["restarts"] == 1


def test_untranslatable_program_raises_at_spawn(monkeypatch):
    """A worker program that does not assemble, or does not translate, is
    refused by ``spawn_worker`` in the parent: no worker process starts,
    no pid is taken, and the engine runs on as if it had not been asked.
    (The code generator bakes every operand text can spell, so the
    untranslatable immediate is made one here.)"""
    translate_mod = sys.modules["repro.isa.translate"]
    lit = translate_mod._lit

    def refuse(v):
        if v == 0x5EED:
            raise TranslationError(f"cannot bake operand {v!r}")
        return lit(v)

    monkeypatch.setattr(translate_mod, "_lit", refuse)
    eng = ParallelEngine(simple_backend(num_cpus=1))
    before, pid = mp.active_children(), SimProcess.pid_counter()
    with eng:
        with pytest.raises(TranslationError, match="bad: cannot bake"):
            eng.spawn_worker(WorkerSpec("bad", "li r1, 0x5EED\nhalt"))
        with pytest.raises(InstrumentationError, match="unknown mnemonic"):
            eng.spawn_worker(WorkerSpec("junk", "not a real instruction"))
        assert not eng._workers and not eng.comm.processes
        assert mp.active_children() == before
        p = eng.spawn_worker(WorkerSpec("t", TRIVIAL))
        eng.run()
    assert p.pid == pid and p.exit_status == 7      # TRIVIAL exits with r3


def test_shutdown_tolerates_dead_and_never_started_workers():
    """shutdown() must not raise for workers that already died or whose
    process object was never started (satellite: shutdown hardening)."""
    eng = ParallelEngine(simple_backend(num_cpus=1))
    p = eng.spawn_worker(WorkerSpec("t", TRIVIAL))
    w = eng._workers[p.pid]
    # already-dead child
    os.kill(w.process.pid, signal.SIGKILL)
    w.process.join()
    # never-started process object
    import multiprocessing as mp
    w2 = type(w)(WorkerSpec("ghost", TRIVIAL))
    w2.process = mp.get_context("fork").Process(target=lambda: None)
    eng._workers[-1] = w2
    eng.shutdown()
    eng.shutdown()   # idempotent


def test_custom_segments_and_registers():
    prog = """
        li r10, 0x400000
        load r3, r10, 0, 4
        add r3, r3, r7
        halt
    """
    eng = ParallelEngine(simple_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec(
            "t", prog, segments=[(0x400000, 4096)], regs={7: 35}))
        eng.run()
    assert p.exit_status == 35   # 0 (fresh memory) + 35
