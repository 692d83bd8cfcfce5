"""``SimConfig.speculate*`` govern ParallelEngine's lease tails — only.

A leased ``ParallelEngine`` worker pre-times an optimistic tail past its
window and the backend commits or rolls it back at fold time; either way the
run must produce *exactly* the simulated cycle counts, cache statistics, CPU
time buckets and fault-fire counts of the strict conservative schedule —
across worker SIGKILLs mid-tail, under checkpointing and under bounded
max_events stepping.

The inline engine extends the horizon one way, by the qualified window that
``lookahead`` gates (``test_lookahead_equivalence.py``), and never reads the
three fields. The inline tests here pin that half of the contract: flipping
``speculate`` moves nothing — not the results, not a window count — on every
workload class, under fault plans, memory taps, checkpoint recording and
crash/resume.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro import (SimulatedCrash, checkpoint_exists, complex_backend,
                   resume)
from repro.core.config import ConfigError, SimConfig
from repro.core.frontend import SimProcess
from repro.host import ParallelEngine, WorkerSpec
from repro.traces.memtrace import MemTraceRecorder

from tests.test_determinism_harness import FAULT_OFF_WORKLOADS
from tests.test_lookahead_equivalence import (CLOCK_READERS, HOT_PROG,
                                              TIMING_PLAN, _snapshot)


def _run(build, faults=None, **cfg_kw):
    SimProcess._next_pid[0] = 1
    eng = build(lambda **kw: complex_backend(faults=faults, **cfg_kw, **kw))
    stats = eng.run()
    return _snapshot(eng, stats), eng


#: the strict oracle: no horizon extension of any kind — the paper's
#: conservative basic-block-granular schedule
STRICT = dict(speculate=False, lookahead=False)


def _assert_knob_inert(eng_on, eng_off):
    """Same windows, same cuts, and no ``sp_*`` activity on either side."""
    assert eng_on.batch_stats == eng_off.batch_stats
    assert not any(v for k, v in eng_on.batch_stats.items()
                   if k.startswith("sp_"))


# ---------------------------------------------------------------------------
# inline engine: the knob is inert, on every workload class
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FAULT_OFF_WORKLOADS))
def test_speculation_bit_identical(name):
    build = FAULT_OFF_WORKLOADS[name]
    snap_on, eng_on = _run(build, speculate=True)
    snap_off, eng_off = _run(build, speculate=False)
    assert snap_on == snap_off
    _assert_knob_inert(eng_on, eng_off)


@pytest.mark.parametrize("name", sorted(FAULT_OFF_WORKLOADS))
def test_speculation_bit_identical_under_faults(name):
    build = FAULT_OFF_WORKLOADS[name]
    snap_on, eng_on = _run(build, faults=TIMING_PLAN, speculate=True)
    snap_off, eng_off = _run(build, faults=TIMING_PLAN, speculate=False)
    assert snap_on == snap_off
    _assert_knob_inert(eng_on, eng_off)
    assert eng_on.faults.stats.draws > 0


@pytest.mark.parametrize("name", sorted(CLOCK_READERS))
@pytest.mark.parametrize("faults", [None, TIMING_PLAN],
                         ids=["plain", "faults"])
def test_all_knob_arms_land_one_fingerprint(name, faults):
    """Default knobs (windows qualified from the vec mirror), the scalar
    qualifier, ``speculate`` off and the strict schedule agree — on the
    checkpoint bench's TPC-C (where default and strict used to end one
    cycle apart) and on the hand-built rivals whose L1-hit reference or
    batch is followed by a clock-reading block."""
    build = CLOCK_READERS[name]
    arms = [{}, {"vectorized": False}, {"speculate": False}, STRICT]
    snaps = [_run(build, faults=faults, **arm)[0] for arm in arms]
    assert snaps[0] == snaps[1] == snaps[2] == snaps[3]


def test_speculation_denied_under_memory_tap():
    """A memtrace tap needs the strict per-reference stream; horizon
    extension must stand down — and the tapped runs (including the
    traces) must still match."""
    build = FAULT_OFF_WORKLOADS["oltp"]

    def run(**cfg_kw):
        SimProcess._next_pid[0] = 1
        eng = build(lambda **kw: complex_backend(**cfg_kw, **kw))
        rec = MemTraceRecorder.attach(eng, max_records=2_000_000)
        stats = eng.run()
        assert rec.dropped == 0
        return _snapshot(eng, stats) + (tuple(rec.records),), eng

    snap_on, eng_on = run(speculate=True)
    snap_off, _ = run(**STRICT)
    assert snap_on == snap_off
    assert eng_on.batch_stats["sp_windows"] == 0
    assert eng_on.batch_stats["la_refs"] == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(num_cpus=1, speculate_quantum=-1).validate()
    with pytest.raises(ConfigError):
        SimConfig(num_cpus=1, speculate_max_rollbacks=-1).validate()


# ---------------------------------------------------------------------------
# x checkpointing
# ---------------------------------------------------------------------------

def test_speculation_denied_while_recording(tmp_path):
    """An active checkpoint recorder wraps the memory system; the reply
    log needs the strict per-reference stream, so nothing extends the
    horizon — and the checkpointed result matches both the speculate-off
    checkpointed run and the plain speculate-on run."""
    build = FAULT_OFF_WORKLOADS["oltp"]
    path = str(tmp_path / "ck.pkl")

    def run(speculate):
        SimProcess._next_pid[0] = 1
        eng = build(lambda **kw: complex_backend(
            checkpoint_path=path, checkpoint_interval=2_000,
            speculate=speculate, **kw))
        stats = eng.run()
        return _snapshot(eng, stats), eng

    snap_on, eng_on = run(True)
    snap_off, _ = run(False)
    assert snap_on == snap_off
    assert eng_on._ckpt.saves > 0
    assert eng_on.batch_stats["sp_windows"] == 0
    plain, _ = _run(build, speculate=True)
    assert plain == snap_on


def test_checkpoint_resume_with_speculation_on(tmp_path):
    """Crash + resume at default knobs reproduces the uninterrupted
    strict run: replayed and recorded stretches deny windows, and the
    knob is timing-neutral anyway."""
    build = FAULT_OFF_WORKLOADS["dss"]
    baseline, _ = _run(build, **STRICT)
    path = str(tmp_path / "ck.pkl")

    def factory(**kw):
        return complex_backend(checkpoint_path=path,
                               checkpoint_interval=1_500,
                               speculate=True, **kw)

    SimProcess._next_pid[0] = 1
    eng = build(factory)
    eng._ckpt.crash_after_saves = 2
    with pytest.raises(SimulatedCrash):
        eng.run()
    assert checkpoint_exists(path)
    eng2, stats2 = resume(path, lambda: build(factory))
    assert _snapshot(eng2, stats2) == baseline


# ---------------------------------------------------------------------------
# ParallelEngine: worker-side speculative tails
# ---------------------------------------------------------------------------

def _run_parallel(nworkers=1, prog=HOT_PROG, **cfg_kw):
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=max(nworkers, 1),
                                         **cfg_kw))
    with eng:
        for i in range(nworkers):
            eng.spawn_worker(WorkerSpec(f"w{i}", prog))
        stats = eng.run()
    return _snapshot(eng, stats), eng


def test_worker_speculation_matches_strict():
    """Speculative tails engage on rival-bound-stalled workers and the
    results match both the conservative-lease and no-lease runs.
    (The commit/rollback split — and through the adaptive quantum the
    exact window count — is wall-clock dependent; the *results* are
    not, which is the whole point.)"""
    snap_spec, eng_spec = _run_parallel(2, worker_lease=2, speculate=True)
    snap_cons, _ = _run_parallel(2, worker_lease=2, speculate=False)
    snap_none, _ = _run_parallel(2, worker_lease=0, speculate=False)
    assert snap_spec == snap_cons == snap_none
    bs = eng_spec.batch_stats
    assert bs["sp_windows"] > 0
    assert bs["sp_commits"] + bs["sp_rollbacks"] == bs["sp_windows"]


def test_worker_speculation_multi_worker_identity():
    snap_spec, _ = _run_parallel(3, worker_lease=2, speculate=True)
    snap_none, _ = _run_parallel(3, worker_lease=0, speculate=False)
    assert snap_spec == snap_none


def test_adaptive_quantum_and_stand_down():
    """The tail quantum stays within its adaptive bounds, and a run capped
    at one consecutive rollback stands down permanently — without
    affecting the simulated results."""
    snap_on, eng_on = _run_parallel(2, worker_lease=2, speculate=True)
    assert (eng_on._spec_quantum_min <= eng_on._spec_quantum
            <= eng_on._spec_quantum_max)
    bs = eng_on.batch_stats
    assert bs["sp_commits"] + bs["sp_rollbacks"] == bs["sp_windows"]

    snap_capped, eng_capped = _run_parallel(2, worker_lease=2,
                                            speculate=True,
                                            speculate_max_rollbacks=1)
    assert snap_capped == snap_on
    if eng_capped.batch_stats["sp_rollbacks"]:
        assert not eng_capped._spec_on


def test_speculate_quantum_knob():
    """An explicit quantum is honoured as the starting tail length."""
    eng = ParallelEngine(complex_backend(num_cpus=2, speculate=True,
                                         speculate_quantum=512))
    with eng:
        assert eng._spec_quantum == 512
    snap_q, _ = _run_parallel(2, worker_lease=2, speculate=True,
                              speculate_quantum=512)
    snap_off, _ = _run_parallel(2, worker_lease=0, speculate=False)
    assert snap_q == snap_off


def test_worker_killed_mid_speculation(monkeypatch):
    """SIGKILL the worker right after its first speculative fold: the
    supervisor relaunches it, the re-drained tail blocks on the replayed
    "pr" and gets the *recorded* verdict back, and the run completes
    bit-identically to an undisturbed one."""
    baseline, _ = _run_parallel(2, worker_lease=2, speculate=True)

    killed = []
    orig = ParallelEngine._apply_pretimed

    def killing_apply(self, w, msg):
        orig(self, w, msg)
        if msg[8] is not None and not killed:
            killed.append(True)
            try:
                os.kill(w.process.pid, signal.SIGKILL)
                w.process.join(timeout=5)
            except (OSError, ValueError):
                pass

    monkeypatch.setattr(ParallelEngine, "_apply_pretimed", killing_apply)
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=2, worker_lease=2,
                                         speculate=True))
    eng.worker_backoff = 0.01
    with eng:
        procs = [eng.spawn_worker(WorkerSpec(f"w{i}", HOT_PROG))
                 for i in range(2)]
        stats = eng.run()
    assert killed
    assert any(eng._workers[p.pid].restarts >= 1 for p in procs)
    assert _snapshot(eng, stats) == baseline


def test_worker_killed_between_tail_and_verdict(monkeypatch):
    """SIGKILL the worker while it is *blocked on the verdict*: the
    verdict send hits a dead pipe, the supervisor restarts, and replay
    re-answers the re-sent "pr" from the recorded verdict log."""
    baseline, _ = _run_parallel(2, worker_lease=2, speculate=True)

    killed = []
    orig = ParallelEngine._spec_verdict

    def killing_verdict(self, p, end2):
        ok = orig(self, p, end2)
        if not killed:
            killed.append(True)
            w = self._workers.get(p.pid)
            try:
                os.kill(w.process.pid, signal.SIGKILL)
                w.process.join(timeout=5)
            except (OSError, ValueError):
                pass
        return ok

    monkeypatch.setattr(ParallelEngine, "_spec_verdict", killing_verdict)
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=2, worker_lease=2,
                                         speculate=True))
    eng.worker_backoff = 0.01
    with eng:
        procs = [eng.spawn_worker(WorkerSpec(f"w{i}", HOT_PROG))
                 for i in range(2)]
        stats = eng.run()
    assert killed
    assert any(eng._workers[p.pid].restarts >= 1 for p in procs)
    assert _snapshot(eng, stats) == baseline


def test_parallel_checkpoint_denies_speculation(tmp_path):
    path = str(tmp_path / "ck.pkl")
    snap_ck, eng_ck = _run_parallel(1, worker_lease=4, speculate=True,
                                    checkpoint_path=path,
                                    checkpoint_interval=2_000)
    snap_off, _ = _run_parallel(1, worker_lease=0, speculate=False)
    assert eng_ck.batch_stats["sp_windows"] == 0
    assert eng_ck.batch_stats["leases"] == 0
    assert snap_ck == snap_off


def test_speculation_denied_under_bounded_stepping():
    """run(max_events=...) needs the strict stream; leases (and with
    them tails) must be denied."""
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=1, worker_lease=1,
                                         worker_batch=8, speculate=True))
    with eng:
        eng.spawn_worker(WorkerSpec("w0", HOT_PROG))
        while eng._live > 0:
            eng.run(max_events=500)
        stats = eng.stats
    assert eng.batch_stats["sp_windows"] == 0
    assert eng.batch_stats["leases"] == 0
    snap_strict, _ = _run_parallel(1, worker_lease=0, speculate=False)
    assert _snapshot(eng, stats) == snap_strict
