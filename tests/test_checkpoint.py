"""Deterministic checkpoint/restore: crash mid-run, resume bit-identically."""

import copy
import os
import pickle

import pytest

from repro import (CheckpointError, Engine, FaultPlan, FaultRule,
                   checkpoint_exists,
                   SamplingConfig, SimulatedCrash, complex_backend,
                   load_checkpoint, resume)
from repro.checkpoint import CheckpointManager, RecordingMemory
from repro.checkpoint.log import ReplayMemory
from repro.checkpoint.manager import FORMAT_VERSION
from repro.checkpoint.snapshot import (_INSTALL_ONLY, collect_snapshot,
                                       verify_snapshot)
from repro.core.errors import ReplayDivergence
from repro.core.frontend import SimProcess
from repro.mem.hierarchy import MemorySystem

from tests.test_determinism_harness import FAULT_OFF_WORKLOADS, _fingerprint

#: timing-only fault plan that injects in every workload (no errno faults,
#: so OLTP/DSS/web/SPLASH all run to completion unchanged)
TIMING_PLAN = FaultPlan(rules=(
    FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
    FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
    FaultRule(site="link:degraded", prob=0.001, extra_cycles=50),
), seed=1998)

#: OLTP-only plan with an errno fault in the mix (kreadv retries)
ERRNO_PLAN = FaultPlan(rules=(
    FaultRule(site="syscall:kreadv", prob=0.05, errno="EINTR"),
    FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
    FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
), seed=7)


def _cfg_factory(path, interval, faults):
    def cfg(**kw):
        return complex_backend(faults=faults, checkpoint_path=path,
                               checkpoint_interval=interval, **kw)
    return cfg


def _full_fingerprint(eng, stats):
    return _fingerprint(eng, stats) + (
        tuple(sorted(eng.faults.stats.fired.items())),
        eng.faults.stats.draws,
        tuple(sorted(eng.memsys.cache_summary()["l1"].items())),
        dict(eng.memsys.cache_summary()["protocol"]),
        eng.memsys.vmm.minor_faults,
        eng.memsys.vmm.major_faults,
    )


def _run_plain(build, faults):
    SimProcess._next_pid[0] = 1
    eng = build(_cfg_factory(None, 0, faults))
    stats = eng.run()
    return _full_fingerprint(eng, stats)


class TestCrashResumeBitIdentity:
    """The acceptance gate: checkpoint -> kill -> restore produces the
    event stream, final stats, and fault-fire counts of an uninterrupted
    run, on every workload, with a fault plan active."""

    @pytest.mark.parametrize("name", sorted(FAULT_OFF_WORKLOADS))
    def test_interrupted_equals_uninterrupted(self, name, tmp_path):
        build = FAULT_OFF_WORKLOADS[name]
        path = str(tmp_path / "ck.pkl")
        baseline = _run_plain(build, TIMING_PLAN)

        factory = _cfg_factory(path, 1_500, TIMING_PLAN)
        SimProcess._next_pid[0] = 1
        eng = build(factory)
        eng._ckpt.crash_after_saves = 2
        with pytest.raises(SimulatedCrash):
            eng.run()
        assert checkpoint_exists(path)

        eng2, stats2 = resume(path, lambda: build(factory))
        assert _full_fingerprint(eng2, stats2) == baseline

    def test_errno_faults_survive_resume(self, tmp_path):
        build = FAULT_OFF_WORKLOADS["oltp"]
        path = str(tmp_path / "ck.pkl")
        baseline = _run_plain(build, ERRNO_PLAN)

        factory = _cfg_factory(path, 2_000, ERRNO_PLAN)
        SimProcess._next_pid[0] = 1
        eng = build(factory)
        eng._ckpt.crash_after_saves = 3
        with pytest.raises(SimulatedCrash):
            eng.run()
        eng2, stats2 = resume(path, lambda: build(factory))
        assert _full_fingerprint(eng2, stats2) == baseline

    def test_second_generation_crash(self, tmp_path):
        """Crash the *resumed* run and resume again: the checkpoint after
        a restore must be as complete as one from an unbroken run."""
        build = FAULT_OFF_WORKLOADS["oltp"]
        path = str(tmp_path / "ck.pkl")
        baseline = _run_plain(build, TIMING_PLAN)

        factory = _cfg_factory(path, 1_500, TIMING_PLAN)
        SimProcess._next_pid[0] = 1
        eng = build(factory)
        eng._ckpt.crash_after_saves = 1
        with pytest.raises(SimulatedCrash):
            eng.run()

        def rebuild():
            e = build(factory)
            e._ckpt.crash_after_saves = 2     # crash again, further along
            return e

        with pytest.raises(SimulatedCrash):
            resume(path, rebuild)

        eng3, stats3 = resume(path, lambda: build(factory))
        assert _full_fingerprint(eng3, stats3) == baseline


class TestSegmentedRuns:
    def test_resume_across_multiple_run_calls(self, tmp_path):
        """run(max_events=...) segments replay with their original bounds."""
        build = FAULT_OFF_WORKLOADS["oltp"]

        def run_segmented(eng):
            stats = eng.stats
            while True:
                stats = eng.run(max_events=4_000)
                if eng._live <= 0:
                    return stats

        SimProcess._next_pid[0] = 1
        eng0 = build(_cfg_factory(None, 0, TIMING_PLAN))
        baseline = _full_fingerprint(eng0, run_segmented(eng0))
        # a segment cut is not an event: the interval timer ticks across it
        assert baseline == _run_plain(build, TIMING_PLAN)

        path = str(tmp_path / "ck.pkl")
        factory = _cfg_factory(path, 1_500, TIMING_PLAN)
        SimProcess._next_pid[0] = 1
        eng = build(factory)
        eng._ckpt.crash_after_saves = 4
        with pytest.raises(SimulatedCrash):
            run_segmented(eng)

        eng2, _ = resume(path, lambda: build(factory), finish=True)
        stats2 = run_segmented(eng2) if eng2._live > 0 else eng2.stats
        assert _full_fingerprint(eng2, stats2) == baseline


class TestZeroCostWhenOff:
    def test_no_manager_no_wrapper(self):
        SimProcess._next_pid[0] = 1
        eng = FAULT_OFF_WORKLOADS["oltp"](_cfg_factory(None, 0, None))
        assert eng._ckpt is None
        assert type(eng.memsys) is MemorySystem

    def test_recording_is_bit_identical(self, tmp_path):
        build = FAULT_OFF_WORKLOADS["oltp"]
        baseline = _run_plain(build, TIMING_PLAN)
        path = str(tmp_path / "ck.pkl")
        SimProcess._next_pid[0] = 1
        eng = build(_cfg_factory(path, 2_000, TIMING_PLAN))
        assert eng.memsys.strict_stream() == "tapped"
        stats = eng.run()
        assert _full_fingerprint(eng, stats) == baseline
        assert eng._ckpt.saves > 0


class TestOneTap:
    """Recording and replaying are ``access`` interposers on the live
    ``MemorySystem`` instance: the engine keeps the object it was built
    with, and the interposer looks the class's ``access`` up per call."""

    def test_memsys_is_never_replaced(self, tmp_path, monkeypatch):
        build = FAULT_OFF_WORKLOADS["oltp"]
        path = str(tmp_path / "ck.pkl")
        factory = _cfg_factory(path, 1_500, TIMING_PLAN)
        seen = []
        init = CheckpointManager.__init__
        top = CheckpointManager.on_loop_top

        def spy_init(mgr, engine, *a):
            seen.append(("attach", engine.memsys, engine.memsys.strict_stream()))
            init(mgr, engine, *a)

        def spy_top(mgr, engine):
            tap = engine.memsys.access.__self__
            if not seen or seen[-1][0] != mgr.mode or seen[-1][2] is not tap:
                seen.append((mgr.mode, engine.memsys, tap))
            return top(mgr, engine)

        monkeypatch.setattr(CheckpointManager, "__init__", spy_init)
        monkeypatch.setattr(CheckpointManager, "on_loop_top", spy_top)
        SimProcess._next_pid[0] = 1
        eng = build(factory)
        eng._ckpt.crash_after_saves = 2
        with pytest.raises(SimulatedCrash):
            eng.run()
        eng2, _ = resume(path, lambda: build(factory))
        modes = [m for m, _, _ in seen]
        assert modes == ["attach", "record", "attach", "replay", "record"]
        # untapped before the manager attaches; then one slot, rebound
        assert [tap for m, _, tap in seen if m == "attach"] == [None, None]
        taps = [type(tap) for m, _, tap in seen if m != "attach"]
        assert taps == [RecordingMemory, ReplayMemory, RecordingMemory]
        assert all(type(ms) is MemorySystem for _, ms, _ in seen)
        assert {id(ms) for _, ms, _ in seen[:2]} == {id(eng.memsys)}
        assert {id(ms) for _, ms, _ in seen[2:]} == {id(eng2.memsys)}
        assert eng2.memsys.strict_stream() == "tapped"

    def test_class_level_patch_sees_every_reference(self, tmp_path,
                                                    monkeypatch):
        """What ``benchmarks/e2e``'s tracer does: patch the class after the
        engine is built. The recorder must not have captured the method."""
        SimProcess._next_pid[0] = 1
        eng = FAULT_OFF_WORKLOADS["oltp"](
            _cfg_factory(str(tmp_path / "ck.pkl"), 2_000, TIMING_PLAN))
        calls = []
        orig = MemorySystem.access
        monkeypatch.setattr(
            MemorySystem, "access",
            lambda ms, *a, **kw: calls.append(1) or orig(ms, *a, **kw))
        eng.run()
        assert eng._ckpt.saves > 0
        assert len(calls) == eng.memsys.accesses > 0


class TestFingerprints:
    def test_config_mismatch_refused(self, tmp_path):
        build = FAULT_OFF_WORKLOADS["oltp"]
        path = str(tmp_path / "ck.pkl")
        factory = _cfg_factory(path, 1_500, TIMING_PLAN)
        SimProcess._next_pid[0] = 1
        eng = build(factory)
        eng._ckpt.crash_after_saves = 1
        with pytest.raises(SimulatedCrash):
            eng.run()
        other = _cfg_factory(path, 1_500, None)   # different fault plan
        with pytest.raises(CheckpointError, match="configuration"):
            resume(path, lambda: build(other))

    def test_workload_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        factory = _cfg_factory(path, 1_500, TIMING_PLAN)
        SimProcess._next_pid[0] = 1
        eng = FAULT_OFF_WORKLOADS["oltp"](factory)
        eng._ckpt.crash_after_saves = 1
        with pytest.raises(SimulatedCrash):
            eng.run()
        with pytest.raises(CheckpointError, match="workload"):
            # same SimConfig shape, different process set
            resume(path, lambda: FAULT_OFF_WORKLOADS["dss"](factory))

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "junk.pkl")
        with open(path, "wb") as f:
            pickle.dump([1, 2, 3], f)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_atomic_autosave_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        factory = _cfg_factory(path, 1_500, TIMING_PLAN)
        SimProcess._next_pid[0] = 1
        eng = FAULT_OFF_WORKLOADS["oltp"](factory)
        eng.run()
        assert checkpoint_exists(path)
        # autosaves rotate generations; no bare file and no stale temps
        assert not os.path.exists(path)
        assert not any(f.endswith(".tmp") for f in os.listdir(path.rsplit(
            "/", 1)[0]))
        ck = load_checkpoint(path)
        assert ck["version"] == FORMAT_VERSION == 4
        assert ck["events_processed"] > 0
        # both generations exist after >= 2 autosaves and load_checkpoint
        # picks the newer one
        from repro.checkpoint import generation_paths
        gens = [g for g in generation_paths(path) if os.path.exists(g)]
        assert len(gens) == 2
        assert ck["saves"] == eng._ckpt.saves

    def test_checkpoint_summary_reports_the_cost_of_saving(self, tmp_path):
        from repro.checkpoint import generation_paths
        from repro.harness import checkpoint_summary
        path = str(tmp_path / "ck.pkl")
        SimProcess._next_pid[0] = 1
        eng = FAULT_OFF_WORKLOADS["oltp"](
            _cfg_factory(path, 1_500, TIMING_PLAN))
        eng.run()
        s = checkpoint_summary(eng)
        assert s["enabled"] and s["saves"] == eng._ckpt.session_saves >= 2
        # every save is counted, though only two generations stay on disk
        newest = max(os.path.getsize(g) for g in generation_paths(path))
        assert newest * 2 <= s["bytes"] <= newest * s["saves"]
        assert 0 < s["host_seconds"] <= eng.stats.host_seconds
        assert s["share_of_run"] == pytest.approx(
            s["host_seconds"] / eng.stats.host_seconds)
        # host measurements: never saved
        ck = load_checkpoint(path)
        assert not {"save_seconds", "save_bytes"} & (set(ck)
                                                     | set(ck["snapshot"]))
        SimProcess._next_pid[0] = 1
        off = FAULT_OFF_WORKLOADS["oltp"](_cfg_factory(None, 0, TIMING_PLAN))
        assert checkpoint_summary(off) == {"enabled": False}


class TestReplayMemory:
    def test_over_consumption_raises(self):
        class _FakeReal:
            pass
        rm = ReplayMemory(_FakeReal(), {1: [10, 20]})
        assert rm.access(1, 0x100, 4, False, 0, 0) == (10, None)
        assert rm.access(1, 0x104, 4, False, 0, 10) == (20, None)
        with pytest.raises(ReplayDivergence):
            rm.access(1, 0x108, 4, False, 0, 30)

    def test_check_exhausted(self):
        class _FakeReal:
            pass
        rm = ReplayMemory(_FakeReal(), {1: [10, 20]})
        rm.access(1, 0x100, 4, False, 0, 0)
        with pytest.raises(ReplayDivergence):
            rm.check_exhausted()


class TestParallelResume:
    """ParallelEngine checkpoints resume by respawning fresh workers and
    replaying their (deterministic) event streams against the reply log."""

    PROG = """
        li r1, 0
        li r2, 12000
        li r10, 0x100000
        li r6, 0
    loop:
        loadx r3, r10, r1, 4
        mul r4, r3, r3
        add r6, r6, r4
        addi r1, r1, 64
        blt r1, r2, loop
        syscall getpid, 0
        li r3, 0
        halt
    """

    def _build(self, path, interval):
        from repro.host import ParallelEngine, WorkerSpec
        cfg = complex_backend(num_cpus=2, faults=TIMING_PLAN,
                              checkpoint_path=path,
                              checkpoint_interval=interval)
        eng = ParallelEngine(cfg)
        for i in range(2):
            eng.spawn_worker(WorkerSpec(f"w{i}", self.PROG))
        return eng

    def test_parallel_crash_resume(self, tmp_path):
        SimProcess._next_pid[0] = 1
        eng0 = self._build(None, 0)
        with eng0:
            stats0 = eng0.run()
        baseline = _fingerprint(eng0, stats0)

        path = str(tmp_path / "ck.pkl")
        SimProcess._next_pid[0] = 1
        eng1 = self._build(path, 100)
        eng1._ckpt.crash_after_saves = 1
        try:
            with pytest.raises(SimulatedCrash):
                eng1.run()
        finally:
            eng1.shutdown()

        eng2, stats2 = resume(path, lambda: self._build(path, 100))
        try:
            assert _fingerprint(eng2, stats2) == baseline
        finally:
            eng2.shutdown()


class TestSamplingSpeculationResume:
    """``sampling`` and ``lookahead`` enabled *together*: the sampled
    schedule must survive a crash and resume even when the kill lands
    inside a fast-forward window."""

    #: short detail windows, long ff windows: autosaves at an 800-event
    #: cadence land the second save (event 1600) inside the first ff
    #: window (events 1000-3500)
    SC = SamplingConfig(detail_events=1_000, ff_events=2_500)

    def _factory(self, path, interval):
        def cfg(**kw):
            return complex_backend(sampling=self.SC, lookahead=True,
                                   checkpoint_path=path,
                                   checkpoint_interval=interval, **kw)
        return cfg

    def test_kill_during_ff_window_resumes(self, tmp_path):
        build = FAULT_OFF_WORKLOADS["splash"]    # multi-CPU: rivals exist
        path = str(tmp_path / "ck.pkl")

        SimProcess._next_pid[0] = 1
        eng0 = build(self._factory(str(tmp_path / "base.pkl"), 800))
        baseline = _full_fingerprint(eng0, eng0.run())

        SimProcess._next_pid[0] = 1
        eng = build(self._factory(path, 800))
        eng._ckpt.crash_after_saves = 2
        with pytest.raises(SimulatedCrash):
            eng.run()
        # the hard case: the kill interrupted a fast-forward window, so
        # the resume must reconstruct the window schedule and the
        # calibrated ff latency mid-flight
        assert eng.memsys.ff_active
        eng2, stats2 = resume(path, lambda: build(self._factory(path, 800)))
        assert _full_fingerprint(eng2, stats2) == baseline


class TestComponentRoundTrips:
    """state_dict()/load_state() are exact inverses on the state
    ``install_snapshot`` loads; every other owner is rebuilt by replay and
    only compared. ``state_dict()`` may lend the owner's live containers,
    so the value held across ``load_state`` is a deep copy."""

    def test_mid_run_round_trip(self):
        SimProcess._next_pid[0] = 1
        eng = FAULT_OFF_WORKLOADS["oltp"](_cfg_factory(None, 0, TIMING_PLAN))
        eng.run(max_events=3_000)
        before = copy.deepcopy(eng.stats.state_dict())
        eng.stats.load_state(pickle.loads(pickle.dumps(before)))
        assert eng.stats.state_dict() == before
        ms = eng.memsys
        before = copy.deepcopy(ms.state_dict())
        ms.load_state(pickle.loads(pickle.dumps(before)))
        assert ms.state_dict() == before
        # the lent tables are the owners' own: loading them back is a no-op
        ms.load_state(ms.state_dict())
        assert ms.state_dict() == before

    def test_every_owner_restore_does_not_install_is_verified(self):
        """The owners replay rebuilds have no ``load_state``: a snapshot
        that differs from the rebuilt state in any one of them is refused,
        naming the component."""
        SimProcess._next_pid[0] = 1
        eng = FAULT_OFF_WORKLOADS["oltp"](_cfg_factory(None, 0, TIMING_PLAN))
        eng.run(max_events=3_000)
        snap = collect_snapshot(eng)
        verify_snapshot(eng, snap)
        verified = [k for k in snap if k not in _INSTALL_ONLY]
        assert {"gsched", "comm", "locks", "barriers", "procsched", "intctl",
                "timer", "disk", "nic", "os_server"} <= set(verified)
        for key in verified:
            value = snap[key]
            if isinstance(value, dict):
                bad = {**value, "perturbed": True}
            elif isinstance(value, list):
                bad = value + ["perturbed"]
            else:
                bad = value + 1
            with pytest.raises(ReplayDivergence, match=repr(key)):
                verify_snapshot(eng, {**snap, key: bad})
