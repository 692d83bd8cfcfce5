"""Deterministic checkpoint/restore: crash mid-run, resume bit-identically."""

import copy
import os
import pickle
import random

import pytest

from repro import (CheckpointError, SamplingConfig, SimulatedCrash,
                   checkpoint_exists, load_checkpoint, resume)
from repro.checkpoint import CheckpointManager, RecordingMemory
from repro.checkpoint import generation_paths
from repro.checkpoint.log import ReplayMemory
from repro.checkpoint.manager import FORMAT_VERSION
from repro.checkpoint.snapshot import (_INSTALL_ONLY, collect_snapshot,
                                       verify_snapshot)
from repro.core.config import (BackendConfig, CacheConfig, MemoryConfig,
                               SimConfig)
from repro.core.errors import ReplayDivergence
from repro.core.frontend import SimProcess
from repro.core.stats import StatsRegistry
from repro.mem.hierarchy import MemorySystem
from repro.service.workloads import WORKLOADS, full_fingerprint

from tests.equivalence import (DEFAULT, ERRNO_PLAN, SCAN, TIMING_PLAN, Isa,
                               build, check, reference, run)


def _engine(path=None, interval=0, faults=TIMING_PLAN, name="oltp", **cfg):
    """``name``'s ready-to-run engine (pids from 1), autosaving to
    ``path`` every ``interval`` events."""
    return build(name, dict(cfg, checkpoint_path=path,
                            checkpoint_interval=interval), faults)


def _uninterrupted():
    """The plain oltp run under ``TIMING_PLAN`` (the table's cell)."""
    return run("oltp", DEFAULT, "plan").snap["fingerprint"]


class TestCrashResumeBitIdentity:
    """The acceptance gate: checkpoint -> kill -> restore produces the
    event stream, final stats, and fault-fire counts of an uninterrupted
    run, on every workload, with a fault plan active."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_interrupted_equals_uninterrupted(self, name):
        check(name, [DEFAULT], "resume")

    def test_errno_faults_survive_resume(self, tmp_path):
        eng0 = _engine(faults=ERRNO_PLAN)
        baseline = full_fingerprint(eng0, eng0.run())

        path = str(tmp_path / "ck.pkl")
        eng = _engine(path, 2_000, ERRNO_PLAN)
        eng._ckpt.crash_after_saves = 3
        with pytest.raises(SimulatedCrash):
            eng.run()
        eng2, stats2 = resume(path, lambda: _engine(path, 2_000, ERRNO_PLAN))
        assert full_fingerprint(eng2, stats2) == baseline

    def test_second_generation_crash(self, tmp_path):
        """Crash the *resumed* run and resume again: the checkpoint after
        a restore must be as complete as one from an unbroken run."""
        path = str(tmp_path / "ck.pkl")
        eng = _engine(path, 1_500)
        eng._ckpt.crash_after_saves = 1
        with pytest.raises(SimulatedCrash):
            eng.run()

        def rebuild():
            e = _engine(path, 1_500)
            e._ckpt.crash_after_saves = 2     # crash again, further along
            return e

        with pytest.raises(SimulatedCrash):
            resume(path, rebuild)

        eng3, stats3 = resume(path, lambda: _engine(path, 1_500))
        assert full_fingerprint(eng3, stats3) == _uninterrupted()


class TestSegmentedRuns:
    def test_resume_across_multiple_run_calls(self, tmp_path):
        """run(max_events=...) segments replay with their original bounds."""
        def run_segmented(eng):
            stats = eng.stats
            while True:
                stats = eng.run(max_events=4_000)
                if eng._live <= 0:
                    return stats

        eng0 = _engine()
        baseline = full_fingerprint(eng0, run_segmented(eng0))
        # a segment cut is not an event: the interval timer ticks across it
        assert baseline == _uninterrupted()

        path = str(tmp_path / "ck.pkl")
        eng = _engine(path, 1_500)
        eng._ckpt.crash_after_saves = 4
        with pytest.raises(SimulatedCrash):
            run_segmented(eng)

        eng2, _ = resume(path, lambda: _engine(path, 1_500), finish=True)
        stats2 = run_segmented(eng2) if eng2._live > 0 else eng2.stats
        assert full_fingerprint(eng2, stats2) == baseline


class TestZeroCostWhenOff:
    def test_no_manager_no_wrapper(self):
        eng = _engine(faults=None)
        assert eng._ckpt is None
        assert type(eng.memsys) is MemorySystem
        # nothing marks what changes: no dirty-line set, no dirty L2 sets
        ms = eng.memsys
        assert ms.dirty is None
        assert all(c.dirty_sets is None for c in ms.l1s + ms.l2s)

    def test_recording_is_bit_identical(self, tmp_path):
        eng = _engine(str(tmp_path / "ck.pkl"), 2_000)
        assert eng.memsys.strict_stream() == "tapped"
        assert full_fingerprint(eng, eng.run()) == _uninterrupted()
        assert eng._ckpt.saves > 0


class TestOneTap:
    """Recording and replaying are ``access`` interposers on the live
    ``MemorySystem`` instance: the engine keeps the object it was built
    with, and the interposer looks the class's ``access`` up per call."""

    def test_memsys_is_never_replaced(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.pkl")
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
        eng = _engine(path, 1_500)
        eng._ckpt.crash_after_saves = 2
        with pytest.raises(SimulatedCrash):
            eng.run()
        eng2, _ = resume(path, lambda: _engine(path, 1_500))
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
        eng = _engine(str(tmp_path / "ck.pkl"), 2_000)
        calls = []
        orig = MemorySystem.access
        monkeypatch.setattr(
            MemorySystem, "access",
            lambda ms, *a, **kw: calls.append(1) or orig(ms, *a, **kw))
        eng.run()
        assert eng._ckpt.saves > 0
        assert len(calls) == eng.memsys.accesses > 0


def _crashed(path):
    """Run oltp under ``TIMING_PLAN``, autosaving to ``path``, until it
    crashes after its first autosave."""
    eng = _engine(path, 1_500)
    eng._ckpt.crash_after_saves = 1
    with pytest.raises(SimulatedCrash):
        eng.run()


class TestFingerprints:
    def test_config_mismatch_refused(self, tmp_path):
        """The refusal names the fields that differ."""
        path = str(tmp_path / "ck.pkl")
        _crashed(path)
        with pytest.raises(CheckpointError,
                           match="configuration .* differs .* in: faults$"):
            resume(path, lambda: _engine(path, 1_500, None))

    @pytest.mark.parametrize("name,cfg", [
        ("ck.pkl", {"watchdog_rounds": 500_000}), ("moved.pkl", {})],
        ids=["watchdog_rounds", "checkpoint_path"])
    def test_host_policy_is_not_identity(self, tmp_path, name, cfg):
        """A run resumes under another host policy and lands the
        uninterrupted result; under another ``checkpoint_path`` it starts
        a log of its own there, which a later resume reads."""
        path = str(tmp_path / "ck.pkl")
        _crashed(path)
        new_path = str(tmp_path / name)
        eng, stats = resume(path, lambda: _engine(new_path, 1_500, **cfg))
        assert full_fingerprint(eng, stats) == _uninterrupted()
        assert load_checkpoint(new_path)["saves"] == eng._ckpt.saves

    def test_workload_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        _crashed(path)
        with pytest.raises(CheckpointError, match="workload"):
            # same SimConfig shape, different process set
            resume(path, lambda: _engine(path, 1_500, name="dss"))

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "junk.pkl")
        with open(path, "wb") as f:
            pickle.dump([1, 2, 3], f)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_atomic_autosave_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        eng = _engine(path, 1_500)
        eng.run()
        assert checkpoint_exists(path)
        # autosaves append to one segmented log: no bare file, no temps,
        # and after a compaction no older segment
        assert not os.path.exists(path)
        assert not any(f.endswith(".tmp") for f in os.listdir(tmp_path))
        ck = load_checkpoint(path)
        assert ck["version"] == FORMAT_VERSION == 8
        assert ck["events_processed"] > 0
        # one segment is left, and load_checkpoint reads its newest
        # snapshot frame
        assert generation_paths(path) == [ck["log_path"]]
        assert sorted(os.listdir(tmp_path)) == [
            os.path.basename(ck["log_path"])]
        assert ck["saves"] == eng._ckpt.saves

    def test_checkpoint_summary_reports_the_cost_of_saving(self, tmp_path):
        from repro.harness import checkpoint_summary
        path = str(tmp_path / "ck.pkl")
        eng = _engine(path, 1_500)
        eng.run()
        s = checkpoint_summary(eng)
        assert s["enabled"] and s["saves"] == eng._ckpt.session_saves >= 2
        # every save is counted — the frames appended and the segments a
        # compaction writes — though one segment stays on disk
        sizes = [os.path.getsize(g) for g in generation_paths(path)]
        assert s["log_bytes"] == s["disk_bytes"] == sum(sizes) < s["bytes"]
        # split into the saves that wrote a memory base and the deltas
        base, delta = s["base"], s["delta"]
        assert base["saves"] >= 1 and delta["saves"] >= 1
        assert base["saves"] + delta["saves"] == s["saves"]
        assert (base["saves"] * base["bytes"] + delta["saves"] * delta["bytes"]
                == pytest.approx(s["bytes"], abs=s["saves"]))
        assert 0 < delta["bytes"] < base["bytes"]
        assert 0 < s["host_seconds"] <= eng.stats.host_seconds
        assert s["share_of_run"] == pytest.approx(
            s["host_seconds"] / eng.stats.host_seconds)
        # host measurements: never saved
        ck = load_checkpoint(path)
        assert "by_kind" not in set(ck) | set(ck["snapshot"])
        assert checkpoint_summary(_engine()) == {"enabled": False}


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

    #: ``SCAN`` over 12 000 bytes, ending in an OS call
    PROG = SCAN.replace("li r2, 20000", "li r2, 12000").replace(
        "    li r3, 0\n", "    syscall getpid, 0\n    li r3, 0\n")

    def test_parallel_crash_resume(self, tmp_path):
        row = Isa((self.PROG,) * 2, parallel=True)
        ck = {"checkpoint_path": str(tmp_path / "ck.pkl"),
              "checkpoint_interval": 100}
        eng1 = build(row, ck, TIMING_PLAN)
        eng1._ckpt.crash_after_saves = 1
        try:
            with pytest.raises(SimulatedCrash):
                eng1.run()
        finally:
            eng1.shutdown()

        eng2, stats2 = resume(ck["checkpoint_path"],
                              lambda: build(row, ck, TIMING_PLAN))
        try:
            assert full_fingerprint(eng2, stats2) == \
                reference(row, "plan")["fingerprint"]
        finally:
            eng2.shutdown()


class TestSamplingSpeculationResume:
    """``sampling`` beside lookahead windows: the sampled schedule must
    survive a crash and resume even when the kill lands inside a
    fast-forward window."""

    #: short detail windows, long ff windows: autosaves at an 800-event
    #: cadence land the second save (event 1600, near cycle 28 000) inside
    #: the first ff window (cycles 17 000-61 000)
    SC = SamplingConfig(detail_cycles=17_000, ff_cycles=44_000)

    def _engine(self, path):
        # splash: multi-CPU, so rivals exist
        return _engine(path, 800, None, "splash", sampling=self.SC)

    def test_kill_during_ff_window_resumes(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        eng0 = self._engine(str(tmp_path / "base.pkl"))
        baseline = full_fingerprint(eng0, eng0.run())

        eng = self._engine(path)
        eng._ckpt.crash_after_saves = 2
        with pytest.raises(SimulatedCrash):
            eng.run()
        # the hard case: the kill interrupted a fast-forward window, so
        # the resume must reconstruct the window schedule and the
        # calibrated ff latency mid-flight
        assert eng.memsys.ff_active
        eng2, stats2 = resume(path, lambda: self._engine(path))
        assert full_fingerprint(eng2, stats2) == baseline


class TestComponentRoundTrips:
    """state_dict()/load_state() are exact inverses on the state
    ``install_snapshot`` loads; every other owner is rebuilt by replay and
    only compared. ``state_dict()`` may lend the owner's live containers,
    so the value held across ``load_state`` is a deep copy."""

    def test_mid_run_round_trip(self):
        eng = _engine()
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
        eng = _engine()
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


def _small_backend(coherence="directory", detail="complex"):
    """1 KiB L1s and 4 KiB L2s: references evict, upgrade and invalidate
    all the time."""
    return BackendConfig(
        detail=detail, coherence=coherence,
        l1=CacheConfig(size=1024, assoc=2),
        l2=(CacheConfig(size=4096, assoc=4, latency=8)
            if detail == "complex" else None),
        memory=MemoryConfig(num_nodes=1 if coherence == "mesi" else 2))


def _small_caches(path, coherence="directory", detail="complex", **cfg):
    """A config factory for :func:`_small_backend` machines autosaving to
    ``path`` every 1 000 events."""
    def factory(num_cpus, **kw):
        return SimConfig(num_cpus=num_cpus,
                         backend=_small_backend(coherence, detail),
                         checkpoint_path=path, checkpoint_interval=1_000,
                         **cfg, **kw).validate()
    return factory


class TestDeltaReconstruction:
    """A save writes the memory system as a base or as the lines that
    changed since the previous save. At every save of a run, the base and
    the deltas after it, read back from the log, must equal the memory
    system's full ``state_dict()`` taken at that point — a change the
    marks miss shows up here, not as a divergence runs later."""

    @staticmethod
    def _every_save_rebuilds(name, factory):
        SimProcess.set_pid_counter(1)
        eng = WORKLOADS[name](factory)
        mgr, ms = eng._ckpt, eng.memsys
        real = mgr.save
        kinds = []

        def save(path=None):
            want = pickle.loads(pickle.dumps(ms.state_dict()))
            ff = ms.ff_active
            base = mgr.by_kind["base"]["saves"]
            target = real(path)
            got = load_checkpoint(target)["snapshot"]["memsys"]
            assert got == want, f"save {mgr.saves} does not rebuild"
            kinds.append(("base" if mgr.by_kind["base"]["saves"] > base
                          else "delta", ff))
            return target

        mgr.save = save
        eng.run()
        assert [k for k, _ in kinds].count("base") >= 2, kinds
        assert [k for k, _ in kinds].count("delta") >= 2, kinds
        return kinds

    @pytest.mark.parametrize("coherence",
                             ("none", "mesi", "directory", "coma", "dsm"))
    def test_every_protocol(self, tmp_path, coherence):
        self._every_save_rebuilds("oltp", _small_caches(
            str(tmp_path / "ck.pkl"), coherence))

    def test_simple_hierarchy(self, tmp_path):
        """No L2: the L1 is the coherence point, its victims the marks."""
        self._every_save_rebuilds("oltp", _small_caches(
            str(tmp_path / "ck.pkl"), detail="simple"))

    def test_under_a_fault_plan(self, tmp_path):
        self._every_save_rebuilds("oltp", _small_caches(
            str(tmp_path / "ck.pkl"), faults=TIMING_PLAN))

    def test_saves_inside_a_fast_forward_window(self, tmp_path):
        kinds = self._every_save_rebuilds("splash", _small_caches(
            str(tmp_path / "ck.pkl"),
            sampling=SamplingConfig(detail_cycles=17_000, ff_cycles=44_000)))
        assert ("delta", True) in kinds

    @pytest.mark.parametrize("coherence,detail", [
        ("none", "complex"), ("mesi", "complex"), ("directory", "complex"),
        ("coma", "complex"), ("dsm", "complex"), ("directory", "simple")])
    def test_every_mark_site(self, coherence, detail):
        """A seeded stream of reads, writes, atomics and line-straddling
        references from four CPUs over 96 shared lines, one at a time and
        in batches, in and out of fast-forward, with runs over each CPU's
        own lines the bulk path retires, then the private-L2 arm's marks
        at both of its sites (:meth:`_arm_cases`): every fourth step the
        delta folded into the previous capture is the ``state_dict()``.
        On a complex hierarchy the arm (the L2 hits the miss kernel did
        not make) is reached one at a time and in batches."""
        cfg = SimConfig(num_cpus=4,
                        backend=_small_backend(coherence, detail)).validate()
        ms = MemorySystem(cfg, StatsRegistry(4))
        ms.vmm.new_space(1)
        ms.vmm.map_anon(1, 0x100000, 4 * cfg.backend.memory.page_size)
        ms.track_changes()

        def plain(state):
            return pickle.loads(pickle.dumps(state))

        have = plain(ms.state_dict())

        def settle(step):
            MemorySystem.apply_delta(have, plain(ms.state_delta()))
            ms.clear_changes()
            assert have == plain(ms.state_dict()), step

        def l2_hits():
            return sum(c.hits for c in ms.l2s or ())

        kernel = ms._miss
        in_kernel = [0]     # L2 hits the miss kernel made

        def miss(*args):
            before = l2_hits()
            try:
                return kernel(*args)
            finally:
                in_kernel[0] += l2_hits() - before

        ms._miss = miss
        arm = {"access": 0, "access_run": 0}
        clock = [0]

        def issue(cpu, refs, batched):
            """``refs`` ((kind, addr, size) each) one ``access`` at a time,
            or as one batch; counts the arm's L2 hits per site."""
            hits, kernel_hits = l2_hits(), in_kernel[0]
            for kind, addr, size in ([] if batched else refs):
                lat, major = ms.access(1, addr, size, kind != 0, cpu,
                                       clock[0], atomic=kind == 2)
                assert major is None
                clock[0] += lat + 1
            if batched:
                kinds, addrs, sizes = map(list, zip(*refs))
                _n, _i, _t, lat, major, _x = ms.access_run(
                    1, cpu, kinds, addrs, sizes, [1] * len(refs), 0,
                    len(refs), clock[0], len(refs), 1 << 60)
                assert major is None
                clock[0] += lat + 1
            site = "access_run" if batched else "access"
            arm[site] += l2_hits() - hits - (in_kernel[0] - kernel_hits)

        rng = random.Random(coherence + detail)
        for step in range(1, 151):
            cpu = rng.randrange(4)
            refs = [(rng.choice((0, 0, 1, 1, 2)),
                     0x100000 + rng.randrange(96) * 32
                     + rng.choice((0, 8, 30)), rng.choice((4, 8)))
                    for _ in range(rng.choice((1, 8)))]
            issue(cpu, refs, len(refs) > 1)
            if step % 10 == 0:
                clock[0] = self._private_runs(ms, step // 10 % 4, clock[0],
                                              settle)
            if step % 40 == 0 and ms.ff_active:
                ms.ff_end()
            elif step % 40 == 0:
                ms.ff_begin(6.5)
            if step % 4 == 0:
                settle(step)
        assert ms.vec_refs > 0
        if ms.ff_active:
            ms.ff_end()
        for cpu, batched in ((0, False), (1, True)):
            self._arm_cases(ms, issue, cpu, 256 + 4 * cpu, batched, settle)
        if detail == "complex":
            assert min(arm.values()) > 0, arm

    @staticmethod
    def _arm_cases(ms, issue, cpu, x, batched, settle):
        """The private-L2 arm's three marks on lines of page 2 that nothing
        else touches, through ``issue``. Lines ``x + k * s1`` share an L1
        set (``s1`` L1 sets), ``x`` and ``x + s2`` an L2 set too. A
        written line behind a younger one in its L2 set marks the
        reorder and the E->M flip; an L1 victim that fast-forward left
        MODIFIED over a cleaner L2 copy marks the fold."""
        s1, s2 = ms.l1s[0].n_sets, (ms.l2s or ms.l1s)[0].n_sets

        def refs(*pairs):
            return [(kind, 0x100000 + line * 32, 4) for kind, line in pairs]

        # x leaves the L1 behind x + s2 in its L2 set; the write brings it
        # back to the front of that set, E -> M
        issue(cpu, refs((0, x), (0, x + s2), (0, x + s1)), batched)
        settle("arm: before the reorder")
        issue(cpu, refs((1, x), (0, x + s1)), batched)
        settle("arm: reorder, E->M")
        # y + s1 waits in the L2; y is written in fast-forward (its L1 copy
        # alone goes MODIFIED) and is the L1's LRU line when y + s1 returns
        y = x + 1
        issue(cpu, refs((0, y + s1), (0, y + 2 * s1), (0, y)), batched)
        ms.ff_begin(6.5)
        issue(cpu, refs((1, y)), False)
        ms.ff_end()
        settle("arm: before the fold")
        issue(cpu, refs((0, y + 2 * s1), (0, y + s1)), batched)
        settle("arm: the fold")

    @staticmethod
    def _private_runs(ms, cpu, now, settle):
        """Batches over eight lines only ``cpu`` touches: reads until the
        bulk path retires them, a capture, then writes (E->M flips in bulk,
        the only change left to mark)."""
        addrs = [0x100000 + (128 + cpu * 8 + k % 8) * 32 for k in range(16)]
        for kind in (0, 0, 0, 0, 1):
            if kind:
                settle("private")
            _n, _i, now, _lat, major, _x = ms.access_run(
                1, cpu, [kind] * 16, addrs, [4] * 16, [1] * 16, 0, 16, now,
                16, 1 << 60)
            assert major is None
        return now + 1
