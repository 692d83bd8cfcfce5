"""Deterministic crash-point injection + the recovery acceptance gate.

Three layers, bottom up: the checkpoint generation fallback (corrupt the
newest autosave → the previous generation loads, with a quarantine
forensic record), the in-process crash-point machinery (Nth-hit rules,
once-only claims, env pickup), and the full supervisor-kill recovery
loop — every crash site, SIGKILL at the injected instant, recover from
the WAL spool, finish with a fingerprint bit-identical to an
undisturbed run.

The site × seed matrix defaults to one seed per site to keep tier-1
fast; ``COMPASS_CRASH_FULL=1`` (set by the CI crash-recovery job) runs
three seeds per site.
"""

import json
import os
import pickle
import shutil
import subprocess
import sys

import pytest

from repro import (CheckpointCorruptError, CheckpointError, CrashPointPlan,
                   CrashRule, Engine, SamplingConfig, SimulatedCrash,
                   checkpoint_exists, complex_backend, load_checkpoint, resume)
from repro.checkpoint import (generation_paths, reply_log_path,
                              write_checkpoint_file)
from repro.checkpoint.log import LOG_MAGIC, read_log
from repro.checkpoint.manager import FORMAT_VERSION
from repro.checkpoint.manager import MAGIC as CKPT_MAGIC
from repro.core.errors import ConfigError
from repro.core.framing import sweep_stale_tmp, write_frame
from repro.core.frontend import SimProcess
from repro.faults import crashpoints
from repro.service import (JobRunner, JobSpec, crash_recovery_loop,
                           final_fingerprints, run_matrix)
from repro.service.workloads import full_fingerprint

SEEDS = (1, 2, 3) if os.environ.get("COMPASS_CRASH_FULL") else (1,)

#: the supervised job the whole module crashes and recovers
SPEC = dict(workload="oltp", budget=4_500, checkpoint_interval=1_000,
            heartbeat_events=1_500, timeout=120.0, hang_timeout=60.0,
            max_retries=3, backoff=0.01, backoff_max=0.05)

#: the hit a site's rule fires at is drawn from this range: SPEC's 4 saves
#: hit a per-save site 4 times, and write 2 memory bases (saves 1 and 4)
HIT_RANGE = {"ckpt:base-append": (1, 2), "ckpt:base-fsync": (1, 2)}


def _ckpt(saves, events=100):
    return {"version": FORMAT_VERSION, "saves": saves, "events_processed": events,
            "payload": list(range(events % 7))}


class TestGenerationFallback:
    def _write_gens(self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0, g1 = generation_paths(base)
        write_checkpoint_file(g1, _ckpt(saves=1, events=100))
        write_checkpoint_file(g0, _ckpt(saves=2, events=200))
        return base, g0, g1

    def test_newest_generation_wins(self, tmp_path):
        base, _g0, _g1 = self._write_gens(tmp_path)
        assert load_checkpoint(base)["saves"] == 2

    def test_corrupt_latest_falls_back_and_quarantines(self, tmp_path):
        base, g0, g1 = self._write_gens(tmp_path)
        blob = bytearray(open(g0, "rb").read())
        blob[-1] ^= 0xFF                      # flip a payload byte
        open(g0, "wb").write(bytes(blob))

        ck = load_checkpoint(base)
        assert ck["saves"] == 1               # fell back to the older gen
        assert os.path.exists(g0 + ".corrupt")
        assert not os.path.exists(g0)         # evidence moved aside
        record = json.loads(open(g0 + ".quarantine.json").read())
        assert record["quarantined"] == g0
        assert record["fallback"] == g1
        assert record["error"]["type"] == "CheckpointCorruptError"
        assert record["error"]["offset"] > 0

    def test_all_generations_corrupt_raises_structured(self, tmp_path):
        base, g0, g1 = self._write_gens(tmp_path)
        for g in (g0, g1):
            open(g, "r+b").write(b"XXXX")     # smash the magic
        with pytest.raises(CheckpointCorruptError) as ei:
            load_checkpoint(base)
        assert ei.value.offset == 0
        assert "magic" in ei.value.reason

    def test_truncation_never_leaks_raw_errors(self, tmp_path):
        """Cut a checkpoint at every plausible boundary: the structured
        error (or clean fallback) is the only acceptable outcome —
        no EOFError, no UnpicklingError, no struct.error."""
        base = str(tmp_path / "ck.pkl")
        g0, _ = generation_paths(base)
        write_checkpoint_file(g0, _ckpt(saves=1))
        blob = open(g0, "rb").read()
        cuts = sorted({0, 1, len(CKPT_MAGIC), len(CKPT_MAGIC) + 4,
                       len(CKPT_MAGIC) + 8, len(blob) // 2, len(blob) - 1})
        for cut in cuts:
            d = tmp_path / f"cut-{cut}"
            d.mkdir()
            dest = str(d / "ck.pkl")
            open(generation_paths(dest)[0], "wb").write(blob[:cut])
            with pytest.raises(CheckpointCorruptError) as ei:
                load_checkpoint(dest)
            assert ei.value.path == generation_paths(dest)[0]
            assert 0 <= ei.value.offset <= cut

    def test_explicit_path_stays_strict(self, tmp_path):
        """An explicit single-file path (the sampling .w<N> windows)
        never falls back to generations."""
        p = str(tmp_path / "win.w3")
        write_checkpoint_file(p, _ckpt(saves=9))
        assert load_checkpoint(p)["saves"] == 9
        open(p, "r+b").write(b"ZZZZ")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(p)


def _write_v2_autosave(path):
    """A well-formed format-2 autosave, byte for byte as the previous
    build wrote it: the protocol sub-dict still has the per-line
    ``"dir"`` table the current ``load_state`` no longer understands."""
    ckpt = {"version": 2, "saves": 1, "events_processed": 100,
            "snapshot": {"memsys": {"protocol": {
                "counters": {}, "dir": {7: ([0, 1], -1)}}}}}
    header = json.dumps({"format": 2, "saves": 1, "events": 100}).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        write_frame(f, header)
        write_frame(f, pickle.dumps(ckpt))
    return ckpt


def _write_v3_autosave(path):
    """A well-formed format-3 autosave as the previous build wrote it: the
    reply streams are still per-pid lists inside the payload and the
    header names no reply log."""
    ckpt = {"version": 3, "saves": 1, "events_processed": 100,
            "replies": {1: [12, 1, -1, 40]}, "fault_log": {},
            "snapshot": {"memsys": {"protocol": {
                "counters": {}, "sharers": {7: 3}, "owner": {}}}}}
    header = json.dumps({"format": 3, "saves": 1, "events": 100}).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        write_frame(f, header)
        write_frame(f, pickle.dumps(ckpt))
    return ckpt


def _write_v4_autosave(path):
    """A well-formed format-4 autosave as the previous build wrote it: its
    ``config_fp`` is ``repr(SimConfig)``, host policy included, and its
    header points into a reply log."""
    cfg = complex_backend(num_cpus=2)
    ckpt = {"version": 4, "saves": 1, "events_processed": 100,
            "config_fp": repr(cfg), "log": "ck.pkl.log", "log_bytes": 0}
    header = json.dumps({"format": 4, "saves": 1, "events": 100,
                         "log": "ck.pkl.log", "log_bytes": 0}).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        write_frame(f, header)
        write_frame(f, pickle.dumps(ckpt))
    return ckpt


def _write_v5_autosave(path):
    """A well-formed format-5 autosave as the previous build wrote it: its
    communicator snapshot still carries each CPU's ``running_pid`` and the
    dispatch-ordered ``running`` scan list."""
    cpu = {"time": 0, "irq_enabled": True, "irq_pending": 0,
           "running_pid": -1, "idle_since": 0}
    ckpt = {"version": 5, "saves": 1, "events_processed": 100,
            "config_fp": {"num_cpus": "2"},
            "log": "ck.pkl.log", "log_bytes": 0,
            "snapshot": {"comm": {"cpus": [cpu, dict(cpu)], "procs": {},
                                  "running": []}}}
    header = json.dumps({"format": 5, "saves": 1, "events": 100,
                         "log": "ck.pkl.log", "log_bytes": 0}).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        write_frame(f, header)
        write_frame(f, pickle.dumps(ckpt))
    return ckpt


def _write_v6_autosave(path):
    """A well-formed format-6 autosave and its reply log, as the previous
    build wrote them: the memory system and the fault outcomes are in the
    payload, and the log's one frame is an untagged pickle of the reply
    streams — which a v7 reader would take for a frame of unknown kind."""
    log = os.path.join(os.path.dirname(path), "ck.pkl.log")
    with open(log, "wb") as f:
        f.write(LOG_MAGIC)
        log_bytes = len(LOG_MAGIC) + write_frame(f, pickle.dumps({1: [12]}))
    ckpt = {"version": 6, "saves": 1, "events_processed": 100,
            "config_fp": {"num_cpus": "2"}, "fault_log": {"disk:latency": [-1]},
            "log": "ck.pkl.log", "log_bytes": log_bytes,
            "snapshot": {"memsys": {"accesses": 1}, "comm": {}}}
    header = json.dumps({"format": 6, "saves": 1, "events": 100,
                         "log": "ck.pkl.log",
                         "log_bytes": log_bytes}).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        write_frame(f, header)
        write_frame(f, pickle.dumps(ckpt))
    return ckpt


class TestStaleFormat:
    """A checkpoint of another format version is refused by name — both
    versions in the message — never by a ``KeyError`` out of some
    ``load_state``, and never quarantined (it is intact)."""

    def test_load_checkpoint_refuses_v2(self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0, _ = generation_paths(base)
        _write_v2_autosave(g0)
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert "format 2" in str(ei.value)
        assert f"!= {FORMAT_VERSION}" in str(ei.value)
        assert os.path.exists(g0) and not os.path.exists(g0 + ".corrupt")

    def test_v3_refused_from_its_header_not_quarantined(self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0, _ = generation_paths(base)
        ckpt = _write_v3_autosave(g0)
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert f"format 3 != {FORMAT_VERSION}" in str(ei.value)
        assert os.listdir(tmp_path) == [os.path.basename(g0)]
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=base,
                                     checkpoint_interval=1_000))
        with pytest.raises(CheckpointError,
                           match=f"format 3 != {FORMAT_VERSION}"):
            eng._ckpt.restore(ckpt)

    def test_v4_refused_as_an_incompatible_build(self, tmp_path):
        """v4 fingerprinted the host policy with the machine: refused from
        its header, never misreported as a configuration mismatch."""
        base = str(tmp_path / "ck.pkl")
        g0, _ = generation_paths(base)
        ckpt = _write_v4_autosave(g0)
        stale = f"format 4 != {FORMAT_VERSION} .written by an incompatible"
        with pytest.raises(CheckpointError, match=stale) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert os.listdir(tmp_path) == [os.path.basename(g0)]
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=base,
                                     checkpoint_interval=1_000))
        with pytest.raises(CheckpointError, match=stale):
            eng._ckpt.restore(ckpt)

    def test_v5_refused_as_an_incompatible_build(self, tmp_path):
        """v5 snapshots recorded who runs where three times over: refused
        from the header, never replayed into a ``ReplayDivergence``."""
        base = str(tmp_path / "ck.pkl")
        g0, _ = generation_paths(base)
        ckpt = _write_v5_autosave(g0)
        stale = f"format 5 != {FORMAT_VERSION} .written by an incompatible"
        with pytest.raises(CheckpointError, match=stale) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert os.listdir(tmp_path) == [os.path.basename(g0)]
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=base,
                                     checkpoint_interval=1_000))
        with pytest.raises(CheckpointError, match=stale):
            eng._ckpt.restore(ckpt)

    def test_v6_refused_as_an_incompatible_build(self, tmp_path):
        """v6 kept the memory system in every generation and an untagged
        reply log: refused from the header, never read as a corrupt log
        (nothing is quarantined, the log is left as it was)."""
        base = str(tmp_path / "ck.pkl")
        g0, _ = generation_paths(base)
        ckpt = _write_v6_autosave(g0)
        log = open(reply_log_path(base), "rb").read()
        stale = f"format 6 != {FORMAT_VERSION} .written by an incompatible"
        with pytest.raises(CheckpointError, match=stale) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert sorted(os.listdir(tmp_path)) == ["ck.pkl.g0", "ck.pkl.log"]
        assert open(reply_log_path(base), "rb").read() == log
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=base,
                                     checkpoint_interval=1_000))
        with pytest.raises(CheckpointError, match=stale):
            eng._ckpt.restore(ckpt)

    def test_restore_refuses_v2(self, tmp_path):
        path = str(tmp_path / "ck.pkl")
        ckpt = _write_v2_autosave(path)
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=path,
                                     checkpoint_interval=1_000))
        with pytest.raises(CheckpointError,
                           match=f"format 2 != {FORMAT_VERSION}"):
            eng._ckpt.restore(ckpt)

    def test_job_with_stale_autosave_fails_structured(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        _write_v2_autosave(generation_paths(str(work / "j.ckpt"))[0])
        spec = dict(SPEC, max_retries=0)
        records = run_matrix(
            [JobSpec(name="j", safe_mode_fallback=False, **spec)],
            max_workers=1, poll=0.02, workdir=str(work))
        rec = records["j"]
        assert rec.state == "FAILED"
        assert [a.outcome for a in rec.attempts] == ["error"]
        assert rec.error["last_error"]["type"] == "CheckpointError"
        assert f"format 2 != {FORMAT_VERSION}" in rec.error["detail"]
        json.loads(rec.to_json())             # structured all the way out


# ---------------------------------------------------------------------------
# the reply log: one append-only file every checkpoint points into
# ---------------------------------------------------------------------------

def _tiny_build(path, interval=40):
    """Two processes fighting over a few lines: frames of a few hundred
    bytes, so a case can visit every byte of one."""
    def app(n):
        def run(proc):
            for i in range(120):
                proc.compute(3 + n)
                yield from proc.load(0x10_000 + (i * 36 + n * 4) % 0x800)
                if i % 3 == n:
                    yield from proc.store(0x10_000 + i * 8 % 0x400)
            yield from proc.exit(0)
        return run

    def build():
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=path,
                                     checkpoint_interval=interval))
        for n in range(2):
            eng.spawn(f"p{n}", app(n))
        return eng
    return build


def _frame_ends(log):
    """Byte offset after the magic and after every frame of ``log``."""
    blob = open(log, "rb").read()
    assert blob[:4] == LOG_MAGIC
    ends, off = [4], 4
    while off < len(blob):
        off += 8 + int.from_bytes(blob[off:off + 4], "little")
        ends.append(off)
    assert off == len(blob)
    return ends


def _save_ends(log):
    """Byte offset after the magic and after every save's two frames (its
    streams, then its memory base or delta)."""
    return _frame_ends(log)[::2]


def _replies(log, mgr):
    """The reply streams ``mgr``'s committed log holds."""
    return read_log(log, mgr.log_bytes, mgr.base_at)[0]


def _is_prefix(a, b):
    """Per-pid reply streams of ``a`` are prefixes of ``b``'s."""
    return all(list(s) == list(b[pid][:len(s)]) for pid, s in a.items())


class TestReplyLog:
    """Generations (and sampler windows) commit a byte length of one shared
    log. Past that length nothing matters; inside it everything must."""

    @pytest.fixture()
    def crashed(self, tmp_path):
        """A tiny run killed after its 4th autosave, its undisturbed
        fingerprint, and the complete reply streams of the full run."""
        ref_path = str(tmp_path / "ref" / "ck.pkl")
        os.mkdir(tmp_path / "ref")
        SimProcess._next_pid[0] = 1
        ref = _tiny_build(ref_path)()
        baseline = full_fingerprint(ref, ref.run())
        ref._ckpt.save()                     # flush the tail: whole stream
        streams = _replies(reply_log_path(ref_path), ref._ckpt)

        os.mkdir(tmp_path / "work")
        path = str(tmp_path / "work" / "ck.pkl")
        SimProcess._next_pid[0] = 1
        eng = _tiny_build(path)()
        eng._ckpt.crash_after_saves = 4
        with pytest.raises(SimulatedCrash):
            eng.run()
        ends = _save_ends(reply_log_path(path))
        assert len(ends) == 5                 # magic + two frames per save
        return path, baseline, streams, ends

    def _finish(self, path, baseline, streams, saves):
        """Resume, run out, and check the run and the log it leaves."""
        ck = load_checkpoint(path)
        assert ck["saves"] == saves
        eng, stats = resume(path, _tiny_build(path))
        assert full_fingerprint(eng, stats) == baseline
        log = reply_log_path(path)
        assert eng._ckpt.saves > saves        # it saved again after resuming
        # the log is exactly the committed frames — no stale tail, nothing
        # recorded twice — and holds the undisturbed run's replies
        assert _frame_ends(log)[-1] == eng._ckpt.log_bytes
        assert _is_prefix(_replies(log, eng._ckpt), streams)
        return eng

    def test_newest_generation_and_header(self, crashed):
        path, baseline, streams, ends = crashed
        newest, older = sorted(generation_paths(path), key=os.path.getmtime,
                               reverse=True)
        for gen, end in ((newest, ends[4]), (older, ends[3])):
            blob = open(gen, "rb").read()
            size = int.from_bytes(blob[4:8], "little")
            header = json.loads(blob[12:12 + size])
            assert header["format"] == FORMAT_VERSION
            assert header["log"] == "ck.pkl.log"
            assert header["log_bytes"] == end
            assert len(LOG_MAGIC) <= header["base"] < end
            # the streams and the memory system are in the log only, never
            # in the payload again
            payload = pickle.loads(blob[12 + size + 8:])
            assert not {"replies", "fault_log"} & set(payload)
            assert "memsys" not in payload["snapshot"]
        self._finish(path, baseline, streams, saves=4)

    @pytest.mark.parametrize("tail", ["garbage", "torn-frame", "future-frame"])
    def test_surplus_tail_is_ignored_then_cut(self, crashed, tail):
        path, baseline, streams, ends = crashed
        with open(reply_log_path(path), "ab") as f:
            if tail == "garbage":
                f.write(b"\x07" * 37)
            else:
                n = write_frame(f, pickle.dumps({1: [9, 9, 9]}))
                if tail == "torn-frame":
                    f.truncate(ends[4] + n - 5)
        self._finish(path, baseline, streams, saves=4)

    def test_truncation_at_every_byte_of_the_last_frame(self, crashed):
        """Cuts inside the newest generation's frames: the log is shorter
        than its header says, so it is quarantined with a structured error
        naming the log, and the older generation — which commits only the
        intact prefix — loads. Every byte of the streams frame and of the
        memory frame's header is cut; inside the memory payload every
        cut is the same torn-payload case, so a stride of them is."""
        path, baseline, streams, ends = crashed
        work = os.path.dirname(path)
        keep = work + ".pristine"
        shutil.copytree(work, keep)
        log = reply_log_path(path)
        newest = max(generation_paths(path), key=os.path.getmtime)
        memory_at = _frame_ends(log)[-2]
        cuts = [*range(ends[3], memory_at + 9),
                *range(memory_at + 9, ends[4], 61), ends[4] - 1]
        for cut in cuts:
            shutil.rmtree(work)
            shutil.copytree(keep, work)
            os.truncate(log, cut)
            ck = load_checkpoint(path)
            assert ck["saves"] == 3 and ck["log_bytes"] == ends[3]
            rec = json.load(open(newest + ".quarantine.json"))["error"]
            assert rec["type"] == "CheckpointCorruptError"
            assert rec["path"] == log and ends[3] <= rec["offset"] <= cut
        # and from such a state the run still finishes bit-identically
        self._finish(path, baseline, streams, saves=3)

    def test_bit_flip_inside_the_committed_prefix(self, crashed):
        path, baseline, streams, ends = crashed
        log = reply_log_path(path)
        blob = bytearray(open(log, "rb").read())
        # in the newest generation's own frame: the older one still loads
        blob[(ends[3] + ends[4]) // 2] ^= 0x10
        open(log, "wb").write(bytes(blob))
        assert load_checkpoint(path)["saves"] == 3
        # in a frame every generation commits (the first save's streams):
        # nothing is left to load, and what comes out is the structured
        # error, offset at the bad frame
        blob[(ends[0] + _frame_ends(log)[1]) // 2] ^= 0x10
        open(log, "wb").write(bytes(blob))
        with pytest.raises(CheckpointCorruptError) as ei:
            load_checkpoint(path)
        assert ei.value.path == log and ei.value.offset == ends[0]
        assert ei.value.to_record()["reason"] == "frame CRC32 mismatch"

    @pytest.mark.parametrize("damage", ["missing", "bad-magic",
                                        "ends-mid-prefix"])
    def test_unusable_log_is_structured(self, crashed, damage):
        path, _baseline, _streams, ends = crashed
        log = reply_log_path(path)
        if damage == "missing":
            os.unlink(log)
        elif damage == "bad-magic":
            open(log, "r+b").write(b"XXXX")
        else:
            os.truncate(log, ends[1] + 3)
        with pytest.raises(CheckpointCorruptError) as ei:
            load_checkpoint(path)
        assert ei.value.path == log
        json.dumps(ei.value.to_record())

    def test_fallback_cuts_the_log_at_the_older_offset(self, crashed):
        """The newest generation *file* is corrupt, its frame is intact:
        the older generation resumes and its first save must land at its
        own offset, not after the orphaned frame."""
        path, baseline, streams, ends = crashed
        newest = max(generation_paths(path), key=os.path.getmtime)
        blob = bytearray(open(newest, "rb").read())
        blob[-1] ^= 0xFF
        open(newest, "wb").write(bytes(blob))
        eng = self._finish(path, baseline, streams, saves=3)
        assert os.path.exists(newest + ".corrupt")
        assert eng._ckpt.log_bytes > ends[3]

    def test_second_crash_after_a_fallback_resume(self, crashed):
        path, baseline, streams, ends = crashed
        os.truncate(reply_log_path(path), ends[4] - 1)    # -> older gen

        def rebuild():
            eng = _tiny_build(path)()
            eng._ckpt.crash_after_saves = 2
            return eng

        with pytest.raises(SimulatedCrash):
            resume(path, rebuild)
        self._finish(path, baseline, streams, saves=5)

    def test_resume_from_a_sampler_window_file(self, tmp_path):
        """``.w<N>`` files point into the same log at their own offsets;
        resuming from one cuts the log there and carries on."""
        sc = SamplingConfig(detail_cycles=18_000, ff_cycles=46_000,
                            checkpoint_windows=True)
        path = str(tmp_path / "run.ckpt")

        def build():
            eng = Engine(complex_backend(num_cpus=1, sampling=sc,
                                         checkpoint_path=path,
                                         checkpoint_interval=1_700))

            def app(proc):
                for p in range(8):
                    yield from proc.touch(0x10_000, 1 << 16, write=p % 2 == 1,
                                          stride=32)
                return 0
            eng.spawn("stream", app)
            return eng

        SimProcess._next_pid[0] = 1
        eng0 = build()
        baseline = full_fingerprint(eng0, eng0.run())
        windows = sorted(f for f in os.listdir(tmp_path) if ".w" in f)
        assert len(windows) >= 2
        offsets = [load_checkpoint(str(tmp_path / w))["log_bytes"]
                   for w in windows]
        ends = _frame_ends(reply_log_path(path))
        assert offsets == sorted(offsets) and set(offsets) < set(ends)
        assert ends[-1] == eng0._ckpt.log_bytes > offsets[0]

        eng, stats = resume(str(tmp_path / windows[0]), build)
        assert full_fingerprint(eng, stats) == baseline
        assert _frame_ends(reply_log_path(path))[-1] == eng._ckpt.log_bytes

    def test_names_the_cleanup_code_must_know(self, tmp_path):
        """A lone log is not a checkpoint, a temp sweep never takes it, and
        recovery unlinks it together with a finished job's generations."""
        base = str(tmp_path / "j.ckpt")
        open(reply_log_path(base), "wb").write(LOG_MAGIC)
        assert not checkpoint_exists(base)
        assert sweep_stale_tmp(str(tmp_path), "j.ckpt") == []
        os.unlink(reply_log_path(base))

        spool, work = str(tmp_path / "spool"), str(tmp_path / "work")
        runner = JobRunner(spool_dir=spool, workdir=work)
        runner.submit(JobSpec(name="j", **SPEC))
        runner.run()
        left = set(os.listdir(work))
        assert "j.ckpt.log" in left and len(left) == 3
        JobRunner.recover(spool)
        assert os.listdir(work) == []


class TestCrashPointMachinery:
    def teardown_method(self):
        crashpoints.install(None)

    def test_fires_at_exactly_the_nth_hit(self):
        plan = CrashPointPlan(rules=(
            CrashRule(site="spool:append", hit=3, action="raise"),))
        crashpoints.install(plan)
        crashpoints.hit("spool:append")
        crashpoints.hit("spool:append")
        crashpoints.hit("spool:fsync")        # other sites don't count
        with pytest.raises(SimulatedCrash, match="spool:append"):
            crashpoints.hit("spool:append")

    def test_once_only_within_a_process(self):
        plan = CrashPointPlan(rules=(
            CrashRule(site="ckpt:post-fsync", hit=1, action="raise"),))
        crashpoints.install(plan)
        with pytest.raises(SimulatedCrash):
            crashpoints.hit("ckpt:post-fsync")
        crashpoints.hit("ckpt:post-fsync")    # spent: never re-fires

    def test_once_only_across_processes_via_state_dir(self, tmp_path):
        plan = CrashPointPlan(rules=(
            CrashRule(site="spool:fsync", hit=1, action="raise"),),
            state_dir=str(tmp_path))
        crashpoints.install(plan)
        with pytest.raises(SimulatedCrash):
            crashpoints.hit("spool:fsync")
        assert any(f.startswith("fired-") for f in os.listdir(tmp_path))
        # a "different process" (fresh injector, same state_dir) finds
        # the claim spent
        crashpoints.install(CrashPointPlan.from_dict(plan.to_dict()))
        crashpoints.hit("spool:fsync")

    def test_seeded_hit_range_is_deterministic(self):
        rule = CrashRule(site="spool:append", hit_range=(1, 10))
        draws = {rule.resolve_hit(seed, 0) for seed in range(20)}
        assert all(1 <= d <= 10 for d in draws)
        assert len(draws) > 3                 # the seed actually matters
        assert rule.resolve_hit(7, 0) == rule.resolve_hit(7, 0)

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown crash site"):
            CrashRule(site="spool:nope", hit=1).validate()
        with pytest.raises(ConfigError, match="exactly one"):
            CrashRule(site="spool:append").validate()

    def test_raise_during_checkpoint_write_keeps_old_generation(
            self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0, g1 = generation_paths(base)
        write_checkpoint_file(g1, _ckpt(saves=1))
        crashpoints.install(CrashPointPlan(rules=(
            CrashRule(site="ckpt:pre-rename", hit=1, action="raise"),)))
        with pytest.raises(SimulatedCrash):
            write_checkpoint_file(g0, _ckpt(saves=2))
        crashpoints.install(None)
        assert os.path.exists(g0 + ".tmp")    # the torn write
        assert load_checkpoint(base)["saves"] == 1   # old gen still loads

    def test_env_pickup_in_fresh_process(self, tmp_path):
        plan = CrashPointPlan(rules=(
            CrashRule(site="spool:append", hit=1, action="raise"),), seed=5)
        env = dict(os.environ,
                   PYTHONPATH="src",
                   COMPASS_CRASH_POINTS=plan.to_json())
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.faults import crashpoints\n"
             "assert crashpoints.current() is not None\n"
             "try:\n"
             "    crashpoints.hit('spool:append')\n"
             "    print('NOFIRE')\n"
             "except Exception as e:\n"
             "    print(type(e).__name__)\n"],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert out.stdout.strip() == "SimulatedCrash", out.stderr


@pytest.fixture(scope="module")
def baseline_fingerprint():
    records = run_matrix([JobSpec(name="j", **SPEC)],
                         max_workers=1, poll=0.02)
    assert records["j"].state == "DONE"
    return records["j"].result["fingerprint"]


class TestCrashRecoveryLoop:
    """The acceptance gate: for every crash site and seed, SIGKILL at
    the injected instant — supervisor or job child, whichever holds the
    site — then recover from the spool and finish bit-identically."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("site", crashpoints.KNOWN_CRASH_SITES)
    def test_kill_recover_bit_identical(self, site, seed, tmp_path,
                                        baseline_fingerprint):
        state_dir = str(tmp_path / "crash-state")
        plan = CrashPointPlan(
            rules=(CrashRule(site=site, hit_range=HIT_RANGE.get(site, (1, 4)),
                             action="kill"),),
            seed=seed, state_dir=state_dir, tag=f"{site}-{seed}")
        records, rounds = crash_recovery_loop(
            [JobSpec(name="j", **SPEC)], plan,
            spool_dir=str(tmp_path / "spool"),
            workdir=str(tmp_path / "work"),
            max_workers=1, poll=0.02)
        # the rule actually fired (otherwise this test proves nothing)
        assert any(f.startswith("fired-") for f in os.listdir(state_dir)), \
            (site, seed, rounds)
        assert records["j"]["state"] == "DONE", (rounds, records["j"])
        assert (final_fingerprints(records)["j"]
                == baseline_fingerprint), (site, seed)

    def test_clean_loop_without_plan(self, tmp_path):
        records, rounds = crash_recovery_loop(
            [JobSpec(name="j", **SPEC)],
            spool_dir=str(tmp_path / "spool"),
            workdir=str(tmp_path / "work"),
            max_workers=1, poll=0.02)
        assert len(rounds) == 1 and not rounds[0]["crashed"]
        assert records["j"]["state"] == "DONE"
