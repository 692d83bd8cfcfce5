"""Deterministic crash-point injection + the recovery acceptance gate.

Three layers, bottom up: the checkpoint log's fallback (damage the newest
save → the previous snapshot frame loads, and the bytes after it are
quarantined with a forensic record), the in-process crash-point machinery
(Nth-hit rules, once-only claims, env pickup), and the full
supervisor-kill recovery loop — every crash site, SIGKILL at the injected
instant, recover from the WAL spool, finish with a fingerprint
bit-identical to an undisturbed run.

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
import types

import pytest

from repro import (CheckpointCorruptError, CheckpointError, CrashPointPlan,
                   CrashRule, Engine, SamplingConfig, SimulatedCrash,
                   checkpoint_exists, complex_backend, load_checkpoint, resume)
from repro.checkpoint import generation_paths
from repro.checkpoint.log import BASE, DELTA, SNAPSHOT, STREAMS, tagged
from repro.checkpoint.manager import FORMAT_VERSION, HEADER, MAGIC
from repro.core.errors import ConfigError
from repro.core.framing import HEADER_SIZE, scan, sweep_stale_tmp, write_frame
from repro.core.frontend import SimProcess
from repro.faults import crashpoints
from repro.service import (JobRunner, JobSpec, crash_recovery_loop,
                           final_fingerprints, recovery, run_matrix)
from repro.service.workloads import full_fingerprint

SEEDS = (1, 2, 3) if os.environ.get("COMPASS_CRASH_FULL") else (1,)

#: the supervised job the whole module crashes and recovers
SPEC = dict(workload="oltp", budget=4_500, checkpoint_interval=1_000,
            heartbeat_events=1_500, timeout=120.0, hang_timeout=60.0,
            max_retries=3, backoff=0.01, backoff_max=0.05)

#: the hit a site's rule fires at is drawn from this range: SPEC's 4 saves
#: hit ``ckpt:log-append`` 4 times; 2 of them write a memory base (saves 1
#: and 3, the sites of a compaction) and 2 a delta (``ckpt:log-fsync``)
HIT_RANGE = {"ckpt:log-fsync": (1, 2), "ckpt:base-append": (1, 2),
             "ckpt:base-fsync": (1, 2), "ckpt:compact": (1, 2)}

#: the 4-byte magic of the framed checkpoint files builds before format 8
#: wrote (``<path>.g0`` / ``.g1``)
LEGACY_MAGIC = b"CMPK"


def _segments(path):
    """The segment files of ``path``'s log, oldest first."""
    return [f for f in generation_paths(path) if f.endswith(".seg")]


def _frames(seg):
    """``(offset, end, tag)`` of every frame of a clean segment after its
    header frame."""
    s = scan(seg, MAGIC)
    assert s.bad is None and bytes(s.frames[0][1]) == HEADER
    return [(off, off + HEADER_SIZE + len(p), bytes(p[:1]))
            for off, p in s.frames[1:]]


def _save_ends(seg):
    """The end of the header frame, then the end of every snapshot frame
    (each save's last frame) of ``seg``."""
    s = scan(seg, MAGIC)
    return [s.frames[1][0]] + [end for _o, end, tag in _frames(seg)
                               if tag == SNAPSHOT]


def _saved(tmp_path, saves=4):
    """A tiny run killed after its ``saves``-th autosave (one segment:
    a base, then deltas), its path and its one segment."""
    path = str(tmp_path / "ck.pkl")
    SimProcess._next_pid[0] = 1
    eng = _tiny_build(path)()
    eng._ckpt.crash_after_saves = saves
    with pytest.raises(SimulatedCrash):
        eng.run()
    seg, = _segments(path)
    return path, seg


class TestGenerationFallback:
    """A checkpoint is the newest snapshot frame before the first bad
    frame: damage in the newest save falls back to the previous one, in
    the same file."""

    def test_newest_generation_wins(self, tmp_path):
        path, seg = _saved(tmp_path)
        ck = load_checkpoint(path)
        assert ck["saves"] == 4 and ck["log_path"] == seg
        assert ck["log_bytes"] == os.path.getsize(seg)
        assert not os.path.exists(seg + ".quarantine")

    def test_corrupt_latest_falls_back_and_quarantines(self, tmp_path):
        path, seg = _saved(tmp_path)
        ends = _save_ends(seg)
        blob = bytearray(open(seg, "rb").read())
        blob[-1] ^= 0xFF                      # flip a byte of the snapshot
        open(seg, "wb").write(bytes(blob))

        ck = load_checkpoint(path)
        assert ck["saves"] == 3               # the previous save's snapshot
        assert ck["log_bytes"] == ends[3]
        # the bytes after it are moved aside, the segment is left for the
        # next append to cut
        assert open(seg + ".quarantine", "rb").read() == blob[ends[3]:]
        assert os.path.getsize(seg) == len(blob)
        record = json.loads(open(seg + ".quarantine.json").read())
        assert record["segment"] == seg and record["offset"] == ends[3]
        assert record["error"]["type"] == "CheckpointCorruptError"
        assert ends[3] < record["error"]["offset"] < len(blob)

    def test_all_generations_corrupt_raises_structured(self, tmp_path):
        path, seg = _saved(tmp_path)
        open(seg, "r+b").write(b"XXXX")       # smash the magic
        with pytest.raises(CheckpointCorruptError) as ei:
            load_checkpoint(path)
        assert ei.value.path == seg and ei.value.offset == 0
        assert "magic" in ei.value.reason

    def test_truncation_never_leaks_raw_errors(self, tmp_path):
        """Cut the segment at every plausible boundary: an earlier
        snapshot, the structured error, or (a clean prefix with no snapshot
        in it) no checkpoint at all are the only acceptable outcomes — no
        EOFError, no UnpicklingError, no struct.error."""
        path, seg = _saved(tmp_path)
        blob = open(seg, "rb").read()
        ends = _save_ends(seg)
        bounds = {len(MAGIC), ends[0]} | {e for _o, e, _t in _frames(seg)}
        cuts = sorted({0, 1, len(MAGIC), len(MAGIC) + 4, len(MAGIC) + 8,
                       ends[0], ends[0] + 3, ends[1] - 1, ends[1],
                       len(blob) // 2, len(blob) - 1})
        for cut in cuts:
            d = tmp_path / f"cut-{cut}"
            d.mkdir()
            dest = str(d / "ck.pkl")
            cut_seg = str(d / os.path.basename(seg))
            open(cut_seg, "wb").write(blob[:cut])
            try:
                ck = load_checkpoint(dest)
            except CheckpointCorruptError as exc:
                assert exc.path == cut_seg and 0 <= exc.offset <= cut
                assert cut < ends[1]
                continue
            except FileNotFoundError:
                assert cut in bounds and cut < ends[1]
                continue
            assert ck["log_bytes"] == max(e for e in ends if e <= cut)

    def test_explicit_path_stays_strict(self, tmp_path):
        """An explicit single-file path (the sampling .w<N> windows)
        never falls back: anything but one intact segment ending in its
        snapshot frame is corruption."""
        SimProcess._next_pid[0] = 1
        eng = _tiny_build(str(tmp_path / "ck.pkl"))()
        eng.run(max_events=100)
        p = str(tmp_path / "win.w3")
        eng._ckpt.save(path=p)
        assert load_checkpoint(p)["saves"] == eng._ckpt.saves
        blob = open(p, "rb").read()
        for damaged in (b"ZZZZ" + blob[4:], blob + b"\x07" * 9,
                        blob[:-1], blob[:len(blob) // 2]):
            open(p, "wb").write(damaged)
            with pytest.raises(CheckpointCorruptError) as ei:
                load_checkpoint(p)
            assert ei.value.path == p
        assert not os.path.exists(p + ".quarantine")


def _write_v2_autosave(path):
    """A well-formed format-2 autosave, byte for byte as the previous
    build wrote it: the protocol sub-dict still has the per-line
    ``"dir"`` table the current ``load_state`` no longer understands."""
    ckpt = {"version": 2, "saves": 1, "events_processed": 100,
            "snapshot": {"memsys": {"protocol": {
                "counters": {}, "dir": {7: ([0, 1], -1)}}}}}
    header = json.dumps({"format": 2, "saves": 1, "events": 100}).encode()
    with open(path, "wb") as f:
        f.write(LEGACY_MAGIC)
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
        f.write(LEGACY_MAGIC)
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
        f.write(LEGACY_MAGIC)
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
        f.write(LEGACY_MAGIC)
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
        f.write(MAGIC)
        log_bytes = len(MAGIC) + write_frame(f, pickle.dumps({1: [12]}))
    ckpt = {"version": 6, "saves": 1, "events_processed": 100,
            "config_fp": {"num_cpus": "2"}, "fault_log": {"disk:latency": [-1]},
            "log": "ck.pkl.log", "log_bytes": log_bytes,
            "snapshot": {"memsys": {"accesses": 1}, "comm": {}}}
    header = json.dumps({"format": 6, "saves": 1, "events": 100,
                         "log": "ck.pkl.log",
                         "log_bytes": log_bytes}).encode()
    with open(path, "wb") as f:
        f.write(LEGACY_MAGIC)
        write_frame(f, header)
        write_frame(f, pickle.dumps(ckpt))
    return ckpt


def _write_v7_autosave(path):
    """A well-formed format-7 autosave and its log, as the previous build
    wrote them: a generation file committing a byte length of ``<path>.log``,
    whose frames are a tagged streams frame and a memory base — and no
    snapshot frame, which format 8 keeps in the log."""
    log = os.path.join(os.path.dirname(path), "ck.pkl.log")
    with open(log, "wb") as f:
        f.write(MAGIC)
        log_bytes = len(MAGIC) + write_frame(
            f, tagged(STREAMS, {"replies": {1: [12]}, "faults": {}}))
        base = log_bytes
        log_bytes += write_frame(f, tagged(BASE, {"accesses": 1}))
    ckpt = {"version": 7, "saves": 1, "events_processed": 100,
            "config_fp": {"num_cpus": "2"}, "log": "ck.pkl.log",
            "log_bytes": log_bytes, "base": base, "base_bytes": 0,
            "chain_bytes": 0, "snapshot": {"comm": {}}}
    header = json.dumps({"format": 7, "saves": 1, "events": 100,
                         "log": "ck.pkl.log", "log_bytes": log_bytes,
                         "base": base}).encode()
    with open(path, "wb") as f:
        f.write(LEGACY_MAGIC)
        write_frame(f, header)
        write_frame(f, pickle.dumps(ckpt))
    return ckpt


class TestStaleFormat:
    """A checkpoint of another format version is refused by name — both
    versions in the message — never by a ``KeyError`` out of some
    ``load_state``, and never quarantined (it is intact)."""

    def test_load_checkpoint_refuses_v2(self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0 = base + ".g0"
        _write_v2_autosave(g0)
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert "format 2" in str(ei.value)
        assert f"!= {FORMAT_VERSION}" in str(ei.value)
        assert os.path.exists(g0) and not os.path.exists(g0 + ".corrupt")

    def test_v3_refused_from_its_header_not_quarantined(self, tmp_path):
        base = str(tmp_path / "ck.pkl")
        g0 = base + ".g0"
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
        g0 = base + ".g0"
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
        g0 = base + ".g0"
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
        g0 = base + ".g0"
        ckpt = _write_v6_autosave(g0)
        log = open(base + ".log", "rb").read()
        stale = f"format 6 != {FORMAT_VERSION} .written by an incompatible"
        with pytest.raises(CheckpointError, match=stale) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert sorted(os.listdir(tmp_path)) == ["ck.pkl.g0", "ck.pkl.log"]
        assert open(base + ".log", "rb").read() == log
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=base,
                                     checkpoint_interval=1_000))
        with pytest.raises(CheckpointError, match=stale):
            eng._ckpt.restore(ckpt)

    def test_v7_refused_as_an_incompatible_build(self, tmp_path):
        """v7 wrote a generation file per save beside a log without
        snapshot frames: refused from the generation's header, and neither
        file is touched (the job starts over once they are deleted)."""
        base = str(tmp_path / "ck.pkl")
        g0 = base + ".g0"
        ckpt = _write_v7_autosave(g0)
        stale = f"format 7 != {FORMAT_VERSION} .written by an incompatible"
        assert checkpoint_exists(base)
        with pytest.raises(CheckpointError, match=stale) as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert sorted(os.listdir(tmp_path)) == ["ck.pkl.g0", "ck.pkl.log"]
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=base,
                                     checkpoint_interval=1_000))
        with pytest.raises(CheckpointError, match=stale):
            eng._ckpt.restore(ckpt)

    def test_segment_of_another_format_refused_from_its_header(self, tmp_path):
        """A segment whose header frame names another format version is
        refused from that header, before any frame after it is read."""
        base = str(tmp_path / "ck.pkl")
        seg = f"{base}.00000001.seg"
        with open(seg, "wb") as f:
            f.write(MAGIC)
            write_frame(f, json.dumps({"format": 9}).encode())
            write_frame(f, b"X" + b"\x00" * 16)
        assert checkpoint_exists(base)
        with pytest.raises(CheckpointError,
                           match=f"format 9 != {FORMAT_VERSION}") as ei:
            load_checkpoint(base)
        assert not isinstance(ei.value, CheckpointCorruptError)
        assert os.listdir(tmp_path) == ["ck.pkl.00000001.seg"]

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
        _write_v2_autosave(str(work / "j.ckpt.g0"))
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
# the log: one segment a base starts, appended to by every save after it
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


def _replies(seg):
    """The reply streams the newest snapshot of ``seg`` commits."""
    return load_checkpoint(seg)["replies"]


def _is_prefix(a, b):
    """Per-pid reply streams of ``a`` are prefixes of ``b``'s."""
    return all(list(s) == list(b[pid][:len(s)]) for pid, s in a.items())


class TestReplyLog:
    """A save appends its streams, its memory base or delta and its
    snapshot frame; the newest intact snapshot is the checkpoint. Past it
    nothing matters; before it everything must."""

    @pytest.fixture()
    def crashed(self, tmp_path):
        """A tiny run killed after its 4th autosave (a base, then three
        deltas, all in one segment), its undisturbed fingerprint, and the
        complete reply streams of the full run."""
        os.mkdir(tmp_path / "ref")
        ref_path = str(tmp_path / "ref" / "ck.pkl")
        SimProcess._next_pid[0] = 1
        ref = _tiny_build(ref_path)()
        baseline = full_fingerprint(ref, ref.run())
        streams = _replies(ref._ckpt.save())   # flush the tail: whole stream

        os.mkdir(tmp_path / "work")
        path, seg = _saved(tmp_path / "work")
        ends = _save_ends(seg)
        assert len(ends) == 5                 # the header + four saves
        return path, seg, baseline, streams, ends

    def _finish(self, path, baseline, streams, saves):
        """Resume, run out, and check the run and the log it leaves."""
        ck = load_checkpoint(path)
        assert ck["saves"] == saves
        eng, stats = resume(path, _tiny_build(path))
        assert full_fingerprint(eng, stats) == baseline
        assert eng._ckpt.saves > saves        # it saved again after resuming
        # the log is one segment of exactly the committed frames — no stale
        # tail, nothing recorded twice — holding the undisturbed run's
        # replies
        seg, = _segments(path)
        assert _save_ends(seg)[-1] == eng._ckpt.log_bytes
        assert _is_prefix(_replies(seg), streams)
        return eng

    def test_newest_generation_and_header(self, crashed):
        path, seg, baseline, streams, ends = crashed
        s = scan(seg, MAGIC)
        assert json.loads(bytes(s.frames[0][1])) == {"format": FORMAT_VERSION}
        assert [t for _o, _e, t in _frames(seg)] == [
            STREAMS, BASE, SNAPSHOT] + [STREAMS, DELTA, SNAPSHOT] * 3
        for _off, payload in s.frames[3::3]:
            # the streams and the memory system are in their own frames,
            # never in the snapshot again
            ck = pickle.loads(payload[1:])
            assert ck["version"] == FORMAT_VERSION
            assert not {"replies", "fault_log"} & set(ck)
            assert "memsys" not in ck["snapshot"]
        self._finish(path, baseline, streams, saves=4)

    @pytest.mark.parametrize("tail", ["garbage", "torn-frame", "future-frame"])
    def test_surplus_tail_is_ignored_then_cut(self, crashed, tail):
        path, seg, baseline, streams, ends = crashed
        with open(seg, "ab") as f:
            if tail == "garbage":
                f.write(b"\x07" * 37)
            else:
                n = write_frame(f, tagged(STREAMS, {"replies": {1: [9]},
                                                    "faults": {}}))
                if tail == "torn-frame":
                    f.truncate(ends[4] + n - 5)
        assert load_checkpoint(path)["log_bytes"] == ends[4]
        record = json.load(open(seg + ".quarantine.json"))
        assert record["offset"] == ends[4]
        assert (record["error"] is None) == (tail == "future-frame")
        self._finish(path, baseline, streams, saves=4)

    def test_truncation_at_every_byte_of_the_last_frame(self, crashed):
        """Cuts inside the newest save's three frames: the previous
        snapshot loads, and what follows it is quarantined — with the
        structured error naming the segment when the cut tore a frame.
        Every byte of the streams frame and of the frame headers is cut;
        inside a payload every cut is the same torn-payload case, so a
        stride of them is."""
        path, seg, baseline, streams, ends = crashed
        work = os.path.dirname(path)
        keep = work + ".pristine"
        shutil.copytree(work, keep)
        memory_at, snapshot_at = [o for o, _e, _t in _frames(seg)][-2:]
        cuts = [*range(ends[3] + 1, memory_at + 9),
                *range(memory_at + 9, snapshot_at, 61),
                *range(snapshot_at, snapshot_at + 9),
                *range(snapshot_at + 9, ends[4], 61), ends[4] - 1]
        for cut in cuts:
            shutil.rmtree(work)
            shutil.copytree(keep, work)
            os.truncate(seg, cut)
            ck = load_checkpoint(path)
            assert ck["saves"] == 3 and ck["log_bytes"] == ends[3]
            rec = json.load(open(seg + ".quarantine.json"))
            assert rec["offset"] == ends[3]
            if cut in (ends[3], memory_at, snapshot_at):
                assert rec["error"] is None       # whole frames, no tear
            else:
                assert rec["error"]["type"] == "CheckpointCorruptError"
                assert rec["error"]["path"] == seg
                assert ends[3] <= rec["error"]["offset"] <= cut
        # and from such a state the run still finishes bit-identically
        self._finish(path, baseline, streams, saves=3)

    def test_bit_flip_inside_the_committed_prefix(self, crashed):
        path, seg, baseline, streams, ends = crashed
        blob = bytearray(open(seg, "rb").read())
        # in the newest save's own frame: the previous save still loads
        blob[(ends[3] + ends[4]) // 2] ^= 0x10
        open(seg, "wb").write(bytes(blob))
        assert load_checkpoint(path)["saves"] == 3
        # in a frame every save commits (the first save's streams):
        # nothing is left to load, and what comes out is the structured
        # error, offset at the bad frame
        blob[ends[0] + HEADER_SIZE + 3] ^= 0x10
        open(seg, "wb").write(bytes(blob))
        with pytest.raises(CheckpointCorruptError) as ei:
            load_checkpoint(path)
        assert ei.value.path == seg and ei.value.offset == ends[0]
        assert ei.value.to_record()["reason"] == "frame CRC32 mismatch"

    @pytest.mark.parametrize("damage", ["missing", "bad-magic",
                                        "ends-mid-prefix"])
    def test_unusable_log_is_structured(self, crashed, damage):
        """The header frame missing (torn), the magic smashed, the segment
        ending inside the first save: structured, JSON-plain errors."""
        path, seg, _baseline, _streams, ends = crashed
        if damage == "missing":
            os.truncate(seg, len(MAGIC) + 5)
        elif damage == "bad-magic":
            open(seg, "r+b").write(b"XXXX")
        else:
            os.truncate(seg, ends[1] - 3)
        with pytest.raises(CheckpointCorruptError) as ei:
            load_checkpoint(path)
        assert ei.value.path == seg
        assert checkpoint_exists(path)
        json.dumps(ei.value.to_record())

    def test_fallback_cuts_the_log_at_the_older_offset(self, crashed):
        """The newest snapshot frame is corrupt, the frames before it are
        intact: the previous save resumes, and its first save lands at that
        save's offset, not after the orphaned frames."""
        path, seg, baseline, streams, ends = crashed
        blob = bytearray(open(seg, "rb").read())
        blob[-1] ^= 0xFF
        open(seg, "wb").write(bytes(blob))
        eng = self._finish(path, baseline, streams, saves=3)
        assert os.path.exists(seg + ".quarantine")
        assert eng._ckpt.saves > 3

    def test_second_crash_after_a_fallback_resume(self, crashed):
        path, seg, baseline, streams, ends = crashed
        os.truncate(seg, ends[4] - 1)         # -> the previous save

        def rebuild():
            eng = _tiny_build(path)()
            eng._ckpt.crash_after_saves = 2
            return eng

        with pytest.raises(SimulatedCrash):
            resume(path, rebuild)
        self._finish(path, baseline, streams, saves=5)

    def test_resume_from_a_sampler_window_file(self, tmp_path):
        """``.w<N>`` files are self-contained one-segment logs (the streams
        so far, a base, its snapshot); resuming from one starts this path's
        log over from it and carries on."""
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
        final = _replies(_segments(path)[-1])
        events = []
        for w in windows:
            tags = [t for _o, _e, t in _frames(str(tmp_path / w))]
            assert tags[-2:] == [BASE, SNAPSHOT]
            assert set(tags[:-2]) == {STREAMS}
            ck = load_checkpoint(str(tmp_path / w))
            assert _is_prefix(ck["replies"], final)
            events.append(ck["events_processed"])
        assert events == sorted(events)
        # the window saves left the autosaves' pending streams and change
        # marks alone: the newest autosave resumes to the same result
        eng, stats = resume(path, build)
        assert full_fingerprint(eng, stats) == baseline

        eng, stats = resume(str(tmp_path / windows[0]), build)
        assert full_fingerprint(eng, stats) == baseline
        seg, = _segments(path)
        assert _save_ends(seg)[-1] == eng._ckpt.log_bytes
        assert load_checkpoint(path)["saves"] == eng._ckpt.saves

    def test_names_the_cleanup_code_must_know(self, tmp_path):
        """A log without a snapshot frame is not a checkpoint, a temp sweep
        never takes a segment, and recovery unlinks a finished job's
        segments together with what a load quarantined beside them."""
        base = str(tmp_path / "j.ckpt")
        lone = f"{base}.00000001.seg"
        with open(lone, "wb") as f:
            f.write(MAGIC)
            write_frame(f, HEADER)
            write_frame(f, tagged(STREAMS, {"replies": {}, "faults": {}}))
        assert generation_paths(base) == [lone]
        assert not checkpoint_exists(base)
        assert sweep_stale_tmp(str(tmp_path), "j.ckpt") == []
        os.unlink(lone)

        spool, work = str(tmp_path / "spool"), str(tmp_path / "work")
        runner = JobRunner(spool_dir=spool, workdir=work)
        runner.submit(JobSpec(name="j", **SPEC))
        runner.run()
        seg, = _segments(os.path.join(work, "j.ckpt"))
        with open(seg, "ab") as f:
            f.write(b"\x07" * 11)                 # a surplus tail
        load_checkpoint(os.path.join(work, "j.ckpt"))
        assert sorted(os.listdir(work)) == sorted(
            os.path.basename(seg) + tail
            for tail in ("", ".quarantine", ".quarantine.json"))
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
            CrashRule(site="ckpt:compact", hit=1, action="raise"),))
        crashpoints.install(plan)
        with pytest.raises(SimulatedCrash):
            crashpoints.hit("ckpt:compact")
        crashpoints.hit("ckpt:compact")       # spent: never re-fires

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
        """A crash at the compaction site — the fresh segment durable, the
        older one not yet unlinked — leaves both loadable: the newest wins,
        and without it the older one still loads."""
        path = str(tmp_path / "ck.pkl")
        SimProcess._next_pid[0] = 1
        eng = _tiny_build(path)()
        crashpoints.install(CrashPointPlan(rules=(
            CrashRule(site="ckpt:compact", hit=2, action="raise"),)))
        with pytest.raises(SimulatedCrash):
            eng.run()                         # saves B D D D, then B
        crashpoints.install(None)
        older, newer = _segments(path)
        assert load_checkpoint(path)["saves"] == 5
        assert load_checkpoint(older)["saves"] == 4
        os.unlink(newer)
        assert load_checkpoint(path)["saves"] == 4

    def test_compaction_torn_before_its_snapshot_falls_back(self, tmp_path):
        """A compaction killed before its snapshot frame was written leaves
        a segment without one: a load skips it for the older segment."""
        path = str(tmp_path / "ck.pkl")
        SimProcess._next_pid[0] = 1
        eng = _tiny_build(path)()
        crashpoints.install(CrashPointPlan(rules=(
            CrashRule(site="ckpt:base-append", hit=2, action="raise"),)))
        with pytest.raises(SimulatedCrash):
            eng.run()
        crashpoints.install(None)
        older, newer = _segments(path)
        assert [t for _o, _e, t in _frames(newer)][-1] == STREAMS
        ck = load_checkpoint(path)
        assert ck["saves"] == 4 and ck["log_path"] == older
        assert checkpoint_exists(path)

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

    def test_done_sent_after_the_last_poll_is_not_a_crash(self, tmp_path,
                                                          monkeypatch):
        """A round whose ``("done", ...)`` lands after a poll timed out
        and whose process has exited by the liveness check is clean: every
        timed poll here waits for the message, then answers that none
        came, so only the read after the loop can find it."""
        real = recovery._ctx

        class LatePoll:
            def __init__(self, conn):
                self.conn = conn

            def poll(self, timeout=0.0):
                if timeout:
                    self.conn.poll(None)
                    return False
                return self.conn.poll(timeout)

            def __getattr__(self, name):
                return getattr(self.conn, name)

        def pipe(duplex):
            parent, child = real.Pipe(duplex=duplex)
            return LatePoll(parent), child

        def child(*args):
            args[-1].send(("done", {"j": {"state": "DONE"}}))

        monkeypatch.setattr(recovery, "_ctx", types.SimpleNamespace(
            Pipe=pipe, Process=real.Process))
        monkeypatch.setattr(recovery, "_round_child", child)
        records, rounds = crash_recovery_loop(
            [JobSpec(name="j", **SPEC)], spool_dir=str(tmp_path / "spool"),
            workdir=str(tmp_path / "work"), max_rounds=1)
        assert records == {"j": {"state": "DONE"}}
        assert rounds == [{"round": 1, "exitcode": 0, "crashed": False}]

    def test_clean_loop_without_plan(self, tmp_path):
        records, rounds = crash_recovery_loop(
            [JobSpec(name="j", **SPEC)],
            spool_dir=str(tmp_path / "spool"),
            workdir=str(tmp_path / "work"),
            max_workers=1, poll=0.02)
        assert len(rounds) == 1 and not rounds[0]["crashed"]
        assert records["j"]["state"] == "DONE"
