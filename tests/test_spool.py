"""The WAL job spool: framing round trips, rotation, compaction, and —
the point of the exercise — recovery from torn and corrupted segments.
Torn tails (a crash mid-append) must truncate cleanly with a quarantine
forensic record; interior damage to synced history must raise a
structured :class:`SpoolCorruptError`, never silently drop records. The
damage fuzz runs over both clients of the shared segment scan, the spool
and the checkpoint log."""

import json
import os
import random
import struct

import pytest

from repro import (CheckpointCorruptError, Engine, JobRunner, JobSpec,
                   JobState, SimulatedCrash, SpoolCorruptError,
                   complex_backend, load_checkpoint)
from repro.checkpoint import generation_paths
from repro.checkpoint.log import SNAPSHOT
from repro.checkpoint.manager import MAGIC as CKPT_MAGIC
from repro.core.framing import HEADER_SIZE, scan
from repro.core.frontend import SimProcess
from repro.service.spool import MAGIC, JobSpool


def _fill(spool, n, start=0):
    for i in range(start, start + n):
        spool.append({"type": "t", "i": i, "payload": "x" * (i % 7)})


def _read_all(spool_dir, **kw):
    return JobSpool(spool_dir, **kw).recover()


def _frame_boundaries(path):
    """Byte offsets of every frame boundary in one segment (starting at
    the end of the magic), by walking the length headers."""
    bounds = []
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        f.seek(len(MAGIC))
        while f.tell() < size:
            bounds.append(f.tell())
            length, _crc = struct.unpack("<II", f.read(HEADER_SIZE))
            f.seek(length, os.SEEK_CUR)
        bounds.append(size)
    return bounds


class TestSpoolBasics:
    def test_append_recover_round_trip(self, tmp_path):
        spool = JobSpool(str(tmp_path))
        _fill(spool, 20)
        spool.close()
        records = _read_all(str(tmp_path))
        assert [r["i"] for r in records] == list(range(20))

    def test_fresh_instance_never_appends_to_old_segment(self, tmp_path):
        a = JobSpool(str(tmp_path))
        _fill(a, 3)
        a.close()
        b = JobSpool(str(tmp_path))
        _fill(b, 2, start=3)
        b.close()
        assert len(b.segment_indices()) == 2
        assert [r["i"] for r in _read_all(str(tmp_path))] == list(range(5))

    def test_rotation_by_segment_bytes(self, tmp_path):
        spool = JobSpool(str(tmp_path), segment_bytes=256)
        _fill(spool, 40)
        spool.close()
        assert len(spool.segment_indices()) > 1
        assert [r["i"] for r in _read_all(str(tmp_path))] == list(range(40))

    def test_compaction_unlinks_history(self, tmp_path):
        spool = JobSpool(str(tmp_path), segment_bytes=256)
        _fill(spool, 40)
        spool.compact([{"type": "snapshot", "live": True}])
        assert spool.segment_indices() == [spool._seg_index]
        spool.close()
        records = _read_all(str(tmp_path))
        assert records == [{"type": "snapshot", "live": True}]

    def test_maybe_compact_by_record_count(self, tmp_path):
        spool = JobSpool(str(tmp_path), compact_every=10)
        _fill(spool, 9)
        assert not spool.maybe_compact(lambda: [{"s": 1}])
        _fill(spool, 1, start=9)
        assert spool.maybe_compact(lambda: [{"s": 1}])
        spool.close()
        assert _read_all(str(tmp_path)) == [{"s": 1}]

    def test_recover_sweeps_stale_tmp(self, tmp_path):
        spool = JobSpool(str(tmp_path))
        _fill(spool, 2)
        spool.close()
        junk = tmp_path / "spool-00000009.wal.tmp"
        junk.write_bytes(b"half-written")
        _read_all(str(tmp_path))
        assert not junk.exists()


class TestTornTail:
    """Truncate the live segment at *every* byte boundary a crash could
    leave behind; recovery must return exactly the intact prefix and
    quarantine the cut bytes with a forensic record."""

    N = 8

    def _build(self, tmp_path):
        spool = JobSpool(str(tmp_path / "spool"))
        _fill(spool, self.N)
        spool.close()
        seg = spool.segment_path(spool._seg_index)
        return seg, _frame_boundaries(seg)

    def test_every_record_boundary(self, tmp_path):
        seg, bounds = self._build(tmp_path)
        blob = open(seg, "rb").read()
        for k, cut in enumerate(bounds):
            d = tmp_path / f"cut-{cut}"
            d.mkdir()
            p = d / os.path.basename(seg)
            p.write_bytes(blob[:cut])
            records = _read_all(str(d))
            assert [r["i"] for r in records] == list(range(k)), cut

    def test_mid_frame_cuts_truncate_to_prefix(self, tmp_path):
        seg, bounds = self._build(tmp_path)
        blob = open(seg, "rb").read()
        for k in range(len(bounds) - 1):
            for cut in (bounds[k] + 3,                  # inside the header
                        bounds[k] + HEADER_SIZE + 1):   # inside the payload
                d = tmp_path / f"cut-{cut}"
                d.mkdir()
                p = d / os.path.basename(seg)
                p.write_bytes(blob[:cut])
                spool = JobSpool(str(d))
                records = spool.recover()
                assert [r["i"] for r in records] == list(range(k)), cut
                # the tear is quarantined with a forensic record
                assert len(spool.quarantines) == 1
                q = spool.quarantines[0]
                assert os.path.getsize(q["moved_to"]) == q["discarded_bytes"]
                forensic = json.loads(
                    open(str(p) + ".quarantine.json").read())
                assert forensic["error"]["type"] == "SpoolCorruptError"
                assert forensic["error"]["offset"] == bounds[k]
                # ...and a second scan is clean: the truncation stuck
                again = JobSpool(str(d))
                assert [r["i"] for r in again.recover()] == list(range(k))
                assert again.quarantines == []

    def test_torn_magic_removes_empty_segment(self, tmp_path):
        seg, _ = self._build(tmp_path)
        torn = tmp_path / "torn"
        torn.mkdir()
        (torn / os.path.basename(seg)).write_bytes(MAGIC[:2])
        spool = JobSpool(str(torn))
        assert spool.recover() == []
        assert not (torn / os.path.basename(seg)).exists()
        assert len(spool.quarantines) == 1


class TestInteriorCorruption:
    def _corrupt(self, tmp_path, offset_fn, n=8):
        spool = JobSpool(str(tmp_path / "spool"))
        _fill(spool, n)
        spool.close()
        seg = spool.segment_path(spool._seg_index)
        blob = bytearray(open(seg, "rb").read())
        off = offset_fn(_frame_boundaries(seg))
        blob[off] ^= 0x40
        open(seg, "wb").write(bytes(blob))
        return str(tmp_path / "spool"), seg

    def test_bit_flip_in_synced_history_raises(self, tmp_path):
        # flip a payload byte of the FIRST record: valid frames follow,
        # so this is interior corruption, not a torn tail
        d, seg = self._corrupt(
            tmp_path, lambda b: b[0] + HEADER_SIZE + 1)
        with pytest.raises(SpoolCorruptError) as ei:
            _read_all(d)
        assert ei.value.path == seg
        assert "valid records follow" in str(ei.value)
        assert ei.value.to_record()["offset"] >= 0

    def test_bit_flip_in_last_record_is_a_torn_tail(self, tmp_path):
        d, _seg = self._corrupt(
            tmp_path, lambda b: b[-2] + HEADER_SIZE + 1)
        records = _read_all(d)
        assert [r["i"] for r in records] == list(range(7))

    def test_corrupt_non_last_segment_raises(self, tmp_path):
        spool = JobSpool(str(tmp_path), segment_bytes=256)
        _fill(spool, 40)
        spool.close()
        first = spool.segment_path(spool.segment_indices()[0])
        blob = bytearray(open(first, "rb").read())
        blob[-3] ^= 0x01        # even the tail of an OLD segment is synced
        open(first, "wb").write(bytes(blob))
        with pytest.raises(SpoolCorruptError):
            _read_all(str(tmp_path))

    def test_random_bit_flip_fuzz(self, tmp_path):
        """Any single bit flip or cut, in either client of the shared
        segment scan, either reads back a valid prefix or raises that
        client's structured error (a ``core/errors.py`` type whose record
        is JSON-plain) — never a raw struct/json/EOF/pickle error, never a
        wrong record. A checkpoint segment damaged after its first snapshot
        frame still loads the newest snapshot before the damage."""
        rng = random.Random(1234)
        for name, client in (("spool", _SpoolClient),
                             ("checkpoint", _CheckpointClient)):
            seed = client(str(tmp_path / name / "seed"))
            for trial in range(30):
                d = tmp_path / name / f"fuzz-{trial}"
                d.mkdir()
                mutated = bytearray(seed.blob)
                off = rng.randrange(len(mutated))
                if trial % 3 == 2:
                    del mutated[off:]         # a cut
                else:
                    mutated[off] ^= 1 << rng.randrange(8)
                (d / seed.name).write_bytes(bytes(mutated))
                try:
                    seed.check(str(d), off, trial % 3 == 2)
                except (SpoolCorruptError, CheckpointCorruptError) as exc:
                    json.dumps(exc.to_record())
                    assert seed.may_fail(off), (name, trial, off)


class _SpoolClient:
    """Ten journal records in one spool segment."""

    def __init__(self, spool_dir):
        spool = JobSpool(spool_dir)
        _fill(spool, 10)
        spool.close()
        seg = spool.segment_path(spool._seg_index)
        self.name, self.blob = os.path.basename(seg), open(seg, "rb").read()
        self.truth = [r["i"] for r in _read_all(spool_dir)]

    def check(self, d, _off, _cut):
        got = [r.get("i") for r in JobSpool(d).recover()]
        assert got == self.truth[:len(got)]

    @staticmethod
    def may_fail(_off):
        return True


class _CheckpointClient:
    """A tiny checkpointed run killed after its fourth save: one segment
    holding a base and three deltas."""

    def __init__(self, workdir):
        os.makedirs(workdir)
        path = os.path.join(workdir, "ck.pkl")

        def app(n):
            def run(proc):
                for i in range(120):
                    proc.compute(3 + n)
                    yield from proc.load(0x10_000 + (i * 36 + n * 4) % 0x800)
                    if i % 3 == n:
                        yield from proc.store(0x10_000 + i * 8 % 0x400)
                yield from proc.exit(0)
            return run

        SimProcess.set_pid_counter(1)
        eng = Engine(complex_backend(num_cpus=2, checkpoint_path=path,
                                     checkpoint_interval=40))
        for n in range(2):
            eng.spawn(f"p{n}", app(n))
        eng._ckpt.crash_after_saves = 4
        with pytest.raises(SimulatedCrash):
            eng.run()
        seg, = generation_paths(path)
        self.name, self.blob = os.path.basename(seg), open(seg, "rb").read()
        s = scan(seg, CKPT_MAGIC)
        self.ends = [off + HEADER_SIZE + len(p) for off, p in s.frames
                     if p[:1] == SNAPSHOT]
        self.frames = {off for off, _p in s.frames} | {len(self.blob)}
        assert len(self.ends) == 4 and self.ends[-1] == len(self.blob)

    def check(self, d, off, cut):
        try:
            ck = load_checkpoint(os.path.join(d, "ck.pkl"))
        except FileNotFoundError:
            # a clean cut before the first snapshot: no checkpoint yet
            assert cut and off in self.frames and off < self.ends[0]
            return
        assert ck["log_bytes"] == max(e for e in self.ends if e <= off)

    def may_fail(self, off):
        return off < self.ends[0]


class TestRunnerJournal:
    SPEC = dict(workload="oltp", budget=3000, checkpoint_interval=0,
                timeout=60.0, max_retries=0, safe_mode_fallback=False)

    def test_journal_and_recover_finished_matrix(self, tmp_path):
        spool_dir = str(tmp_path / "spool")
        runner = JobRunner(spool_dir=spool_dir,
                           workdir=str(tmp_path / "work"),
                           max_workers=2, poll=0.02)
        runner.submit(JobSpec(name="j1", **self.SPEC))
        runner.submit(JobSpec(name="j2", **self.SPEC))
        records = runner.run()
        runner._spool.close()
        assert all(r.state == JobState.DONE for r in records.values())

        recovered = JobRunner.recover(spool_dir)
        assert recovered.workdir == runner.workdir
        for name, rec in records.items():
            got = recovered.queue.get(name)
            assert got.to_dict() == rec.to_dict()   # bit-identical record
        recovered._spool.close()

    def test_fresh_runner_refuses_populated_spool(self, tmp_path):
        spool_dir = str(tmp_path / "spool")
        spool = JobSpool(spool_dir)
        spool.append({"type": "meta", "workdir": "/nope"})
        spool.close()
        with pytest.raises(ValueError, match="recover"):
            JobRunner(spool_dir=spool_dir)

    def test_orphaned_running_job_is_reaped(self, tmp_path):
        """A journal that ends with a launch record (supervisor died
        mid-attempt) recovers to RETRYING with an 'orphaned' attempt and
        no retry budget charged."""
        spool_dir = str(tmp_path / "spool")
        spec = JobSpec(name="orphan", **self.SPEC)
        spool = JobSpool(spool_dir)
        spool.append({"type": "meta", "workdir": str(tmp_path / "work")})
        spool.append({"type": "submit", "spec": spec.to_dict()})
        spool.append({"type": "launch", "job": "orphan", "attempt": 1,
                      "safe_mode": False, "pid": None})
        spool.close()
        runner = JobRunner.recover(spool_dir)
        rec = runner.queue.get("orphan")
        assert rec.state == JobState.RETRYING
        assert rec.attempts[-1].outcome == "orphaned"
        assert runner._retries_used.get("orphan", 0) == 0
        assert runner._next_launch["orphan"] == 2
        # the journaled reap survives another recovery
        runner._spool.close()
        again = JobRunner.recover(spool_dir)
        assert again.queue.get("orphan").attempts[-1].outcome == "orphaned"
        again._spool.close()
