"""Forensic reports must be JSON-plain: control-plane job records embed
``DeadlockError.report`` / ``HostError.report`` verbatim and persist them
with ``json.dumps``, so every payload must survive a dump/load round trip
unchanged (satellite: JSON-serializable diagnostics)."""

import json
import os
import signal
import time

import pytest

from repro import complex_backend
from repro.core.engine import Engine
from repro.core.errors import DeadlockError, HostError
from repro.core.jsonable import to_jsonable
from repro.host import ParallelEngine, WorkerSpec

SLEEPY = """
    li r3, 50000
    syscall nanosleep, 1
    li r3, 0
    halt
"""


def _roundtrips(payload):
    """dumps never raises and loads(dumps(x)) == x."""
    encoded = json.dumps(payload)
    return json.loads(encoded) == payload


class TestToJsonable:
    def test_plain_values_pass_through(self):
        payload = {"a": 1, "b": [1.5, None, True, "s"]}
        assert to_jsonable(payload) == payload

    def test_everything_becomes_json_plain(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        raw = {
            7: ("tuple", Opaque()),
            "bytes": b"\x00\xff",
            "set": {3, 1, 2},
            "nan": float("nan"),
            "inf": float("inf"),
        }
        out = to_jsonable(raw)
        assert _roundtrips(out)
        assert out["7"] == ["tuple", "<opaque>"]
        assert out["bytes"] == {"__bytes__": "00ff"}
        assert out["set"] == [1, 2, 3]
        assert out["nan"] == "nan"
        assert out["inf"] == "inf"

    def test_self_referential_payload_terminates(self):
        loop = {}
        loop["me"] = loop
        assert _roundtrips(to_jsonable(loop))


class TestDeadlockReportRoundTrip:
    def test_lock_deadlock_report(self):
        eng = Engine(complex_backend(num_cpus=2))

        def holder(proc):
            yield from proc.lock(9)
            yield from proc.exit(0)     # exits without unlocking

        def waiter(proc):
            proc.compute(50_000)        # let the holder win the lock
            yield from proc.lock(9)
            yield from proc.exit(0)

        eng.spawn("holder", holder)
        wp = eng.spawn("waiter", waiter)
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        report = ei.value.report
        assert _roundtrips(report)
        # the converted report is still structurally useful, not a repr blob
        assert report["locks"]["9"]["waiters"] == [wp.pid]
        assert isinstance(report["recent_events"][0], list)

    def test_watchdog_report(self):
        eng = Engine(complex_backend(num_cpus=1, watchdog_rounds=300))

        def spinner(proc):
            while True:
                yield from proc.advance()

        eng.spawn("spin", spinner)
        with pytest.raises(DeadlockError) as ei:
            eng.run()
        assert _roundtrips(ei.value.report)


class TestDurabilityForensicRoundTrip:
    """PR 9 forensic records — spool torn-tail quarantines, checkpoint
    quarantines, structured corruption errors, crash plans — are all
    JSON-plain: they are written with ``json.dump`` at quarantine time
    and parsed by fleet tooling."""

    def test_spool_quarantine_record(self, tmp_path):
        from repro.service.spool import JobSpool
        spool = JobSpool(str(tmp_path))
        for i in range(4):
            spool.append({"i": i})
        spool.close()
        seg = spool.segment_path(spool._seg_index)
        with open(seg, "r+b") as f:
            f.truncate(os.path.getsize(seg) - 3)     # torn tail
        fresh = JobSpool(str(tmp_path))
        fresh.recover()
        assert len(fresh.quarantines) == 1
        assert _roundtrips(fresh.quarantines[0])
        on_disk = json.load(open(seg + ".quarantine.json"))
        assert on_disk == fresh.quarantines[0]

    def test_checkpoint_quarantine_record(self, tmp_path):
        """A checkpoint segment whose newest snapshot frame is torn: the load
        falls back and moves the bytes after the previous snapshot aside
        with a JSON-plain forensic record."""
        from repro import load_checkpoint
        from repro.checkpoint.log import BASE, SNAPSHOT, STREAMS, tagged
        from repro.checkpoint.manager import HEADER, MAGIC
        from repro.core.framing import write_frame
        seg = str(tmp_path / "ck.pkl.00000001.seg")
        with open(seg, "wb") as f:
            f.write(MAGIC)
            write_frame(f, HEADER)
            write_frame(f, tagged(STREAMS, {"replies": {}, "faults": {}}))
            write_frame(f, tagged(BASE, {}))
            write_frame(f, tagged(SNAPSHOT, {"saves": 1, "snapshot": {}}))
            end = f.tell()
            write_frame(f, tagged(SNAPSHOT, {"saves": 2, "snapshot": {}}))
            f.truncate(f.tell() - 3)
        assert load_checkpoint(str(tmp_path / "ck.pkl"))["saves"] == 1
        record = json.load(open(seg + ".quarantine.json"))
        assert _roundtrips(record)
        assert record["offset"] == end
        assert record["error"]["type"] == "CheckpointCorruptError"

    def test_corrupt_error_to_record(self):
        from repro.core.errors import (CheckpointCorruptError,
                                       SpoolCorruptError)
        for cls in (CheckpointCorruptError, SpoolCorruptError):
            rec = cls("/tmp/x", 42, "crc mismatch").to_record()
            assert _roundtrips(rec)
            assert rec["type"] == cls.__name__
            assert rec["offset"] == 42

    def test_crash_plan_round_trip(self):
        from repro import CrashPointPlan, CrashRule
        plan = CrashPointPlan(rules=(
            CrashRule(site="spool:append", hit=3),
            CrashRule(site="ckpt:compact", hit_range=(1, 4),
                      action="raise"),
        ), seed=11, tag="t")
        assert _roundtrips(plan.to_dict())
        assert CrashPointPlan.from_json(plan.to_json()) == plan


class TestHostForensicRoundTrip:
    def test_worker_death_report(self):
        """Kill a worker with no restart budget: the forensic report —
        including the raw ``last_messages`` pipe tuples — is JSON-plain."""
        eng = ParallelEngine(complex_backend(num_cpus=1))
        eng.max_worker_restarts = 0
        with eng:
            eng.spawn_worker(WorkerSpec("victim", SLEEPY))
            w = next(iter(eng._workers.values()))
            deadline = time.time() + 5.0
            while not w.conn.poll() and time.time() < deadline:
                time.sleep(0.01)
            os.kill(w.process.pid, signal.SIGKILL)
            w.process.join()
            with pytest.raises(HostError) as ei:
                eng.run()
        report = ei.value.report
        assert _roundtrips(report)
        assert report["worker"] == "victim"
        # pipe messages were tuples of mixed payloads; now lists
        assert all(isinstance(m, list) for m in report["last_messages"])
