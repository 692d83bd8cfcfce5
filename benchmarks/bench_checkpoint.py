#!/usr/bin/env python
"""Checkpoint/restore smoke gate: resume is bit-identical and fast.

Crashes a TPC-C run after an autosave, resumes from the checkpoint, and
fails unless the resumed run reproduces the uninterrupted run exactly
(event stream, final stats, fault-fire counts). Also times the restore
fast-forward — which answers every historical memory access from the
reply log instead of re-simulating the cache hierarchy — against
re-running the simulation to the same event count: the fast-forward must
win, or checkpointing buys nothing over rerunning. The price of the
autosaves themselves is reported next to it (``ms_per_save`` and its
collect / pickle / write split, ``bytes_per_save`` — the frames appended
and the segments compactions wrote — ``log_bytes``, ``disk_bytes`` — the
files the log leaves on disk — and ``base`` / ``delta``: the saves that
wrote the whole memory system and those that wrote its changes, each with
its count and per save its ms, collect / pickle / write split and bytes;
from ``harness.checkpoint_summary``). The gate also fails when the log
leaves more on disk than its streams frames, twice its largest memory
base and the snapshot frames since its newest base (``disk_bound``).

The ``--baseline`` / ``--crash`` / ``--resume`` modes split the gate
across *separate interpreter processes* (CI runs them under different
``PYTHONHASHSEED`` values): a checkpoint written by one process must
resume bit-identically in another, which is the way checkpoints are
actually used.

Usage::

    python benchmarks/bench_checkpoint.py --smoke   # CI gate, exit 1 on fail
    pytest benchmarks/bench_checkpoint.py           # same checks as a test

    # cross-process gate (each line may run in a different process):
    python benchmarks/bench_checkpoint.py --baseline fp.json
    python benchmarks/bench_checkpoint.py --crash ck.pkl
    python benchmarks/bench_checkpoint.py --resume ck.pkl --expect fp.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (Engine, FaultPlan, FaultRule, SimulatedCrash,   # noqa: E402
                   complex_backend, load_checkpoint, resume)
from repro.checkpoint import generation_paths                       # noqa: E402
from repro.checkpoint.log import BASE, DELTA                        # noqa: E402
from repro.checkpoint.manager import HEADER, MAGIC                  # noqa: E402
from repro.core.framing import HEADER_SIZE, scan                    # noqa: E402
from repro.core.frontend import SimProcess                          # noqa: E402
from repro.harness import checkpoint_summary                        # noqa: E402

QUICK = bool(os.environ.get("COMPASS_BENCH_QUICK"))

PLAN = FaultPlan(rules=(
    FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
    FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
), seed=1998)


def build(path=None, interval=0):
    from repro.apps.minidb import MiniDb, TpccDriver, tpcc_catalog
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=2, faults=PLAN,
                                 checkpoint_path=path,
                                 checkpoint_interval=interval))
    db = MiniDb(eng, tpcc_catalog(1, 0.005), pool_frames=16, seed=3)
    db.setup()
    tx = 4 if QUICK else 8
    drv = TpccDriver(db, nagents=4, tx_per_agent=tx, seed=3,
                     think_cycles=5_000, user_work=20_000)
    drv.spawn_agents(eng)
    return eng


def _fingerprint(eng, stats):
    return (
        stats.end_cycle,
        eng.events_processed,
        tuple((c.user, c.kernel, c.interrupt, c.idle, c.ctx_switch)
              for c in stats.cpu),
        tuple(sorted(stats.syscall_cycles.items())),
        tuple(sorted(stats.syscall_counts.items())),
        tuple(sorted(eng.faults.stats.fired.items())),
        eng.faults.stats.draws,
    )


def smoke() -> dict:
    report = {"workload": "tpcc", "quick": QUICK, "failures": []}

    # 1. uninterrupted baseline, checkpointing off: the ground truth
    eng0 = build()
    fp0 = _fingerprint(eng0, eng0.run())
    report["events_total"] = eng0.events_processed
    report["end_cycle"] = fp0[0]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.pkl")
        interval = 2_000

        # 2. crash mid-run after the Nth autosave (deep enough into the run
        #    that the fast-forward timing is not noise)
        eng1 = build(path, interval)
        mgr = eng1._ckpt
        mgr.crash_after_saves = 3 if QUICK else 10
        bases, save = [], mgr.save

        def spy(path=None):
            try:
                return save(path)
            finally:
                bases.append(mgr.base_bytes)

        mgr.save = spy
        try:
            eng1.run()
            report["failures"].append("crash_after_saves never fired")
            return report
        except SimulatedCrash:
            pass
        report["disk_bound"] = _disk_bound(path, max(bases))
        ckpt_events = load_checkpoint(path)["events_processed"]
        report["events_at_checkpoint"] = ckpt_events
        cost = checkpoint_summary(eng1)
        report["saves"] = cost["saves"]
        report["ms_per_save"] = round(
            1e3 * cost["host_seconds"] / cost["saves"], 3)
        report["ms_per_save_split"] = {k: round(v, 3) for k, v
                                       in cost["ms_per_save"].items()}
        report["bytes_per_save"] = cost["bytes"] // cost["saves"]
        report["log_bytes"] = cost["log_bytes"]
        report["disk_bytes"] = cost["disk_bytes"]
        if cost["disk_bytes"] > report["disk_bound"]:
            report["failures"].append(
                f"the log leaves {cost['disk_bytes']} bytes on disk, over "
                f"its bound of {report['disk_bound']}")
        for kind in ("base", "delta"):
            report[kind] = {k: round(v, 3) for k, v in cost[kind].items()}

        # 3. restore (timed: log-replay fast-forward, no backend work),
        #    then finish and compare against the uninterrupted run
        t0 = time.perf_counter()
        eng2, _ = resume(path, lambda: build(path, interval), finish=False)
        t_restore = time.perf_counter() - t0
        fp2 = _fingerprint(eng2, eng2._ckpt.finish(eng2))
        report["bit_identical"] = fp2 == fp0
        if not report["bit_identical"]:
            report["failures"].append(
                f"resumed run diverged from uninterrupted run:\n"
                f"  resumed:  {fp2}\n  baseline: {fp0}")

    # 4. re-simulate to the same event count (what you'd do without a
    #    checkpoint) and compare wall time
    t0 = time.perf_counter()
    eng3 = build()
    eng3.run(max_events=ckpt_events)
    t_rerun = time.perf_counter() - t0
    if eng3.events_processed != ckpt_events:
        report["failures"].append(
            f"rerun stopped at {eng3.events_processed} events, "
            f"expected {ckpt_events}")

    report["t_restore_s"] = round(t_restore, 4)
    report["t_rerun_s"] = round(t_rerun, 4)
    report["speedup"] = round(t_rerun / t_restore, 2) if t_restore else None
    if report["speedup"] is not None and report["speedup"] <= 1.0:
        report["failures"].append(
            f"restore fast-forward ({t_restore:.3f}s) is not faster than "
            f"re-simulating {ckpt_events} events ({t_rerun:.3f}s)")
    return report


def _disk_bound(path, largest_base):
    """What ``path``'s log may leave on disk: its streams frames, twice its
    largest memory base (the newest base, and a delta chain no larger), the
    snapshot frames since its newest base, and one segment's magic and
    header."""
    seg = [f for f in generation_paths(path) if f.endswith(".seg")][-1]
    frames = scan(seg, MAGIC).frames[1:]
    return (sum(HEADER_SIZE + len(p) for _off, p in frames
                if p[:1] not in (BASE, DELTA))
            + 2 * largest_base + len(MAGIC) + HEADER_SIZE + len(HEADER))


def test_checkpoint_smoke():
    report = smoke()
    assert not report["failures"], report["failures"]
    assert report["bit_identical"]


CROSS_INTERVAL = 2_000


def _jsonable(fp):
    return json.loads(json.dumps(fp))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="run the in-process CI crash/resume gate")
    ap.add_argument("--baseline", metavar="FP_JSON",
                    help="run uninterrupted, write the fingerprint here")
    ap.add_argument("--crash", metavar="CKPT",
                    help="run with autosaves to CKPT, crash after the 3rd")
    ap.add_argument("--resume", metavar="CKPT",
                    help="resume from CKPT and finish the run")
    ap.add_argument("--expect", metavar="FP_JSON",
                    help="with --resume: fingerprint file to match")
    args = ap.parse_args(argv)

    if args.baseline:
        eng = build()
        fp = _fingerprint(eng, eng.run())
        Path(args.baseline).write_text(json.dumps(fp) + "\n")
        print(f"baseline: {eng.events_processed} events, "
              f"end cycle {fp[0]} -> {args.baseline}")
        return 0

    if args.crash:
        eng = build(args.crash, CROSS_INTERVAL)
        eng._ckpt.crash_after_saves = 3
        try:
            eng.run()
        except SimulatedCrash as e:
            print(f"crashed as planned: {e}")
            return 0
        print("crash_after_saves never fired", file=sys.stderr)
        return 1

    if args.resume:
        eng, stats = resume(args.resume,
                            lambda: build(args.resume, CROSS_INTERVAL))
        fp = _jsonable(_fingerprint(eng, stats))
        if args.expect:
            want = json.loads(Path(args.expect).read_text())
            if fp != want:
                print(f"resumed run diverged from baseline:\n"
                      f"  resumed:  {fp}\n  baseline: {want}",
                      file=sys.stderr)
                return 1
            print("cross-process resume bit-identical")
        else:
            print(json.dumps(fp))
        return 0

    report = smoke()
    out = REPO_ROOT / "BENCH_checkpoint.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if report["failures"]:
        print("CHECKPOINT SMOKE FAILED:", file=sys.stderr)
        for f in report["failures"]:
            print(" -", f, file=sys.stderr)
        return 1
    base, delta = report["base"], report["delta"]
    print(f"checkpoint smoke ok: resume bit-identical, fast-forward "
          f"{report['speedup']}x faster than re-simulating; autosaves cost "
          f"{report['ms_per_save']} ms and {report['bytes_per_save']} bytes "
          f"each, and leave {report['disk_bytes']} bytes on disk (bound "
          f"{report['disk_bound']}) ({base['saves']} bases at "
          f"{base['ms']} ms / "
          f"{base['bytes']} B, {delta['saves']} deltas at {delta['ms']} ms "
          f"/ {delta['bytes']} B)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
