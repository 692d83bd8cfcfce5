"""End-to-end and per-layer benchmark on the paper's workloads.

One invocation measures one workload in this (fresh) process::

    python3 benchmarks/e2e/bench.py --workload dss --seed 3 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced runs; ``--trace
1`` makes one traced run and reports the per-layer metrics. The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). Without ``--workload`` every workload is run that
way, each in its own child process, and the merged result is written to
``--out``::

    python3 benchmarks/e2e/bench.py --seed 3
    python3 benchmarks/e2e/bench.py --compare A.json B.json

Metric names, units, directions and regression bounds are read from
``BENCHMARK.json`` at the repository root: that file is the contract, this
program computes what it names. Every host time reported is in
reference-host seconds (``hostclock.py``). See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"bench.py: no simulator source under {ROOT / 'src'}; the "
             "benchmark runs from a checkout of the whole repository")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.checkpoint import generation_paths                  # noqa: E402
from repro.core.jsonable import to_jsonable                    # noqa: E402
from repro.service import (AttemptRecord, JobRunner, JobSpec,   # noqa: E402
                           JobSpool, JobState, SimulatorAdapter)

from hostclock import HostClock                                # noqa: E402
from tracer import Tracer                                      # noqa: E402
import workloads as wl                                         # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
#: timed runs per invocation: at least this many, then until --seconds
MIN_RUNS = 3
#: set-up is sampled in this many windows of back-to-back repeats, each
#: window as long as this (or one set-up, or this many, whichever is first)
SETUP_WINDOWS, SETUP_WINDOW_S, SETUP_REPEATS_MAX = 5, 0.3, 25
#: whole-invocation ceiling the all-workloads mode gives each child
CHILD_TIMEOUT_S = 170


class RunDeadline(Exception):
    """One run outlived its wall deadline (raised from SIGALRM)."""


def _on_alarm(_signo, _frame):
    raise RunDeadline()


def _cpu_s() -> float:
    """Host CPU seconds of the measuring thread and of reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + ch.ru_utime + ch.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, MiB."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def _digest(fingerprint) -> str:
    """Stable digest of a ``full_fingerprint`` (tuple, or the JSON-plain
    list a job record carries)."""
    blob = json.dumps(to_jsonable(fingerprint), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# one run = one operation
# ---------------------------------------------------------------------------

def run_direct(w: wl.Workload, size: str, *, config=None, segment=None,
               after_segment=None) -> Dict[str, Any]:
    """prepare / run / collect in this process; returns the run's sample.

    ``segment`` runs in bounded ``run(budget=segment)`` calls (what a job
    child does) and calls ``after_segment()`` after each."""
    kw = w.kwargs(size)
    adapter = SimulatorAdapter()
    gc.collect()
    with HostClock() as host, wl.capture(*wl.DRIVER_CLASSES) as drivers:
        t_start = time.perf_counter()
        adapter.prepare(config or {}, w.registry, kw)
        setup_s = time.perf_counter() - t_start
        c0, t0 = _cpu_s(), time.perf_counter()
        if segment is None:
            adapter.run()
        else:
            while adapter.running:
                adapter.run(budget=segment)
                if after_segment is not None:
                    after_segment()
        t1 = time.perf_counter()
        run_wall_s, cpu_s = t1 - t0, _cpu_s() - c0
        payload = adapter.collect()
        collect_s = time.perf_counter() - t1
        run_factor = host.factor(t0, t1)
        total_factor = host.factor(t_start, time.perf_counter())
    eng = adapter.engine
    error = w.check(eng, drivers, kw)
    if error is not None:
        raise AssertionError(error)
    return {"setup_s": setup_s, "run_wall_s": run_wall_s, "cpu_s": cpu_s,
            "collect_s": collect_s, "run_factor": run_factor,
            "total_factor": total_factor,
            "events": payload["events_processed"],
            "fingerprint": _digest(payload["fingerprint"]),
            "payload": payload, "counts": _counts(eng, adapter.stats)}


def _job_spec(w: wl.Workload, size: str, plain: bool = False) -> JobSpec:
    """``plain``: the same simulation with nothing a service adds but the
    fork — one unbounded segment, no autosaves."""
    policy = (dict(checkpoint_interval=0, heartbeat_events=1 << 60) if plain
              else w.job_spec)
    return JobSpec(name=w.name, workload=w.registry,
                   workload_kwargs=w.kwargs(size), max_retries=0,
                   safe_mode_fallback=False, timeout=w.deadline_s(size),
                   **policy)


def submit_job(w: wl.Workload, size: str, tmp: str, plain: bool = False):
    """A job's set-up: a runner with a fresh spool, and the spec journaled
    (``plain``: no spool)."""
    work = tempfile.mkdtemp(dir=tmp)
    runner = JobRunner(max_workers=1, workdir=os.path.join(work, "jobs"),
                       spool_dir=None if plain else os.path.join(work, "spool"))
    return runner, runner.submit(_job_spec(w, size, plain))


def run_job(w: wl.Workload, size: str, tmp: str,
            plain: bool = False) -> Dict[str, Any]:
    """Submit the workload as a JobSpec and pump the runner to a terminal
    state: what a service user gets (fork, heartbeats, spool, autosaves)."""
    gc.collect()
    host = HostClock()      # ticked from the pump loop: the runner forks
    t0 = time.perf_counter()
    runner, rec = submit_job(w, size, tmp, plain)
    setup_s = time.perf_counter() - t0
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sup0, c0, t0 = time.thread_time(), _cpu_s(), time.perf_counter()
    while not rec.terminal:         # JobRunner.run(), sampling host speed
        runner.step()
        host.tick()
    t1 = time.perf_counter()
    cpu_s = _cpu_s() - c0 - host.tick_cpu_s
    supervisor_cpu_s = time.thread_time() - sup0 - host.tick_cpu_s
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if rec.state != JobState.DONE or len(rec.attempts) != 1:
        raise AssertionError(
            f"job ended {rec.state} after {len(rec.attempts)} attempts: "
            f"{rec.error}")
    return {"setup_s": setup_s, "run_wall_s": t1 - t0, "cpu_s": cpu_s,
            "run_factor": host.factor(t0, t1),
            "events": rec.result["events_processed"],
            "fingerprint": _digest(rec.fingerprint),
            "supervisor_cpu_s": supervisor_cpu_s,
            "child_cpu_s": (child1.ru_utime + child1.ru_stime
                            - child0.ru_utime - child0.ru_stime)}


def _one(w: wl.Workload, size: str, tmp: str) -> Dict[str, Any]:
    return run_job(w, size, tmp) if w.job else run_direct(w, size)


def _counts(eng, stats) -> Dict[str, Any]:
    """Exact-repeat layer counts of a finished in-process run."""
    bs = dict(eng.batch_stats)
    l1 = eng.memsys.cache_summary()["l1"].values()
    hits = sum(h for h, _m in l1)
    refs = hits + sum(m for _h, m in l1)
    user = sum(c.user for c in stats.cpu)
    kern = sum(c.kernel + c.interrupt for c in stats.cpu)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "batch_stats": bs,
        "engine.events": eng.events_processed,
        "engine.sim_end_cycle": stats.end_cycle,
        "engine.batches": bs["batches"],
        "engine.refs_per_batch": ratio(bs["refs"], bs["batches"]),
        "engine.cut_horizon": bs["cut_horizon"],
        "engine.sp_windows": bs["sp_windows"],
        "engine.sp_commits": bs["sp_commits"],
        "engine.sp_rollbacks": bs["sp_rollbacks"],
        "engine.sp_commit_ratio": ratio(bs["sp_commits"], bs["sp_windows"]),
        "engine.la_windows": bs["la_windows"],
        "engine.ext_refs_share": ratio(bs["la_refs"] + bs["sp_refs"],
                                       bs["refs"]),
        "mem.vec_fallbacks": eng.memsys.vec_fallbacks,
        "mem.l1_hit_ratio": ratio(hits, refs),
        "mem.major_faults": eng.memsys.vmm.major_faults,
        "mem.minor_faults": eng.memsys.vmm.minor_faults,
        "osim.syscalls": sum(stats.syscall_counts.values()),
        "osim.interrupts": sum(stats.interrupt_counts.values()),
        "osim.kernel_cycle_share": ratio(kern, user + kern),
    }


class Attempts:
    """Run operations under a deadline; a failure is counted, not raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []

    def run(self, label: str, deadline_s: float, fn, *args, **kwargs):
        """``fn(*args)`` -> its sample, or None when it raised, overran
        ``deadline_s`` or failed its functional check."""
        self.attempted += 1
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            return fn(*args, **kwargs)
        except RunDeadline:
            self.errors.append(f"{label}: exceeded its {deadline_s:.1f}s deadline")
        except Exception as exc:   # noqa: BLE001 — a failed operation, reported
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # a job child outlives a failed supervisor pump; reap it
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
        return None

    def require_equal(self, label: str, a, b) -> None:
        """Two runs of one program disagreed: that is a failed operation."""
        if a != b:
            self.errors.append(f"{label}: {a!r} != {b!r}")

    @property
    def failed(self) -> int:
        return min(len(self.errors), self.attempted)


# ---------------------------------------------------------------------------
# one invocation = one workload, traced or not
# ---------------------------------------------------------------------------

def measure(w: wl.Workload, *, seconds: float, trace: bool, size: str,
            out_dir: Path) -> Dict[str, Any]:
    """Measure ``w`` and return its detail record (see README.md)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    ops = Attempts()
    try:
        if size != "smoke":
            # fill import, allocator and bytecode caches on a small run
            ops.run("warm-up", w.deadline_s("smoke"), _one, w, "smoke", tmp)
        if trace:
            metrics, extra = _traced(w, size, ops, tmp, out_dir)
        else:
            metrics, extra = _untraced(w, size, seconds, ops, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    return {
        "workload": w.name, "size": size, "trace": int(trace),
        "input_seed": wl.INPUT_SEED if "seed" in w.kwargs(size) else None,
        "attempted": ops.attempted, "failed": ops.failed,
        "ops_failed_share": ops.failed / ops.attempted,
        "errors": ops.errors,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]),
                                "unit": m["unit"]} for m in wanted},
        **extra,
    }


def _untraced(w, size, seconds, ops, tmp):
    samples: List[Dict[str, Any]] = []
    deadline = w.deadline_s(size)
    spent, runs = 0.0, 0
    while runs < MIN_RUNS or spent < seconds:
        runs += 1
        t0 = time.perf_counter()
        s = ops.run(f"run {runs}", deadline, _one, w, size, tmp)
        spent += time.perf_counter() - t0
        if s is not None:
            s.pop("payload", None)
            samples.append(s)
    for s in samples[1:]:
        ops.require_equal("fingerprint differs between runs",
                          samples[0]["fingerprint"], s["fingerprint"])
    setups = _setup_windows(w, size, tmp) if samples else []
    # host times in reference-host seconds (hostclock.py); raw beside them
    series = {
        "events_per_cpu_s": [s["events"] * s["run_factor"] / s["cpu_s"]
                             for s in samples],
        "run_wall_s": [s["run_wall_s"] / s["run_factor"] for s in samples],
        "setup_s": [x["s"] / x["factor"] for x in setups],
        "peak_rss_mb": [_peak_rss_mb()] if samples else [],
    }
    raw = {
        "events_per_cpu_s": [s["events"] / s["cpu_s"] for s in samples],
        "run_wall_s": [s["run_wall_s"] for s in samples],
        "setup_s": [x["s"] for x in setups],
        "host_factor": [s["run_factor"] for s in samples],
    }
    metrics = {k: statistics.median(v) for k, v in series.items() if v}
    extra = {
        "fingerprint": samples[0]["fingerprint"] if samples else None,
        "counts": samples[0].get("counts") if samples else None,
        "series": {k: _spread(v) for k, v in series.items() if v},
        "raw_series": {k: _spread(v) for k, v in raw.items() if v},
    }
    return metrics, extra


def _setup_windows(w, size, tmp) -> List[Dict[str, float]]:
    """Set-up on its own, in windows of back-to-back repeats: one set-up is
    too short for the host clock to have sampled it, and the clock
    normalises totals (mean set-up time over the window's host slowness)."""
    window_s = SETUP_WINDOW_S if size == "full" else SETUP_WINDOW_S / 10
    host = HostClock()
    if not w.job:
        host.start()
    out = []
    try:
        for _ in range(SETUP_WINDOWS):
            t_win, busy, n = time.perf_counter(), 0.0, 0
            while n == 0 or (n < SETUP_REPEATS_MAX
                             and time.perf_counter() - t_win < window_s):
                gc.collect()
                t0 = time.perf_counter()
                if w.job:
                    submit_job(w, size, tmp)
                else:
                    SimulatorAdapter().prepare({}, w.registry, w.kwargs(size))
                busy += time.perf_counter() - t0
                n += 1
                if w.job:
                    host.tick()
            out.append({"s": busy / n,
                        "factor": host.factor(t_win, time.perf_counter())})
    finally:
        host.stop()
    return out


def _spread(values: List[float]) -> Dict[str, Any]:
    """median, min, max, quartiles and n of one metric's samples. No
    percentile is reported: n is far below eleven."""
    q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _traced(w, size, ops, tmp, out_dir):
    deadline = w.deadline_s(size)
    base = ops.run("untraced run", deadline, _one, w, size, tmp)
    metrics: Dict[str, Any] = {}
    extra: Dict[str, Any] = {}
    tracer = Tracer()
    ckpt = _CheckpointMeter(os.path.join(tmp, "traced.ckpt"))

    def traced_run():
        with tracer:
            if w.job:
                return _job_segments(w, size, tmp, ckpt)
            return run_direct(w, size)

    # tracing costs 1.1-2x; the deadline bounds the program, not the tracer
    t = ops.run("traced run", 3 * deadline, traced_run)
    if base is None or t is None:
        return metrics, extra
    ops.require_equal("traced fingerprint differs from untraced",
                      base["fingerprint"], t["fingerprint"])
    if not w.job:
        # a job's batch_stats stay in its child; its in-process twin is
        # compared on the fingerprint alone
        ops.require_equal("traced batch_stats differ from untraced",
                          base["counts"]["batch_stats"],
                          t["counts"]["batch_stats"])
    spans = tracer.by_name()
    slow = t["total_factor"]

    def seconds(name: str, key: str = "self_s"):
        return spans[name][key] / slow if name in spans else None

    def calls(name: str):
        return spans[name]["calls"] if name in spans else None

    # prepare + run + collect, plus the journal appends made around them
    traced_wall_s = ((t["setup_s"] + t["run_wall_s"] + t["collect_s"]) / slow
                     + (seconds("spool.append", "total_s") or 0.0))
    base_wall_s = base["run_wall_s"] / base["run_factor"]

    metrics.update({k: v for k, v in t["counts"].items() if k != "batch_stats"})
    metrics.update({
        "adapter.prepare_s": seconds("adapter.prepare"),
        "adapter.collect_s": seconds("adapter.collect"),
        "engine.run_self_s": seconds("engine.run"),
        "engine.handle_event_self_s": seconds("engine.handle_event"),
        "engine.handle_batch_self_s": seconds("engine.handle_batch"),
        "engine.fingerprint": int(t["fingerprint"][:12], 16),
        "communicator.select_s": seconds("communicator.select"),
        "communicator.select_calls": calls("communicator.select"),
        "communicator.horizon_s": seconds("communicator.horizon"),
        "mem.access_self_s": seconds("mem.access"),
        "mem.access_calls": calls("mem.access"),
        "mem.access_run_self_s": seconds("mem.access_run"),
        "mem.access_run_calls": calls("mem.access_run"),
        "mem.coherence_s": seconds("mem.coherence"),
        "mem.coherence_calls": calls("mem.coherence"),
        "frontend.user_step_s": seconds("frontend.user_step"),
        "frontend.steps": calls("frontend.user_step"),
        "osim.kernel_step_s": seconds("osim.kernel_step"),
        "devices.task_s": seconds("devices.task"),
        "devices.tasks": calls("devices.task"),
        "checkpoint.save_s": seconds("checkpoint.save"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.bytes": ckpt.bytes,
        "spool.append_s": seconds("spool.append"),
        "spool.records": calls("spool.append"),
        "spool.bytes": t.get("spool_bytes", 0),
        "service.child_cpu_s": base.get("child_cpu_s", 0.0) / base["run_factor"],
        "service.supervisor_cpu_s": (base.get("supervisor_cpu_s", 0.0)
                                     / base["run_factor"]),
        "service.overhead_ratio": 0.0, "service.job_matches_direct": 0,
        "harness.raw_s": 0.0, "harness.slowdown_vs_raw": 0.0,
        "trace.overhead_ratio": (t["run_wall_s"] / t["run_factor"]
                                 / base_wall_s),
        "trace.unattributed_s": traced_wall_s - tracer.attributed_s() / slow,
        "trace.seams_missing": len(tracer.missing),
    })
    if w.job:
        # the same simulation forked but otherwise unserved, its host clock
        # ticked the same way (an in-process run's is not comparable: an
        # idle supervisor's samples read ~10 % slow)
        plain = ops.run("plain job", deadline, run_job, w, size, tmp, True)
        if plain is not None:
            # segment cuts change the result at this commit (KNOWN_ISSUES.md),
            # so a job is checked against itself and this is informational
            metrics["service.job_matches_direct"] = int(
                plain["fingerprint"] == base["fingerprint"])
            metrics["service.overhead_ratio"] = (
                (base["cpu_s"] / base["run_factor"])
                / (plain["cpu_s"] / plain["run_factor"]))
    if w.name == "dss":
        raw_s = _dss_raw_s(w.kwargs(size))
        metrics["harness.raw_s"] = raw_s
        metrics["harness.slowdown_vs_raw"] = base_wall_s / raw_s
    extra["fingerprint"] = t["fingerprint"]
    extra["traced_wall_s"] = traced_wall_s
    extra["unattributed_share"] = metrics["trace.unattributed_s"] / traced_wall_s
    extra["host_factor"] = slow
    extra["trace_file"] = f"trace_{w.name}.json"
    _write_trace(out_dir / extra["trace_file"], tracer, {
        "workload": w.name, "size": size, "host_factor": slow,
        "traced_wall_s": traced_wall_s, "untraced_run_wall_s": base_wall_s,
        "layers": {n: {"calls": calls(n), "total_s": seconds(n, "total_s"),
                       "self_s": seconds(n)} for n in sorted(spans)}})
    return metrics, extra


def _write_trace(path: Path, tracer: Tracer, head: Dict[str, Any]) -> None:
    """``layers`` are in reference-host seconds; ``edges`` and
    ``first_spans`` are the tracer's raw readings, one span per line."""
    doc = {**head, **tracer.to_json()}
    first_spans = doc.pop("first_spans")
    text = json.dumps(doc, indent=1)[:-2] + ',\n "first_spans": [\n  '
    text += ",\n  ".join(json.dumps(sp) for sp in first_spans) + "\n ]\n}\n"
    path.write_text(text)


class _CheckpointMeter:
    """Bytes the autosaves wrote: generations are rewritten in place, so
    the files are polled after every segment (at most one save falls in a
    ``heartbeat_events`` segment)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.bytes = 0
        self._seen: Dict[str, int] = {}

    def poll(self) -> None:
        for gen in generation_paths(self.path):
            try:
                st = os.stat(gen)
            except FileNotFoundError:
                continue
            if self._seen.get(gen) != st.st_mtime_ns:
                self._seen[gen] = st.st_mtime_ns
                self.bytes += st.st_size


def _job_segments(w, size, tmp, ckpt: _CheckpointMeter) -> Dict[str, Any]:
    """The job child's segment loop, in this process where spans reach it:
    same checkpoint config and heartbeat cuts, and the runner's four
    journal records appended to a spool of its own."""
    spec = _job_spec(w, size)
    spool = JobSpool(tempfile.mkdtemp(prefix="spool-", dir=tmp))
    spool.append({"type": "meta", "workdir": tmp})
    spool.append({"type": "submit", "spec": spec.to_dict()})
    spool.append({"type": "launch", "job": w.name, "attempt": 1,
                  "safe_mode": False, "pid": os.getpid()})
    s = run_direct(w, size, segment=spec.heartbeat_events,
                   after_segment=ckpt.poll,
                   config={"checkpoint_path": ckpt.path,
                           "checkpoint_interval": spec.checkpoint_interval})
    attempt = AttemptRecord(attempt=1, outcome="done", exitcode=0,
                            events_processed=s["events"],
                            wall_seconds=round(s["run_wall_s"], 4))
    spool.append({"type": "attempt", "job": w.name,
                  "record": attempt.to_dict(), "state": JobState.DONE,
                  "retries_used": 0, "safe_pending": False, "resumes": 0,
                  "preemptions": 0, "degraded": False,
                  "result": s["payload"], "error": None})
    spool.close()
    s["spool_bytes"] = sum(os.path.getsize(spool.segment_path(i))
                           for i in spool.segment_indices())
    return s


def _dss_raw_s(kw: Dict[str, Any]) -> float:
    """Best of 15 of the native (numpy) Q1 scan over the same tables: the
    paper's raw-execution baseline. Milliseconds, so informational."""
    from repro.apps.minidb.dss import q1_scan_raw_fast
    fs = SimulatorAdapter().prepare({}, "dss", kw).os_server.fs
    catalog = wl.tpcd_catalog(scale=kw["scale"])
    best = float("inf")
    for _ in range(15):
        t0 = time.perf_counter()
        q1_scan_raw_fast(fs, catalog)
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_record(rec: Dict[str, Any]) -> None:
    seed_note = (f"simulated input seed {rec['input_seed']}"
                 if rec["input_seed"] is not None else "no random input")
    print(f"# {rec['workload']} ({rec['size']}, trace {rec['trace']}): "
          f"{seed_note}; inputs do not depend on --seed")
    for name, m in rec["metrics"].items():
        sp = rec.get("series", {}).get(name)
        tail = (f"  [min {sp['min']:.6g} q1 {sp['q1']:.6g} q3 {sp['q3']:.6g} "
                f"max {sp['max']:.6g} n {sp['n']}]") if sp else ""
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:34s} {value:>14s} {m['unit']}{tail}")
    print(f"{'ops_failed_share':34s} {rec['ops_failed_share']:>14.6g} ratio  "
          f"[{rec['failed']} of {rec['attempted']}]")
    if rec.get("fingerprint"):
        print(f"{'fingerprint':34s} {rec['fingerprint'][:16]}")
    for err in rec["errors"]:
        print(f"FAILED: {err}")


def contract_line(rec: Dict[str, Any]) -> str:
    """The driver's result line. A metric whose seam is gone reads 0 there
    (and null in the detail record); ``trace.seams_missing`` says so."""
    return json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {n: {"value": 0 if m["value"] is None else m["value"],
                        "unit": m["unit"]}
                    for n, m in rec["metrics"].items()}})


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh child."""
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result = {"seed": args.seed, "seconds": args.seconds,
              "size": "smoke" if args.smoke else "full",
              "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
              "workloads": {}}
    status = 0
    for name in (w["name"] for w in CONTRACT["workloads"]):
        entry = result["workloads"][name] = {}
        for trace in (0, 1):
            detail = out.parent / f"detail_{name}_{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out-dir", str(out.parent), "--detail", str(detail)]
            if args.smoke:
                cmd.append("--smoke")
            try:
                code: Any = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = f"killed after {CHILD_TIMEOUT_S}s"
            if detail.is_file():
                rec = json.loads(detail.read_text())
                detail.unlink()
            else:
                rec = {"attempted": 1, "failed": 1, "metrics": {},
                       "errors": [f"child produced no result ({code})"]}
            entry["traced" if trace else "untraced"] = rec
            if code != 0:
                status = 1
        # written after every workload: a later hang loses nothing
        out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return status


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: A (the base) against B, by the
    rule of the choosing-metrics guide, section 8. One row each; nothing is
    averaged across workloads."""
    a_all = json.loads(Path(path_a).read_text())["workloads"]
    b_all = json.loads(Path(path_b).read_text())["workloads"]
    print(f"base A = {path_a}\n     B = {path_b}")
    print(f"{'workload':12s} {'metric':18s} {'A median [q1,q3]':>34s} "
          f"{'B median [q1,q3]':>34s} {'B/A':>8s}  verdict")
    worse = 0
    for name in a_all:
        if name not in b_all:
            continue
        ua, ub = a_all[name]["untraced"], b_all[name]["untraced"]
        for m in CONTRACT["end_to_end"]:
            a = ua.get("series", {}).get(m["name"])
            b = ub.get("series", {}).get(m["name"])
            if a is None or b is None:
                print(f"{name:12s} {m['name']:18s} {'(no samples)':>34s}")
                continue
            verdict = _verdict(a, b, m["better"] == "higher", m["bound"])
            worse += verdict == "worse"
            fmt = "{median:.6g} [{q1:.6g},{q3:.6g}]".format
            print(f"{name:12s} {m['name']:18s} {fmt(**a):>34s} "
                  f"{fmt(**b):>34s} {b['median'] / a['median']:8.4f}  "
                  f"{verdict}")
        print(f"{name:12s} {'ops_failed':18s} "
              f"{ua['failed']:>28d} of {ua['attempted']:<3d}"
              f"{ub['failed']:>28d} of {ub['attempted']:<3d}")
    return 1 if worse else 0


def _verdict(a: Dict[str, Any], b: Dict[str, Any], higher_better: bool,
             bound: float) -> str:
    """``better`` / ``within-bound`` / ``worse`` / ``unresolved`` for B
    against the base A, from each side's samples."""
    sign = 1.0 if higher_better else -1.0
    sa = [sign * x for x in a["samples"]]       # larger is better from here
    sb = [sign * x for x in b["samples"]]
    gain = sign * (b["median"] - a["median"])
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / a["median"]
    if spread > bound and not min(sb) > max(sa):
        return "unresolved"
    if -gain > bound * a["median"]:
        return "worse"
    pairs = [(x, y) for x, y in zip(sa, sb) if x != y]
    wins = sum(y > x for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > a["q3"] - a["q1"]:
        return "better"
    return "within-bound"


# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.BY_NAME),
                   help="measure this one workload in this process")
    p.add_argument("--seed", type=int, default=3,
                   help="recorded with the result; simulated inputs are "
                        "pinned (see README.md, Seeds)")
    p.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"],
                   help="keep making timed runs until this much run time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, no warm-up: for the tests")
    p.add_argument("--out-dir", default=str(HERE / "out"),
                   help="where a --workload run writes its trace file")
    p.add_argument("--detail", help="also write the full record here")
    p.add_argument("--out", default=str(HERE / "out" / "results.json"),
                   help="all-workloads mode: the merged result file")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args)
    rec = measure(wl.BY_NAME[args.workload], seconds=args.seconds,
                  trace=bool(args.trace),
                  size="smoke" if args.smoke else "full",
                  out_dir=Path(args.out_dir))
    rec["seed"] = args.seed
    if args.detail:
        Path(args.detail).write_text(json.dumps(rec, indent=1) + "\n")
    print_record(rec)
    print(contract_line(rec))
    return 1 if rec["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
