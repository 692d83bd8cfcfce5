#!/usr/bin/env python
"""Fault-injection smoke gate: chaos must stay deterministic.

Runs the OLTP and webserver workloads twice under the same seeded
``FaultPlan`` and fails on *any* divergence between the two runs — the
acceptance bar for the fault subsystem is that a faulty run is exactly as
reproducible as a clean one. Also checks the off-switch (``faults=None``
vs an empty plan must be bit-identical), that the smoke plan actually
exercises at least three distinct fault sites, and that the one host
switch (``fastpath`` off) lands the default run under the plan, fault
draws included.

Usage::

    python benchmarks/bench_faults.py --smoke    # CI gate, exit 1 on fail
    pytest benchmarks/bench_faults.py            # same checks as a test
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Engine, FaultPlan, complex_backend          # noqa: E402
from repro.core.frontend import SimProcess                    # noqa: E402

SAMPLE_PLAN = REPO_ROOT / "examples" / "faultplan.sample.json"


def _fingerprint(eng, stats):
    return (
        stats.end_cycle,
        eng.events_processed,
        tuple((c.user, c.kernel, c.interrupt, c.idle, c.ctx_switch)
              for c in stats.cpu),
        tuple(sorted(stats.syscall_cycles.items())),
        tuple(sorted(stats.syscall_counts.items())),
        eng.faults.stats.draws,
    )


def run_oltp(plan, **cfg_kw):
    from repro.apps.minidb import MiniDb, TpccDriver, tpcc_catalog
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=2, faults=plan, **cfg_kw))
    db = MiniDb(eng, tpcc_catalog(1, 0.005), pool_frames=16, seed=3)
    db.setup()
    drv = TpccDriver(db, nagents=4, tx_per_agent=4, seed=3,
                     think_cycles=5_000, user_work=20_000)
    drv.spawn_agents(eng)
    stats = eng.run()
    assert drv.committed == 16
    return _fingerprint(eng, stats), dict(eng.faults.stats.fired)


def run_web(plan):
    from repro.apps.webserver import (TracePlayer, generate_fileset,
                                      make_trace, prefork_web_server)
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=4, coherence="mesi", num_nodes=1,
                                 faults=plan))
    fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=0.1)
    trace = make_trace(fset, nrequests=12, seed=3)
    prefork_web_server(eng, nworkers=2)
    player = TracePlayer(eng, trace, fset, nclients=2, nworkers_to_quit=2)
    player.start()
    stats = eng.run()
    assert player.completed == 12
    return _fingerprint(eng, stats), dict(eng.faults.stats.fired)


WORKLOADS = {"oltp": run_oltp, "webserver": run_web}


def smoke() -> dict:
    plan = FaultPlan.from_file(str(SAMPLE_PLAN))
    report = {"plan": str(SAMPLE_PLAN), "seed": plan.seed,
              "workloads": {}, "failures": []}
    all_fired: dict = {}
    for name, run in sorted(WORKLOADS.items()):
        fp1, fired1 = run(plan)
        fp2, fired2 = run(plan)
        ok = fp1 == fp2 and fired1 == fired2
        if not ok:
            report["failures"].append(
                f"{name}: two same-seed faulty runs diverged "
                f"(fired {fired1} vs {fired2})")
        off_fp, off_fired = run(None)
        empty_fp, empty_fired = run(FaultPlan())
        if off_fp != empty_fp or off_fired or empty_fired:
            report["failures"].append(
                f"{name}: faults=None and an empty FaultPlan differ")
        report["workloads"][name] = {
            "deterministic": ok,
            "end_cycle": fp1[0],
            "end_cycle_clean": off_fp[0],
            "fired": dict(sorted(fired1.items())),
        }
        for site, n in fired1.items():
            all_fired[site] = all_fired.get(site, 0) + n
    # host switch x faults cross-check: the strict arm (per-reference
    # events, so no window and no bulk prefix) must not move fault draws or
    # outcomes relative to the default — the L1 probe is the model, so
    # neither arm reaches ``mem:degraded`` more often than the other
    arms = {"default": {}, "fastpath_off": {"fastpath": False}}
    runs = {name: run_oltp(plan, **kw) for name, kw in arms.items()}
    report["knob_arms"] = {
        name: {"bit_identical": run == runs["default"]}
        for name, run in runs.items()}
    report["bit_identical"] = all(a["bit_identical"]
                                  for a in report["knob_arms"].values())
    for name, arm in report["knob_arms"].items():
        if not arm["bit_identical"]:
            report["failures"].append(
                f"oltp: the {name} arm diverged from the defaults under "
                f"the fault plan (fired {runs[name][1]} vs "
                f"{runs['default'][1]})")
    report["fired_total"] = dict(sorted(all_fired.items()))
    report["distinct_sites"] = len(all_fired)
    if len(all_fired) < 3:
        report["failures"].append(
            f"smoke plan exercised only {len(all_fired)} distinct fault "
            f"sites ({sorted(all_fired)}), need >= 3")
    return report


def _write_report(report) -> None:
    out = REPO_ROOT / "BENCH_faults.json"
    out.write_text(json.dumps(report, indent=2) + "\n")


def test_fault_smoke():
    # write the artifact before asserting so run_all.py's summary sees the
    # smoke results even on failure (the pytest path used to leave
    # BENCH_faults.json untouched — i.e. empty/stale)
    report = smoke()
    _write_report(report)
    assert not report["failures"], report["failures"]
    assert report["distinct_sites"] >= 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="run the CI determinism gate")
    ap.parse_args(argv)

    report = smoke()
    _write_report(report)
    print(json.dumps(report, indent=2))
    if report["failures"]:
        print("FAULT SMOKE FAILED:", file=sys.stderr)
        for f in report["failures"]:
            print(" -", f, file=sys.stderr)
        return 1
    print(f"fault smoke ok: {report['distinct_sites']} distinct sites "
          f"fired, all runs deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
