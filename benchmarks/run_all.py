#!/usr/bin/env python
"""Run every benchmark file and collect their BENCH_*.json artifacts.

Each ``bench_*.py`` runs in its own pytest subprocess (pytest-benchmark
prints its tables; benches that write ``BENCH_*.json`` refresh the copies
at the repo root). A unified ``BENCH_summary.json`` is written at the repo
root after the run: per-benchmark pass/fail, wall time, and the headline
numbers (events/sec, speedup) pulled from each artifact.
Any artifact reporting ``bit_identical: false`` — an optimisation that
changed simulated results — fails the whole run, independent of the
per-bench exit codes. Usage::

    python benchmarks/run_all.py              # full runs
    python benchmarks/run_all.py --quick      # COMPASS_BENCH_QUICK=1
    python benchmarks/run_all.py fastpath     # only bench_fastpath.py

A filter pattern that matches no bench is an error (exit 2), even when
the other patterns match.

The summary is (re)written after *every* benchmark, marked
``"complete": false`` until the last one finishes — a crashed or
interrupted run leaves a partial ``BENCH_summary.json`` covering the
benches that did complete (and exits non-zero) instead of losing the
already-collected artifacts.

Exits non-zero if any bench fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def discover(patterns):
    """The benches matching any pattern (all without one), and the
    patterns that match none."""
    benches = sorted(BENCH_DIR.glob("bench_*.py"))
    stale = [p for p in patterns if not any(p in b.stem for b in benches)]
    if patterns:
        benches = [b for b in benches
                   if any(p in b.stem for p in patterns)]
    return benches, stale


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("patterns", nargs="*",
                    help="substring filters on bench file names")
    ap.add_argument("--quick", action="store_true",
                    help="set COMPASS_BENCH_QUICK=1 (smaller workloads)")
    args = ap.parse_args(argv)

    benches, stale = discover(args.patterns)
    if stale or not benches:
        print("no benchmarks match", stale or args.patterns, file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + (os.pathsep + env["PYTHONPATH"]
                            if env.get("PYTHONPATH") else ""))
    if args.quick:
        env["COMPASS_BENCH_QUICK"] = "1"

    results = []
    try:
        for bench in benches:
            print(f"\n=== {bench.name} ===", flush=True)
            t0 = time.perf_counter()
            rc = subprocess.call(
                [sys.executable, "-m", "pytest", "-q", str(bench),
                 "-p", "no:cacheprovider"],
                cwd=REPO_ROOT, env=env)
            results.append((bench.name, rc, time.perf_counter() - t0))
            # checkpoint the summary after every bench: a later crash
            # must not lose the artifacts already collected
            write_summary(args, results, complete=False)
    except BaseException as exc:   # Ctrl-C, OOM kill of a child, bugs
        write_summary(args, results, complete=False,
                      interrupted=f"{type(exc).__name__}: {exc}")
        print(f"\ninterrupted after {len(results)}/{len(benches)} "
              f"benches; partial BENCH_summary.json written",
              file=sys.stderr)
        if isinstance(exc, KeyboardInterrupt):
            return 130
        raise

    print("\n=== summary ===")
    failed = 0
    for name, rc, secs in results:
        status = "ok" if rc == 0 else f"FAILED (rc={rc})"
        print(f"  {name:40s} {status:14s} {secs:7.1f}s")
        failed += rc != 0
    artifact_data = collect_artifacts(verbose=True)
    # every perf bench must leave the simulation bit-identical; an
    # artifact saying otherwise fails the run even if its own
    # assertions were too loose to catch it
    mismatches = [name for name, data in artifact_data.items()
                  if data.get("bit_identical") is False]
    for name in mismatches:
        print(f"  BIT-IDENTITY MISMATCH in {name}", file=sys.stderr)
    failed += len(mismatches)

    out = write_summary(args, results, complete=True)
    print(f"wrote {out.name}")
    return 1 if failed else 0


def collect_artifacts(verbose=False):
    artifacts = sorted(p for p in REPO_ROOT.glob("BENCH_*.json")
                       if p.name != "BENCH_summary.json")
    artifact_data = {}
    if artifacts and verbose:
        print("artifacts:")
    for a in artifacts:
        try:
            artifact_data[a.name] = json.loads(a.read_text())
            keys = ", ".join(sorted(artifact_data[a.name])[:6])
        except (OSError, ValueError):
            keys = "<unreadable>"
            continue
        if verbose:
            print(f"  {a.name}: {keys}")
    if verbose:
        speedups = [(name, data["speedup"], data.get("workload", ""))
                    for name, data in artifact_data.items()
                    if isinstance(data.get("speedup"), (int, float))]
        if speedups:
            print("speedups:")
            for name, sp, workload in speedups:
                print(f"  {name:28s} {sp:6.2f}x  {workload}")
    return artifact_data


def write_summary(args, results, complete, interrupted=None):
    """Write BENCH_summary.json covering the benches finished so far."""
    artifact_data = collect_artifacts()
    summary = {
        "quick": args.quick,
        "patterns": args.patterns,
        "complete": complete,
        "bit_identity_failures": [
            name for name, data in artifact_data.items()
            if data.get("bit_identical") is False],
        "benches": [{"name": name, "ok": rc == 0, "seconds": round(secs, 2)}
                    for name, rc, secs in results],
        "artifacts": {
            # every top-level scalar is a headline number; nested tables
            # (per-workload breakdowns, decline counters) stay in the
            # per-bench artifact files
            name: {k: v for k, v in data.items()
                   if isinstance(v, (str, int, float, bool))}
            for name, data in artifact_data.items()
        },
    }
    if interrupted is not None:
        summary["interrupted"] = interrupted
    out = REPO_ROOT / "BENCH_summary.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    return out


if __name__ == "__main__":
    sys.exit(main())
