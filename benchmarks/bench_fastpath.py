"""Fast-path speedup — batched event pipeline + L1 filter.

The batched pipeline (EventBatch producers + the engine's tight consume
loop) and the L1 fast-path filter in the memory hierarchy are pure host-side
optimisations: simulated results are bit-identical (the equivalence
table, tests/test_equivalence.py). This bench measures what they buy on
the paper's Table 2 workload — a TPC-D-like sequential scan on the complex
backend, the configuration where per-reference overhead dominates.

Writes ``BENCH_fastpath.json`` at the repo root with wall-clock seconds,
events/second throughput and the speedup factor; asserts the fast path is
at least 3x faster than the one-event-per-reference baseline.

Set ``COMPASS_BENCH_QUICK=1`` to run a smaller scan (useful in CI drivers;
the speedup assertion is relaxed there because fixed setup costs dominate
short runs).
"""

import json
import os
import time
from pathlib import Path

from repro import Engine, complex_backend
from repro.apps.minidb import MiniDb, TpcdDriver, tpcd_catalog
from repro.core.frontend import SimProcess
from repro.harness import fastpath_summary, render_table

QUICK = bool(os.environ.get("COMPASS_BENCH_QUICK"))
#: 4 lineitem pages (16 KiB) — L1-resident, so warm passes stay hits
SCALE = 0.00004
PASSES = 15 if QUICK else 60
MIN_SPEEDUP = 2.0 if QUICK else 3.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"


def _run_once(fastpath):
    """One warm TPC-D Q1 scan; returns (host seconds, engine, stats).

    Per-field predicate evaluation (stride 8 over 64-byte rows) with warm
    re-scan passes over an L1-resident table fragment — the hit-dominated
    steady state where the per-reference round trip dominates host time,
    i.e. the hot loop the fast path targets. (A cold out-of-cache scan is
    bounded by the full miss path, which both configurations share.)
    """
    # identical pid numbering in both runs (selection tie-break input)
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=1, num_nodes=1,
                                 fastpath=fastpath))
    cat = tpcd_catalog(scale=SCALE)
    db = MiniDb(eng, cat, pool_frames=128)
    db.setup()
    drv = TpcdDriver(db, nagents=1, io="read", scan_stride=8,
                     passes=PASSES)
    drv.spawn_q1(eng)
    t0 = time.perf_counter()
    stats = eng.run()
    secs = time.perf_counter() - t0
    assert drv.result is not None
    return secs, eng, stats


def test_fastpath_speedup(benchmark):
    def experiment():
        # interleave on/off samples and keep the best of each so a host
        # hiccup in either arm cannot fake (or hide) the speedup
        rounds = 2 if QUICK else 3
        best = {}
        for _ in range(rounds):
            for fp in (True, False):
                secs, eng, stats = _run_once(fp)
                prev = best.get(fp)
                if prev is None or secs < prev[0]:
                    best[fp] = (secs, eng, stats)
        return best[True], best[False]

    (on_s, on_eng, on_stats), (off_s, off_eng, off_stats) = \
        benchmark.pedantic(experiment, rounds=1, iterations=1)

    # the optimisation must not change the simulation
    assert on_stats.end_cycle == off_stats.end_cycle
    assert on_eng.events_processed == off_eng.events_processed

    speedup = off_s / on_s
    summary = fastpath_summary(on_eng)
    rows = [
        ("fastpath on", f"{on_s:.3f}",
         f"{on_eng.events_processed / on_s:,.0f}"),
        ("fastpath off", f"{off_s:.3f}",
         f"{off_eng.events_processed / off_s:,.0f}"),
    ]
    print(render_table(
        ("configuration", "host seconds", "events/s"),
        rows, title="\nFast-path speedup (TPC-D scan, complex backend):"))
    print(f"  speedup: {speedup:.2f}x   "
          f"L1 fast-hit rate: {summary['fast_hit_rate']:.3f}   "
          f"refs/batch: {summary['refs_per_batch']:.1f}")

    payload = {
        "workload": f"tpcd_q1_scan scale={SCALE}",
        "quick": QUICK,
        "end_cycle": on_stats.end_cycle,
        "events": on_eng.events_processed,
        "seconds_on": on_s,
        "seconds_off": off_s,
        "events_per_sec_on": on_eng.events_processed / on_s,
        "events_per_sec_off": off_eng.events_processed / off_s,
        "speedup": speedup,
        "fastpath": summary,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info.update(speedup=speedup,
                                fast_hit_rate=summary["fast_hit_rate"])
    assert speedup >= MIN_SPEEDUP, \
        f"fast path must be >= {MIN_SPEEDUP}x faster (got {speedup:.2f}x)"
