"""Checkpoint-based sampled simulation: speed vs accuracy.

``SimConfig.sampling`` alternates short detailed windows with long
functional fast-forward windows (per-reference cache warming through the
memory system's ff arm, calibrated constant latency, no protocol timing).
Unlike the vec path this is explicitly *approximate* — the point of this
bench is to measure both sides of the trade: host seconds against full
detail, and the error sampling introduces in end-of-run cycle count and
L1 miss rate. Two rows, each best of its rounds with sampled and full runs
interleaved so a host hiccup in either arm cannot fake (or hide) a gain:

* **stream** — a multi-pass streaming scan over a 4 MiB buffer (larger
  than the 512 KiB L2, alternating read and write passes, one CPU, two
  memory nodes): a steady-state miss stream where the detailed model pays
  the full directory walk per line and sampling can honestly amortise it.
  Gates: speedup >= 1.6x (>= 1.4x under ``COMPASS_BENCH_QUICK=1``, two
  passes instead of six), cycle-count relative error <= 2 % and L1
  miss-rate absolute error <= 2 percentage points. Detail/ff split
  160 000 / 19 840 000 cycles (2 000 / 248 000 events at the row's 80
  cycles an event).
* **dss** — the registry's TPC-D Q1 at the end-to-end benchmark's size
  (``scale=0.01, nagents=2, pool_frames=64``), detail/ff split
  112 000 / 1 009 000 cycles (2 000 / 18 000 events at 56 cycles an
  event). Its batches are cut by a rival CPU after a few references, so
  this row checks that a sampled run is never much slower than the full
  run it stands in for. Gate: sampled host seconds <= 1.25x unsampled
  (both modes; the errors are reported, not gated).

Execution-driven simulation bounds what sampling can buy: the
application's functional execution and event generation run at full
fidelity in *every* window — see EXPERIMENTS.md "Sampled simulation error
bounds". Writes ``BENCH_sampling.json`` at the repo root.
"""

import json
import os
import time
from pathlib import Path

from repro import Engine, SamplingConfig, complex_backend
from repro.core.frontend import SimProcess
from repro.harness import render_table, sampling_summary
from repro.service.workloads import WORKLOADS

QUICK = bool(os.environ.get("COMPASS_BENCH_QUICK"))
BASE = 0x0001_0000
NBYTES = 4 * 1024 * 1024
STRIDE = 32
PASSES = 2 if QUICK else 6
ROUNDS = 2 if QUICK else 3
MIN_STREAM_SPEEDUP = 1.4 if QUICK else 1.6
MAX_DSS_RATIO = 1.25
#: documented error bounds (EXPERIMENTS.md): cycle count relative, L1
#: miss rate absolute
MAX_CYCLE_ERR = 0.02
MAX_MISS_ERR = 0.02
STREAM_SAMPLING = SamplingConfig(detail_cycles=160_000, ff_cycles=19_840_000)
DSS_SAMPLING = SamplingConfig(detail_cycles=112_000, ff_cycles=1_009_000)
DSS_KW = dict(scale=0.01, nagents=2, pool_frames=64)
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sampling.json"


def _stream_app(proc):
    for p in range(PASSES):
        yield from proc.touch(BASE, NBYTES, write=(p % 2 == 1),
                              stride=STRIDE)
    return 0


def _build_stream(sampling):
    eng = Engine(complex_backend(num_cpus=1, num_nodes=2,
                                 coherence="directory", fastpath=True,
                                 sampling=sampling))
    eng.spawn("stream", _stream_app)
    return eng


def _build_dss(sampling):
    return WORKLOADS["dss"](
        lambda **kw: complex_backend(sampling=sampling, **kw), **DSS_KW)


def _l1_miss_rate(eng):
    cs = eng.memsys.cache_summary()
    hits = sum(v[0] for v in cs["l1"].values())
    misses = sum(v[1] for v in cs["l1"].values())
    return misses / max(1, hits + misses)


def _measure(build, sampling):
    """Best host seconds of ``ROUNDS`` interleaved sampled/full runs
    (set-up excluded), and the error of the sampled run against full."""
    best = {}
    for _ in range(ROUNDS):
        for sampled in (True, False):
            SimProcess._next_pid[0] = 1
            eng = build(sampling if sampled else None)
            t0 = time.perf_counter()
            stats = eng.run()
            secs = time.perf_counter() - t0
            if sampled not in best or secs < best[sampled][0]:
                best[sampled] = (secs, eng, stats)
    (s_s, s_eng, s_stats), (f_s, f_eng, f_stats) = best[True], best[False]
    summary = sampling_summary(s_eng)
    return {
        "sampling": {"detail_cycles": sampling.detail_cycles,
                     "ff_cycles": sampling.ff_cycles},
        "end_cycle_full": f_stats.end_cycle,
        "end_cycle_sampled": s_stats.end_cycle,
        "cycle_rel_err": (abs(s_stats.end_cycle - f_stats.end_cycle)
                          / f_stats.end_cycle),
        "l1_miss_rate_abs_err": abs(_l1_miss_rate(s_eng)
                                    - _l1_miss_rate(f_eng)),
        "seconds_sampled": s_s,
        "seconds_full": f_s,
        "speedup": f_s / s_s,
        "windows": {"detail": summary["detail_windows"],
                    "ff": summary["ff_windows"]},
        "ff_refs": summary["ff_refs"],
    }


def test_sampling_speed_and_error(benchmark):
    def experiment():
        return {"stream": _measure(_build_stream, STREAM_SAMPLING),
                "dss": _measure(_build_dss, DSS_SAMPLING)}

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    stream, dss = rows["stream"], rows["dss"]
    print(render_table(
        ("row", "full s", "sampled s", "speedup", "cycle err",
         "L1 miss err", "ff refs"),
        [(name, f"{r['seconds_full']:.3f}", f"{r['seconds_sampled']:.3f}",
          f"{r['speedup']:.2f}x", f"{r['cycle_rel_err']:.4f}",
          f"{r['l1_miss_rate_abs_err']:.4f}", f"{r['ff_refs']:,}")
         for name, r in rows.items()],
        title="\nSampled simulation vs full detail:"))

    payload = {
        "workload": (f"stream_scan nbytes={NBYTES} passes={PASSES}; "
                     f"dss " + " ".join(f"{k}={v}"
                                        for k, v in DSS_KW.items())),
        "quick": QUICK,
        # headline scalars (BENCH_summary.json keeps these)
        "speedup": stream["speedup"],
        "end_cycle_sampled": stream["end_cycle_sampled"],
        "cycle_rel_err": stream["cycle_rel_err"],
        "l1_miss_rate_abs_err": stream["l1_miss_rate_abs_err"],
        "dss_sampled_over_full": 1 / dss["speedup"],
        "dss_cycle_rel_err": dss["cycle_rel_err"],
        "dss_l1_miss_rate_abs_err": dss["l1_miss_rate_abs_err"],
        "rows": rows,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info.update(
        speedup=stream["speedup"], cycle_rel_err=stream["cycle_rel_err"],
        dss_sampled_over_full=payload["dss_sampled_over_full"])
    # accuracy first: the speedup is meaningless if the estimate is off
    assert stream["cycle_rel_err"] <= MAX_CYCLE_ERR, \
        f"stream cycle error {stream['cycle_rel_err']:.4f} above bound"
    assert stream["l1_miss_rate_abs_err"] <= MAX_MISS_ERR, \
        f"stream miss-rate error {stream['l1_miss_rate_abs_err']:.4f} " \
        f"above bound"
    assert stream["speedup"] >= MIN_STREAM_SPEEDUP, \
        f"stream: sampling must be >= {MIN_STREAM_SPEEDUP}x faster " \
        f"(got {stream['speedup']:.2f}x)"
    assert dss["seconds_sampled"] <= MAX_DSS_RATIO * dss["seconds_full"], \
        f"dss: sampled {dss['seconds_sampled']:.3f}s > {MAX_DSS_RATIO}x " \
        f"full {dss['seconds_full']:.3f}s"
