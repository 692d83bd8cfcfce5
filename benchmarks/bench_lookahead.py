"""Lookahead-window speedup — conservative windows on the backend hot loop.

Lookahead windows let the batched hot loop drain invisible references past
the strict rival horizon — for an inline frontend's batches and for the
ones a ``ParallelEngine`` worker ships alike, bit-identical to the strict
schedule (the equivalence table, tests/test_equivalence.py). They are asked
for wherever batches exist, so the comparison is the default against the
one host switch off (``fastpath=False``: per-reference events, the strict
schedule). This bench measures that on the configuration the windows
target: a 4-CPU run where every CPU streams over a *private*, L1-resident
buffer — all references qualify as invisible, so the strict schedule's
tiny alternating turns are pure scheduling overhead.

Writes ``BENCH_lookahead.json`` at the repo root with wall-clock seconds,
events/second, the default/strict speedup, one row per ``ParallelEngine``
shape (solo / symmetric / staggered workers on the hot loop, four all-miss
scans) and one per spaced private stream (MESI at ``work_per_line`` 20,
50, 200, 1000 and DSM at 200, beside ``fastpath=False``); asserts the
default is at least 2x faster than the strict schedule (1.3x under
``COMPASS_BENCH_QUICK=1``, where fixed setup costs dominate).

Also runs standalone for CI::

    python benchmarks/bench_lookahead.py --smoke

Smoke mode does a single small round, hard-fails if the default and
``fastpath=False`` are not bit-identical, if the windows qualified from the
cached batch classification differ from those the scalar walk alone
qualifies (the bulk path made to decline), if any ``ParallelEngine`` shape misses the inline
engine's fingerprint, if the all-miss shape opened a window on either
engine (a frontend whose next reference is about to miss asks for none),
if a hot-loop shape with a rival extended no reference, or if a spaced row
misses its ``fastpath=False`` fingerprint or opens different windows with
the classification and with the walk, and does not overwrite the JSON
artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Engine, complex_backend                     # noqa: E402
from repro.core.frontend import SimProcess                    # noqa: E402
from repro.harness import render_table                        # noqa: E402
# Table 3's scan: every reference a miss, so every batch is cut after one
from bench_table3_slowdown_smp import SCAN                    # noqa: E402

QUICK = bool(os.environ.get("COMPASS_BENCH_QUICK"))
NCPUS = 4
NBYTES = 8192           # per-CPU buffer: L1-resident, so warm passes stay hits
PASSES = 40 if QUICK else 150
MIN_SPEEDUP = 1.3 if QUICK else 2.0
OUT_PATH = REPO_ROOT / "BENCH_lookahead.json"

#: worker program of the parallel shapes: re-scans a private 8 KiB buffer
HOT_PROG = """
    li r7, 0
    li r8, {passes}
    li r10, 0x100000
pass:
    li r1, 0
    li r2, 8192
loop:
    loadx r3, r10, r1, 4
    storex r3, r10, r1, 4
    addi r1, r1, 32
    blt r1, r2, loop
    addi r7, r7, 1
    blt r7, r8, pass
    li r3, 0
    halt
"""

def _walk_only(eng):
    """Make ``eng``'s bulk path decline every run and every rival's
    frontier: windows are then qualified by the scalar walk alone."""
    eng.memsys._vec.run = eng.memsys._vec.frontier = lambda *a: None
    return eng


def _run_once(fastpath, passes=PASSES, walk=False):
    """One 4-CPU private-heavy run (``walk``: qualified by the scalar walk
    alone); returns (host seconds, engine, stats)."""
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=NCPUS, coherence="mesi",
                                 num_nodes=1, fastpath=fastpath))
    if walk:
        _walk_only(eng)

    def make_app(base):
        def app(p):
            yield from p.touch(base, NBYTES, write=True, stride=32)
            for _ in range(passes):
                yield from p.touch(base, NBYTES, write=True, stride=32)
            yield from p.exit(0)
        return app

    for c in range(NCPUS):
        eng.spawn(f"w{c}", make_app(0x1_0000 + c * 0x10_000))
    t0 = time.perf_counter()
    stats = eng.run()
    return time.perf_counter() - t0, eng, stats


def _fingerprint(eng, stats):
    return (stats.end_cycle, eng.events_processed,
            tuple(sorted(eng.memsys.cache_summary()["l1"].items())),
            dict(eng.memsys.cache_summary()["protocol"]))


def _measure(rounds, passes=PASSES):
    """Interleaved best-of-N for each arm so a host hiccup in either arm
    cannot fake (or hide) the speedup. Returns (best_default,
    best_strict)."""
    best = {}
    for _ in range(rounds):
        for fastpath in (True, False):
            secs, eng, stats = _run_once(fastpath, passes)
            prev = best.get(fastpath)
            if prev is None or secs < prev[0]:
                best[fastpath] = (secs, eng, stats)
    return best[True], best[False]


def _run_isa(progs, parallel):
    """``progs`` as ParallelEngine workers or inline ISA frontends;
    returns (host seconds of ``run``, fingerprint, ``batch_stats``)."""
    from repro.host import ParallelEngine, WorkerSpec
    from repro.isa import Interpreter, Machine, assemble
    from repro.isa.memory import DataMemory
    SimProcess._next_pid[0] = 1
    cfg = complex_backend(num_cpus=len(progs))
    eng = ParallelEngine(cfg) if parallel else Engine(cfg)
    try:
        for i, prog in enumerate(progs):
            if parallel:
                eng.spawn_worker(WorkerSpec(f"w{i}", prog))
            else:
                dm = DataMemory()
                dm.map_segment(0x100000, 1 << 22)
                eng.spawn_interpreter(
                    f"w{i}", Interpreter(assemble(prog, f"w{i}"), Machine(dm)))
        t0 = time.perf_counter()
        stats = eng.run()
        secs = time.perf_counter() - t0
    finally:
        if parallel:
            eng.shutdown()
    return secs, _fingerprint(eng, stats), eng.batch_stats


#: compute-spaced private streams: (coherence, work_per_line) per row
SPACED = (("mesi", 20), ("mesi", 50), ("mesi", 200), ("mesi", 1000),
          ("dsm", 200))


def _run_spaced(coherence, work, passes, walk=False, **knobs):
    """4 CPUs, each re-touching a private 8 KiB buffer with ``work``
    cycles of compute per line, started 1 000 cycles apart: rivals stay
    invisible for long stretches, so a window reaches as far as they are
    qualified (``walk``: by the scalar walk alone). Returns (host seconds
    of ``run``, fingerprint, ``batch_stats``)."""
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=NCPUS, coherence=coherence,
                                 **knobs))
    if walk:
        _walk_only(eng)

    def make_app(c):
        def app(p):
            p.compute(1_000 * c)
            for _ in range(passes):
                yield from p.touch(0x1_0000 + c * 0x10_000, NBYTES,
                                   write=True, stride=32, work_per_line=work)
            yield from p.exit(0)
        return app

    for c in range(NCPUS):
        eng.spawn(f"w{c}", make_app(c))
    t0 = time.perf_counter()
    stats = eng.run()
    return time.perf_counter() - t0, _fingerprint(eng, stats), eng.batch_stats


def _spaced_rows(passes, rounds):
    """One row per SPACED shape: median host seconds of the default (each
    run checked against the strict run's fingerprint, and its windows
    against the ones the scalar walk alone grants) beside
    ``fastpath=False``."""
    rows = []
    for coherence, work in SPACED:
        strict_s, strict_fp, _ = _run_spaced(coherence, work, passes,
                                             fastpath=False)
        _, walk_fp, walk_bs = _run_spaced(coherence, work, passes, walk=True)
        row = {"shape": f"{coherence} work_per_line={work}",
               "seconds_strict": strict_s}
        assert walk_fp == strict_fp, f"{row['shape']} walk left the strict run"
        times = []
        for _ in range(rounds):
            secs, fp, bs = _run_spaced(coherence, work, passes)
            assert fp == strict_fp, f"{row['shape']} left the strict run"
            assert bs == walk_bs, \
                (f"{row['shape']}: the classification changed the "
                 f"qualified windows:\n  classified: {bs}\n  walk      : "
                 f"{walk_bs}")
            times.append(secs)
        row.update(seconds_default=sorted(times)[len(times) // 2],
                   la_windows=bs["la_windows"], la_refs=bs["la_refs"])
        rows.append(row)
    return rows


def _parallel_shapes(passes):
    """ParallelEngine throughput per shape of worker set, each checked
    against the inline engine's fingerprint of the same programs: the
    shapes are host-side only, the simulated result must not move."""
    hot, short = (HOT_PROG.format(passes=passes),
                  HOT_PROG.format(passes=max(1, passes // 4)))
    shapes = {"solo": [hot], "2 symmetric": [hot] * 2,
              "2 staggered": [hot, short], "4 symmetric": [hot] * 4,
              "4 all-miss scans": [SCAN] * 4}
    rows = []
    for name, progs in shapes.items():
        secs, fp, bs = _run_isa(progs, parallel=True)
        _, inline_fp, inline_bs = _run_isa(progs, parallel=False)
        assert fp == inline_fp, \
            f"ParallelEngine shape {name!r} left the inline fingerprint"
        for engine, stats in (("ParallelEngine", bs), ("Engine", inline_bs)):
            if progs[0] is SCAN:
                assert stats["la_windows"] == 0, \
                    f"{engine}, {name}: {stats['la_windows']} wasted windows"
            elif len(progs) > 1:    # solo has no rival, hence no horizon
                assert stats["la_refs"] > 0, \
                    f"{engine}, {name}: no reference extended"
        rows.append({"shape": name, "seconds": secs, "events": fp[1],
                     "events_per_sec": fp[1] / secs, "end_cycle": fp[0],
                     "la_windows": bs["la_windows"],
                     "la_refs": bs["la_refs"]})
    return rows


def _report(on, off, shapes=None, spaced=None, write=True):
    (on_s, on_eng, on_stats), (off_s, off_eng, off_stats) = on, off
    fp_on, fp_off = _fingerprint(on_eng, on_stats), \
        _fingerprint(off_eng, off_stats)
    assert fp_on == fp_off, \
        (f"the host switch changed the simulation:\n  default: {fp_on}\n"
         f"  strict : {fp_off}")

    speedup = off_s / on_s
    bs = on_eng.batch_stats
    rows = [
        ("default", f"{on_s:.3f}",
         f"{on_eng.events_processed / on_s:,.0f}"),
        ("fastpath off", f"{off_s:.3f}",
         f"{off_eng.events_processed / off_s:,.0f}"),
    ]
    print(render_table(
        ("configuration", "host seconds", "events/s"),
        rows, title="\nLookahead-window speedup (4-CPU private-heavy):"))
    print(f"  speedup: {speedup:.2f}x   windows: {bs['la_windows']}   "
          f"extended refs: {bs['la_refs']}   batches: {bs['batches']}")
    if shapes:
        print(render_table(
            ("shape", "host seconds", "events/s", "end cycle"),
            [(r["shape"], f"{r['seconds']:.3f}",
              f"{r['events_per_sec']:,.0f}", str(r["end_cycle"]))
             for r in shapes],
            title="\nParallelEngine shapes (each == the inline engine):"))
    if spaced:
        print(render_table(
            ("shape", "default s", "fastpath off s", "windows"),
            [(r["shape"], f"{r['seconds_default']:.3f}",
              f"{r['seconds_strict']:.3f}", str(r["la_windows"]))
             for r in spaced],
            title="\nSpaced private streams (each == fastpath off):"))

    payload = {
        "workload": f"private_heavy {NCPUS}cpu {NBYTES}B x{PASSES}",
        "quick": QUICK,
        "end_cycle": on_stats.end_cycle,
        "events": on_eng.events_processed,
        "seconds_default": on_s,
        "seconds_strict": off_s,
        "events_per_sec_default": on_eng.events_processed / on_s,
        "events_per_sec_strict": off_eng.events_processed / off_s,
        "speedup": speedup,
        "la_windows": bs["la_windows"],
        "la_refs": bs["la_refs"],
        "parallel_shapes": shapes or [],
        "spaced_rows": spaced or [],
    }
    if write:
        OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return speedup, payload


def test_lookahead_speedup(benchmark):
    on, off = benchmark.pedantic(
        lambda: _measure(2 if QUICK else 3), rounds=1, iterations=1)
    shapes = _parallel_shapes(passes=10 if QUICK else 40)
    spaced = _spaced_rows(passes=10 if QUICK else 60, rounds=1 if QUICK else 3)
    speedup, payload = _report(on, off, shapes, spaced)
    benchmark.extra_info.update(speedup=speedup,
                                la_refs=payload["la_refs"])
    assert speedup >= MIN_SPEEDUP, \
        f"the default must be >= {MIN_SPEEDUP}x faster (got {speedup:.2f}x)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="single small round: verify bit-identity, report "
                         "the speedup, skip the JSON artifact")
    args = ap.parse_args(argv)
    if args.smoke:
        on, off = _measure(rounds=1, passes=20)
        speedup, _ = _report(on, off, _parallel_shapes(passes=10),
                             _spaced_rows(passes=10, rounds=1), write=False)
        # the two qualifiers of a window — the cached classification of
        # each rival batch, the scalar walk — must grant the same ones
        _, walk_eng, walk_stats = _run_once(True, passes=20, walk=True)
        _, on_eng, on_stats = on
        assert (_fingerprint(walk_eng, walk_stats), walk_eng.batch_stats) \
            == (_fingerprint(on_eng, on_stats), on_eng.batch_stats), \
            ("the classification changed the qualified windows:\n"
             f"  classified: {on_eng.batch_stats}\n"
             f"  walk      : {walk_eng.batch_stats}")
        # smoke gates correctness (the identity asserts), not perf — CI
        # machines are too noisy for a hard speedup floor on a tiny run
        print(f"smoke ok: bit-identical, same windows from either "
              f"qualifier, every ParallelEngine shape == inline, no window "
              f"on all-miss, every spaced row == fastpath off with the same "
              f"windows either way, {speedup:.2f}x")
        return 0
    on, off = _measure(rounds=3)
    speedup, _ = _report(on, off, _parallel_shapes(passes=40),
                         _spaced_rows(passes=60, rounds=3))
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x < {MIN_SPEEDUP}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
