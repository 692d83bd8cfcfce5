"""Basic-block translation cache speedup — compiled closures vs interpreter.

The translation layer (``src/repro/isa/translate.py``) compiles each basic
block to a specialized closure: opcode dispatch, operand decode, timing
accumulation and memory-reference collection fused into straight-line code.
Results are bit-identical (the equivalence table,
tests/test_equivalence.py); this bench measures what that buys on a
compute-heavy block mix — the frontend-bound regime where the
interpreter's per-instruction ``elif`` chain dominates.

Three measurements:

* **raw** instructions/sec — the Table 2 raw-baseline loop, interpreted vs
  translated (the headline number, asserted >= 2.5x);
* **instrumented** instructions/sec — the event-generating coroutine driven
  by a trivial reply loop (batched mode), isolating frontend cost from the
  backend;
* **engine** wall-clock of a full simulation with ISA frontends on the
  complex backend (reported; backend work bounds this one).

Writes ``BENCH_translate.json`` at the repo root with throughputs, speedups
and translation-cache hit statistics. ``COMPASS_BENCH_QUICK=1`` shrinks the
workload and relaxes the assertion (fixed setup costs dominate short runs).
"""

import json
import os
import time
from pathlib import Path

from repro import Engine, complex_backend
from repro.core.frontend import SimProcess
from repro.harness import render_table, translate_summary
from repro.isa import Interpreter, Machine, assemble
from repro.isa.memory import DataMemory
from repro.isa.translate import cache_stats, clear_code_cache

QUICK = bool(os.environ.get("COMPASS_BENCH_QUICK"))
ITERS = 20_000 if QUICK else 120_000
ENGINE_ITERS = 4_000 if QUICK else 20_000
MIN_SPEEDUP = 2.0 if QUICK else 2.5
ROUNDS = 2 if QUICK else 3
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_translate.json"

#: compute-heavy block mix: ~10:2 ALU/branch-to-memory ratio across several
#: blocks and a call — the instruction profile where dispatch dominates
MIX = """
entry:
    li r10, 0x100000
    li r1, 0
    li r2, {iters}
    li r5, 1
loop:
    add r5, r5, r1
    xor r6, r5, r2
    and r7, r6, r5
    sub r7, r7, r1
    muli r8, r1, 3
    cmp r9, r7, r8
    add r5, r5, r9
    mod r6, r5, r2
    bl mixin
    storex r6, r10, r12, 4
    load r7, r10, 64, 4
    addi r1, r1, 1
    blt r1, r2, loop
    mov r3, r5
    halt
mixin:
    andi r12, r6, 1020
    or r13, r7, r5
    ret
"""


def _program(iters):
    return assemble(MIX.format(iters=iters), "translate_mix")


def _machine():
    dm = DataMemory()
    dm.map_segment(0x100000, 4096)
    return Machine(dm)


def _time_raw(translate):
    prog = _program(ITERS)
    m = _machine()
    t0 = time.perf_counter()
    Interpreter(prog, m).run_raw(translate=translate)
    return time.perf_counter() - t0, m.instret


def _time_instrumented(translate):
    prog = _program(ITERS)
    m = _machine()
    gen = Interpreter(prog, m).run(batched=True, translate=translate)
    t0 = time.perf_counter()
    try:
        evt = gen.send(None)
        while True:
            evt = gen.send(0)
    except StopIteration:
        pass
    return time.perf_counter() - t0, m.instret


def _time_engine(translate):
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=2, translate=translate))
    for i in range(2):
        dm = DataMemory()
        dm.map_segment(0x100000, 4096)
        eng.spawn_interpreter(
            f"w{i}",
            Interpreter(_program(ENGINE_ITERS), Machine(dm)))
    t0 = time.perf_counter()
    stats = eng.run()
    return time.perf_counter() - t0, stats.end_cycle, eng


def _best(fn):
    """Interleaved best-of so a host hiccup in either arm cannot fake (or
    hide) the speedup."""
    best = {}
    for _ in range(ROUNDS):
        for tr in (True, False):
            sample = fn(tr)
            prev = best.get(tr)
            if prev is None or sample[0] < prev[0]:
                best[tr] = sample
    return best[True], best[False]


def test_translate_speedup(benchmark):
    clear_code_cache()

    def experiment():
        raw = _best(_time_raw)
        instr = _best(_time_instrumented)
        eng = _best(_time_engine)
        return raw, instr, eng

    (raw_on, raw_off), (in_on, in_off), (eng_on, eng_off) = \
        benchmark.pedantic(experiment, rounds=1, iterations=1)

    # the optimisation must not change the simulation
    assert eng_on[1] == eng_off[1], "end_cycle diverged"

    raw_ips_on = raw_on[1] / raw_on[0]
    raw_ips_off = raw_off[1] / raw_off[0]
    in_ips_on = in_on[1] / in_on[0]
    in_ips_off = in_off[1] / in_off[0]
    speedup_raw = raw_off[0] / raw_on[0]
    speedup_instr = in_off[0] / in_on[0]
    speedup_engine = eng_off[0] / eng_on[0]
    tstats = cache_stats()
    summary = translate_summary(eng_on[2])

    rows = [
        ("raw translated", f"{raw_on[0]:.3f}", f"{raw_ips_on:,.0f}"),
        ("raw interpreted", f"{raw_off[0]:.3f}", f"{raw_ips_off:,.0f}"),
        ("instrumented translated", f"{in_on[0]:.3f}", f"{in_ips_on:,.0f}"),
        ("instrumented interpreted", f"{in_off[0]:.3f}", f"{in_ips_off:,.0f}"),
        ("engine translated", f"{eng_on[0]:.3f}", "-"),
        ("engine interpreted", f"{eng_off[0]:.3f}", "-"),
    ]
    print(render_table(
        ("configuration", "host seconds", "instr/s"),
        rows, title="\nTranslation-cache speedup (compute-heavy mix):"))
    print(f"  speedup: raw {speedup_raw:.2f}x  instrumented "
          f"{speedup_instr:.2f}x  engine {speedup_engine:.2f}x")
    print(f"  cache: {tstats['programs']} programs / {tstats['blocks']} "
          f"blocks translated, code hits {tstats['code_hits']} / misses "
          f"{tstats['code_misses']} (hit rate "
          f"{summary['code_hit_rate']:.3f})")

    payload = {
        "workload": f"compute-heavy mix, {raw_on[1]:,} instructions",
        "quick": QUICK,
        "instructions": raw_on[1],
        "raw_seconds_translated": raw_on[0],
        "raw_seconds_interpreted": raw_off[0],
        "raw_instr_per_sec_translated": raw_ips_on,
        "raw_instr_per_sec_interpreted": raw_ips_off,
        "instr_seconds_translated": in_on[0],
        "instr_seconds_interpreted": in_off[0],
        "instr_per_sec_translated": in_ips_on,
        "instr_per_sec_interpreted": in_ips_off,
        "engine_seconds_translated": eng_on[0],
        "engine_seconds_interpreted": eng_off[0],
        "speedup": speedup_raw,
        "speedup_instrumented": speedup_instr,
        "speedup_engine": speedup_engine,
        "translate_cache": tstats,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    benchmark.extra_info.update(speedup=speedup_raw,
                                speedup_instrumented=speedup_instr)
    assert speedup_raw >= MIN_SPEEDUP, \
        f"translated raw loop must be >= {MIN_SPEEDUP}x faster " \
        f"(got {speedup_raw:.2f}x)"
    assert speedup_instr >= MIN_SPEEDUP, \
        f"translated instrumented loop must be >= {MIN_SPEEDUP}x faster " \
        f"(got {speedup_instr:.2f}x)"
