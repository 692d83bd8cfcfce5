"""Basic-block translation cache speedup — compiled closures vs interpreter.

The translation layer (``src/repro/isa/translate.py``) compiles each basic
block to a specialized closure: opcode dispatch, operand decode, timing
accumulation and memory-reference collection fused into straight-line code.
Results are bit-identical (the equivalence table,
tests/test_equivalence.py); this bench measures what that buys on a
compute-heavy block mix — the frontend-bound regime where the
interpreter's per-instruction ``elif`` chain dominates.

Two measurements, both through the ``Interpreter`` API (an engine's ISA
frontends always translate, so there is no engine on/off row):

* **raw** instructions/sec — the Table 2 raw-baseline loop, interpreted vs
  translated (the headline number, asserted >= 2.5x);
* **instrumented** instructions/sec — the event-generating coroutine driven
  by a trivial reply loop (batched mode), isolating frontend cost from the
  backend.

Writes ``BENCH_translate.json`` at the repo root with throughputs, speedups
and translation-cache hit statistics. ``COMPASS_BENCH_QUICK=1`` shrinks the
workload and relaxes the assertion (fixed setup costs dominate short runs).
"""

import json
import os
import time
from pathlib import Path

from repro.harness import render_table
from repro.isa import Interpreter, Machine, assemble
from repro.isa.memory import DataMemory
from repro.isa.translate import cache_stats, clear_code_cache

QUICK = bool(os.environ.get("COMPASS_BENCH_QUICK"))
ITERS = 20_000 if QUICK else 120_000
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
        return _best(_time_raw), _best(_time_instrumented)

    (raw_on, raw_off), (in_on, in_off) = \
        benchmark.pedantic(experiment, rounds=1, iterations=1)

    raw_ips_on = raw_on[1] / raw_on[0]
    raw_ips_off = raw_off[1] / raw_off[0]
    in_ips_on = in_on[1] / in_on[0]
    in_ips_off = in_off[1] / in_off[0]
    speedup_raw = raw_off[0] / raw_on[0]
    speedup_instr = in_off[0] / in_on[0]
    tstats = cache_stats()
    compiles = tstats["code_hits"] + tstats["code_misses"]

    rows = [
        ("raw translated", f"{raw_on[0]:.3f}", f"{raw_ips_on:,.0f}"),
        ("raw interpreted", f"{raw_off[0]:.3f}", f"{raw_ips_off:,.0f}"),
        ("instrumented translated", f"{in_on[0]:.3f}", f"{in_ips_on:,.0f}"),
        ("instrumented interpreted", f"{in_off[0]:.3f}", f"{in_ips_off:,.0f}"),
    ]
    print(render_table(
        ("configuration", "host seconds", "instr/s"),
        rows, title="\nTranslation-cache speedup (compute-heavy mix):"))
    print(f"  speedup: raw {speedup_raw:.2f}x  instrumented "
          f"{speedup_instr:.2f}x")
    print(f"  cache: {tstats['programs']} programs / {tstats['blocks']} "
          f"blocks translated, code hits {tstats['code_hits']} / misses "
          f"{tstats['code_misses']} (hit rate "
          f"{tstats['code_hits'] / max(compiles, 1):.3f})")

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
        "speedup": speedup_raw,
        "speedup_instrumented": speedup_instr,
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
