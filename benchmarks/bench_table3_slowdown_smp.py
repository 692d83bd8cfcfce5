"""Table 3 — Slowdown on a 4-way SMP host (paper §5).

The paper's numbers are only legible as an image, but the text states the
claim to reproduce: "COMPASS runs more than twice as fast on the SMP as on
the uniprocessor for the complex backend (after properly scaling the
execution times to the respective processor frequencies)". The mechanism
(§1): on a uniprocessor host every event costs a frontend↔backend process
context switch; on the SMP the processes sit on different CPUs and events
move through shared memory.

Two reproductions:

1. **Mechanism demonstration** — the real multi-process simulator
   (:class:`ParallelEngine`): frontends as OS processes, bit-identical
   simulated results, with the pipeline overlap measured directly. On a
   multi-core measurement host this shows the wall-clock gap; this
   container exposes a single core, so the measured gap is reported but
   not asserted.
2. **Host-cost model** — the Table 3 ratios computed from per-event costs
   measured on this host (frontend work, backend work, context-switch
   price), following the paper's own explanation of where the speedup
   comes from. The frontend cost is the raw run of the same translated
   blocks the simulated frontends execute, so the backend cost is what the
   inline run spends beyond them.
"""

import os

from repro import Engine, complex_backend
from repro.harness import measure_slowdown, render_table
from repro.harness.hostmodel import (HostCosts, measure_context_switch,
                                     predict)
from repro.host import ParallelEngine, WorkerSpec
from repro.isa import Interpreter, Machine, assemble, translate
from repro.isa.memory import DataMemory

#: the TPC-D-style scan kernel used as the Table 3 workload (ISA form so
#: the frontends can run as real processes)
SCAN = """
    li r1, 0
    li r2, 100000
    li r10, 0x100000
    li r6, 0
loop:
    loadx r3, r10, r1, 4
    mul r4, r3, r3
    add r4, r4, r3
    mul r5, r4, r4
    add r6, r6, r5
    xor r6, r6, r4
    addi r1, r1, 64
    blt r1, r2, loop
    li r3, 0
    halt
"""

NFRONTENDS = 4


def _run_parallel(host_cpus):
    import time
    eng = ParallelEngine(complex_backend(num_cpus=NFRONTENDS),
                         host_cpus=host_cpus)
    with eng:
        for i in range(NFRONTENDS):
            eng.spawn_worker(WorkerSpec(f"w{i}", SCAN))
        t0 = time.perf_counter()
        stats = eng.run()
        wall = time.perf_counter() - t0
    return stats.end_cycle, wall, eng.events_processed


def _interpreter(name):
    dm = DataMemory()
    dm.map_segment(0x100000, 1 << 22)
    return Interpreter(assemble(SCAN, name), Machine(dm))


def _raw_interpreter():
    """A frontend for the raw baseline, assembled and translated up front
    so a timed ``run_raw`` call measures the run alone."""
    interp = _interpreter("raw")
    translate(interp.program)
    return interp


def _slowdown():
    """The ISA slowdown row: one frontend against the raw baseline (best of
    three fresh raw runs)."""
    def sim():
        eng = Engine(complex_backend(num_cpus=1))
        eng.spawn_interpreter("w0", _interpreter("w0"))
        return eng.run()

    raws = [_raw_interpreter() for _ in range(3)]
    return measure_slowdown("Complex Backend", lambda: raws.pop().run_raw(),
                            sim, repeat_raw=len(raws))


def _component_costs(raw_seconds):
    """Per-event frontend and backend host costs. The frontend's is the raw
    baseline's time per event site."""
    import time
    t_fe = raw_seconds / (100000 // 64 + 1)
    # backend: inline run minus the frontend share
    eng = Engine(complex_backend(num_cpus=NFRONTENDS))
    for i in range(NFRONTENDS):
        eng.spawn_interpreter(f"w{i}", _interpreter(f"w{i}"))
    t0 = time.perf_counter()
    eng.run()
    inline_wall = time.perf_counter() - t0
    t_be = max(1e-7, inline_wall / eng.events_processed - t_fe)
    return t_fe, t_be


def test_table3_slowdown_smp(benchmark):
    def experiment():
        c1, w1, _e = _run_parallel(1)
        cn, wn, events = _run_parallel(None)   # all available CPUs
        assert c1 == cn, "host parallelism must not change simulated results"
        slow = _slowdown()
        t_fe, t_be = _component_costs(slow.raw_seconds)
        t_cs = measure_context_switch(500)
        return (w1, wn, events, slow,
                HostCosts(t_fe=t_fe, t_be=t_be, t_cs=t_cs))

    w1, wn, events, slow, costs = benchmark.pedantic(experiment, rounds=1,
                                                     iterations=1)
    ncores = len(os.sched_getaffinity(0))
    raw_s = events * costs.t_fe                  # raw ≈ pure frontend work
    pred = predict("Complex Backend", events, raw_s, costs, host_cpus=4,
                   frontends=NFRONTENDS)

    print("\nTable 3 — Slowdown on 4-way SMP (reproduced):")
    print(f"  measurement host has {ncores} core(s)")
    print(render_table(
        ("", "uni host", "4-way SMP host", "SMP speedup"),
        [("measured (this host)", f"{w1:.2f}s", f"{wn:.2f}s",
          f"{w1 / wn:.2f}x" if wn else "-"),
         ("host-cost model", f"{pred.uni_seconds:.2f}s",
          f"{pred.smp_seconds:.2f}s", f"{pred.smp_speedup:.2f}x")]))
    print(f"  modeled slowdowns: uni {pred.uni_slowdown:.0f}x, "
          f"SMP {pred.smp_slowdown:.0f}x")
    print(f"  per-event costs: frontend {costs.t_fe * 1e6:.1f}µs, "
          f"backend {costs.t_be * 1e6:.1f}µs, "
          f"context switch {costs.t_cs * 1e6:.1f}µs")
    print(render_table(
        ("", "raw", "simulated", "slowdown"), [slow.row()],
        title="\n  Slowdown vs the raw baseline (1 frontend):"))
    print("  paper claim: 'more than twice as fast on the SMP ... for the "
          "complex backend'")
    benchmark.extra_info.update(
        measured_speedup=(w1 / wn if wn else 0.0),
        modeled_speedup=pred.smp_speedup, host_cores=ncores)

    # shape assertion: the modeled 4-way speedup reproduces the >2x claim
    assert pred.smp_speedup > 2.0, (
        f"modeled SMP speedup {pred.smp_speedup:.2f}x — paper claims >2x")
    # and the parallel engine itself must be sound
    if ncores >= 4:
        assert w1 / wn > 1.2, "a multi-core host should show a real gap"
