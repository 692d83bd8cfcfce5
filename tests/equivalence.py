"""The equivalence oracle: both host-switch arms land one result.

The conservative interleaving rule decides every result; ``fastpath`` and
``ParallelEngine`` may change only speed, and so may the layers that select
themselves (windows and the bulk all-hit prefix where batches exist, block
translation in ISA frontends). This module states that once: the rows,
``ARMS``, ``MODES``, the substitutions that reach those layers' reference
implementations, the fault plans and ISA programs; :func:`snapshot` (what
no arm may move); :func:`simulate`, the runner, and :func:`run`, the same
memoised per session on ``(row, arm, mode)``; and :func:`check`, every arm
against the strict run. ``tests/test_equivalence.py`` is the table; the other
equivalence suites call :func:`check` and add only what their mechanism
must have done. A helper module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Tuple
from unittest import mock

import pytest

from repro import (Engine, FaultPlan, FaultRule, SamplingConfig,
                   SimulatedCrash, WaitToken, complex_backend, resume)
from repro.apps.minidb import MiniDb, TpcdDriver, tpcd_catalog
from repro.core.communicator import Communicator
from repro.core.frontend import SimProcess
from repro.harness import sampling_summary, vec_summary
from repro.host import ParallelEngine, WorkerSpec
from repro.isa import Interpreter, Machine, assemble
from repro.isa.memory import DataMemory
from repro.mem.vec import VecState
from repro.osim import kmem
from repro.service.workloads import WORKLOADS, full_fingerprint
from repro.traces.memtrace import MemTraceRecorder

from tests import isa_reference

# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------

#: timing-only plan that fires in every workload: no errno faults, so every
#: row completes unchanged. ``mem:degraded`` draws once per miss-kernel
#: call, which tells a probe that is part of the model from a switch
TIMING_PLAN = FaultPlan(rules=(
    FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
    FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
    FaultRule(site="link:degraded", prob=0.001, extra_cycles=50),
), seed=1998)

#: OLTP plan with an errno fault in the mix (kreadv retries)
ERRNO_PLAN = FaultPlan(rules=(
    FaultRule(site="syscall:kreadv", prob=0.05, errno="EINTR"),
    FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
    FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
), seed=7)

# ---------------------------------------------------------------------------
# arms
# ---------------------------------------------------------------------------

#: the one host switch: batches published (windows and the bulk path then
#: select themselves), or the strict schedule; ISA frontends translate on
#: either arm
DEFAULT, STRICT = {"fastpath": True}, {"fastpath": False}
ARMS = [DEFAULT, STRICT]


def _decline(*_args, **_kwargs):
    return None


#: test-side substitutions, one per self-selecting layer, each reaching the
#: reference implementation that layer stands in for (as ``miss_tap``
#: reaches "probe off"): name -> a context manager held over the whole run.
#: For the mechanism suites: ``sub(name)``, composed by nesting
SUBS = {
    # the scalar loop and the scalar walk: the bulk path declines every
    # run and every rival's frontier
    "scalar": lambda: mock.patch.multiple(VecState, run=_decline,
                                          frontier=_decline),
    # the generic interpreter (tests/isa_reference.py) instead of block
    # translation; forked ParallelEngine workers inherit the patch
    "interpreted": lambda: mock.patch.object(Interpreter, "run",
                                             isa_reference.run),
    # no window: every batch is cut at the strict rival horizon
    "no_windows": lambda: mock.patch.object(
        Communicator, "lookahead_horizon",
        lambda self, winner, strict, limit, bound_fn: strict),
    # a harvest reads one message a pipe: ParallelEngine workers are found
    # computing as often as the host can
    "starved": lambda: mock.patch.object(
        ParallelEngine, "_ingest",
        lambda self, w, msg, ingest=ParallelEngine._ingest:
        ingest(self, w, msg) and False),
}


def sub(name, cfg=DEFAULT) -> dict:
    """``cfg`` run under the substitution ``name`` too, e.g.
    ``sub("scalar")`` or ``sub("scalar", sub("no_windows"))``."""
    return {**cfg, "sub": tuple(sorted({*cfg.get("sub", ()), name}))}


def _corner(fast, windows, bulk) -> dict:
    if not fast:
        return STRICT
    cfg = DEFAULT if windows else sub("no_windows")
    return cfg if bulk else sub("scalar", cfg)


#: the switch x windows x the bulk all-hit prefix (``mem/vec.py``), each
#: layer on or substituted by its reference implementation, ``LATTICE[0]``
#: the ``DEFAULT`` corner.
#: With ``fastpath`` off no batch exists for a substitution to act on, so
#: the four ``fast0`` corners are all ``STRICT`` (one memoised run).
#: ``LATTICE_IDS`` name the corners ``fast1-look1-vect1`` and so on
_BITS = list(itertools.product((True, False), repeat=3))
LATTICE = [_corner(*bits) for bits in _BITS]
LATTICE_IDS = ["fast{}-look{}-vect{}".format(*map(int, bits))
               for bits in _BITS]


def decline_bulk(ms) -> None:
    """The ``scalar`` substitution on one memory system: from now on its
    bulk path declines every run and every frontier."""
    ms._vec.run = ms._vec.frontier = _decline


# ---------------------------------------------------------------------------
# ISA programs
# ---------------------------------------------------------------------------

#: re-scans a private L1-resident buffer 40 times: the fast-path-dominated
#: steady state where windows engage
HOT_PROG = """
    li r7, 0
    li r8, 40
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

#: the same loop at 5 passes: the equivalence table's hot row
HOT5 = HOT_PROG.replace("li r8, 40", "li r8, 5")

#: six HOT_PROG passes with a streaming miss every eighth line —
#: fast-forward charges a miss the calibrated mean, so a sampled run moves
#: with every phase switch — and the same program starting 6 000 cycles
#: late
MIX = (HOT_PROG.replace("li r8, 40", "li r8, 6\n    li r11, 0x140000")
       .replace("    addi r1, r1, 32\n",
                "    addi r1, r1, 32\n    andi r4, r1, 255\n"
                "    bne r4, r0, skip\n    loadx r5, r11, r12, 4\n"
                "    addi r12, r12, 64\nskip:\n"))
LATE = MIX.replace("pass:", "    li r9, 3000\nspin:\n    addi r9, r9, -1\n"
                            "    blt r7, r9, spin\npass:")

#: one pass of cold loads, a line apart: every reference misses
SCAN = """
    li r1, 0
    li r2, 20000
    li r10, 0x100000
    li r6, 0
loop:
    loadx r3, r10, r1, 4
    mul r4, r3, r3
    add r6, r6, r4
    addi r1, r1, 64
    blt r1, r2, loop
    li r3, 0
    halt
"""

SYS = """
    syscall getpid, 0
    mov r5, r3
    li r1, 0
    li r10, 0x100000
    storex r5, r10, r1, 4
    li r3, 0
    halt
"""

LOCKY = """
    li r5, 1
    li r1, 0
    li r2, 10
    li r10, 0x100000
loop:
    lock r5
    loadx r3, r10, r1, 4
    addi r3, r3, 1
    storex r3, r10, r1, 4
    unlock r5
    addi r1, r1, 1
    blt r1, r2, loop
    li r3, 0
    halt
"""

#: for two frontends: shared-lock increments, a SIMOFF stretch, a syscall,
#: atomics and a closing barrier — every translated event kind
ISA_KERNEL = """
    li r10, 0x100000
    li r1, 0
    li r2, 2000
    syscall getpid, 0
    mov r9, r3
loop:
    loadx r3, r10, r1, 4
    addi r3, r3, 1
    mul r4, r3, r3
    storex r3, r10, r1, 4
    add r6, r6, r4
    addi r1, r1, 4
    blt r1, r2, loop
    simoff
    li r1, 0
off:
    loadx r3, r10, r1, 4
    add r6, r6, r3
    addi r1, r1, 4
    blt r1, r2, off
    simon
    lock r5
    addi r6, r6, 1
    unlock r5
    addi r11, r10, 64
    lwarx r3, r11
    addi r3, r3, 1
    stwcx r3, r11
    li r7, 1
    li r8, 2
    barrier r7, r8
    li r3, 0
    halt
"""

PROGS = {"hot": HOT_PROG, "hot5": HOT5, "mix": MIX, "late": LATE,
         "scan": SCAN, "sys": SYS, "locky": LOCKY, "kernel": ISA_KERNEL}

# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------

def private_heavy(cfg):
    """4 CPUs, each re-touching a private L1-resident buffer: the
    invisible-reference steady state the lookahead windows target."""
    eng = Engine(cfg(num_cpus=4, coherence="mesi", num_nodes=1))

    def make_app(base):
        def app(p):
            yield from p.touch(base, 8192, write=True, stride=32)
            for _ in range(30):
                yield from p.touch(base, 8192, write=True, stride=32,
                                   work_per_line=2)
            yield from p.exit(0)
        return app

    for c in range(4):
        eng.spawn(f"w{c}", make_app(0x1_0000 + c * 0x10_000))
    return eng


def spaced(cfg, coherence="mesi", work=200):
    """4 CPUs, each re-touching a private 8 KiB buffer with ``work`` cycles
    of compute per line, started 1 000 cycles apart: rivals stay invisible
    for long stretches, so a window reaches as far as they are qualified."""
    eng = Engine(cfg(num_cpus=4, coherence=coherence))

    def make_app(c):
        def app(p):
            p.compute(1_000 * c)
            for _ in range(30):
                yield from p.touch(0x1_0000 + c * 0x10_000, 8192, write=True,
                                   stride=32, work_per_line=work)
            yield from p.exit(0)
        return app

    for c in range(4):
        eng.spawn(f"w{c}", make_app(c))
    return eng


#: ``spaced`` at every shape of ``benchmarks/bench_lookahead.py``'s spaced
#: rows: (coherence, work_per_line), MESI at 200 being the plain ``spaced``
#: row. The two qualifiers of a window opened different windows on some of
#: these shapes once
SPACED = {"spaced" if (coh, work) == ("mesi", 200) else f"spaced-{coh}-{work}":
          functools.partial(spaced, coherence=coh, work=work)
          for coh, work in (("mesi", 20), ("mesi", 50), ("mesi", 200),
                            ("mesi", 1000), ("dsm", 200))}


def warm_scan(cfg):
    """A TPC-D Q1 scan re-executed over an L1-resident table fragment: the
    first pass fills, every later pass is all hits."""
    eng = Engine(cfg(num_cpus=1, num_nodes=1))
    db = MiniDb(eng, tpcd_catalog(scale=0.00004), pool_frames=128)
    db.setup()
    drv = TpcdDriver(db, nagents=1, io="read", scan_stride=8, passes=12)
    drv.spawn_q1(eng)
    return eng


def hit_then_block(cfg, nrefs=1):
    """Two processes on two CPUs. ``w`` streams a private L1-resident
    buffer in batches (every reference invisible, so its windows reach as
    far as the rival bound lets them). ``r`` sits in a syscall body whose
    L1-hit single reference (``nrefs`` > 1: whole batch of L1 hits) is
    immediately followed by host code that reads the global clock (arming
    a timed wake-up) and blocks: if a window of ``w`` has pushed the clock
    past the cycle the strict schedule services that last reference at,
    the wake-up — and everything after it — lands late."""
    eng = Engine(cfg(num_cpus=2, coherence="mesi", num_nodes=1))

    def knap(sys, delay):
        sys.entry()     # kernel work first, so ``w`` runs up to the load
        if nrefs == 1:
            yield from sys.k.load(kmem.file_entry_addr(1))
        else:
            yield from sys.k.touch(kmem.file_entry_addr(1), 32 * nrefs,
                                   stride=32)
        token = WaitToken("knap")
        eng.gsched.schedule_after(delay, token.wake, 0)
        yield token
        return sys.result(0)

    eng.os_server.register("knap", 1, knap)

    def w(p):
        yield from p.touch(0x1_0000, 8192, write=True, stride=32)
        for _ in range(60):
            yield from p.touch(0x1_0000, 8192, write=True, stride=32)
        yield from p.exit(0)

    def r(p):
        for i in range(40):
            p.compute(1_001 + 37 * i)
            yield from p.call("knap", 700 + i)
        yield from p.exit(0)

    eng.spawn("w", w)
    eng.spawn("r", r)
    return eng


#: rows whose rivals run clock-reading host code right after an invisible
#: reference
CLOCK_READERS = {
    # ``benchmarks/bench_checkpoint.py``'s TPC-C: 4 agents x 8 transactions
    # on 2 CPUs and a 16-frame pool, small enough that single kernel
    # references, disk waits and batch windows interleave tightly
    "tpcc-checkpoint-bench": functools.partial(WORKLOADS["oltp"], nagents=4,
                                               tx_per_agent=8),
    "hit-then-block": hit_then_block,
    "batch-then-block": functools.partial(hit_then_block, nrefs=3)}

#: named rows: builder(cfg) -> ready-to-run engine. The registry workloads
#: are the golden fleet's, at its size
ROWS = {**WORKLOADS, "private_heavy": private_heavy, **SPACED,
        "warm_scan": warm_scan, **CLOCK_READERS}

#: registry workloads whose producers publish EventBatches (touch /
#: copy_block); SPLASH kernels yield one Proc-API reference at a time
BATCHING = frozenset({"oltp", "dss", "webserver"})


def toucher(eng):
    """An in-process frontend beside ISA frontends: forty private
    ``touch`` passes, published as batches."""
    def app(p):
        for _ in range(40):
            yield from p.touch(0x3_0000, 8192, write=True, stride=32,
                               work_per_line=2)
        yield from p.exit(0)
    eng.spawn("t", app)


_PROG_NAMES = {v: k for k, v in PROGS.items()}


@dataclass(frozen=True)
class Isa:
    """A row of ISA programs: inline interpreters, or ``ParallelEngine``
    workers (pids 1..n either way); ``extra(eng)`` spawns further
    in-process frontends. One CPU per frontend."""

    progs: Tuple[str, ...]
    parallel: bool = False
    extra: Optional[Callable] = None

    def build(self, cfg):
        eng = (ParallelEngine if self.parallel else Engine)(
            cfg(num_cpus=len(self.progs) + (self.extra is not None)))
        for i, prog in enumerate(self.progs):
            if self.parallel:
                eng.spawn_worker(WorkerSpec(f"w{i}", prog))
            else:
                dm = DataMemory()
                dm.map_segment(0x100000, 1 << 22)
                eng.spawn_interpreter(f"w{i}", Interpreter(
                    assemble(prog, f"w{i}"), Machine(dm)))
        if self.extra is not None:
            self.extra(eng)
        return eng

    def __str__(self) -> str:
        names = "+".join(_PROG_NAMES.get(p, "prog") for p in self.progs)
        extra = f"+{self.extra.__name__}" if self.extra is not None else ""
        return f"{names}{extra}{'@parallel' if self.parallel else ''}"


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

#: the sampled modes' schedule: a few thousand cycles a window, so every
#: row of the table switches phase a dozen times or more
SAMPLED = SamplingConfig(detail_cycles=2_000, ff_cycles=1_500)

#: mode -> (fault plan, how the run is tapped or interrupted, sampling)
MODES = {
    "clean": (None, None, None),
    "plan": (TIMING_PLAN, None, None),
    # a memtrace recorder: every reference through ``access``, recorded
    "tapped": (None, "memtrace", None),
    # the "probe off" reference, recorded: every reference, L1 hits
    # included, serviced by the miss kernel. Clean only: under a plan it
    # draws ``mem:degraded`` per reference and so is another program
    "probe_off": (None, "miss_tap", None),
    # killed after two autosaves, resumed in a fresh engine
    "resume": (TIMING_PLAN, "crash", None),
    # killed after two autosaves under the other arm, resumed under this
    # one: a checkpoint names the simulated machine, not the host path
    "swap": (TIMING_PLAN, "swap", None),
    # phases switch at cycles on a fixed grid, so a sampled run is a
    # function of the strict schedule too: each mode above, sampled
    "sampled": (None, None, SAMPLED),
    "sampled_tapped": (None, "memtrace", SAMPLED),
    "sampled_resume": (None, "crash", SAMPLED),
    "sampled_swap": (None, "swap", SAMPLED),
}

#: mode -> the mode whose strict result it must land: a tap, the probe
#: and a crash (under either arm) move nothing
SAME_AS = {"tapped": "clean", "probe_off": "tapped", "resume": "plan",
           "swap": "plan", "sampled_tapped": "sampled",
           "sampled_resume": "sampled", "sampled_swap": "sampled"}


def miss_tap(eng):
    """The "probe off" reference: every reference is serviced by the miss
    kernel (``paddr=-1``: it translates itself)."""
    ms = eng.memsys
    ms.access = lambda pid, vaddr, size, write, cpu, now, atomic=False: \
        ms._miss(pid, vaddr, size, write, atomic, cpu, now, -1)


# ---------------------------------------------------------------------------
# the snapshot and the runner
# ---------------------------------------------------------------------------

class Result(NamedTuple):
    #: what no host switch may move (:func:`snapshot`)
    snap: dict
    #: what the host did to get there (:func:`counters`)
    counters: dict


def _lines(caches) -> tuple:
    return tuple((tuple(map(tuple, c._sets)), frozenset(c._states.items()))
                 for c in caches)


def snapshot(eng, stats, rec=None) -> dict:
    """``full_fingerprint``; every cache's hit/miss counters, L2 included;
    a digest of the end-of-run L1 and L2 set lists (LRU order) and line
    states, which fingerprints see only through later evictions; the
    sampler's windows and calibrated latencies; and a digest of the
    memtrace records when ``rec`` tapped the run."""
    ms = eng.memsys
    return {
        "fingerprint": full_fingerprint(eng, stats),
        "caches": ms.cache_summary(),
        "lines": hash((_lines(ms.l1s), _lines(ms.l2s or ()))),
        "sampling": sampling_summary(eng),
        "trace": None if rec is None else (len(rec.records),
                                           hash(tuple(rec.records))),
    }


def counters(eng) -> dict:
    """Host-side tallies of a finished run (in no snapshot)."""
    ms = eng.memsys
    return {"batch_stats": dict(eng.batch_stats),
            "stand_downs": dict(eng.stand_downs),
            "vec": vec_summary(eng),
            "fast_hits": ms.fast_hits,
            "accesses": ms.accesses,
            "draws": eng.faults.stats.draws}


def build(row, cfg=DEFAULT, faults=None):
    """``row``'s ready-to-run engine under the config keywords ``cfg``
    (an arm, plus any further ``SimConfig`` fields, no ``sub``), pids
    from 1."""
    SimProcess.set_pid_counter(1)

    def factory(**kw):
        return complex_backend(faults=faults, **cfg, **kw)

    return row.build(factory) if isinstance(row, Isa) else ROWS[row](factory)


def _crash_and_resume(row, cfg, faults, how):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, checkpoint_path=os.path.join(tmp, "ck.pkl"),
                   checkpoint_interval=1_500)
        crashed = (dict(cfg, fastpath=not cfg["fastpath"]) if how == "swap"
                   else cfg)
        eng = build(row, crashed, faults)
        eng._ckpt.crash_after_saves = 2
        with pytest.raises(SimulatedCrash):
            eng.run()
        return resume(cfg["checkpoint_path"], lambda: build(row, cfg, faults))


def simulate(row, cfg=DEFAULT, mode="clean", spy=None):
    """Run ``row`` under ``cfg`` (its substitutions, if any, held over the
    build and the run) and ``mode``, uncached; ``spy(eng)`` sees the
    engine before it runs. Returns ``(Result, engine)``; its counters
    carry ``reference_runs``, the ISA frontends (workers included) that ran
    the reference interpreter."""
    cfg = dict(cfg)
    runs = isa_reference.RUNS.value
    with contextlib.ExitStack() as subs:
        for name in cfg.pop("sub", ()):
            subs.enter_context(SUBS[name]())
        res, eng = _simulate(row, cfg, mode, spy)
    res.counters["reference_runs"] = isa_reference.RUNS.value - runs
    return res, eng


def _simulate(row, cfg, mode, spy):
    faults, how, sampling = MODES[mode]
    if sampling is not None:
        cfg = dict(cfg, sampling=sampling)
    rec = None
    if how in ("crash", "swap"):
        eng, stats = _crash_and_resume(row, cfg, faults, how)
    else:
        eng = build(row, cfg, faults)
        if how == "miss_tap":
            miss_tap(eng)
        if how is not None:
            rec = MemTraceRecorder.attach(eng, max_records=2_000_000)
        if spy is not None:
            spy(eng)
        try:
            stats = eng.run()
        finally:
            if isinstance(eng, ParallelEngine):
                eng.shutdown()
        assert rec is None or rec.dropped == 0
    return Result(snapshot(eng, stats, rec), counters(eng)), eng


def _key(cfg) -> tuple:
    return tuple(sorted(cfg.items()))


@functools.lru_cache(maxsize=None)
def _memo(row, key, mode) -> Result:
    return simulate(row, dict(key), mode)[0]


def run(row, cfg=DEFAULT, mode="clean") -> Result:
    """:func:`simulate`, memoised for the session on ``(row, cfg, mode)``
    (``cfg`` values must be hashable). Every caller gets the same
    :class:`Result`: read it, never mutate it."""
    return _memo(row, _key(cfg), mode)


def reference(row, mode="clean") -> dict:
    """The snapshot every arm of ``row`` must land under ``mode``: the
    strict schedule, on the inline engine."""
    if isinstance(row, Isa):
        row = replace(row, parallel=False)
    return run(row, STRICT, mode).snap


def _same(a: dict, b: dict) -> bool:
    """Equal snapshots; the traces compared only when both runs were
    tapped."""
    if a["trace"] is None or b["trace"] is None:
        a, b = {**a, "trace": None}, {**b, "trace": None}
    return a == b


def check(row, arms=ARMS, mode="clean") -> list:
    """Every arm of ``row`` under ``mode`` lands :func:`reference`, which
    itself lands the strict result of the mode ``mode`` must not move
    (``SAME_AS``). An arm under the ``interpreted`` substitution ran the
    reference interpreter in every ISA frontend of the row, and in none of
    a named row (those spawn no ISA frontend). On the inline engine, an arm
    under the ``scalar`` or ``interpreted`` substitution also opens the
    windows its plain twin opens: equal ``batch_stats``. Returns the arms'
    :class:`Result`\\ s."""
    ref = reference(row, mode)
    if mode in SAME_AS:
        assert _same(ref, reference(row, SAME_AS[mode])), \
            f"{row}: strict {mode} != strict {SAME_AS[mode]}"
    results = {_key(a): run(row, a, mode) for a in arms}
    frontends = len(row.progs) if isinstance(row, Isa) else 0
    for key, res in results.items():
        assert res.snap == ref, f"{row} {mode}: {dict(key)} != strict"
        if "interpreted" in dict(key).get("sub", ()):
            runs = res.counters["reference_runs"]
            assert runs >= frontends if frontends else runs == 0, \
                f"{row} {mode}: {runs} reference runs, {frontends} frontends"
    if not (isinstance(row, Isa) and row.parallel):
        for key, res in results.items():
            cfg = dict(key)
            names = cfg.pop("sub", ())
            for name in {"scalar", "interpreted"}.intersection(names):
                rest = tuple(n for n in names if n != name)
                twin = results.get(_key({**cfg, "sub": rest} if rest
                                        else cfg))
                assert twin is None or (twin.counters["batch_stats"]
                                        == res.counters["batch_stats"]), \
                    f"{row} {mode}: {dict(key)} and its plain twin cut apart"
    return [results[_key(a)] for a in arms]
