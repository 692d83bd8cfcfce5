"""Bit-identity of the conservative lookahead windows, on both engines.

The batched hot loop may drain references past the strict rival horizon,
but only references satisfying the L1 fast-path full-hit predicate — which
touch nothing outside the issuer's private state, so any interleaving of
them commutes with the strict order. How far each rival stays invisible is
read from the vec mirror's classification of its parked batch, or walked
reference by reference when there is no fresh mirror (``vectorized=False``
forces the walk); both qualifiers must grant the same windows
(``test_frontier.py`` compares them bound by bound).

``ParallelEngine`` workers ship the batches their interpreters fill into that
same pipeline; a still-computing worker bounds the others (``_round_gate``).

Windows are gated by ``SimConfig.lookahead`` and must produce *exactly* the
simulated cycle counts, cache statistics, CPU time buckets and fault-fire
counts of the strict path — with and without fault plans, and composed
with checkpoint/restore, sampling, segmented runs and worker crash/replay.
"""

from __future__ import annotations

import functools
import itertools
import os
import signal

import pytest

from repro import (Engine, FaultPlan, FaultRule, SimulatedCrash, WaitToken,
                   checkpoint_exists,
                   complex_backend, resume)
from repro.core.communicator import Communicator
from repro.core.config import OSConfig, SamplingConfig
from repro.core.frontend import ProcState, SimProcess
from repro.host import ParallelEngine, WorkerSpec
from repro.host.parallel import _Worker
from repro.isa import Interpreter, Machine, assemble
from repro.isa.memory import DataMemory
from repro.osim import kmem

from tests.test_determinism_harness import FAULT_OFF_WORKLOADS, _fingerprint
from tests.test_host_parallel import LOCKY, SCAN, SYS

#: timing-only plan that fires in every workload (mirrors the checkpoint
#: suite's plan: no errno faults, so all workloads complete unchanged)
TIMING_PLAN = FaultPlan(rules=(
    FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
    FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
    FaultRule(site="link:degraded", prob=0.001, extra_cycles=50),
), seed=1998)

#: ISA program that re-scans a private L1-resident buffer — the
#: fast-path-dominated steady state where windows engage
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


def _snapshot(eng, stats):
    """Fingerprint + the full memory-side picture (cache hit/miss/eviction
    counters and per-protocol coherence traffic)."""
    return _fingerprint(eng, stats) + (
        tuple(sorted(eng.memsys.cache_summary()["l1"].items())),
        dict(eng.memsys.cache_summary()["protocol"]),
        eng.memsys.vmm.minor_faults,
        eng.memsys.vmm.major_faults,
    )


def _run_inline(build, faults=None, **cfg_kw):
    SimProcess._next_pid[0] = 1
    eng = build(lambda **kw: complex_backend(faults=faults, **cfg_kw, **kw))
    stats = eng.run()
    return _snapshot(eng, stats), eng


# ---------------------------------------------------------------------------
# inline engine windows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FAULT_OFF_WORKLOADS))
def test_lookahead_bit_identical(name):
    build = FAULT_OFF_WORKLOADS[name]
    snap_on, eng_on = _run_inline(build, lookahead=True)
    snap_off, eng_off = _run_inline(build, lookahead=False)
    assert snap_on == snap_off
    # the strict run must never grant a window
    assert eng_off.batch_stats["la_windows"] == 0
    assert eng_off.batch_stats["la_refs"] == 0


@pytest.mark.parametrize("name", sorted(FAULT_OFF_WORKLOADS))
def test_lookahead_bit_identical_under_faults(name):
    build = FAULT_OFF_WORKLOADS[name]
    snap_on, eng_on = _run_inline(build, faults=TIMING_PLAN, lookahead=True)
    snap_off, _ = _run_inline(build, faults=TIMING_PLAN, lookahead=False)
    assert snap_on == snap_off
    assert eng_on.faults.stats.draws > 0


def _private_heavy(cfg):
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


def test_lookahead_drains_past_horizon():
    """On a private-heavy workload the windows must actually engage —
    references are consumed beyond the strict rival cut — while staying
    bit-identical and using far fewer batch dispatches; and the windows
    are the same whichever qualifier bounded them."""
    snap_on, eng_on = _run_inline(_private_heavy, lookahead=True)
    snap_off, eng_off = _run_inline(_private_heavy, lookahead=False)
    assert snap_on == snap_off
    bs_on = eng_on.batch_stats
    # pinned: the owner's cursor probe (``_stand_down``'s "miss") must not
    # cost a warm frontend a window. Before it there were 124 — one opened
    # for the last, missing reference of a cold pass, which extended nothing
    assert (bs_on["la_windows"], bs_on["la_refs"]) == (123, 22_999)
    assert eng_on.stand_downs["miss"] == 4 * 256        # the cold pass
    assert bs_on["batches"] < eng_off.batch_stats["batches"]
    # the array qualifier did the work: past warm-up no rival query fell
    # back to the walk for want of a fresh mirror (three queries a window)
    declines = eng_on.memsys._vec.declines
    assert declines["frontier_stale"] < bs_on["la_windows"] // 2
    snap_walk, eng_walk = _run_inline(_private_heavy, vectorized=False)
    assert snap_walk == snap_on
    assert eng_walk.batch_stats == bs_on


def _tpcc_checkpoint_bench(cfg):
    """``benchmarks/bench_checkpoint.py``'s TPC-C: 2 CPUs, a 16-frame
    buffer pool, 4 agents x 8 transactions — small enough that single
    kernel references, disk waits and batch windows interleave tightly."""
    from repro.apps.minidb import MiniDb, TpccDriver, tpcc_catalog
    eng = Engine(cfg(num_cpus=2))
    db = MiniDb(eng, tpcc_catalog(1, 0.005), pool_frames=16, seed=3)
    db.setup()
    TpccDriver(db, nagents=4, tx_per_agent=8, seed=3, think_cycles=5_000,
               user_work=20_000).spawn_agents(eng)
    return eng


def _hit_then_block(cfg, nrefs=1):
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


def _batch_then_block(cfg):
    return _hit_then_block(cfg, nrefs=3)


#: builders whose rivals run clock-reading host code right after an
#: invisible reference
CLOCK_READERS = {"tpcc-checkpoint-bench": _tpcc_checkpoint_bench,
                 "hit-then-block": _hit_then_block,
                 "batch-then-block": _batch_then_block}


@pytest.mark.parametrize("name", sorted(CLOCK_READERS))
@pytest.mark.parametrize("faults", [None, TIMING_PLAN],
                         ids=["plain", "faults"])
def test_window_never_outruns_a_rivals_invisible_reference(name, faults):
    """A rival's parked single memory event bounds a window at its *own*
    time, and an all-invisible batch at its last reference's issue time —
    not at the completion: the references are invisible, but the host code
    the rival runs right after them reads the global clock."""
    build = CLOCK_READERS[name]
    snap_on, _ = _run_inline(build, faults=faults, lookahead=True)
    snap_walk, _ = _run_inline(build, faults=faults, vectorized=False)
    snap_off, _ = _run_inline(build, faults=faults, lookahead=False)
    assert snap_on == snap_walk == snap_off


@pytest.mark.parametrize("name", sorted(CLOCK_READERS))
@pytest.mark.parametrize("faults", [None, TIMING_PLAN],
                         ids=["plain", "faults"])
def test_all_knob_arms_land_one_fingerprint(name, faults):
    """Default knobs (windows qualified from the vec mirror), the scalar
    qualifier, the strict schedule and both knobs off agree — on the
    checkpoint bench's TPC-C (where default and strict used to end one
    cycle apart) and on the hand-built rivals — and the two qualifiers
    grant the same windows, not just the same result."""
    build = CLOCK_READERS[name]
    arms = [{}, {"vectorized": False}, {"lookahead": False},
            {"vectorized": False, "lookahead": False}]
    runs = [_run_inline(build, faults=faults, **arm) for arm in arms]
    assert all(snap == runs[0][0] for snap, _ in runs)
    assert runs[0][1].batch_stats == runs[1][1].batch_stats


def _spaced(cfg):
    """4 CPUs, each re-touching a private 8 KiB buffer with 200 cycles of
    compute per line, started 1 000 cycles apart: rivals stay invisible
    for long stretches, so a window reaches as far as they are qualified."""
    eng = Engine(cfg(num_cpus=4, coherence="mesi", num_nodes=1))

    def make_app(c):
        def app(p):
            p.compute(1_000 * c)
            for _ in range(30):
                yield from p.touch(0x1_0000 + c * 0x10_000, 8192, write=True,
                                   stride=32, work_per_line=200)
            yield from p.exit(0)
        return app

    for c in range(4):
        eng.spawn(f"w{c}", make_app(c))
    return eng


def test_window_reaches_the_rivals_bound():
    """A window has no size of its own: it reaches the nearest task / run
    bound unless a rival's qualified bound cuts it first. Pinned: a scan
    budget of ``64 x`` the protocol's cheapest remote latency used to cut
    this run's windows nine times as often (1 167), for the same result."""
    snap, eng = _run_inline(_spaced)
    snap_walk, eng_walk = _run_inline(_spaced, vectorized=False)
    snap_off, _ = _run_inline(_spaced, lookahead=False)
    assert snap == snap_walk == snap_off
    assert eng_walk.batch_stats == eng.batch_stats
    assert eng.batch_stats["la_windows"] == 128


# ---------------------------------------------------------------------------
# windows x checkpointing
# ---------------------------------------------------------------------------

def test_lookahead_never_granted_while_recording(tmp_path):
    """An active checkpoint recorder wraps the memory system; the reply
    log needs the strict per-reference stream, so the engine must not
    grant windows — and the result must still match the lookahead-off
    checkpointed run bit-for-bit."""
    build = FAULT_OFF_WORKLOADS["oltp"]
    path = str(tmp_path / "ck.pkl")

    def run(lookahead):
        SimProcess._next_pid[0] = 1
        eng = build(lambda **kw: complex_backend(
            checkpoint_path=path, checkpoint_interval=2_000,
            lookahead=lookahead, **kw))
        stats = eng.run()
        return _snapshot(eng, stats), eng

    snap_on, eng_on = run(True)
    snap_off, _ = run(False)
    assert snap_on == snap_off
    assert eng_on._ckpt.saves > 0
    assert eng_on.batch_stats["la_refs"] == 0
    # and both match the plain (no recorder) lookahead-on run
    plain, _ = _run_inline(build, lookahead=True)
    assert plain == snap_on


def test_checkpoint_resume_with_lookahead_on(tmp_path):
    """Crash + resume with lookahead enabled reproduces the uninterrupted
    lookahead-off run: replayed stretches never grant windows (the replay
    wrapper needs the strict stream) and post-replay stretches resume the
    recorder, which also denies — lookahead is timing-neutral, so the
    checkpointed runs stay bit-identical anyway."""
    build = FAULT_OFF_WORKLOADS["dss"]
    baseline, _ = _run_inline(build, lookahead=False)
    path = str(tmp_path / "ck.pkl")

    def factory(**kw):
        return complex_backend(checkpoint_path=path,
                               checkpoint_interval=1_500,
                               lookahead=True, **kw)

    SimProcess._next_pid[0] = 1
    eng = build(factory)
    eng._ckpt.crash_after_saves = 2
    with pytest.raises(SimulatedCrash):
        eng.run()
    assert checkpoint_exists(path)
    eng2, stats2 = resume(path, lambda: build(factory))
    assert _snapshot(eng2, stats2) == baseline


# ---------------------------------------------------------------------------
# ParallelEngine: workers ship the same batches into the same pipeline
# ---------------------------------------------------------------------------

ARMS = [dict(zip(("fastpath", "lookahead", "vectorized"), bits))
        for bits in itertools.product((True, False), repeat=3)]
STRICT = ARMS[-1]
PROGS = {"hot": HOT_PROG, "locky": LOCKY, "scan": SCAN, "sys": SYS}


def _run_isa(progs, parallel, extra=None, **cfg_kw):
    """``progs`` as ParallelEngine workers or as inline ISA frontends (pids
    1..n either way); ``extra`` spawns further in-process frontends."""
    SimProcess._next_pid[0] = 1
    cfg = complex_backend(num_cpus=len(progs) + (extra is not None), **cfg_kw)
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
        if extra is not None:
            extra(eng)
        stats = eng.run()
    finally:
        if parallel:
            eng.shutdown()
    return _snapshot(eng, stats), eng


@functools.lru_cache(maxsize=None)
def _strict_inline(prog, n):
    return _run_isa([PROGS[prog]] * n, False, **STRICT)[0]


@pytest.mark.parametrize("prog,n,arm", [
    *itertools.product(("hot", "locky"), (1, 3), range(8)),
    *itertools.product(("scan", "sys"), (1, 2, 3, 4), (0,))])
def test_parallel_equals_strict_inline(prog, n, arm):
    """Every knob arm of a ParallelEngine lands the strict inline ISA run
    (``fastpath=False`` replays shipped batches reference by reference);
    where a computing worker's bound cuts a batch is the host's timing."""
    snap, _ = _run_isa([PROGS[prog]] * n, True, **ARMS[arm])
    assert snap == _strict_inline(prog, n)


@pytest.mark.parametrize("parallel", [False, True],
                         ids=["inline", "parallel"])
def test_all_miss_frontends_ask_for_no_window(monkeypatch, parallel):
    """Table 3's shape — every reference a miss, every batch cut after
    one — on either engine: the owner's cursor probe stands each round
    down, so no rival is ever qualified for a window that could retire
    nothing, and the run is the strict one."""
    asked = []
    orig = Communicator.lookahead_horizon
    monkeypatch.setattr(
        Communicator, "lookahead_horizon",
        lambda self, *a: asked.append(a[1:3]) or orig(self, *a))
    snap, eng = _run_isa([SCAN] * 4, parallel)
    assert snap == _strict_inline("scan", 4)
    assert not asked and eng.batch_stats["la_windows"] == 0
    assert eng.stand_downs["miss"] > 0
    # the spy sees what it should: a warm pair does get qualified
    _run_isa([HOT_PROG] * 2, parallel)
    assert asked


def test_parallel_under_timing_plan_equals_inline():
    progs = [HOT_PROG, SCAN, HOT_PROG]
    snap, eng = _run_isa(progs, True, faults=TIMING_PLAN)
    assert snap == _run_isa(progs, False, faults=TIMING_PLAN, **STRICT)[0]
    assert eng.faults.stats.draws > 0


#: six HOT_PROG passes with a streaming miss every eighth line — fast-forward
#: charges a miss the calibrated mean, so the run moves whenever a phase
#: switch does — and the same program starting 6 000 cycles late
MIX = (HOT_PROG.replace("li r8, 40", "li r8, 6\n    li r11, 0x140000")
       .replace("    addi r1, r1, 32\n",
                "    addi r1, r1, 32\n    andi r4, r1, 255\n"
                "    bne r4, r0, skip\n    loadx r5, r11, r12, 4\n"
                "    addi r12, r12, 64\nskip:\n"))
LATE = MIX.replace("pass:", "    li r9, 3000\nspin:\n    addi r9, r9, -1\n"
                            "    blt r7, r9, spin\npass:")


def _toucher(eng):
    def app(p):
        for _ in range(40):
            yield from p.touch(0x3_0000, 8192, write=True, stride=32,
                               work_per_line=2)
        yield from p.exit(0)
    eng.spawn("t", app)


@pytest.mark.parametrize("starved", [False, True], ids=["greedy", "starved"])
def test_parallel_sampled_equals_inline_sampled(monkeypatch, starved):
    """Under a sampler — it switches phase at the first loop top past an
    event count — the batch cuts are part of the result: ``_round_gate``
    waits for every computing worker and the run equals the inline sampled
    run cut for cut, also when a harvest reads one message a pipe."""
    if starved:     # workers are found computing as often as the host can
        ingest = ParallelEngine._ingest
        monkeypatch.setattr(ParallelEngine, "_ingest", lambda self, w, msg:
                            ingest(self, w, msg) and False)
    sc = SamplingConfig(detail_events=890, ff_events=53)
    for progs, extra in (([MIX, LATE], None), ([MIX, LATE, MIX], None),
                         ([MIX], _toucher)):
        ref, inline = _run_isa(progs, False, extra=extra, sampling=sc)
        assert ref != _run_isa(progs, False, extra=extra)[0]    # it switched
        for _ in range(3):
            snap, eng = _run_isa(progs, True, extra=extra, sampling=sc)
            assert snap == ref and eng.batch_stats == inline.batch_stats


def test_parallel_checkpointed_equals_inline(tmp_path):
    """An active checkpoint manager taps ``access``: every shipped batch
    goes through it reference by reference, no window opens."""
    ck = dict(checkpoint_path=str(tmp_path / "ck.pkl"),
              checkpoint_interval=2_000)
    snap, eng = _run_isa([HOT_PROG] * 2, True, **ck)
    assert snap == _strict_inline("hot", 2)
    assert eng._ckpt.saves > 0 and eng.batch_stats["la_windows"] == 0
    assert eng.stand_downs["tapped"] > 0


def test_parallel_run_cut_and_continued_equals_uncut():
    """A ``max_events`` cut leaves the interval timer armed and a shipped
    batch half-consumed at the port: slices of any size — one event
    included — land the uncut run, its timer interrupts included."""
    os_cfg = OSConfig(timer_interval=20_000)
    snap, whole = _run_isa([HOT_PROG], True, os=os_cfg)
    assert whole.stats.interrupt_counts["timer"] > 2
    for segment in (3_000, 1):
        SimProcess._next_pid[0] = 1
        eng = ParallelEngine(complex_backend(num_cpus=1, os=os_cfg))
        with eng:
            eng.spawn_worker(WorkerSpec("w0", HOT_PROG))
            while eng._live > 0:
                eng.run(max_events=segment)
        assert _snapshot(eng, eng.stats) == snap


#: HOT_PROG ending in an OS call: the worker blocks for its reply, which
#: is only sent once every batch before it is consumed — so at any batch
#: entry the worker process is alive to be killed
HOT_THEN_CALL = HOT_PROG.replace("    li r3, 0\n", "    syscall getpid, 0\n"
                                                   "    li r3, 0\n")

#: when to kill, given (messages the proxy has popped, the batch's cursor)
KILL_AT = {"first": lambda consumed, cursor: True,
           "half_consumed": lambda consumed, cursor: cursor >= 256,
           "mid_run": lambda consumed, cursor: consumed >= 10}


@pytest.mark.parametrize("where", sorted(KILL_AT))
def test_worker_killed_at_batch_entry_replays(monkeypatch, where):
    """SIGKILL a worker as the engine enters ``_handle_batch`` on its
    first batch, on that batch half-consumed, on its tenth: the proxy owns
    the batch it popped, the relaunched stream is skipped up to and
    including it — nothing lost, nothing applied twice."""
    baseline, _ = _run_isa([HOT_THEN_CALL] * 2, True)
    assert baseline == _run_isa([HOT_THEN_CALL] * 2, False, **STRICT)[0]
    killed = []
    orig = ParallelEngine._handle_batch

    def killing(self, proc, batch, *rest):
        w = self._workers[1]
        if (not killed and proc is w.proc
                and KILL_AT[where](w.consumed, batch.cursor)):
            killed.append(w.consumed)
            os.kill(w.process.pid, signal.SIGKILL)
            w.process.join(timeout=5)
        return orig(self, proc, batch, *rest)

    monkeypatch.setattr(ParallelEngine, "_handle_batch", killing)
    snap, eng = _run_isa([HOT_THEN_CALL] * 2, True)
    assert killed and eng._workers[1].restarts >= 1
    assert snap == baseline


def _winner_and_computing_worker(worker_first):
    """An in-process frontend parked on a batch and a proxy
    whose worker is still computing (no process behind it: nothing ever
    arrives), spawned in either pid order. Returns (engine, frontend,
    proxy, the horizons ``_handle_batch`` was entered with)."""
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=2, coherence="mesi",
                                         num_nodes=1))

    def app(proc):
        proc.compute(1_000)
        yield from proc.touch(0x2_0000, 8192, stride=32, work_per_line=50)
        yield from proc.exit(0)

    w = _Worker(WorkerSpec("q", ""))
    if worker_first:
        q = eng.spawn("q", lambda _api: eng._proxy(w))
    p = eng.spawn("p", app)
    if not worker_first:
        q = eng.spawn("q", lambda _api: eng._proxy(w))
    w.proc = q
    eng._workers[q.pid] = w
    seen = []

    def stop_at_entry(proc, batch, horizon, ext, budget):
        seen.append((proc.pid, horizon, ext))
        raise KeyboardInterrupt

    eng._handle_batch = stop_at_entry
    return eng, p, q, seen


@pytest.mark.parametrize("worker_first", [False, True])
def test_computing_workers_bound_caps_the_winners_batch(worker_first):
    """The winner's batch is consumed below a computing worker's
    ``vtime + clock.pending`` — through it when the winner's pid is the
    smaller — and not at all while that bound does not clear its head."""
    eng, p, q, seen = _winner_and_computing_worker(worker_first)
    head = p.port_event.time
    assert p.port_event.kind == 9 and q.port_event is None
    # at a tie the smaller pid goes first: the bound clears the head of
    # the batch only for a winner with the smaller pid
    q.vtime, q.clock.pending = head - 5, 5
    assert eng._round_gate(p, None) == (head + 1 if p.pid < q.pid else None)
    q.vtime -= 1
    assert eng._round_gate(p, None) is None
    # a backend task goes before any event of its own cycle
    assert eng._round_gate(p, head - 1) == head
    q.vtime = head + 1_000
    cap = head + 1_005 + (p.pid < q.pid)
    assert eng._round_gate(p, None) == cap
    with pytest.raises(KeyboardInterrupt):
        eng.run()
    assert seen == [(p.pid, cap, 0)]        # cut there, no window past it
    eng.shutdown()


def test_round_gate_ignores_proxies_that_are_not_computing():
    """A proxy running OS-server code, blocked or finished gets its next
    event from this process, not from a pipe: no bound, and with nothing
    else to wait for the loop's own deadlock report, not a hang."""
    eng, p, q, _ = _winner_and_computing_worker(False)
    top = eng._max_cycles + 1
    for attr, value, back in (("kernel_mode", True, False),
                              ("state", ProcState.BLOCKED, q.state),
                              ("reply", 0, None)):
        setattr(q, attr, value)
        assert eng._round_gate(p, None) == top
        assert eng._round_gate(None, None) == top
        setattr(q, attr, back)
    assert eng._round_gate(p, None) is None     # computing again: waited on
    p.port_event = None
    assert not eng._ports_quiet()
    q.kernel_mode = True
    assert eng._ports_quiet()
    eng.shutdown()


def test_removed_worker_knobs_are_refused():
    for knob in ("worker_lease", "worker_batch"):
        with pytest.raises(TypeError, match=knob):
            complex_backend(num_cpus=1, **{knob: 4})


def test_worker_beside_an_inprocess_batching_frontend_equals_inline():
    """A ``touch`` frontend inside a ParallelEngine publishes batches and
    windows open between it and the worker's; oracle: all-inline, strict."""
    snap, eng = _run_isa([HOT_PROG], True, extra=_toucher)
    assert snap == _run_isa([HOT_PROG], False, extra=_toucher, **STRICT)[0]
    assert eng.batch_stats["la_windows"] > 0
