"""Bit-identity of the conservative lookahead windows (both layers).

Layer 1 (inline engine): the batched hot loop may drain references past the
strict rival horizon, but only references satisfying the L1 fast-path
full-hit predicate — which touch nothing outside the issuer's private
state, so any interleaving of them commutes with the strict order. How far
each rival stays invisible is read from the vec mirror's classification of
its parked batch, or walked reference by reference when there is no fresh
mirror (``vectorized=False`` forces the walk); both qualifiers must grant
the same windows (``test_frontier.py`` compares them bound by bound).

Layer 2 (ParallelEngine): a worker in steady fire-and-forget state may be
granted a lease to time its own references against a snapshot of its L1
state, bounded by the earliest cycle anything else can act at all.

Both are gated by ``SimConfig.lookahead`` and must produce *exactly* the
simulated cycle counts, cache statistics, CPU time buckets and fault-fire
counts of the strict path — with and without fault plans, and composed
with checkpoint/restore and worker crash/replay.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import (Engine, FaultPlan, FaultRule, SimulatedCrash, WaitToken,
                   checkpoint_exists,
                   complex_backend, resume)
from repro.core.config import OSConfig, SamplingConfig
from repro.core.frontend import SimProcess
from repro.host import ParallelEngine, WorkerSpec
from repro.host.parallel import _Worker
from repro.mem.hierarchy import MemorySystem
from repro.osim import kmem

from tests.test_determinism_harness import FAULT_OFF_WORKLOADS, _fingerprint

#: timing-only plan that fires in every workload (mirrors the checkpoint
#: suite's plan: no errno faults, so all workloads complete unchanged)
TIMING_PLAN = FaultPlan(rules=(
    FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
    FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
    FaultRule(site="link:degraded", prob=0.001, extra_cycles=50),
), seed=1998)

#: ISA program that re-scans a private L1-resident buffer — the
#: fast-path-dominated steady state where worker leases engage
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
# Layer 1: inline engine windows
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
    assert bs_on["la_windows"] > 0
    assert bs_on["la_refs"] > 0
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


def test_lookahead_cycles_auto_derivation():
    """The window scan budget is derived from the protocol's cheapest
    cross-CPU interaction (it is not a knob)."""
    eng = Engine(complex_backend(num_cpus=2))
    mrl = eng.memsys.min_remote_latency()
    assert mrl >= 1
    assert eng._lookahead_cycles == max(64 * mrl, 4096)


@pytest.mark.parametrize("coherence", ["mesi", "none", "directory",
                                       "coma", "dsm"])
def test_min_remote_latency_all_protocols(coherence):
    eng = Engine(complex_backend(num_cpus=2, num_nodes=2,
                                 coherence=coherence))
    assert eng.memsys.min_remote_latency() >= 1


# ---------------------------------------------------------------------------
# Layer 1 x checkpointing
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
# Layer 2: worker leases (ParallelEngine)
# ---------------------------------------------------------------------------

def _run_parallel(nworkers=1, prog=HOT_PROG, **cfg_kw):
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=max(nworkers, 1),
                                         **cfg_kw))
    with eng:
        for i in range(nworkers):
            eng.spawn_worker(WorkerSpec(f"w{i}", prog))
        stats = eng.run()
    return _snapshot(eng, stats), eng


def _run_inline_isa(nworkers=1, prog=HOT_PROG, **cfg_kw):
    from repro.isa import Interpreter, Machine, assemble
    from repro.isa.memory import DataMemory
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=max(nworkers, 1), **cfg_kw))
    for i in range(nworkers):
        dm = DataMemory()
        dm.map_segment(0x100000, 1 << 22)
        eng.spawn_interpreter(
            f"w{i}", Interpreter(assemble(prog, f"w{i}"), Machine(dm)))
    stats = eng.run()
    return _snapshot(eng, stats), eng


def test_worker_lease_matches_inline_and_strict():
    snap_lease, eng_lease = _run_parallel(1, worker_lease=4)
    snap_strict, eng_strict = _run_parallel(1, worker_lease=0)
    snap_inline, _ = _run_inline_isa(1)
    assert snap_lease == snap_strict == snap_inline
    assert eng_lease.batch_stats["lease_refs"] > 0
    assert eng_strict.batch_stats["leases"] == 0


def test_worker_lease_multi_worker_identity():
    """With rival workers the windows shrink to the rival bounds (often
    to nothing) — grant or deny, the results must not move."""
    snap_lease, eng_lease = _run_parallel(3, worker_lease=2)
    snap_strict, _ = _run_parallel(3, worker_lease=0)
    assert snap_lease == snap_strict
    bs = eng_lease.batch_stats
    assert bs["leases"] + bs["lease_denied"] > 0


def test_worker_batch_knob_is_timing_neutral():
    """SimConfig.worker_batch only changes host-side message grouping."""
    snap16, _ = _run_parallel(2, worker_batch=16, worker_lease=0)
    snap64, _ = _run_parallel(2, worker_batch=64, worker_lease=0)
    snap128, _ = _run_parallel(2, worker_batch=128, worker_lease=4)
    assert snap16 == snap64 == snap128


def _kill_child(w, timeout=5.0):
    deadline = time.time() + timeout
    while not w.conn.poll() and time.time() < deadline:
        time.sleep(0.01)
    os.kill(w.process.pid, signal.SIGKILL)
    w.process.join()


def test_worker_killed_after_grant_replays_lease(monkeypatch):
    """SIGKILL the worker right after its first lease grant is computed:
    the supervisor relaunches it, answers the re-sent lease request from
    the recorded reply log (same grant, same snapshot, same drain), and
    the run completes bit-identically to an undisturbed one."""
    baseline, _ = _run_parallel(1, worker_lease=2)

    killed = []
    orig = ParallelEngine._lease_decision

    def killing_decision(self, w):
        enc = orig(self, w)
        if enc[0] == "lg" and not killed:
            killed.append(True)
            try:
                os.kill(w.process.pid, signal.SIGKILL)
                w.process.join(timeout=5)
            except (OSError, ValueError):
                pass
        return enc

    monkeypatch.setattr(ParallelEngine, "_lease_decision", killing_decision)
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=1, worker_lease=2))
    eng.worker_backoff = 0.01
    with eng:
        p = eng.spawn_worker(WorkerSpec("w0", HOT_PROG))
        stats = eng.run()
    assert killed
    assert eng._workers[p.pid].restarts >= 1
    assert _snapshot(eng, stats) == baseline


def test_worker_killed_after_pretimed_apply_replays(monkeypatch):
    """SIGKILL the worker right after its first pre-timed result was
    consumed: the replay must regenerate and then *discard* the already
    applied drain (it is inside the consumed prefix) instead of applying
    it twice."""
    baseline, _ = _run_parallel(1, worker_lease=2)

    killed = []
    orig = ParallelEngine._apply_pretimed

    def killing_apply(self, w, msg):
        orig(self, w, msg)
        if not killed:
            killed.append(True)
            try:
                os.kill(w.process.pid, signal.SIGKILL)
                w.process.join(timeout=5)
            except (OSError, ValueError):
                pass

    monkeypatch.setattr(ParallelEngine, "_apply_pretimed", killing_apply)
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=1, worker_lease=2))
    eng.worker_backoff = 0.01
    with eng:
        p = eng.spawn_worker(WorkerSpec("w0", HOT_PROG))
        stats = eng.run()
    assert killed
    assert eng._workers[p.pid].restarts >= 1
    assert _snapshot(eng, stats) == baseline


def test_parallel_checkpoint_denies_leases(tmp_path):
    """An active checkpoint manager needs the strict per-reference stream
    (the reply log), so lease requests are denied — and the checkpointed
    run still matches the lease-off one."""
    path = str(tmp_path / "ck.pkl")
    snap_ck, eng_ck = _run_parallel(1, worker_lease=4,
                                    checkpoint_path=path,
                                    checkpoint_interval=2_000)
    snap_off, _ = _run_parallel(1, worker_lease=0)
    assert eng_ck.batch_stats["leases"] == 0
    assert (eng_ck.stand_downs["tapped"]
            == eng_ck.batch_stats["lease_denied"] > 0)
    assert snap_ck == snap_off


def test_lease_denied_under_bounded_stepping():
    """run(max_events=...) is used for incremental stepping; a lease
    could overshoot the stop point, so it must be denied."""
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=1, worker_lease=1,
                                         worker_batch=8))
    with eng:
        eng.spawn_worker(WorkerSpec("w0", HOT_PROG))
        while eng._live > 0:
            eng.run(max_events=500)
        stats = eng.stats
    assert eng.batch_stats["leases"] == 0
    assert eng.stand_downs["bounded_run"] == eng.batch_stats["lease_denied"]
    snap_strict, _ = _run_parallel(1, worker_lease=0)
    assert _snapshot(eng, stats) == snap_strict


def test_parallel_run_cut_and_continued_equals_uncut():
    """A ``max_events`` cut leaves the interval timer armed: slices land
    the uncut run, its timer interrupts included."""
    os_cfg = OSConfig(timer_interval=20_000)
    snap, whole = _run_parallel(1, worker_lease=0, os=os_cfg)
    assert whole.stats.interrupt_counts["timer"] > 2
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=1, worker_lease=0,
                                         os=os_cfg))
    with eng:
        eng.spawn_worker(WorkerSpec("w0", HOT_PROG))
        while eng._live > 0:
            eng.run(max_events=3_000)
    assert _snapshot(eng, eng.stats) == snap


def test_sampler_denies_leases():
    """A sampler switches timing modes by event count; a lease drains
    through the switch with detail-mode timing (it used to move the
    *simulated* result), so an installed sampler denies every request."""
    sc = SamplingConfig(detail_events=2_000, ff_events=8_000)
    snap_lease, eng_lease = _run_parallel(1, worker_lease=4, sampling=sc)
    snap_strict, _ = _run_parallel(1, worker_lease=0, sampling=sc)
    assert snap_lease == snap_strict
    assert eng_lease.batch_stats["leases"] == 0
    assert eng_lease.batch_stats["lease_denied"] > 0
    # by name: the gate's own reason inside fast-forward windows, the
    # lease's in detail ones
    sd = eng_lease.stand_downs
    assert sd["sampler"] > 0 and sd["fast_forward"] > 0
    assert sum(sd.values()) == eng_lease.batch_stats["lease_denied"]


# ---------------------------------------------------------------------------
# Layer 2: the grant rule (_rival_stream_bound), on hand-built state
# ---------------------------------------------------------------------------

HOT = 0x1_0000      # rival lines warmed into its L1 (MODIFIED)
COLD = 0x5_0000     # mapped, never touched


def _parked_pair():
    """Lessee ``p`` (pid 1, CPU 0) and rival ``q`` (pid 2, CPU 1), each
    parked on an L1-hit load past cycle 100 000; ``q`` is registered as a
    worker proxy whose queue the test fills by hand."""
    SimProcess._next_pid[0] = 1
    eng = ParallelEngine(complex_backend(num_cpus=2, coherence="mesi",
                                         num_nodes=1, worker_lease=4))

    def app(base):
        def run(proc):
            yield from proc.store(base)
            yield from proc.store(base + 32)
            proc.compute(100_000)
            yield from proc.load(base)
            yield from proc.exit(0)
        return run

    p = eng.spawn("p", app(0x2_0000))
    q = eng.spawn("q", app(HOT))
    eng.run(until=50_000)
    eng._run_until = eng._max_cycles + 1    # as an unbounded run() sets it
    for proc in (p, q):
        w = _Worker(WorkerSpec(proc.name, ""))
        w.proc = proc
        eng._workers[proc.pid] = w
    return eng, p, q, eng._workers[q.pid]


def test_rival_stream_bound_walks_hits_and_stops_at_visible_actions():
    eng, p, q, wq = _parked_pair()
    lat = eng.memsys._l1_latency
    far = 1 << 40
    t_e = q.port_event.time
    bound = lambda cap=far: eng._rival_stream_bound(q, cap)

    # the parked L1-hit load is walked through; nothing queued after it
    assert bound() == t_e + lat
    # L1-hit "m" messages and ADVANCE poll points are walked through ...
    wq.queue.extend([("m", 0, HOT + 32, 4, 10),     # load hit
                     ("m", 3, 0, 0, 5),             # ADVANCE
                     ("m", 1, HOT, 4, 7)])          # store hit (MODIFIED)
    t = t_e + lat + 10 + lat + 5 + 7 + lat
    assert bound() == t
    # ... a queued drain result spans its ``advance`` ...
    wq.queue.append(("pr", 3, 0, 3, 40, t + 30, {}, []))
    t += 40
    assert bound() == t
    # ... and the walk stops at the issue time of a reference that misses
    wq.queue.append(("m", 0, COLD, 4, 3))
    wq.queue.append(("m", 0, HOT, 4, 1_000))
    assert bound() == t + 3
    # a control or exit message bounds at its own issue time
    del wq.queue[-1], wq.queue[-1]
    wq.queue.append(("c", 4, 0, 0, None, 9))
    assert bound() == t + 9
    wq.queue[-1] = ("exit", 0, 11)
    assert bound() == t + 11
    # clamped at ``cap``: inside the queue walk, and at the parked event
    assert bound(t_e + lat + 12) == t_e + lat + 12
    assert bound(t_e) == t_e
    # a miss on the parked event itself stops there
    q.port_event.addr = COLD
    assert bound() == t_e
    q.port_event.addr = HOT

    # a kernel-mode rival, one with a delivery due, and a rival that is
    # not a worker proxy run host code that reads the global clock right
    # after the reference: bounded at the parked event's own time
    q.kernel_mode = True
    assert bound() == t_e
    q.kernel_mode = False
    q.preempt_pending = True
    assert bound() == t_e
    q.preempt_pending = False
    del eng._workers[q.pid]
    assert bound() == t_e
    eng.shutdown()


def test_lease_window_reaches_past_a_rivals_parked_event():
    """The grant is bounded by the first *visible* thing the rival can
    do — here its queued control event — not by its parked L1 hit."""
    eng, p, q, wq = _parked_pair()
    wq.queue.extend([("m", 1, HOT + 32, 4, 500), ("c", 4, 0, 0, None, 500)])
    grant = eng._lease_decision(eng._workers[p.pid])
    assert grant[0] == "lg"
    t0, T = grant[1], grant[2]
    assert t0 == p.vtime + p.clock.pending
    lat = eng.memsys._l1_latency
    # pid 1 < pid 2: a tie at the bound goes to the lessee, hence the +1
    assert T == q.port_event.time + lat + 500 + lat + 500 + 1
    assert T > q.port_event.time
    # with the rival's next reference a miss the window ends at the miss,
    # too close to be worth a snapshot: denied
    wq.queue.clear()
    wq.queue.append(("m", 0, COLD, 4, 5))
    assert eng._lease_decision(eng._workers[p.pid]) == ("ld",)
    assert eng.batch_stats["lease_denied"] == 1
    assert eng.stand_downs["short_window"] == 1
    # the gate every window passes is the head of the decision
    p.preempt_pending = True
    assert eng._lease_decision(eng._workers[p.pid]) == ("ld",)
    assert eng.stand_downs["delivery"] == 1
    assert sum(eng.stand_downs.values()) == eng.batch_stats["lease_denied"]
    eng.shutdown()
