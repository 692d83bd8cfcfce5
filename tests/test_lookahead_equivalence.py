"""Bit-identity of the conservative lookahead windows, on both engines.

The batched hot loop may drain references past the strict rival horizon,
but only references satisfying the L1 fast-path full-hit predicate — which
touch nothing outside the issuer's private state, so any interleaving of
them commutes with the strict order. How far each rival stays invisible is
read from the cached classification of its parked batch, or walked
reference by reference when the rival's L1 moved since its last run (the
``scalar`` substitution forces the walk); both qualifiers must grant the
same windows (``test_frontier.py`` compares them bound by bound).

``ParallelEngine`` workers ship the batches their interpreters fill into that
same pipeline; a still-computing worker bounds the others (``_round_gate``).

Windows are asked for wherever batches exist and must land *exactly* the
strict schedule's result (:func:`tests.equivalence.check`) — with and
without fault plans, and composed with checkpoint/restore, sampling,
segmented runs and worker crash/replay. The batched run without them is
the ``no_windows`` substitution. This module adds what the windows did:
where they opened, how far they reached, and where they stood down.
"""

from __future__ import annotations

import itertools
import os
import signal
from dataclasses import replace

import pytest

from repro import complex_backend
from repro.core.communicator import Communicator
from repro.core.config import OSConfig
from repro.core.frontend import ProcState, SimProcess
from repro.host import ParallelEngine, WorkerSpec
from repro.host.parallel import _Worker

from tests.equivalence import (ARMS, CLOCK_READERS, DEFAULT, HOT_PROG, LATE,
                               LATTICE, MIX, PROGS, SCAN, SPACED, WORKLOADS,
                               Isa,
                               build, check, reference, simulate, snapshot,
                               sub, toucher)

# ---------------------------------------------------------------------------
# inline engine windows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lookahead_bit_identical(name):
    _, off = check(name, [DEFAULT, sub("no_windows")])
    # the batched run cut at the strict horizon never grants a window
    assert off.counters["batch_stats"]["la_windows"] == 0
    assert off.counters["batch_stats"]["la_refs"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lookahead_bit_identical_under_faults(name):
    on, _ = check(name, [DEFAULT, sub("no_windows")], "plan")
    assert on.counters["draws"] > 0


def test_lookahead_drains_past_horizon():
    """On a private-heavy workload the windows must actually engage —
    references are consumed beyond the strict rival cut — while staying
    bit-identical and using far fewer batch dispatches; and the windows
    are the same whichever qualifier bounded them (``check``: the
    ``scalar`` twin opens the same windows)."""
    on, off, _ = check("private_heavy", [DEFAULT, sub("no_windows"),
                                         sub("scalar")])
    bs_on = on.counters["batch_stats"]
    # pinned: the owner's cursor probe (the round's "miss") must not
    # cost a warm frontend a window. Before it there were 124 — one opened
    # for the last, missing reference of a cold pass, which extended nothing
    assert (bs_on["la_windows"], bs_on["la_refs"]) == (123, 22_999)
    assert on.counters["stand_downs"]["miss"] == 4 * 256   # the cold pass
    assert bs_on["batches"] < off.counters["batch_stats"]["batches"]
    # the owner's classification did the work: past warm-up a rival's
    # bound is read from it, not walked (three queries a window)
    assert on.counters["vec"]["walks"] < bs_on["la_windows"] // 2


@pytest.mark.parametrize("name", sorted(CLOCK_READERS))
@pytest.mark.parametrize("mode", ["clean", "plan"], ids=["plain", "faults"])
def test_window_never_outruns_a_rivals_invisible_reference(name, mode):
    """A rival's parked single memory event bounds a window at its *own*
    time, and an all-invisible batch at its last reference's issue time —
    not at the completion: the references are invisible, but the host code
    the rival runs right after them reads the global clock."""
    check(name, [DEFAULT, sub("scalar"), sub("no_windows")], mode)


@pytest.mark.parametrize("name", sorted(CLOCK_READERS))
@pytest.mark.parametrize("mode", ["clean", "plan"], ids=["plain", "faults"])
def test_all_knob_arms_land_one_fingerprint(name, mode):
    """Both arms and the windows' reference implementations agree — on
    the checkpoint bench's TPC-C (where default and strict used to end one
    cycle apart) and on the hand-built rivals — and the two qualifiers
    grant the same windows, not just the same result."""
    check(name, [*ARMS, sub("scalar"), sub("no_windows")], mode)


def test_window_reaches_the_rivals_bound():
    """A window has no size of its own: it reaches the nearest task / run
    bound unless a rival's qualified bound cuts it first. Pinned: a scan
    budget of ``64 x`` the protocol's cheapest remote latency used to cut
    this run's windows nine times as often (1 167), for the same result."""
    on, _, _ = check("spaced", [DEFAULT, sub("scalar"), sub("no_windows")])
    assert on.counters["batch_stats"]["la_windows"] == 128


@pytest.mark.parametrize("name", sorted(SPACED))
def test_spaced_windows_are_the_scalar_walks(name):
    """Every spaced shape (MESI at 20 to 1 000 cycles of work a line, DSM
    at 200) opens windows, and the classification grants exactly the
    windows the scalar walk grants (``check``: the ``scalar`` twin's
    ``batch_stats`` equal the default's)."""
    on, _, _ = check(name, [DEFAULT, sub("scalar"), sub("no_windows")])
    assert on.counters["batch_stats"]["la_windows"] > 0


# ---------------------------------------------------------------------------
# windows x checkpointing
# ---------------------------------------------------------------------------

def test_lookahead_never_granted_while_recording(tmp_path):
    """An active checkpoint recorder wraps the memory system; the reply
    log needs the strict per-reference stream, so the engine must not
    grant windows — and the result must still be the strict one."""
    res, eng = simulate("oltp", {**DEFAULT,
                                 "checkpoint_path": str(tmp_path / "ck.pkl"),
                                 "checkpoint_interval": 2_000})
    assert res.snap == reference("oltp")
    assert eng._ckpt.saves > 0
    assert res.counters["batch_stats"]["la_refs"] == 0


def test_checkpoint_resume_with_lookahead_on():
    """Crash + resume with lookahead enabled reproduces the uninterrupted
    strict run: replayed stretches never grant windows (the replay wrapper
    needs the strict stream) and post-replay stretches resume the
    recorder, which also denies."""
    check("dss", [DEFAULT], "resume")


# ---------------------------------------------------------------------------
# ParallelEngine: workers ship the same batches into the same pipeline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prog,n,i", [
    *itertools.product(("hot", "locky"), (1, 3), range(len(LATTICE))),
    *itertools.product(("scan", "sys"), (1, 2, 3, 4), (0,))])
def test_parallel_equals_strict_inline(prog, n, i):
    """Every corner of the ``LATTICE`` on a ParallelEngine lands the
    strict inline ISA run (``fastpath=False`` replays shipped batches
    reference by reference; the proxies' windows and bulk path may be
    substituted); where a computing worker's bound cuts a batch is the
    host's timing."""
    check(Isa((PROGS[prog],) * n, parallel=True), [LATTICE[i]])


@pytest.mark.parametrize("name", ["scalar", "interpreted", "no_windows"])
def test_parallel_substitutions_equal_strict_inline(name):
    """Each self-selecting layer's reference implementation, in workers
    (the interpreter) or behind the proxies (the scalar loop and walk, a
    batched run with no window), lands the strict inline run too."""
    check(Isa((HOT_PROG, PROGS["locky"], HOT_PROG), parallel=True),
          [sub(name)])


@pytest.mark.parametrize("parallel", [False, True],
                         ids=["inline", "parallel"])
def test_all_miss_frontends_ask_for_no_window(monkeypatch, parallel):
    """Table 3's shape — every reference a miss, every batch cut after
    one — on either engine: the owner's cursor probe stands each round
    down, so no rival is ever qualified for a window that could retire
    nothing, and the run is the strict one."""
    row = Isa((SCAN,) * 4, parallel)
    ref = reference(row)
    asked = []
    orig = Communicator.lookahead_horizon
    monkeypatch.setattr(
        Communicator, "lookahead_horizon",
        lambda self, *a: asked.append(a[1:3]) or orig(self, *a))
    res, _ = simulate(row)
    assert res.snap == ref
    assert not asked and res.counters["batch_stats"]["la_windows"] == 0
    assert res.counters["stand_downs"]["miss"] > 0
    # the spy sees what it should: a warm pair does get qualified
    simulate(Isa((HOT_PROG,) * 2, parallel))
    assert asked


def test_parallel_under_timing_plan_equals_inline():
    on, = check(Isa((HOT_PROG, SCAN, HOT_PROG), parallel=True), [DEFAULT],
                "plan")
    assert on.counters["draws"] > 0


@pytest.mark.parametrize("starved", [False, True], ids=["greedy", "starved"])
def test_parallel_sampled_equals_inline_sampled(starved):
    """A sampler switches phase at cycles on a fixed grid, so where the
    gate cuts a batch is not part of a sampled result: repeated parallel
    runs land the strict inline sampled run, also when a harvest reads one
    message a pipe. Only the snapshot is held; the batch cuts, and so
    ``batch_stats``, move with the wall clock."""
    cfg = sub("starved") if starved else DEFAULT
    for row in (Isa((MIX, LATE)), Isa((MIX, LATE, MIX)),
                Isa((MIX,), extra=toucher)):
        ref = reference(row, "sampled")
        assert ref != reference(row)                    # it switched
        for _ in range(3):
            res, _ = simulate(replace(row, parallel=True), cfg, "sampled")
            assert res.snap == ref


def test_parallel_checkpointed_equals_inline(tmp_path):
    """An active checkpoint manager taps ``access``: every shipped batch
    goes through it reference by reference, no window opens."""
    row = Isa((HOT_PROG,) * 2, parallel=True)
    res, eng = simulate(row, {**DEFAULT,
                              "checkpoint_path": str(tmp_path / "ck.pkl"),
                              "checkpoint_interval": 2_000})
    assert res.snap == reference(row)
    assert eng._ckpt.saves > 0
    assert res.counters["batch_stats"]["la_windows"] == 0
    assert res.counters["stand_downs"]["tapped"] > 0


def test_parallel_run_cut_and_continued_equals_uncut():
    """A ``max_events`` cut leaves the interval timer armed and a shipped
    batch half-consumed at the port: slices of any size — one event
    included — land the uncut run, its timer interrupts included."""
    row = Isa((HOT_PROG,), parallel=True)
    timer = {**DEFAULT, "os": OSConfig(timer_interval=20_000)}
    whole, eng = simulate(row, timer)
    assert eng.stats.interrupt_counts["timer"] > 2
    for segment in (3_000, 1):
        with build(row, timer) as eng:
            while eng._live > 0:
                eng.run(max_events=segment)
        assert snapshot(eng, eng.stats) == whole.snap


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
    row = Isa((HOT_THEN_CALL,) * 2, parallel=True)
    check(row, [DEFAULT])
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
    res, eng = simulate(row)
    assert killed and eng._workers[1].restarts >= 1
    assert res.snap == reference(row)


def _winner_and_computing_worker(worker_first):
    """An in-process frontend parked on a batch and a proxy
    whose worker is still computing (no process behind it: nothing ever
    arrives), spawned in either pid order. Returns (engine, frontend,
    proxy, and the first batch round's ``(pid, bound, la_windows)``)."""
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
    handle_batch = eng._handle_batch

    def stop_after_round(proc, batch, bound, budget):
        handle_batch(proc, batch, bound, budget)
        seen.append((proc.pid, bound, eng.batch_stats["la_windows"]))
        raise KeyboardInterrupt

    eng._handle_batch = stop_after_round
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
    assert seen == [(p.pid, cap, 0)]        # bound there, no window opened
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
    for knob in ("worker_lease", "worker_batch", "lookahead", "vectorized",
                 "translate"):
        with pytest.raises(TypeError, match=knob):
            complex_backend(num_cpus=1, **{knob: 4})


def test_worker_beside_an_inprocess_batching_frontend_equals_inline():
    """A ``touch`` frontend inside a ParallelEngine publishes batches and
    windows open between it and the worker's; oracle: all-inline, strict."""
    on, = check(Isa((HOT_PROG,), parallel=True, extra=toucher), [DEFAULT])
    assert on.counters["batch_stats"]["la_windows"] > 0
