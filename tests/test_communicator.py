"""Communicator / CPU-states tests: registration and min-time selection."""

import pytest
from hypothesis import given, strategies as st

from repro import complex_backend
from repro.core import events as ev
from repro.core.communicator import Communicator, CpuState
from repro.core.config import with_os
from repro.core.errors import CommunicatorError
from repro.core.frontend import ProcState, SimProcess
from repro.osim.schedulers import ProcessScheduler
from repro.service.workloads import WORKLOADS


def proc_with_event(name, t):
    p = SimProcess(name)
    e = ev.advance()
    e.time = t
    p.port_event = e
    return p


def machine(num_cpus, *procs):
    """A communicator scanning a fresh scheduler's CPU map, with ``procs``
    registered and bound (CPUs in argument order while they last)."""
    s = ProcessScheduler(num_cpus)
    c = Communicator(s.on_cpu)
    for p in procs:
        c.register(p)
        s.admit(p)
    return c


def test_register_rejects_duplicates():
    c = machine(1)
    p = SimProcess("a")
    c.register(p)
    with pytest.raises(CommunicatorError):
        c.register(p)


def test_zero_cpus_rejected():
    with pytest.raises(CommunicatorError):
        Communicator([])


def test_select_min_time():
    a = proc_with_event("a", 50)
    b = proc_with_event("b", 20)
    c = machine(2, a, b)
    assert c.select() is b


def test_select_tie_breaks_by_pid():
    a = proc_with_event("a", 10)
    b = proc_with_event("b", 10)
    c = machine(2, a, b)
    assert c.select() is (a if a.pid < b.pid else b)


def test_select_skips_empty_ports():
    a = proc_with_event("a", 10)
    b = proc_with_event("b", 5)
    b.port_event = None
    c = machine(2, a, b)
    assert c.select() is a


def test_select_none_when_no_ports():
    c = machine(1)
    assert c.select() is None


def test_next_event_time():
    a = proc_with_event("a", 30)
    b = proc_with_event("b", 7)
    c = machine(2, a, b)
    assert c.next_event_time() == 7


def test_batch_horizon_none_without_rival():
    a = proc_with_event("a", 10)
    c = machine(2, a)
    assert c.select() is a
    assert c.batch_horizon(a) is None


def test_batch_horizon_tie_break_directions():
    # winner has the smaller pid: it also wins the tie at t2, so the
    # horizon extends one cycle past the rival's timestamp
    a = proc_with_event("a", 10)     # lower pid
    b = proc_with_event("b", 40)
    c = machine(2, a, b)
    assert a.pid < b.pid
    assert c.select() is a
    assert c.batch_horizon(a) == 41
    # winner has the larger pid: it loses the tie, horizon is exactly t2
    a.port_event.time = 40
    b.port_event.time = 10
    assert c.select() is b
    assert c.batch_horizon(b) == 40


def test_batch_horizon_uses_second_best_rival():
    a = proc_with_event("a", 5)
    b = proc_with_event("b", 90)
    d = proc_with_event("d", 30)
    c = machine(3, a, b, d)
    assert c.select() is a
    assert c.batch_horizon(a) == 31   # d is the binding rival, a wins ties


def test_select_tie_break_with_horizon_active():
    # equal event times resolve by pid whether or not a horizon is computed
    a = proc_with_event("a", 25)
    b = proc_with_event("b", 25)
    c = machine(2, a, b)
    lo, hi = (a, b) if a.pid < b.pid else (b, a)
    assert c.select() is lo
    assert c.batch_horizon(lo) == 25 + 1   # lo also wins ties at t == 25
    assert c.batch_horizon(hi) == 25   # hi would lose the tie


def test_cpu_state_irq_flag():
    s = CpuState(0)
    assert not s.irq_requested
    s.irq_pending.append(object())
    assert s.irq_requested


def test_cpu_of_requires_binding():
    s = ProcessScheduler(1)
    c = Communicator(s.on_cpu)
    p = SimProcess("a")
    c.register(p)
    with pytest.raises(CommunicatorError):
        c.cpu_of(p)
    s.admit(p)
    assert c.cpu_of(p).index == 0


# -- select: the (time, pid) rule, and instance-level overrides --------------

def _select_by_tuple(procs):
    """The selection rule as the definition states it: smallest
    ``(event time, pid)`` among ``procs`` with a parked event."""
    ports = [(p.port_event.time, p.pid, p) for p in procs
             if p.port_event is not None]
    return min(ports, key=lambda k: k[:2])[2] if ports else None


@given(st.lists(st.one_of(st.none(), st.integers(0, 6)), max_size=8),
       st.randoms(use_true_random=False))
def test_select_matches_tuple_rule(times, rng):
    procs = [SimProcess(f"p{i}") for i in range(len(times))]
    rng.shuffle(procs)     # scan (CPU) order is independent of pid order
    for p, t in zip(procs, times):
        if t is not None:
            p.port_event = ev.advance()
            p.port_event.time = t
    c = machine(8, *procs)
    assert c.select() is _select_by_tuple(procs)


# -- who runs where: one record, scanned as it stands -------------------------

def _preemptive(**kw):
    """A machine whose affinity scheduler pre-empts every 20 000 cycles."""
    return with_os(complex_backend(**kw), preemptive=True,
                   scheduler="affinity", quantum=20_000,
                   timer_interval=20_000)


def _assert_one_record(eng):
    """For every CPU ``c`` and process ``p``: ``on_cpu[c] is p`` iff
    ``p.cpu == c`` and ``p`` is RUNNING, and the communicator scans
    exactly the bound processes."""
    on_cpu = eng.procsched.on_cpu
    procs = list(eng.comm.processes.values())
    for c, bound in enumerate(on_cpu):
        for p in procs:
            assert (bound is p) == (p.cpu == c
                                    and p.state == ProcState.RUNNING), \
                (c, p, p.cpu, p.state)
    running = [p for p in procs if p.state == ProcState.RUNNING]
    assert all(p.cpu >= 0 for p in running)
    assert eng.comm.select() is _select_by_tuple(running)
    times = [p.port_event.time for p in running if p.port_event is not None]
    assert eng.comm.next_event_time() == (min(times) if times else None)


@pytest.mark.parametrize("row,kw,preempts", [
    ("webserver", {}, False),
    ("oltp", {"nagents": 5}, True),     # five agents on two CPUs
], ids=["webserver", "oltp-oversubscribed"])
def test_cpu_map_is_the_one_record_of_who_runs_where(row, kw, preempts):
    """Stepped in 200-event segments under a pre-emptive affinity
    scheduler, every boundary finds the scheduler's CPU map, ``proc.cpu``
    / ``proc.state`` and the communicator's scan in agreement. Both rows
    block and are re-dispatched; the oversubscribed one is pre-empted."""
    SimProcess.set_pid_counter(1)
    eng = WORKLOADS[row](_preemptive, **kw)
    boundaries = 0
    while eng._live > 0:
        eng.run(max_events=200)
        _assert_one_record(eng)
        boundaries += 1
    assert boundaries > 50
    sched = eng.procsched
    assert sched.dispatch_count > 10 * len(eng.comm.processes)
    assert (sched.preemptions > 0) == preempts


def _load_interleave_ablation():
    import importlib.util
    from pathlib import Path
    path = (Path(__file__).resolve().parent.parent / "benchmarks"
            / "bench_ablation_interleave.py")
    spec = importlib.util.spec_from_file_location("_interleave_abl", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_instance_level_select_override_is_honoured_and_restored():
    """``Engine.run`` binds ``comm.select`` once per run, from the
    instance: the interleaving ablation's sticky selector must decide the
    order for that run, and the communicator's own rule must be back
    afterwards."""
    from repro import complex_backend
    abl = _load_interleave_ablation()

    def run(engine_cls, *args):
        SimProcess.set_pid_counter(1)
        eng = engine_cls(complex_backend(num_cpus=4, fastpath=False), *args)
        for i in range(4):
            eng.spawn(f"w{i}", abl.contended_app(20))
        order = []
        inner = eng._handle_event
        eng._handle_event = lambda p, e: (order.append(p.pid), inner(p, e))[1]
        stats = eng.run()
        return eng, order, stats.end_cycle

    _, exact_order, exact_end = run(abl.Engine)
    eng, sticky_order, sticky_end = run(abl.RelaxedEngine, 8)
    assert sorted(sticky_order) == sorted(exact_order)   # same events...
    assert sticky_order != exact_order                   # ...other order
    assert sticky_end != exact_end
    assert eng.comm.select.__func__ is Communicator.select
