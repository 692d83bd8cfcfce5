"""Engine behaviour: event processing, time accounting, interleaving."""

import pytest

from repro import (DeadlockError, Engine, ProcState, WaitToken,
                   complex_backend, simple_backend)


def test_single_process_runs_to_completion(engine1):
    def app(proc):
        proc.compute(100)
        yield from proc.store(0x10_000)
        yield from proc.exit(0)

    p = engine1.spawn("a", app)
    stats = engine1.run()
    assert p.state == ProcState.DONE
    assert p.exit_status == 0
    assert stats.end_cycle > 100


def test_compute_advances_time_exactly(engine1):
    marks = {}

    def app(proc):
        proc.compute(12345)
        yield from proc.advance()
        marks["t"] = proc.process.vtime
        yield from proc.exit(0)

    engine1.spawn("a", app)
    engine1.run()
    # vtime = ctx switch + 12345
    assert marks["t"] == engine1.cfg.os.ctx_switch_cycles + 12345


def test_memory_latency_added_to_vtime(engine1):
    lats = []

    def app(proc):
        lats.append((yield from proc.load(0x10_000)))
        lats.append((yield from proc.load(0x10_000)))
        yield from proc.exit(0)

    engine1.spawn("a", app)
    engine1.run()
    assert lats[0] > lats[1] == engine1.cfg.backend.l1.latency


def test_interleaving_is_time_ordered(engine2):
    """The min-execution-time rule: the slow process's events are processed
    before the fast process's later events."""
    order = []

    def make(name, step):
        def app(proc):
            for i in range(5):
                proc.compute(step)
                yield from proc.advance()
                order.append((name, proc.process.vtime))
            yield from proc.exit(0)
        return app

    engine2.spawn("fast", make("fast", 10))
    engine2.spawn("slow", make("slow", 1000))
    engine2.run()
    times = [t for _n, t in order]
    # ADVANCE events were globally processed in nondecreasing time order
    assert times == sorted(times)


def test_more_processes_than_cpus_all_finish():
    eng = Engine(simple_backend(num_cpus=2))

    def app(proc):
        for _ in range(3):
            yield from proc.store(0x10_000)
            r = yield from proc.call("nanosleep", 10_000)
            assert r.ok
        yield from proc.exit(0)

    procs = [eng.spawn(f"p{i}", app) for i in range(5)]
    eng.run()
    assert all(p.state == ProcState.DONE for p in procs)


def test_exit_status_propagates(engine1):
    def app(proc):
        yield from proc.exit(42)

    p = engine1.spawn("a", app)
    engine1.run()
    assert p.exit_status == 42


def test_deadlock_detected():
    eng = Engine(simple_backend(num_cpus=1))

    def app(proc):
        yield from proc.lock(1)
        yield from proc.lock(1)   # self-deadlock: relock without release
        yield from proc.exit(0)

    eng.spawn("a", app)
    eng._deadlock_window = 2_000_000   # fail fast in the test
    with pytest.raises(DeadlockError):
        eng.run()


def test_a_wait_nobody_wakes_is_a_deadlock():
    """A process blocked on a token no task will wake: after the window of
    silence only timer ticks are left, and they wake no one."""
    eng = Engine(simple_backend(num_cpus=1))

    def never(sys):
        sys.entry()
        yield WaitToken("never")
        return sys.result(0)

    eng.os_server.register("never", 1, never)

    def app(proc):
        yield from proc.call("never")
        yield from proc.exit(0)

    eng.spawn("a", app)
    eng._deadlock_window = 2_000_000   # fail fast in the test
    with pytest.raises(DeadlockError, match="timer ticks") as e:
        eng.run()
    assert [(p["state"], p["wait"]) for p in e.value.report["processes"]] \
        == [("BLOCKED", "never")]


def test_a_sleep_longer_than_the_deadlock_window_completes():
    """A ``nanosleep`` arms its own wake-up task: a sleeper is no deadlock
    however long the silence."""
    eng = Engine(simple_backend(num_cpus=1))

    def app(proc):
        r = yield from proc.call("nanosleep", 9_000_000)
        assert r.ok
        yield from proc.exit(0)

    p = eng.spawn("a", app)
    eng._deadlock_window = 2_000_000
    eng.run()
    assert p.state == ProcState.DONE
    assert eng.gsched.now >= 9_000_000


def test_run_until_bound(engine1):
    def app(proc):
        for _ in range(100):
            proc.compute(1000)
            yield from proc.advance()
        yield from proc.exit(0)

    p = engine1.spawn("a", app)
    engine1.run(until=5000)
    assert p.state != ProcState.DONE
    assert engine1.gsched.now <= 6000
    engine1.run()
    assert p.state == ProcState.DONE


@pytest.mark.parametrize("parallel", [False, True])
def test_run_until_holds_backend_tasks_too(parallel):
    """A backend task due past ``until`` must not run: with one process
    computing 5 M cycles before its first load, ``run(until=1_000_000)``
    returned at ``gsched.now == 3_990_000``. Continuing lands the uncut run."""
    from repro.core.frontend import SimProcess
    from repro.host import ParallelEngine
    from repro.service.workloads import fingerprint

    def build():
        SimProcess._next_pid[0] = 1
        eng = (ParallelEngine if parallel else Engine)(
            complex_backend(num_cpus=1))

        def app(proc):
            proc.compute(5_000_000)
            yield from proc.load(0x10_000)
            yield from proc.exit(0)

        eng.spawn("a", app)
        return eng

    whole = build()
    uncut = fingerprint(whole, whole.run())
    eng = build()
    for until in (1_000_000, 3_000_000):
        eng.run(until=until)
        assert eng.gsched.now <= until and eng._live == 1
    assert fingerprint(eng, eng.run()) == uncut


def test_max_events_bound(engine1):
    def app(proc):
        for _ in range(50):
            yield from proc.advance()
        yield from proc.exit(0)

    engine1.spawn("a", app)
    engine1.run(max_events=10)
    assert engine1.events_processed == 10


def test_user_time_charged(engine1):
    def app(proc):
        proc.compute(50_000)
        yield from proc.advance()
        yield from proc.exit(0)

    engine1.spawn("a", app)
    stats = engine1.run()
    assert stats.cpu[0].user >= 50_000


def test_unknown_syscall_returns_enosys(engine1):
    from repro.core.events import ENOSYS
    res = {}

    def app(proc):
        r = yield from proc.call("no_such_call")
        res["r"] = r
        yield from proc.exit(0)

    engine1.spawn("a", app)
    engine1.run()
    assert res["r"].errno == ENOSYS


def test_spawn_via_syscall(engine2):
    done = []

    def child(proc):
        proc.compute(10)
        yield from proc.advance()
        done.append(proc.process.pid)
        yield from proc.exit(0)

    def parent(proc):
        r = yield from proc.call("spawn", "kid", child)
        assert r.ok and r.value > 0
        r = yield from proc.call("waitpid", r.value)
        assert r.ok
        yield from proc.exit(0)

    engine2.spawn("parent", parent)
    engine2.run()
    assert len(done) == 1


def test_sim_onoff_switch_suppresses_cost(engine1):
    """The §5 instrumentation switch: OFF regions contribute no time."""
    times = {}

    def app(proc):
        proc.sim_off()
        proc.compute(1_000_000)          # invisible
        lat = yield from proc.load(0x10_000)
        assert lat == 0
        proc.sim_on()
        proc.compute(100)
        yield from proc.advance()
        times["t"] = proc.process.vtime
        yield from proc.exit(0)

    engine1.spawn("a", app)
    engine1.run()
    assert times["t"] < 50_000
