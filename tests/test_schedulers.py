"""Process-scheduler unit tests (§3.3.2)."""

import pytest

from repro.core.errors import SchedulerError
from repro.core.frontend import ProcState, SimProcess
from repro.osim.schedulers import ProcessScheduler


def procs(n):
    return [SimProcess(f"p{i}") for i in range(n)]


def test_admit_assigns_free_cpu():
    s = ProcessScheduler(2)
    a, b, c = procs(3)
    assert s.admit(a) == (a, 0)
    assert s.admit(b) == (b, 1)
    assert s.admit(c) is None
    assert c.state == ProcState.READY
    assert s.ready_count() == 1


def test_release_hands_cpu_to_waiter():
    s = ProcessScheduler(1)
    a, b = procs(2)
    s.admit(a)
    s.admit(b)
    nxt = s.release_cpu(a)
    assert nxt == (b, 0)
    assert a.cpu == -1 and b.cpu == 0


def test_release_with_empty_queue_frees_cpu():
    s = ProcessScheduler(1)
    a, = procs(1)
    s.admit(a)
    assert s.release_cpu(a) is None
    assert s.free_cpus() == [0]


def test_release_requires_holding():
    s = ProcessScheduler(1)
    a, b = procs(2)
    s.admit(a)
    with pytest.raises(SchedulerError):
        s.release_cpu(b)


def test_fcfs_ignores_history():
    s = ProcessScheduler(2, "fcfs")
    a, = procs(1)
    a.cpu_history = [1]
    assert s.admit(a) == (a, 0)     # first available, not the historical one


def test_affinity_prefers_last_cpu():
    s = ProcessScheduler(2, "affinity")
    a, = procs(1)
    a.cpu_history = [1]
    assert s.admit(a) == (a, 1)
    assert s.affinity_hits == 1


def test_affinity_falls_back_to_used_cpu():
    s = ProcessScheduler(3, "affinity")
    a, b = procs(2)
    b.cpu_history = [1]
    s.admit(b)                      # last-used busy
    a.cpu_history = [2, 1]
    assert s.admit(a) == (a, 2)


def test_affinity_same_node_fallback():
    s = ProcessScheduler(4, "affinity", cpu_node=[0, 0, 1, 1])
    a, b = procs(2)
    b.cpu_history = [2]
    s.admit(b)                      # b takes a's historical cpu2
    a.cpu_history = [2]
    # cpu3 shares node 1 with the historical cpu2
    assert s.admit(a) == (a, 3)


def test_preempt_rotates_with_waiters():
    s = ProcessScheduler(1)
    a, b = procs(2)
    s.admit(a)
    s.admit(b)
    disp = s.preempt(a)
    assert disp == (b, 0)
    assert a.state == ProcState.READY
    assert s.preemptions == 1
    # a is at the tail now
    assert s.release_cpu(b) == (a, 0)


def test_preempt_noop_without_waiters():
    s = ProcessScheduler(1)
    a, = procs(1)
    s.admit(a)
    assert s.preempt(a) is None
    assert a.cpu == 0


def test_double_bind_rejected():
    s = ProcessScheduler(1)
    a, b = procs(2)
    s.admit(a)
    with pytest.raises(SchedulerError):
        s._bind(b, 0)


def test_remove_from_ready_queue():
    s = ProcessScheduler(1)
    a, b = procs(2)
    s.admit(a)
    s.admit(b)
    s.remove(b)
    assert s.release_cpu(a) is None


def test_unknown_policy_rejected():
    with pytest.raises(SchedulerError):
        ProcessScheduler(1, "rr")


def test_cpu_history_recorded_once_per_stint():
    s = ProcessScheduler(2, "affinity")
    a, = procs(1)
    s.admit(a)
    s.release_cpu(a)
    s.admit(a)
    assert a.cpu_history == [0]      # same cpu, no duplicate entry
