"""Host-parallel engine tests: determinism vs inline mode, syscalls,
locks across worker processes, host model."""

from dataclasses import replace

import pytest

from repro import complex_backend, simple_backend
from repro.harness.hostmodel import HostCosts, measure_context_switch, predict
from repro.host import ParallelEngine, WorkerSpec

from tests.equivalence import DEFAULT, LOCKY, SCAN, SYS, Isa, check, simulate


def test_parallel_matches_inline_single():
    check(Isa((SCAN,), parallel=True), [DEFAULT])


def test_parallel_matches_inline_multi():
    check(Isa((SCAN,) * 3, parallel=True), [DEFAULT])


def test_parallel_syscalls_work():
    eng = ParallelEngine(complex_backend(num_cpus=1))
    with eng:
        p = eng.spawn_worker(WorkerSpec("w", SYS))
        eng.run()
    assert p.exit_status == 0


def test_parallel_locks_across_workers():
    """The strict inline result, and its lock contention, which no
    snapshot holds."""
    row = Isa((LOCKY,) * 2, parallel=True)
    check(row, [DEFAULT])
    _, par = simulate(row)
    _, inline = simulate(replace(row, parallel=False))
    assert par.stats.get("lock_contention") == \
        inline.stats.get("lock_contention")


def test_parallel_time_breakdown_matches_inline():
    """The snapshot's fingerprint holds every CPU's time split."""
    check(Isa((SCAN,) * 2, parallel=True), [DEFAULT])


def test_shutdown_idempotent():
    eng = ParallelEngine(simple_backend(num_cpus=1))
    eng.spawn_worker(WorkerSpec("w", SCAN))
    eng.run()
    eng.shutdown()
    eng.shutdown()


def test_worker_spec_defaults():
    ws = WorkerSpec("x", SCAN)
    assert ws.segments and ws.regs == {}


class TestHostModel:
    def test_context_switch_measured_positive(self):
        t = measure_context_switch(iterations=200)
        assert 0 < t < 0.01

    def test_prediction_shapes(self):
        costs = HostCosts(t_fe=20e-6, t_be=10e-6, t_cs=30e-6)
        p = predict("complex", events=1000, raw_seconds=0.001, costs=costs,
                    host_cpus=4, frontends=4)
        assert p.uni_seconds > p.smp_seconds
        assert p.smp_speedup > 2        # the Table 3 claim with these costs
        assert p.uni_slowdown > p.smp_slowdown

    def test_single_cpu_host_no_speedup_from_frontends(self):
        costs = HostCosts(t_fe=10e-6, t_be=10e-6, t_cs=20e-6)
        p2 = predict("x", 1000, 0.001, costs, host_cpus=2, frontends=4)
        p8 = predict("x", 1000, 0.001, costs, host_cpus=8, frontends=4)
        assert p8.smp_seconds <= p2.smp_seconds
