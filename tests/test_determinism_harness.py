"""Determinism guarantees and harness utilities."""

import pytest

from repro import Engine, FaultPlan, complex_backend
from repro.harness import (ProfileRow, measure_slowdown, profile_row,
                           render_table, top_oscall_table)
from repro.service.workloads import WORKLOADS, fingerprint

from tests.equivalence import build


def run_tpcc(seed):
    eng = WORKLOADS["oltp"](complex_backend, seed=seed)
    stats = eng.run()
    return stats.end_cycle, eng.events_processed, stats.total_cpu().busy


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        assert run_tpcc(3) == run_tpcc(3)

    def test_different_seeds_differ(self):
        assert run_tpcc(3) != run_tpcc(4)

    def test_splash_deterministic(self):
        def once():
            eng = WORKLOADS["splash"](complex_backend)
            st = eng.run()
            return st.end_cycle, eng.events_processed
        assert once() == once()


class TestFaultsOffBitIdentity:
    """``faults=None`` and an empty ``FaultPlan`` must be the *same*
    simulation: no RNG draws, no hooks, bit-identical statistics."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_empty_plan_is_no_plan(self, name):
        def run(faults):
            eng = build(name, faults=faults)
            return fingerprint(eng, eng.run()), eng

        fp_none, eng_none = run(None)
        fp_empty, eng_empty = run(FaultPlan())
        assert fp_none == fp_empty
        # disabled means *disabled*: nothing fired, nothing was drawn
        for eng in (eng_none, eng_empty):
            assert not eng.faults.enabled
            assert eng.faults.stats.draws == 0
            assert eng.faults.stats.total_fired == 0
            assert eng.stats.get("faults_injected") == 0


class TestProfileRow:
    def test_percentages_sum(self):
        eng = Engine(complex_backend(num_cpus=2))
        eng.os_server.fs.create("/f", b"x" * 8192)

        def app(proc):
            r = yield from proc.call("open", "/f", 0)
            yield from proc.call("kreadv", r.value, 0x100000, 8192)
            proc.compute(100_000)
            yield from proc.advance()
            yield from proc.exit(0)

        eng.spawn("a", app)
        stats = eng.run()
        row = profile_row("x", stats)
        assert row.user_pct + row.os_pct == pytest.approx(100.0)
        assert row.os_pct == pytest.approx(
            row.interrupt_pct + row.kernel_pct)

    def test_empty_stats_profile(self):
        from repro.core.stats import StatsRegistry
        row = profile_row("empty", StatsRegistry(1))
        assert row.user_pct == 0.0

    def test_top_oscall_table(self):
        eng = Engine(complex_backend(num_cpus=1))
        eng.os_server.fs.create("/f", b"x" * 4096)

        def app(proc):
            r = yield from proc.call("open", "/f", 0)
            yield from proc.call("kreadv", r.value, 0x100000, 4096)
            yield from proc.exit(0)

        eng.spawn("a", app)
        stats = eng.run()
        table = top_oscall_table(stats, 3)
        assert table and table[0][1] > 0
        names = [t[0] for t in table]
        assert "kreadv" in names


class TestSlowdown:
    def test_measure_slowdown(self):
        def raw():
            return sum(range(2000))

        def sim():
            eng = Engine(complex_backend(num_cpus=1))

            def app(proc):
                for _ in range(50):
                    yield from proc.store(0x10_000)
                yield from proc.exit(0)

            eng.spawn("a", app)
            return eng.run()

        res = measure_slowdown("t", raw, sim)
        assert res.raw_seconds > 0 and res.sim_seconds > 0
        assert res.slowdown == pytest.approx(
            res.sim_seconds / res.raw_seconds)
        assert res.simulated_cycles > 0
        assert res.row() == ("t", f"{res.raw_seconds:.3f}s",
                             f"{res.sim_seconds:.3f}s",
                             f"{res.slowdown:.0f}x")


class TestRenderTable:
    def test_alignment(self):
        out = render_table(("a", "bbbb"), [(1, 2), (333, 4)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        out = render_table(("x",), [])
        assert "x" in out


class TestStatsRegistry:
    def test_counters(self):
        from repro.core.stats import StatsRegistry
        s = StatsRegistry(1)
        s.counter("foo").add(3)
        s.counter("foo").add(2, key="a")
        assert s.get("foo") == 5
        assert s.counters["foo"].by_key == {"a": 2}
        assert s.get("missing") == 0

    def test_snapshot_keys(self):
        from repro.core.stats import StatsRegistry
        s = StatsRegistry(2)
        s.cpu[0].user = 10
        snap = s.snapshot()
        assert {"end_cycle", "cpu", "counters",
                "top_syscalls"} <= set(snap)

    def test_breakdown_of_idle_cpu(self):
        from repro.core.stats import CpuTimeStats
        c = CpuTimeStats()
        assert c.breakdown()["os"] == 0.0
        c.user = 50
        c.kernel = 30
        c.interrupt = 20
        b = c.breakdown()
        assert b["user"] == pytest.approx(0.5)
        assert b["os"] == pytest.approx(0.5)
