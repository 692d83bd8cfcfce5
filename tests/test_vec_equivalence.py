"""Bit-identity of the vectorized batch memory path.

The vec path (``SimConfig.vectorized``) mirrors the L1 tag/state arrays
and page tables in numpy, classifies whole EventBatch runs in one
vectorized membership test, and retires 100%-private-hit runs in bulk
array ops. Like the scalar fast path it is a pure host-side optimisation:
simulated cycle counts, cache statistics, CPU time buckets and the memory
trace must be *exactly* those of the scalar loop on every workload class
the paper studies (OLTP, DSS, webserver, SPLASH kernel) — tapped and
untapped, composed with conservative lookahead windows and with the
batches ParallelEngine workers ship. Fingerprints see LRU *order* only
through later evictions, so every on/off pair also ends with the same
per-set MRU lists and line states, L1 and L2, list for list.
"""

from __future__ import annotations

import pytest

from repro import Engine, complex_backend
from repro.apps.minidb import MiniDb, TpcdDriver, tpcd_catalog
from repro.core.frontend import SimProcess

from tests.test_fastpath_equivalence import (BATCHING_WORKLOADS, WORKLOADS,
                                             _run, _snapshot)
from tests.test_lookahead_equivalence import (HOT_PROG, _private_heavy,
                                              _run_inline, _run_isa)


#: a CPU pays one rebuild when it turns warm and one more per fill that
#: interrupts its hit streak; the warm scenarios below fill once, up front
WARM_REBUILDS_PER_CPU = 2


def _assert_same_caches(eng_on, eng_off):
    """End-of-run cache contents *and* LRU order, L1 and L2."""
    on, off = eng_on.memsys, eng_off.memsys
    assert on._l1_sets == off._l1_sets
    assert on._l1_states == off._l1_states
    assert [c._sets for c in on.l2s] == [c._sets for c in off.l2s]
    assert on._l2_states == off._l2_states


def _watch_resyncs(eng):
    """Watch the mirror of ``eng`` (before it runs) for thrash: returns a
    list that collects ``(cpu, version at its previous entry, version
    now)`` for every rebuild made by a CPU whose L1 version moved since
    its previous entry into the vec path."""
    vec = eng.memsys._vec
    l1s = eng.memsys.l1s
    prev = {}
    thrash = []
    run, rebuild = vec.run, vec._rebuild_cache

    def watched_rebuild(cpu):
        if prev.get(cpu) != l1s[cpu].version:
            thrash.append((cpu, prev.get(cpu), l1s[cpu].version))
        rebuild(cpu)

    def watched_run(pid, cpu, *args, **kwargs):
        at_entry = l1s[cpu].version
        try:
            return run(pid, cpu, *args, **kwargs)
        finally:
            prev[cpu] = at_entry

    vec.run = watched_run
    vec._rebuild_cache = watched_rebuild
    return thrash


# ---------------------------------------------------------------------------
# tapped runs: the memtrace tap forces the per-reference loop, so the vec
# path must stand down and change nothing (trace included in the compare)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vec_tapped_bit_identical(name):
    build = WORKLOADS[name]
    snap_on, eng_on = _run(build, fastpath=True, vectorized=True)
    snap_off, eng_off = _run(build, fastpath=True, vectorized=False)
    assert snap_on == snap_off
    _assert_same_caches(eng_on, eng_off)
    # the scalar arm must never construct the mirror
    assert eng_off.memsys._vec is None
    assert eng_off.memsys.vec_refs == 0


# ---------------------------------------------------------------------------
# untapped runs: the inlined hot loop, where the vec path actually engages
# ---------------------------------------------------------------------------

def _run_untapped(build, watch=False, **cfg):
    SimProcess._next_pid[0] = 1
    eng, finish = build(**cfg)
    thrash = _watch_resyncs(eng) if watch else None
    stats = finish()
    snap = _snapshot(eng, stats, rec=None)
    del snap["trace"]
    if watch:
        assert thrash == []
    return snap, eng


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vec_untapped_bit_identical(name):
    build = WORKLOADS[name]
    snap_on, eng_on = _run_untapped(build, watch=True, fastpath=True,
                                    vectorized=True)
    snap_off, eng_off = _run_untapped(build, fastpath=True, vectorized=False)
    assert snap_on == snap_off
    _assert_same_caches(eng_on, eng_off)
    assert eng_off.memsys.vec_refs == 0
    ms = eng_on.memsys
    if name in BATCHING_WORKLOADS:
        # cold, miss-heavy runs: the vec arm considers the batches and must
        # not thrash — a stale mirror is declined, not rebuilt, until the
        # CPU turns warm, so no rebuild goes without a run it retired
        assert ms.vec_fallbacks > 0
        assert ms.vec_rebuilds <= ms.vec_batches


def build_warm_scan(**cfg):
    """A TPC-D Q1 scan re-executed over an L1-resident table fragment: the
    first pass fills, every later pass is all hits."""
    eng = Engine(complex_backend(num_cpus=1, num_nodes=1, **cfg))
    db = MiniDb(eng, tpcd_catalog(scale=0.00004), pool_frames=128)
    db.setup()
    drv = TpcdDriver(db, nagents=1, io="read", scan_stride=8, passes=12)
    drv.spawn_q1(eng)
    return eng, eng.run


def test_vec_engages_on_warm_scan():
    """Where the mirror should pay it must engage: the warm passes retire
    through it, after a bounded number of rebuilds."""
    snap_on, eng_on = _run_untapped(build_warm_scan, watch=True,
                                    vectorized=True)
    snap_off, eng_off = _run_untapped(build_warm_scan, vectorized=False)
    assert snap_on == snap_off
    _assert_same_caches(eng_on, eng_off)
    ms = eng_on.memsys
    assert ms.vec_refs > ms.accesses // 2
    assert 0 < ms.vec_rebuilds <= WARM_REBUILDS_PER_CPU


def test_vec_off_in_config_disables_mirror():
    eng = Engine(complex_backend(num_cpus=1, vectorized=False))
    assert eng.memsys._vec is None
    eng2 = Engine(complex_backend(num_cpus=1, fastpath=False))
    # `vectorized` alone decides whether the mirror exists; with no
    # batches published nothing ever runs through it
    assert eng2.memsys._vec is not None


# ---------------------------------------------------------------------------
# composition with conservative lookahead windows
# ---------------------------------------------------------------------------

def test_vec_under_lookahead_bit_identical():
    snap_on, eng_on = _run_inline(_private_heavy, lookahead=True,
                                  vectorized=True)
    snap_off, eng_off = _run_inline(_private_heavy, lookahead=True,
                                    vectorized=False)
    assert snap_on == snap_off
    _assert_same_caches(eng_on, eng_off)
    # both mechanisms engaged in the vec arm, each CPU's mirror resynced
    # a bounded number of times
    assert eng_on.memsys.vec_refs > 0
    assert 0 < eng_on.memsys.vec_rebuilds <= 4 * WARM_REBUILDS_PER_CPU
    assert eng_on.batch_stats["la_refs"] > 0


# ---------------------------------------------------------------------------
# composition with ParallelEngine: shipped batches take the vec path too
# ---------------------------------------------------------------------------

def test_vec_under_parallel_engine_bit_identical():
    snap_on, eng_on = _run_isa([HOT_PROG] * 2, True, vectorized=True)
    snap_off, eng_off = _run_isa([HOT_PROG] * 2, True, vectorized=False)
    assert snap_on == snap_off
    _assert_same_caches(eng_on, eng_off)
    assert eng_on.memsys.vec_refs > 0 and eng_off.memsys.vec_refs == 0
    assert eng_on.batch_stats["la_refs"] > 0
