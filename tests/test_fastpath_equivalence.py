"""Bit-identity of the batched pipeline and of the L1 probe.

Batching (SimConfig.fastpath) is a pure host-side optimisation and the L1
probe is the memory model itself: batched delivery must produce *exactly*
the simulated cycle counts, cache statistics, CPU time buckets and memory
trace of the one-event-per-reference path, and both those of a run whose
every reference is serviced by the miss kernel, on every workload class
the paper studies (OLTP, DSS, webserver, SPLASH kernel).
"""

from __future__ import annotations

import pytest

from repro import Engine, complex_backend
from repro.apps.minidb import (MiniDb, TpccDriver, TpcdDriver, tpcc_catalog,
                               tpcd_catalog)
from repro.apps.splash import spawn_kernel
from repro.apps.webserver import (TracePlayer, generate_fileset, make_trace,
                                  prefork_web_server)
from repro.core.frontend import SimProcess
from repro.harness import fastpath_summary
from repro.traces.memtrace import MemTraceRecorder


# ---------------------------------------------------------------------------
# workload builders — each returns (engine, finish) for one fastpath setting
# ---------------------------------------------------------------------------

def build_oltp(**cfg):
    eng = Engine(complex_backend(num_cpus=2, **cfg))
    db = MiniDb(eng, tpcc_catalog(1, 0.005), pool_frames=16, seed=3)
    db.setup()
    drv = TpccDriver(db, nagents=2, tx_per_agent=3, seed=3,
                     think_cycles=5_000, user_work=20_000)
    drv.spawn_agents(eng)

    def finish():
        stats = eng.run()
        assert drv.committed == 6
        return stats

    return eng, finish


def build_dss(**cfg):
    eng = Engine(complex_backend(num_cpus=2, **cfg))
    cat = tpcd_catalog(scale=0.0001)
    db = MiniDb(eng, cat, pool_frames=16)
    db.setup()
    drv = TpcdDriver(db, nagents=2, io="read", rows_work=50)
    drv.spawn_q1(eng)

    def finish():
        stats = eng.run()
        assert drv.result is not None
        return stats

    return eng, finish


def build_web(**cfg):
    eng = Engine(complex_backend(num_cpus=4, coherence="mesi", num_nodes=1,
                                 **cfg))
    fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=0.1)
    trace = make_trace(fset, nrequests=8, seed=3)
    prefork_web_server(eng, nworkers=2)
    player = TracePlayer(eng, trace, fset, nclients=2, nworkers_to_quit=2)
    player.start()

    def finish():
        stats = eng.run()
        assert player.completed == 8
        return stats

    return eng, finish


def build_splash(**cfg):
    eng = Engine(complex_backend(num_cpus=4, **cfg))
    spawn_kernel(eng, "radix", 4, nkeys=512)
    return eng, eng.run


WORKLOADS = {
    "oltp": build_oltp,
    "dss": build_dss,
    "webserver": build_web,
    "splash": build_splash,
}


def _snapshot(eng, stats, rec):
    return {
        "end_cycle": stats.end_cycle,
        "events": eng.events_processed,
        "caches": eng.memsys.cache_summary(),
        "cpu": [(c.user, c.kernel, c.interrupt, c.idle, c.ctx_switch)
                for c in stats.cpu],
        "trace": rec.records if rec is not None else None,
    }


def miss_tap(eng):
    """The "probe off" reference: every reference, L1 hits included, is
    serviced by the miss kernel (``paddr=-1``: it translates itself)."""
    ms = eng.memsys
    ms.access = lambda pid, vaddr, size, write, cpu, now, atomic=False: \
        ms._miss(pid, vaddr, size, write, atomic, cpu, now, -1)


def _run(build, tap=None, **cfg):
    # pids feed the selection tie-break and address-space keys; both runs
    # must see identical numbering
    SimProcess._next_pid[0] = 1
    eng, finish = build(**cfg)
    if tap is not None:
        tap(eng)
    rec = MemTraceRecorder.attach(eng, max_records=2_000_000)
    stats = finish()
    assert rec.dropped == 0
    return _snapshot(eng, stats, rec), eng


#: workloads whose producers emit EventBatches (touch / copy_block /
#: interpreter runs); SPLASH kernels yield one Proc-API reference at a
#: time, so only the L1 filter applies there
BATCHING_WORKLOADS = frozenset({"oltp", "dss", "webserver"})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fastpath_bit_identical(name):
    build = WORKLOADS[name]
    snap_on, eng_on = _run(build, fastpath=True)
    snap_off, eng_off = _run(build, fastpath=False)
    assert snap_on == snap_off
    # the fast run actually exercised the mechanisms...
    assert eng_on.memsys.fast_hits > 0
    if name in BATCHING_WORKLOADS:
        assert eng_on.batch_stats["refs"] > 0
        assert eng_on.batch_stats["batches"] > 0
    # ...and the reference run stayed on the per-event path, where the
    # probe answers what the miss kernel alone would have
    assert eng_off.batch_stats["refs"] == 0
    assert eng_off.batch_stats["batches"] == 0
    snap_miss, eng_miss = _run(build, tap=miss_tap, fastpath=False)
    assert snap_off == snap_miss
    assert eng_off.memsys.fast_hits > 0 == eng_miss.memsys.fast_hits


@pytest.mark.parametrize("name", sorted(BATCHING_WORKLOADS))
def test_fastpath_untapped_inline_loop_identical(name):
    """Without a memtrace tap, access_run inlines the L1 filter (the
    hottest loop); that branch must be bit-identical too."""
    build = WORKLOADS[name]

    def run(fastpath):
        SimProcess._next_pid[0] = 1
        eng, finish = build(fastpath=fastpath)
        stats = finish()
        snap = _snapshot(eng, stats, rec=None)
        del snap["trace"]
        return snap, eng

    snap_on, eng_on = run(True)
    snap_off, _ = run(False)
    assert snap_on == snap_off
    assert eng_on.memsys.fast_hits > 0
    assert eng_on.batch_stats["refs"] > 0


def test_fastpath_summary_shape():
    snap, eng = _run(build_dss, fastpath=True)
    del snap
    s = fastpath_summary(eng)
    assert s["fast_hits"] > 0
    assert 0.0 < s["fast_hit_rate"] <= 1.0
    assert s["batch_refs"] == eng.batch_stats["refs"]
    assert s["refs_per_batch"] > 1.0
    assert s["events_processed"] == eng.events_processed
