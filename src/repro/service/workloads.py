"""Canonical workload builders and stats fingerprints.

One registry for the engine setup that used to be duplicated across
``benchmarks/workloads.py``, ``tests/conftest.py``, and the equivalence
tests: every builder takes a *config factory* — a callable
``cfg(**kw) -> SimConfig`` (usually :func:`make_config_factory` output or
a partial of :func:`repro.complex_backend`) — spawns its workload, and
returns the ready-to-run engine without calling ``run()``. That contract
is exactly what :func:`repro.checkpoint.resume` needs from a rebuild
callable, so the same builders serve direct runs, golden regression runs,
and checkpoint-resumed control-plane jobs.

The four registry entries mirror the paper's workload classes: ``oltp``
(TPC-C-style transactions), ``dss`` (TPC-D Q1 scan), ``webserver``
(SPECWeb-like trace playback), and ``splash`` (radix kernel). Builders
pin their own architecture knobs (CPU count; the web tier is MESI bus
snooping) — those win over factory-level defaults.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from ..core.engine import Engine
from ..apps.minidb import (MiniDb, TpccDriver, TpcdDriver, tpcc_catalog,
                           tpcd_catalog)
from ..apps.splash import spawn_kernel
from ..apps.webserver import (TracePlayer, generate_fileset, make_trace,
                              prefork_web_server)

#: a config factory: keyword architecture knobs -> validated SimConfig
ConfigFactory = Callable[..., object]


# ---------------------------------------------------------------------------
# deterministic test/golden-scale builders (the golden fleet's rows)
# ---------------------------------------------------------------------------

def build_oltp(cfg: ConfigFactory, *, warehouses=1, scale=0.005,
               pool_frames=16, seed=3, nagents=2, tx_per_agent=3,
               think_cycles=5_000, user_work=20_000) -> Engine:
    """TPC-C-style OLTP: short read/write transactions with think time."""
    eng = Engine(cfg(num_cpus=2))
    db = MiniDb(eng, tpcc_catalog(warehouses, scale),
                pool_frames=pool_frames, seed=seed)
    db.setup()
    drv = TpccDriver(db, nagents=nagents, tx_per_agent=tx_per_agent,
                     seed=seed, think_cycles=think_cycles,
                     user_work=user_work)
    drv.spawn_agents(eng)
    return eng


def build_dss(cfg: ConfigFactory, *, scale=0.0001, pool_frames=16,
              nagents=2, io="read", rows_work=50) -> Engine:
    """TPC-D Q1: a partitioned sequential scan (decision support)."""
    eng = Engine(cfg(num_cpus=2))
    db = MiniDb(eng, tpcd_catalog(scale=scale), pool_frames=pool_frames)
    db.setup()
    TpcdDriver(db, nagents=nagents, io=io, rows_work=rows_work).spawn_q1(eng)
    return eng


def build_web(cfg: ConfigFactory, *, nrequests=6, nworkers=2, nclients=2,
              size_scale=0.1, seed=3) -> Engine:
    """SPECWeb-like trace playback against a prefork web server (MESI)."""
    eng = Engine(cfg(num_cpus=4, coherence="mesi", num_nodes=1))
    fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=size_scale)
    trace = make_trace(fset, nrequests=nrequests, seed=seed)
    prefork_web_server(eng, nworkers=nworkers)
    TracePlayer(eng, trace, fset, nclients=nclients,
                nworkers_to_quit=nworkers).start()
    return eng


def _splash_size_kwargs(kernel: str, nkeys: int) -> dict:
    """The registry's one size knob — elements to work on — in the terms
    of each ``apps/splash`` kernel: radix sorts ``nkeys`` keys; lu and
    ocean work an ``n`` x ``n`` matrix of about that many elements, ``n``
    a multiple of lu's default block of 8."""
    if kernel == "radix":
        return {"nkeys": nkeys}
    return {"n": max(8, math.isqrt(nkeys) // 8 * 8)}


def build_splash(cfg: ConfigFactory, *, kernel="radix", nprocs=4,
                 nkeys=512) -> Engine:
    """SPLASH-2 style scientific kernel (radix sort by default)."""
    eng = Engine(cfg(num_cpus=4))
    spawn_kernel(eng, kernel, nprocs, **_splash_size_kwargs(kernel, nkeys))
    return eng


#: name -> builder(cfg, **kwargs). The canonical scenario axis for the
#: determinism suite, the golden fleet, and control-plane job specs.
WORKLOADS: Dict[str, Callable[..., Engine]] = {
    "oltp": build_oltp,
    "dss": build_dss,
    "webserver": build_web,
    "splash": build_splash,
}


# ---------------------------------------------------------------------------
# stats fingerprints
# ---------------------------------------------------------------------------

def fingerprint(eng: Engine, stats) -> tuple:
    """Scheduler-level identity of a finished run: end cycle, event count,
    per-CPU time split, syscall/interrupt tallies. Equal fingerprints mean
    the runs made the same scheduling decisions at the same cycles."""
    return (
        stats.end_cycle,
        eng.events_processed,
        tuple((c.user, c.kernel, c.interrupt, c.idle, c.ctx_switch)
              for c in stats.cpu),
        tuple(sorted(stats.syscall_cycles.items())),
        tuple(sorted(stats.syscall_counts.items())),
        tuple(sorted(stats.interrupt_counts.items())),
    )


def full_fingerprint(eng: Engine, stats) -> tuple:
    """:func:`fingerprint` plus fault-injection tallies, cache/protocol
    counters, and VM fault counts — the bit-identity gate used by the
    checkpoint-resume and golden-output tests."""
    summary = eng.memsys.cache_summary()
    return fingerprint(eng, stats) + (
        tuple(sorted(eng.faults.stats.fired.items())),
        eng.faults.stats.draws,
        tuple(sorted(summary["l1"].items())),
        dict(summary["protocol"]),
        eng.memsys.vmm.minor_faults,
        eng.memsys.vmm.major_faults,
    )


# ---------------------------------------------------------------------------
# benchmark-scale builders (ready-to-finish closures for the bench suite)
# ---------------------------------------------------------------------------

def build_web_run(nrequests=20, nworkers=3, nclients=4, size_scale=0.25,
                  cfg=None):
    """SPECWeb-like run ready to go: returns (engine, finisher)."""
    from ..core.config import complex_backend
    factory = cfg if cfg is not None else complex_backend
    eng = Engine(factory(num_cpus=4, coherence="mesi", num_nodes=1))
    fset = generate_fileset(eng.os_server.fs, ndirs=1, size_scale=size_scale)
    trace = make_trace(fset, nrequests=nrequests, seed=3)
    workers, wstats = prefork_web_server(eng, nworkers=nworkers)
    player = TracePlayer(eng, trace, fset, nclients=nclients,
                         nworkers_to_quit=nworkers)
    player.start()

    def finish():
        stats = eng.run()
        assert player.completed == nrequests
        return stats

    return eng, finish


def build_tpcd_run(scale=0.0003, nagents=4, io="read", cfg=None,
                   pool_frames=64):
    from ..core.config import complex_backend
    eng = Engine(cfg if cfg is not None else complex_backend(num_cpus=4))
    cat = tpcd_catalog(scale=scale)
    db = MiniDb(eng, cat, pool_frames=pool_frames)
    db.setup()
    drv = TpcdDriver(db, nagents=nagents, io=io)
    drv.spawn_q1(eng)

    def finish():
        stats = eng.run()
        assert drv.result is not None
        return stats

    return eng, db, drv, finish


def build_tpcc_run(scale=0.01, nagents=4, tx=6, cfg=None, pool_frames=48,
                   seed=11):
    from ..core.config import complex_backend
    eng = Engine(cfg if cfg is not None else complex_backend(num_cpus=4))
    cat = tpcc_catalog(warehouses=1, scale=scale)
    db = MiniDb(eng, cat, pool_frames=pool_frames, seed=seed)
    db.setup()
    drv = TpccDriver(db, nagents=nagents, tx_per_agent=tx, seed=seed,
                     think_cycles=10_000)
    drv.spawn_agents(eng)

    def finish():
        stats = eng.run()
        assert drv.committed == nagents * tx
        return stats

    return eng, db, drv, finish
