"""Table 2 — Slowdown on uniprocessor (paper §5).

Paper (TPC-D query, 12 MB DB, 133 MHz PowerPC host):

                 Raw    Simple backend   Complex backend
    time (s)     52     16 149           34 841
    slowdown     1      310x             670x

Absolute slowdowns depend on host and frontend technology (ours is a
pure-Python simulator against a native-Python raw run); what must
reproduce is the *structure*: simulation is orders of magnitude slower than
raw execution, and the complex backend costs roughly 2x the simple backend
(paper: 670/310 = 2.16x).
"""

import pytest

from repro import Engine, complex_backend, simple_backend
from repro.apps.minidb import (MiniDb, TpcdDriver, q1_scan_raw,
                               q1_scan_raw_fast, tpcd_catalog)
from repro.harness import measure_slowdown, render_table

SCALE = 0.0004


def _sim(cfg):
    def run():
        eng = Engine(cfg)
        cat = tpcd_catalog(scale=SCALE)
        db = MiniDb(eng, cat, pool_frames=64)
        db.setup()
        drv = TpcdDriver(db, nagents=1, io="read")
        drv.spawn_q1(eng)
        stats = eng.run()
        assert drv.result == q1_scan_raw(eng.os_server.fs, cat)
        return stats
    return run


def _raw():
    """The raw run: the same query executed natively on the host (the
    numpy-vectorised scan stands in for the paper's uninstrumented native
    binary)."""
    eng = Engine(simple_backend(num_cpus=1))
    cat = tpcd_catalog(scale=SCALE)
    db = MiniDb(eng, cat, pool_frames=64)
    db.setup()
    fs = eng.os_server.fs

    def run():
        return q1_scan_raw_fast(fs, cat)
    return run


def _backend_only_cost(cfg):
    """Host seconds spent inside the backend memory system for one run —
    isolates the backend-complexity factor the paper's table varies."""
    import time
    eng = Engine(cfg)
    cat = tpcd_catalog(scale=SCALE)
    db = MiniDb(eng, cat, pool_frames=64)
    db.setup()
    drv = TpcdDriver(db, nagents=1, io="read")
    drv.spawn_q1(eng)
    ms = eng.memsys
    spent = [0.0]
    orig = ms.access

    def timed(*a, **kw):
        t0 = time.perf_counter()
        out = orig(*a, **kw)
        spent[0] += time.perf_counter() - t0
        return out

    ms.access = timed
    eng.run()
    return spent[0]


def test_table2_slowdown_uniprocessor(benchmark):
    raw = _raw()

    def experiment():
        import time
        from repro.harness.slowdown import SlowdownResult
        # the raw run is sub-millisecond: time it once (best of many) and
        # share the baseline across both rows so host jitter cannot flip
        # the comparison
        best_raw = min(
            (lambda t0=time.perf_counter(): (raw(), time.perf_counter() - t0)[1])()
            for _ in range(15))

        def timed(label, fn):
            t0 = time.perf_counter()
            stats = fn()
            return SlowdownResult(label, best_raw,
                                  time.perf_counter() - t0,
                                  stats.end_cycle, 0)

        simple = timed("Simple Backend", _sim(simple_backend(num_cpus=1)))
        cplx = timed("Complex Backend",
                     _sim(complex_backend(num_cpus=1, num_nodes=1)))
        return simple, cplx

    simple, cplx = benchmark.pedantic(experiment, rounds=1, iterations=1)

    print(render_table(
        ("", "raw", "simulated", "slowdown", "paper"),
        [simple.row() + ("310x",), cplx.row() + ("670x",)],
        title="\nTable 2 — Slowdown on uniprocessor (reproduced):"))
    ratio = cplx.slowdown / simple.slowdown
    # best-of-3 per configuration: the probe times sub-second segments and
    # single samples jitter on a shared host
    be_simple = min(_backend_only_cost(simple_backend(num_cpus=1))
                    for _ in range(3))
    be_cplx = min(_backend_only_cost(complex_backend(num_cpus=1,
                                                     num_nodes=1))
                  for _ in range(3))
    be_ratio = be_cplx / be_simple if be_simple else 0.0
    print(f"  complex/simple total-slowdown ratio: {ratio:.2f}x "
          f"(paper: 670/310 = 2.16x)")
    print(f"  complex/simple backend-only cost ratio: {be_ratio:.2f}x "
          f"(isolates the factor the paper's table varies; the frontend's "
          f"host cost, the same under both backends, dilutes the total "
          f"ratio — see EXPERIMENTS.md)")
    benchmark.extra_info.update(simple_slowdown=simple.slowdown,
                                complex_slowdown=cplx.slowdown,
                                ratio=ratio, backend_ratio=be_ratio)
    # shape assertions
    assert simple.slowdown > 100, "simulation must be orders slower than raw"
    assert cplx.sim_seconds > simple.sim_seconds, \
        "the complex backend must cost more host time than the simple one"
    assert be_ratio > 1.2, \
        "backend-only cost must show the complex-vs-simple gap"
