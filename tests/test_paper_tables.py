"""The paper's Table 1 shape, from simulated cycles only.

Paper (4-way AIX/PowerPC SMP; % of CPU time excluding disk-wait idle):

    benchmark      user    OS      interrupt   kernel
    SPECWeb/Apache 14.9 %  85.1 %  37.8 %      47.3 %
    TPCD/DB2       81 %    19 %    8.6 %       10.4 %
    TPCC/DB2       79 %    21 %    14.6 %      6.4 %

Web serving is OS-dominated with heavy interrupt time, both database
workloads are user-dominated with a 10-35 % OS tail, and a scientific
kernel on the same machine spends almost no time in the OS (the paper's
motivating contrast, §1). The kernel time is dominated by the TCP/IP calls
on the web server and by the read/write and mmap families on the
databases. Every number here is a share of simulated cycles, so each row
is deterministic; ``benchmarks/bench_table1_profile.py`` prints the same
rows beside the paper's.
"""

from __future__ import annotations

import pytest

from repro import complex_backend
from repro.harness import profile_row, top_oscall_table
from repro.service.workloads import (build_splash, build_tpcc_run,
                                     build_tpcd_run, build_web_run)


def _web():
    return build_web_run(nrequests=16)[1]()


def _tpcd():
    return build_tpcd_run(io="mmap")[-1]()


def _tpcc():
    return build_tpcc_run()[-1]()


def _ocean():
    return build_splash(complex_backend, kernel="ocean", nkeys=1024).run()


def _web_shape(row, hot):
    # OS-dominated, interrupts a large share (paper: 85.1 / 37.8)
    assert row.os_pct > 60.0
    assert 15.0 < row.interrupt_pct < 60.0
    assert set(hot[:3]) <= {"kreadv", "kwritev", "naccept", "send", "select"}


def _tpcd_shape(row, hot):
    # user-dominated with a visible OS share (paper: 81 / 19)
    assert row.user_pct > 50.0
    assert 5.0 < row.os_pct < 50.0
    assert any(n in ("mmap", "msync", "__vm_fault", "kreadv") for n in hot[:4])


def _tpcc_shape(row, hot):
    # user-dominated, OS ~10-35 % (paper: 79 / 21)
    assert row.user_pct > 60.0
    assert 5.0 < row.os_pct < 40.0
    assert set(hot[:2]) <= {"kreadv", "kwritev", "fsync"}


def _ocean_shape(row, _hot):
    # scientific code: near-zero OS (its kernel share is barrier parking)
    assert row.kernel_pct + row.interrupt_pct < 25.0


ROWS = {
    "SPECWeb/Apache": (_web, _web_shape),
    "TPCD/DB2": (_tpcd, _tpcd_shape),
    "TPCC/DB2": (_tpcc, _tpcc_shape),
    "SPLASH/ocean": (_ocean, _ocean_shape),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_table1_shape(name):
    run, shape = ROWS[name]
    stats = run()
    row = profile_row(name, stats)
    assert row.busy_cycles > 0
    shape(row, [n for n, _p, _c in top_oscall_table(stats, 8)])
