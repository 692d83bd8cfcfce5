"""Table 1 — User vs. OS time (paper §3).

Paper (4-way AIX/PowerPC SMP, CPU time excluding disk-wait idle):

    benchmark      user    OS      interrupt   kernel
    SPECWeb/Apache 14.9 %  85.1 %  37.8 %      47.3 %
    TPCD/DB2       81 %    19 %    8.6 %       10.4 %
    TPCC/DB2       79 %    21 %    14.6 %      6.4 %

plus: the web kernel time is dominated by TCP/IP calls (kwritev, kreadv,
select, connect, open, close, naccept, send) and the DB kernel time by
kwritev, kreadv, mmap, munmap, msync.

This bench regenerates the rows on our scaled workloads (plus the SPLASH
contrast) and prints them beside the paper's, with the host time each row
takes. The shape they must keep — web serving OS-dominated with heavy
interrupt time, both databases user-dominated with ~10-35 % OS, the
scientific kernel near-zero OS — is asserted by the tier-1 test
``tests/test_paper_tables.py`` on the same inputs.
"""

import pytest

from repro import complex_backend
from repro.harness import profile_row, render_table, top_oscall_table
from repro.service.workloads import (build_splash, build_tpcc_run,
                                     build_tpcd_run, build_web_run)

#: row -> (paper's user/OS/interrupt/kernel, the run)
ROWS = {
    "SPECWeb/Apache": ((14.9, 85.1, 37.8, 47.3),
                       lambda: build_web_run(nrequests=16)[1]()),
    "TPCD/DB2": ((81.0, 19.0, 8.6, 10.4),
                 lambda: build_tpcd_run(io="mmap")[-1]()),
    "TPCC/DB2": ((79.0, 21.0, 14.6, 6.4),
                 lambda: build_tpcc_run()[-1]()),
    "SPLASH/ocean": (("-", "~0", "~0", "-"),
                     lambda: build_splash(complex_backend, kernel="ocean",
                                          nkeys=1024).run()),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_table1_row(benchmark, name):
    paper, run = ROWS[name]
    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    row = profile_row(name, stats)
    print(render_table(
        ("benchmark", "user", "OS", "interrupt", "kernel",
         "paper(user/OS/int/kern)"),
        [row.as_tuple() + ("{}/{}/{}/{}".format(*paper),)],
        title="\nTable 1 — User vs. OS time (reproduced):"))
    hot = [n for n, _p, _c in top_oscall_table(stats, 8)]
    print("  kernel time dominated by:", ", ".join(hot))
    benchmark.extra_info.update(user=row.user_pct, os=row.os_pct,
                                interrupt=row.interrupt_pct)
