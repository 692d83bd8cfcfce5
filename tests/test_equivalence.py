"""The equivalence table: both host-switch arms land one result.

One cell per row x mode; :func:`tests.equivalence.check` holds ``DEFAULT``
and ``STRICT`` (``fastpath`` on and off) to the strict inline run of that
row and mode; a ``swap`` cell crashes under one arm and resumes under the
other, in both directions. The ``sampled`` modes hold a sampled run to the
strict sampled run the same way. ``ParallelEngine`` rows compare the
snapshot only: their ``batch_stats`` move with the wall clock; a sampled
one runs a third arm, ``DEFAULT`` under the starved harvest. The layers
that select themselves under ``DEFAULT`` are reached one by one in their
mechanism suites, through ``tests.equivalence.SUBS``.
"""

from __future__ import annotations

import pytest

from tests.equivalence import (ARMS, CLOCK_READERS, LATE, MIX, PROGS,
                               WORKLOADS, Isa, check, sub)

#: the ISA rows, two frontends each (rivals for every window)
ISA_ROWS = [Isa((PROGS[name],) * 2)
            for name in ("hot5", "scan", "locky", "sys", "mix")]

CELLS = [
    *((w, m) for w in sorted(WORKLOADS)
      for m in ("clean", "plan", "tapped", "probe_off", "resume", "swap")),
    *(("private_heavy", m) for m in ("clean", "tapped", "resume", "swap")),
    ("spaced", "clean"),
    *((r, m) for r in CLOCK_READERS for m in ("clean", "plan")),
    *((r, m) for r in ISA_ROWS for m in ("clean", "plan")),
    *((Isa(r.progs, parallel=True), m)
      for r in ISA_ROWS for m in ("clean", "plan")),
    *((r, m) for r in (*sorted(WORKLOADS), "private_heavy", Isa((MIX, LATE)),
                       Isa((MIX, LATE), parallel=True))
      for m in ("sampled", "sampled_tapped", "sampled_resume",
                "sampled_swap")),
]


@pytest.mark.parametrize("row,mode", CELLS,
                         ids=[f"{row}-{mode}" for row, mode in CELLS])
def test_every_arm_lands_the_strict_result(row, mode):
    starved = (isinstance(row, Isa) and row.parallel
               and mode.startswith("sampled"))
    check(row, [*ARMS, sub("starved")] if starved else ARMS, mode)
