"""The equivalence table: every host-switch arm lands one result.

One cell per row x mode; :func:`tests.equivalence.check` holds each arm of
the cell to the strict inline run of that row and mode. The registry rows
run all 8 ``ARMS`` clean and under ``TIMING_PLAN`` (the lattice); the
other columns are restricted:

* other rows run the five host paths: the four ``fastpath`` arms and
  ``STRICT`` (with ``fastpath`` off no batch is published, so neither
  windows nor the vec path have anything to act on);
* ``translate`` applies to the inline ISA rows, which also run ``DEFAULT``
  untranslated (``STRICT`` is translated);
* ``tapped`` and ``resume`` run ``DEFAULT`` and ``STRICT``: a tapped
  stream stands every window and the vec path down; ``probe_off`` is a
  reference and runs ``STRICT``, which must land the tapped strict run;
* ``ParallelEngine`` rows run ``DEFAULT`` and ``STRICT`` (every arm of the
  hot and lock rows: ``test_lookahead_equivalence``) and compare the
  snapshot only: their ``batch_stats`` move with the wall clock.
"""

from __future__ import annotations

import pytest

from tests.equivalence import (ARMS, CLOCK_READERS, DEFAULT, PROGS, STRICT,
                               WORKLOADS, Isa, check)

#: the ISA rows, two frontends each (rivals for every window)
ISA_ROWS = [Isa((PROGS[name],) * 2)
            for name in ("hot5", "scan", "locky", "sys", "mix")]

CELLS = [
    *((w, m) for w in sorted(WORKLOADS)
      for m in ("clean", "plan", "tapped", "probe_off", "resume")),
    *(("private_heavy", m) for m in ("clean", "tapped", "resume")),
    ("spaced", "clean"),
    *((r, m) for r in CLOCK_READERS for m in ("clean", "plan")),
    *((r, m) for r in ISA_ROWS for m in ("clean", "plan")),
    *((Isa(r.progs, parallel=True), m)
      for r in ISA_ROWS for m in ("clean", "plan")),
]


def arms(row, mode) -> list:
    """The arms of one cell (the columns above)."""
    isa = isinstance(row, Isa)
    if mode == "probe_off":
        return [STRICT]
    if mode in ("tapped", "resume") or (isa and row.parallel):
        return [DEFAULT, STRICT]
    if row in WORKLOADS:
        return ARMS
    paths = ARMS[:4] + [STRICT]
    if isa:
        return paths + [{**DEFAULT, "translate": False}]
    return paths


@pytest.mark.parametrize("row,mode", CELLS,
                         ids=[f"{row}-{mode}" for row, mode in CELLS])
def test_every_arm_lands_the_strict_result(row, mode):
    check(row, arms(row, mode), mode)
