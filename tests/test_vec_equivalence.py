"""Bit-identity of the bulk retirement of a batch's all-hit prefix.

``mem/vec.py`` classifies the L1 all-hit prefix of a batch filling once,
over the live cache dicts, and retires it in bulk (counters, E->M flips,
LRU replay). Every ``MemorySystem`` has it; it selects itself, declining
whatever it cannot retire to the scalar loop. Like the scalar fast path it
is a pure host-side optimisation: :func:`tests.equivalence.check` holds it
and the scalar reference (the ``scalar`` substitution: a bulk path that
declines every run and every frontier) to the strict result — tapped and
untapped, composed with conservative lookahead windows and with the batches
ParallelEngine workers ship — end-of-run set lists (LRU order) and line
states included. This module adds that the bulk path engaged where it
should and never thrashed: a CPU classifies each reference of a hinted
filling at most once per L1 version (and page-table versions).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Engine, complex_backend

from tests.equivalence import (BATCHING, DEFAULT, HOT_PROG, STRICT,
                               WORKLOADS, Isa, check, simulate, sub)


def _watch_classifications(eng, repeats):
    """Watch the classification cache of ``eng`` (before it runs): collects
    into ``repeats`` the key and cursor of every hinted filling a CPU
    walked again from a cursor that an earlier walk under the same versions
    (its L1's, and the kernel and space page tables': a kernel mapping
    moves every key) had already covered."""
    ms = eng.memsys
    vec = ms._vec
    classified = vec._classified
    covered = {}

    def watched(pid, cpu, l1_version, kinds, addrs, sizes, pends, i, n,
                serial, uhint):
        before = vec.classifications
        cd = classified(pid, cpu, l1_version, kinds, addrs, sizes, pends, i,
                        n, serial, uhint)
        if uhint is not None and vec.classifications > before:
            sp = ms._spaces.get(pid)
            key = (pid, cpu, l1_version, ms.vmm._kernel.version,
                   sp and sp.version, uhint, addrs[i] - uhint[1] * i, n)
            spans = covered.setdefault(key, [])
            if any(base <= i <= stop for base, stop in spans):
                repeats.append((key, i))
            spans.append((cd.base, cd.stop))
        return cd

    vec._classified = watched


def _check_watched(row):
    """``check`` of the bulk path and its scalar reference, and the default
    arm once more with the classifications watched: it lands the same
    result without walking a reference of a hinted filling twice."""
    on, off = check(row, [DEFAULT, sub("scalar")])
    repeats = []
    watched, _ = simulate(
        row, spy=lambda eng: _watch_classifications(eng, repeats))
    assert watched == on and repeats == []
    assert off.counters["vec"]["vec_refs"] == 0
    return on.counters


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vec_tapped_bit_identical(name):
    """The memtrace tap forces the per-reference loop: the bulk path must
    stand down and change nothing; the scalar reference retires nothing
    through it."""
    _, off = check(name, [DEFAULT, sub("scalar")], "tapped")
    assert off.counters["vec"]["vec_refs"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vec_untapped_bit_identical(name):
    vec = _check_watched(name)["vec"]
    if name in BATCHING:
        # cold, miss-heavy runs: a CPU that is filling declines to the
        # scalar loop without classifying
        assert vec["vec_fallbacks"] > 0
        assert vec["declines"]["stale"] > vec["classifications"]


def test_vec_engages_on_warm_scan():
    """Where the bulk path should pay it must engage: the warm passes retire
    through it, and classify no more fillings than one pass of the scan's
    12 fills (every pass re-fills the same hinted streams)."""
    c = _check_watched("warm_scan")
    assert c["vec"]["vec_refs"] > c["accesses"] // 2
    assert 0 < c["vec"]["classifications"] <= c["batch_stats"]["batches"] // 12


def test_vec_off_in_config_disables_mirror():
    """No config turns the bulk path off: it exists on either arm (with no
    batches published nothing ever runs through it), and a ``vectorized``
    key is refused."""
    for arm in (DEFAULT, STRICT):
        assert Engine(complex_backend(num_cpus=1, **arm)).memsys._vec \
            is not None
    with pytest.raises(TypeError, match="vectorized"):
        complex_backend(num_cpus=1, vectorized=False)


def test_vec_under_lookahead_bit_identical():
    # both mechanisms engaged in the default arm, no hinted filling
    # classified twice
    c = _check_watched("private_heavy")
    assert c["vec"]["vec_refs"] > 0 and c["vec"]["classifications"] > 0
    assert c["batch_stats"]["la_refs"] > 0


def test_vec_under_parallel_engine_bit_identical():
    """Shipped batches take the vec path too."""
    row = Isa((HOT_PROG,) * 2, parallel=True)
    on, off = check(row, [DEFAULT, sub("scalar")])
    assert on.counters["vec"]["vec_refs"] > 0
    assert off.counters["vec"]["vec_refs"] == 0
    assert on.counters["batch_stats"]["la_refs"] > 0


def test_the_simulator_imports_without_numpy():
    """numpy is no part of the simulator: importing it, its service layer
    and the end-to-end benchmark loads none of it (only Table 2's native
    scan, ``dss.q1_scan_raw_fast``, imports it, when called). A fresh
    interpreter, so no other test's import counts."""
    root = Path(__file__).resolve().parent.parent
    code = ("import importlib.util, sys\n"
            "import repro, repro.service\n"
            "spec = importlib.util.spec_from_file_location('bench', "
            "sys.argv[1])\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print('numpy' in sys.modules)\n")
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "benchmarks/e2e/bench.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
