"""Bit-identity of the bulk retirement of a batch's all-hit prefix.

``mem/vec.py`` classifies the L1 all-hit prefix of a batch filling once,
over the live cache dicts, and retires it in bulk (counters, E->M flips,
LRU replay). Every ``MemorySystem`` has it; it selects itself, declining
whatever it cannot retire to the scalar loop. Like the scalar fast path it
is a pure host-side optimisation: :func:`tests.equivalence.check` holds it
and the scalar reference (the ``scalar`` substitution: a bulk path that
declines every run and reads no classification) to the strict result — tapped and
untapped, composed with conservative lookahead windows and with the batches
ParallelEngine workers ship — end-of-run set lists (LRU order) and line
states included. This module adds that the bulk path engaged where it
should and never thrashed: no filling is walked twice from a cursor one
walk under the same key (the CPU's L1 and its version, pid, page-table
versions) already covered.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import Engine, complex_backend
from repro.core.frontend import SimProcess

from tests.equivalence import (BATCHING, DEFAULT, HOT_PROG, STRICT,
                               WORKLOADS, Isa, check, reference,
                               simulate, snapshot, sub)


def _watch_classifications(eng, repeats):
    """Watch the classifications of ``eng`` (before it runs): collects into
    ``repeats`` the key and cursor of every walk of a filling from a cursor
    that an earlier walk of the same filling under the same key (the CPU's
    L1 and its version, pid, and the kernel and space page tables'
    versions) had already covered. A filling with no classification is new
    or was reset since its last walk: its history starts over."""
    vec = eng.memsys._vec
    classified = vec._classified
    history = {}

    def watched(pid, cpu, batch):
        before = vec.classifications
        fresh = batch.prefix is None
        cd = classified(pid, cpu, batch)
        if vec.classifications > before:
            walks = history.setdefault(id(batch), [])
            if fresh:
                walks.clear()
            i = batch.cursor
            if any(key == cd.key and base <= i <= stop
                   for key, base, stop in walks):
                repeats.append((cd.key[1:], i))
            walks.append((cd.key, cd.base, cd.stop))
        return cd

    vec._classified = watched


def _check_watched(row):
    """``check`` of the bulk path and its scalar reference, and the default
    arm once more with the classifications watched: it lands the same
    result without walking a filling twice under one key."""
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
    12 fills (every pass re-issues the same kept fillings)."""
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
    # both mechanisms engaged in the default arm, no filling classified
    # twice under one key
    c = _check_watched("private_heavy")
    assert c["vec"]["vec_refs"] > 0 and c["vec"]["classifications"] > 0
    assert c["batch_stats"]["la_refs"] > 0


@pytest.mark.parametrize("row", ["private_heavy", Isa((HOT_PROG,) * 2)],
                         ids=str)
def test_only_run_classifies(row):
    """Only the owner's ``VecState.run`` classifies a filling: a rival's
    window bound and the owner's stand-down verdict read the cached
    classification or walk. Counted by the frame that asked
    ``_classified`` for the walk."""
    callers = Counter()

    def spy(eng):
        vec = eng.memsys._vec
        classify = vec._classify

        def watched(*args):
            callers[sys._getframe(2).f_code.co_name] += 1
            return classify(*args)

        vec._classify = watched

    on, _ = simulate(row, spy=spy)
    assert on.snap == reference(row) and on.counters["batch_stats"]["la_refs"] > 0
    assert set(callers) == {"run"}
    assert callers["run"] == on.counters["vec"]["classifications"]


def _shared_scan(fastpath, seen=None):
    """Two processes on one CPU take turns scanning the same virtual range,
    each in its own address space: a kept filling one leaves is handed to
    the other. Two read passes leave every line EXCLUSIVE, so each write
    pass's classification flips its own pid's lines. ``seen`` collects
    ``(filling, pid, the pid its classification was walked for)`` of every
    classification read."""
    SimProcess.set_pid_counter(1)
    eng = Engine(complex_backend(num_cpus=1, fastpath=fastpath))

    def app(p):
        for k in range(6):
            yield from p.touch(0x20_0000, 2048, write=k > 1, stride=32,
                               work_per_line=2)
            yield from p.call("sched_yield")
        yield from p.exit(0)

    eng.spawn("a", app)
    eng.spawn("b", app)
    if seen is not None:
        vec = eng.memsys._vec
        classified = vec._classified

        def watched(pid, cpu, batch):
            cd = classified(pid, cpu, batch)
            seen.append((id(batch), pid, cd.key[2]))
            return cd

        vec._classified = watched
    return snapshot(eng, eng.run())


def test_a_filling_handed_between_pids_is_walked_for_each():
    """One filling object, two pids, equal virtual addresses and distinct
    physical lines: each pid reads only a classification walked for it,
    and the run lands the strict result."""
    seen = []
    assert _shared_scan(True, seen) == _shared_scan(False)
    pids = {}
    for b, pid, walked in seen:
        assert pid == walked
        pids.setdefault(b, set()).add(pid)
    assert {1, 2} in pids.values()


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
