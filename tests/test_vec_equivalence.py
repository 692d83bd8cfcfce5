"""Bit-identity of the vectorized batch memory path.

The vec path mirrors the L1 tag/state arrays and page tables in numpy,
classifies whole EventBatch runs in one vectorized membership test, and
retires 100%-private-hit runs in bulk array ops. Every ``MemorySystem``
has the mirror; it selects itself, declining whatever it cannot retire to
the scalar loop. Like the scalar fast path it is a pure host-side
optimisation: :func:`tests.equivalence.check` holds it and the scalar
reference (the ``scalar`` substitution: a mirror that declines every run
and every frontier) to the strict result — tapped and untapped, composed
with conservative lookahead windows and with the batches ParallelEngine
workers ship — end-of-run set lists (LRU order) and line states included.
This module adds that the mirror engaged where it should and never
thrashed.
"""

from __future__ import annotations

import pytest

from repro import Engine, complex_backend

from tests.equivalence import (BATCHING, DEFAULT, HOT_PROG, STRICT,
                               WORKLOADS, Isa, check, simulate, sub)

#: a CPU pays one rebuild when it turns warm and one more per fill that
#: interrupts its hit streak; the warm scenarios below fill once, up front
WARM_REBUILDS_PER_CPU = 2


def _watch_resyncs(eng, thrash):
    """Watch the mirror of ``eng`` (before it runs) for thrash: collects
    into ``thrash`` ``(cpu, version at its previous entry, version now)``
    for every rebuild made by a CPU whose L1 version moved since its
    previous entry into the vec path."""
    vec = eng.memsys._vec
    l1s = eng.memsys.l1s
    prev = {}
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


def _check_watched(row):
    """``check`` of the mirror and its scalar reference, and the default
    arm once more with the mirror watched: it lands the same result
    without thrashing."""
    on, off = check(row, [DEFAULT, sub("scalar")])
    thrash = []
    watched, _ = simulate(row, spy=lambda eng: _watch_resyncs(eng, thrash))
    assert watched == on and thrash == []
    assert off.counters["vec"]["vec_refs"] == 0
    return on.counters


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vec_tapped_bit_identical(name):
    """The memtrace tap forces the per-reference loop: the vec path must
    stand down and change nothing; the scalar reference retires nothing
    through it."""
    _, off = check(name, [DEFAULT, sub("scalar")], "tapped")
    assert off.counters["vec"]["vec_refs"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vec_untapped_bit_identical(name):
    vec = _check_watched(name)["vec"]
    if name in BATCHING:
        # cold, miss-heavy runs: the vec arm considers the batches and must
        # not thrash — a stale mirror is declined, not rebuilt, until the
        # CPU turns warm, so no rebuild goes without a run it retired
        assert vec["vec_fallbacks"] > 0
        assert vec["vec_rebuilds"] <= vec["vec_batches"]


def test_vec_engages_on_warm_scan():
    """Where the mirror should pay it must engage: the warm passes retire
    through it, after a bounded number of rebuilds."""
    c = _check_watched("warm_scan")
    assert c["vec"]["vec_refs"] > c["accesses"] // 2
    assert 0 < c["vec"]["vec_rebuilds"] <= WARM_REBUILDS_PER_CPU


def test_vec_off_in_config_disables_mirror():
    """No config turns the mirror off: it exists on either arm (with no
    batches published nothing ever runs through it), and a ``vectorized``
    key is refused."""
    for arm in (DEFAULT, STRICT):
        assert Engine(complex_backend(num_cpus=1, **arm)).memsys._vec \
            is not None
    with pytest.raises(TypeError, match="vectorized"):
        complex_backend(num_cpus=1, vectorized=False)


def test_vec_under_lookahead_bit_identical():
    on, _ = check("private_heavy", [DEFAULT, sub("scalar")])
    # both mechanisms engaged in the vec arm, each CPU's mirror resynced
    # a bounded number of times
    vec = on.counters["vec"]
    assert vec["vec_refs"] > 0
    assert 0 < vec["vec_rebuilds"] <= 4 * WARM_REBUILDS_PER_CPU
    assert on.counters["batch_stats"]["la_refs"] > 0


def test_vec_under_parallel_engine_bit_identical():
    """Shipped batches take the vec path too."""
    row = Isa((HOT_PROG,) * 2, parallel=True)
    on, off = check(row, [DEFAULT, sub("scalar")])
    assert on.counters["vec"]["vec_refs"] > 0
    assert off.counters["vec"]["vec_refs"] == 0
    assert on.counters["batch_stats"]["la_refs"] > 0
