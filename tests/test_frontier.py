"""The two qualifiers of a horizon-extension window agree.

``MemorySystem.invisible_until`` bounds how long a rival's parked batch
provably stays invisible. With the rival CPU's vec mirror fresh the bound is
read from the batch's array classification (``VecState.frontier``);
otherwise the scalar reference-by-reference walk answers. The walk is the
reference: the array bound must never exceed it (a larger window could
reorder the rival against something it observes) and must equal it unless a
reference spans more than two lines, which the mirror declines and the walk
probes line by line.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import complex_backend
from repro.core.events import EventBatch
from repro.core.stats import StatsRegistry
from repro.mem import vec as vecmod
from repro.mem.hierarchy import MemorySystem

PID = 1
CPU = 0
LINE = 32
PAGE = 4096
#: two touched pages, then one the process never touched (no translation)
BASE = 0x20000
UNMAPPED = BASE + 2 * PAGE
INF = 1 << 60
#: the L1 picture repeats every 16 lines (see make_ms)
GROUP = 16 * LINE
ABSENT = 13


def make_ms() -> MemorySystem:
    """CPU 0's L1 over two pages, by line index mod 16: 0-10 EXCLUSIVE, 11
    MODIFIED, 12 SHARED (CPU 1 read it too — a write must decline), 13
    absent (translated, not resident), 14-15 EXCLUSIVE. Mirror resynced, as
    ``run()`` would."""
    cfg = complex_backend(num_cpus=2)
    ms = MemorySystem(cfg, StatsRegistry(cfg.num_cpus))
    ms.vmm.new_space(PID)
    ms.vmm.map_anon(PID, 0x10000, 1 << 24)
    now = 0
    for idx in range(2 * PAGE // LINE):
        addr = BASE + idx * LINE
        slot = idx % 16
        if slot == ABSENT:
            continue
        lat, fault = ms.access(PID, addr, 4, slot == 11, CPU, now)
        assert fault is None
        now += lat
        if slot == 12:
            lat, fault = ms.access(PID, addr, 4, False, 1, now)
            assert fault is None
            now += lat
    ms._vec._rebuild_cache(CPU)
    return ms


def make_batch(refs, cursor=0, time=1000, uhint=None) -> EventBatch:
    b = EventBatch()
    for kind, addr, size, pend in refs:
        b.append(kind, addr, size, pend)
    b.pid = PID
    b.cursor = cursor
    b.time = time
    b.uhint = uhint
    return b


def scalar_bound(ms, batch, cap):
    """The walk alone: ``invisible_until`` with the array qualifier
    declining."""
    vec = ms._vec
    vec.frontier = lambda *_args: None
    try:
        return ms.invisible_until(PID, CPU, batch, cap)
    finally:
        del vec.frontier


def spans_over_two_lines(refs) -> bool:
    return any(((a % LINE) + s - 1) // LINE >= 2 for _k, a, s, _p in refs)


@pytest.fixture(scope="module")
def ms():
    return make_ms()


# one reference: any kind, anywhere in the two pages or the unmapped one,
# sizes reaching one, two and more than two lines
_any_ref = st.tuples(
    st.sampled_from([0, 0, 1, 2]),
    st.one_of(st.integers(0, 2 * PAGE // 4 - 1).map(lambda w: BASE + 4 * w),
              st.integers(0, 63).map(lambda w: UNMAPPED + 4 * w)),
    st.sampled_from([1, 4, 8, 32, 33, 64, 65, 100]),
    st.integers(0, 5))

# starts inside a group's EXCLUSIVE run: long invisible prefixes, and the
# "bounded by the last reference" arm
_hit_addr = st.tuples(st.integers(0, 2 * PAGE // GROUP - 1),
                      st.integers(0, 10 * LINE // 4)).map(
                          lambda gw: BASE + gw[0] * GROUP + 4 * gw[1])
_hit_ref = st.tuples(st.sampled_from([0, 1, 2]), _hit_addr,
                     st.sampled_from([1, 4, 8, 32]),
                     st.sampled_from([0, 0, 3]))
# single-line reads with no lead-in: the closed-form ("uniform") chain
_plain_read = st.tuples(st.just(0), _hit_addr, st.sampled_from([1, 4]),
                        st.just(0))


def _with_one(args):
    refs, odd, at = args
    at %= len(refs) + 1
    return refs[:at] + [odd] + refs[at:]


_unhinted = st.one_of(
    st.lists(_plain_read, min_size=8, max_size=24),
    st.lists(_hit_ref, min_size=8, max_size=24),
    st.tuples(st.lists(_hit_ref, min_size=8, max_size=24), _any_ref,
              st.integers(0, 24)).map(_with_one),
    st.lists(_any_ref, min_size=1, max_size=24),
)


@st.composite
def _hinted(draw):
    """A whole filling as one arithmetic stream, exactly as ``Proc.touch``
    advertises it: one kind, sizes == stride, constant lead-in."""
    kind = draw(st.sampled_from([0, 1, 2]))
    stride = draw(st.sampled_from([4, 16, 32, 64, 96]))
    wpl = draw(st.sampled_from([0, 0, 2]))
    n = draw(st.one_of(st.integers(vecmod.MIN_RUN, 24), st.integers(1, 24)))
    start = draw(st.one_of(
        st.integers(0, (2 * PAGE - n * stride) // 4).map(
            lambda w: BASE + 4 * w),
        st.tuples(st.integers(0, 2 * PAGE // GROUP - 2),
                  st.sampled_from([0, 0, 4, 16])).map(
                      lambda go: BASE + go[0] * GROUP + go[1])))
    refs = [(kind, start + j * stride, stride,
             wpl if j else draw(st.integers(0, 5))) for j in range(n)]
    return refs, (kind, stride, wpl)


def _check(ms, refs, uhint, data):
    cursor = data.draw(st.one_of(
        st.integers(0, max(0, len(refs) - vecmod.MIN_RUN)),
        st.integers(0, len(refs) - 1)))
    batch = make_batch(refs, cursor, uhint=uhint)
    exact = not spans_over_two_lines(refs[cursor:])
    kind, addr, size, _pend = refs[cursor]
    declines = ms.ref_invisible_latency(PID, CPU, kind, addr, size) < 0
    full = scalar_bound(ms, batch, INF)
    # every cap from below the cursor's issue time to past the walk's end:
    # below, at and above each issue time on the way
    for cap in list(range(batch.time - 1, min(full, batch.time + 400) + 3)) \
            + [INF]:
        want = scalar_bound(ms, batch, cap)
        got = ms.invisible_until(PID, CPU, batch, cap)
        assert got <= want, (cap, refs, cursor, uhint)
        if declines:
            # the cursor probe answers before either qualifier, uncapped
            assert got == want == batch.time, (cap, refs, cursor, uhint)
        elif exact:
            # a batch whose last reference is at the cursor: the walk
            # answers its time uncapped, the arrays clamp it like any other
            assert got in (want, min(want, cap)), (cap, refs, cursor, uhint)


@settings(max_examples=120, deadline=None)
@given(_unhinted, st.data())
def test_array_frontier_matches_the_scalar_walk(ms, refs, data):
    _check(ms, refs, None, data)


@settings(max_examples=120, deadline=None)
@given(_hinted(), st.data())
def test_array_frontier_matches_the_scalar_walk_hinted(ms, filling, data):
    _check(ms, *filling, data)


def test_array_qualifier_answers_when_it_can(ms):
    """Enough references, first one a hit, mirror fresh: the bound comes
    from ``frontier`` — also when it is the >2-line decline that stops it
    short of the walk."""
    refs = [(0, BASE + j * 4, 4, 0) for j in range(12)]
    batch = make_batch(refs)
    assert ms._vec.frontier(PID, CPU, batch, INF) == \
        scalar_bound(ms, batch, INF) == batch.time + 11
    wide = refs[:4] + [(0, BASE, 3 * LINE, 0)] + refs[5:]
    batch = make_batch(wide)
    assert ms._vec.frontier(PID, CPU, batch, INF) == batch.time + 4
    assert scalar_bound(ms, batch, INF) == batch.time + 4 + 3 + 6


def test_stale_or_short_goes_to_the_scalar_walk():
    ms = make_ms()
    vec = ms._vec
    refs = [(1, BASE + j * 4, 4, 1) for j in range(12)] \
        + [(0, BASE + ABSENT * LINE, 4, 0), (0, BASE, 4, 0)]
    batch = make_batch(refs)
    want = scalar_bound(ms, batch, INF)
    assert want == batch.time + 11 * 2 + 1      # the absent line's issue time
    assert vec.frontier(PID, CPU, batch, INF) == want

    short = make_batch(refs, cursor=len(refs) - vecmod.MIN_RUN + 1)
    before = dict(vec.declines)
    assert vec.frontier(PID, CPU, short, INF) is None
    assert ms.invisible_until(PID, CPU, short, INF) == \
        scalar_bound(ms, short, INF)
    assert vec.declines["frontier_short"] == before["frontier_short"] + 2

    # a fill bumps the L1 version: the mirror is stale, and stays stale —
    # only the owner's run() decides when a rebuild pays
    ms.access(PID, BASE + ABSENT * LINE, 4, False, CPU, 0)
    rebuilds = ms.vec_rebuilds
    assert vec.frontier(PID, CPU, batch, INF) is None
    got = ms.invisible_until(PID, CPU, batch, INF)
    assert got == scalar_bound(ms, batch, INF) == batch.time + 11 * 2 + 2
    assert vec.declines["frontier_stale"] == before["frontier_stale"] + 2
    assert ms.vec_rebuilds == rebuilds


def test_classification_is_paid_once_and_shared_with_the_owner(monkeypatch):
    """A fresh, fully-hitting rival batch is classified by the first query;
    the second query and the owner's own ``run()`` read the cached arrays —
    no classification, and each query probes only the cursor reference (a
    rival about to miss stops there — ``tests/test_host_switches.py``)."""
    ms = make_ms()
    vec = ms._vec
    classified = []
    orig = vecmod.VecState._classify
    monkeypatch.setattr(
        vecmod.VecState, "_classify",
        lambda self, *a: classified.append(a[5:7]) or orig(self, *a))
    probes = []
    orig_probe = MemorySystem.ref_invisible_latency
    monkeypatch.setattr(
        MemorySystem, "ref_invisible_latency",
        lambda self, *a: probes.append(a) or orig_probe(self, *a))

    refs = [(1, BASE + (j % 5) * LINE, 4, 0) for j in range(64)]
    batch = make_batch(refs)
    cursor = (batch.kinds[0], batch.addrs[0], batch.sizes[0])
    first = ms.invisible_until(PID, CPU, batch, INF)
    assert classified == [(0, 64)] and probes == [(PID, CPU, *cursor)]
    assert ms.invisible_until(PID, CPU, batch, INF) == first
    assert ms.invisible_until(PID, CPU, batch, batch.time + 10) == \
        batch.time + 10
    assert classified == [(0, 64)] and probes == [(PID, CPU, *cursor)] * 3
    # the owner's turn: same cache entry, and the whole batch retires
    consumed, i, *_ = ms.access_run(
        PID, CPU, batch.kinds, batch.addrs, batch.sizes, batch.pendings, 0,
        batch.n, batch.time, batch.n, INF, serial=batch.serial)
    assert (consumed, i) == (64, 64)
    assert classified == [(0, 64)]
