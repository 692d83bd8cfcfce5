"""A rival's window bound read from a classification equals the walk.

``MemorySystem.invisible_until`` bounds how long a rival's parked batch
provably stays invisible. A classification the owner's ``run()`` left on
the filling answers when it still covers the cursor under the current key
(``VecState.cached``, :meth:`Prefix.bound`); otherwise the scalar
reference-by-reference walk answers, and classifies nothing. The
probe-first walk is the reference and the classification must equal it on
every batch, multi-line references included: a larger window could
reorder the rival against something it observes, a smaller one wastes
windows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import complex_backend
from repro.core.stats import StatsRegistry
from repro.mem import vec as vecmod
from repro.mem.hierarchy import MemorySystem

from tests.equivalence import make_batch

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
    absent (translated, not resident), 14-15 EXCLUSIVE. Then one short run
    of CPU 0 (scalar, a hit): its L1 held still since, so the
    classification answers."""
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
    ms.access_run(PID, CPU, make_batch([(0, BASE, 4, 0)], time=now), 1, INF)
    return ms


def scalar_bound(ms, batch, cap):
    """The probe-first walk alone: ``invisible_until`` with no cached
    classification read."""
    vec = ms._vec
    vec.cached = lambda *_args: None
    try:
        return ms.invisible_until(PID, CPU, batch, cap)
    finally:
        del vec.cached


def owner_classifies(ms, batch):
    """The classification the owner's ``run()`` makes at ``batch``'s
    cursor (or reads, when one on the filling covers it)."""
    return ms._vec._classified(PID, CPU, batch)


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


_mixed = st.one_of(
    st.lists(_plain_read, min_size=8, max_size=24),
    st.lists(_hit_ref, min_size=8, max_size=24),
    st.tuples(st.lists(_hit_ref, min_size=8, max_size=24), _any_ref,
              st.integers(0, 24)).map(_with_one),
    st.lists(_any_ref, min_size=1, max_size=24),
)


@st.composite
def _strided(draw):
    """A whole filling as one arithmetic stream, as ``strided_batches``
    fills a one-lane scan: one kind, sizes == stride, constant lead-in."""
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
    return [(kind, start + j * stride, stride,
             wpl if j else draw(st.integers(0, 5))) for j in range(n)]


def _check(ms, refs, data):
    cursor = data.draw(st.one_of(
        st.integers(0, max(0, len(refs) - vecmod.MIN_RUN)),
        st.integers(0, len(refs) - 1)))
    batch = make_batch(refs, cursor)
    kind, addr, size, _pend = refs[cursor]
    declines = ms.ref_invisible_latency(PID, CPU, kind, addr, size) < 0
    full = scalar_bound(ms, batch, INF)
    assert owner_classifies(ms, batch) is ms._vec.cached(PID, CPU, batch)
    # every cap from below the cursor's issue time to past the walk's end:
    # below, at and above each issue time on the way
    for cap in list(range(batch.time - 1, min(full, batch.time + 400) + 3)) \
            + [INF]:
        want = scalar_bound(ms, batch, cap)
        got = ms.invisible_until(PID, CPU, batch, cap)
        assert got == want, (cap, refs, cursor)
        if declines:
            # an entry stopping at the cursor answers as the cursor probe:
            # uncapped
            assert got == batch.time, (cap, refs, cursor)


@settings(max_examples=120, deadline=None)
@given(_mixed, st.data())
def test_classified_frontier_matches_the_scalar_walk(ms, refs, data):
    _check(ms, refs, data)


@settings(max_examples=120, deadline=None)
@given(_strided(), st.data())
def test_classified_frontier_matches_the_scalar_walk_strided(ms, refs, data):
    _check(ms, refs, data)


def test_classification_answers_when_it_can(ms):
    """The owner's classification covering the cursor answers the bound,
    a reference of three lines included, as the walk probes it; no walk is
    counted."""
    vec = ms._vec
    refs = [(0, BASE + j * 4, 4, 0) for j in range(12)]
    wide = refs[:4] + [(0, BASE, 3 * LINE, 0)] + refs[5:]
    for refs, want in ((refs, 11), (wide, 4 + 3 + 6)):
        batch = make_batch(refs)
        owner_classifies(ms, batch)
        walks = vec.walks
        assert ms.invisible_until(PID, CPU, batch, INF) == \
            scalar_bound(ms, batch, INF) == batch.time + want
        assert vec.walks == walks + 1           # scalar_bound's alone


def test_no_classification_on_the_filling_walks_and_classifies_nothing():
    """With no classification on the filling, or one walked under a key
    that no longer holds, the walk answers and nothing is classified."""
    ms = make_ms()
    vec = ms._vec
    refs = [(1, BASE + j * 4, 4, 1) for j in range(12)] \
        + [(0, BASE + ABSENT * LINE, 4, 0), (0, BASE, 4, 0)]
    batch = make_batch(refs)
    classified, walks = vec.classifications, vec.walks
    # the absent line's issue time
    assert ms.invisible_until(PID, CPU, batch, INF) == batch.time + 11 * 2 + 1
    assert batch.prefix is None and vec.walks == walks + 1
    short = make_batch(refs, cursor=len(refs) - vecmod.MIN_RUN + 1)
    assert ms.invisible_until(PID, CPU, short, INF) == \
        scalar_bound(ms, short, INF)
    assert short.prefix is None
    assert vec.classifications == classified

    # a fill bumps the L1 version: the owner's classification is not read
    cd = owner_classifies(ms, batch)
    ms.access(PID, BASE + ABSENT * LINE, 4, False, CPU, 0)
    assert vec.cached(PID, CPU, batch) is None
    walks = vec.walks
    got = ms.invisible_until(PID, CPU, batch, INF)
    assert got == scalar_bound(ms, batch, INF) == batch.time + 11 * 2 + 2
    assert batch.prefix is cd and vec.walks == walks + 2
    assert vec.classifications == classified + 1


def test_the_owners_classification_answers_every_rival(monkeypatch):
    """The owner's ``run()`` classifies a fully-hitting filling once; every
    later bound a rival asks of it, at any cursor the owner's cuts leave,
    and the owner's own stand-down verdict read that classification: no
    second walk, and no probe at all."""
    ms = make_ms()
    vec = ms._vec
    classified = []
    orig = vecmod.VecState._classify
    monkeypatch.setattr(
        vecmod.VecState, "_classify",
        lambda self, pid, cpu, batch: classified.append(
            (batch.cursor, batch.n)) or orig(self, pid, cpu, batch))
    probes = []
    orig_probe = MemorySystem.ref_invisible_latency
    monkeypatch.setattr(
        MemorySystem, "ref_invisible_latency",
        lambda self, *a: probes.append(a) or orig_probe(self, *a))

    refs = [(1, BASE + (j % 5) * LINE, 4, 0) for j in range(64)]
    batch = make_batch(refs)
    consumed, i, t, *_ = ms.access_run(PID, CPU, batch, 16, INF)
    assert (consumed, i) == (16, 16) and classified == [(0, 64)]
    batch.cursor, batch.time = i, t
    walks = vec.walks
    assert ms.invisible_until(PID, CPU, batch, INF) == batch.time + 47
    assert ms.invisible_until(PID, CPU, batch, batch.time + 10) == \
        batch.time + 10
    assert vec.cached(PID, CPU, batch).stop > batch.cursor   # the verdict
    assert probes == [] and vec.walks == walks
    # the owner's next turn: the same classification retires the rest
    consumed, i, *_ = ms.access_run(PID, CPU, batch, batch.n, INF)
    assert (consumed, i) == (48, 64)
    assert classified == [(0, 64)]


@settings(max_examples=120, deadline=None)
@given(st.one_of(_mixed, _strided()), st.booleans(), st.data())
def test_cached_bound_equals_the_probe_first_walk(refs, reissue, data):
    """An owner's classification at one cursor serves bounds at later ones
    (as its cut continuations move the cursor, or a re-issue of the kept
    filling): every bound, read from a stored classification or walked —
    one that stops at the cursor and caps below ``batch.time`` included —
    equals the probe-first walk's."""
    ms = make_ms()
    n = len(refs)
    cursors = []
    for cursor in data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=4)):
        # then the first reference from it the probe declines: where an
        # entry classified from ``cursor`` stops
        stop = next((j for j in range(cursor, n)
                     if ms.ref_invisible_latency(PID, CPU, *refs[j][:3]) < 0),
                    cursor)
        cursors += [cursor, stop]
    batch = make_batch(refs)
    for cursor in cursors:
        if not reissue:
            batch = make_batch(refs)
        batch.cursor = cursor
        batch.time = data.draw(st.integers(1000, 1100))
        if data.draw(st.booleans()):
            owner_classifies(ms, batch)
        for cap in (batch.time - 7, batch.time, batch.time + 1,
                    batch.time + data.draw(st.integers(2, 60)), INF):
            assert ms.invisible_until(PID, CPU, batch, cap) == \
                scalar_bound(ms, batch, cap), (refs, cursor, cap)


def test_a_cached_entry_answers_with_no_probe(monkeypatch):
    """An entry that stops at the cursor answers the cursor's own time,
    unclamped even under a cap below it, as the cursor probe would; one
    that covers the cursor answers the clamped bound. Neither probes,
    walks or tallies anything."""
    ms = make_ms()
    vec = ms._vec
    refs = [(0, BASE + j * 4, 4, 1) for j in range(12)] \
        + [(0, BASE + ABSENT * LINE, 4, 0)] \
        + [(0, BASE + j * 4, 4, 0) for j in range(10)]
    batch = make_batch(refs)
    cd = owner_classifies(ms, batch)
    assert ms.invisible_until(PID, CPU, batch, INF) == batch.time + 23
    assert (cd.base, cd.stop) == (0, 12)
    probes = []
    orig_probe = MemorySystem.ref_invisible_latency
    monkeypatch.setattr(
        MemorySystem, "ref_invisible_latency",
        lambda self, *a: probes.append(a) or orig_probe(self, *a))
    counts = vec.classifications, vec.walks

    batch.cursor, batch.time = 12, 2000
    assert vec.cached(PID, CPU, batch).bound(batch, 1500) == 2000
    for cap in (1500, 2000, 2001, INF):
        assert ms.invisible_until(PID, CPU, batch, cap) == 2000
    batch.cursor = 4
    for cap in (1500, 2003, INF):
        assert ms.invisible_until(PID, CPU, batch, cap) == min(cap, 2015)
    assert probes == []
    assert (vec.classifications, vec.walks) == counts
    for cap in (1500, 2003, INF):
        assert scalar_bound(ms, batch, cap) == min(cap, 2015)
