"""Differential test of the flat miss kernel (``MemorySystem._miss``).

The kernel services a reference as in-place dict/list operations on the
caches it touches. The ``Cache`` methods (``lookup`` / ``insert`` /
``set_state`` / ``invalidate``) stay the reference implementation of those
operations, and ``reference_access`` below composes them the way the memory
system did before the kernel existed. Random reference streams — reads,
writes and atomics, single- and multi-line, page-straddling, over caches
small enough that evictions and inclusion victims are routine — are driven
through both, on simple and complex hierarchies under every sharing
protocol, and everything observable must agree: per-reference latency,
every cache's sets / states / counters, the protocol's and the VMM's whole
state. ``Cache.version`` must agree exactly when the kernel is driven
directly, and never run backwards when it sits behind the L1 probe (whose
hits legitimately skip the bump).

Sampled fast-forward warming (``MemorySystem._ff_access``, reached through
``access`` and the batched loop while a window is active) is held the same
way: ``reference_ff_access`` is its fill composed of ``Cache`` methods.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import (BackendConfig, CacheConfig, MemoryConfig,
                               SimConfig)
from repro.core.stats import StatsRegistry
from repro.mem.hierarchy import MemorySystem
from repro.mem.pagetable import KERNEL_BASE

from tests.equivalence import make_batch

PID = 1
NCPUS = 4
USER_BASE = 0x10_0000
FILE_BASE = 0x80_0000
FILE_KEY = "tbl"
NPAGES = 6
PAGE = 4096
#: region name -> base virtual address
REGIONS = {"user": USER_BASE, "kernel": KERNEL_BASE + 0x4000,
           "file": FILE_BASE}

_E, _M = 2, 3


# ---------------------------------------------------------------------------
# the reference: the slow path as a composition of Cache methods
# ---------------------------------------------------------------------------

def _ref_fill_l1(ms, cpu, line, state):
    victim = ms.l1s[cpu].insert(line, state)
    if victim is not None and victim[1] == _M and ms.l2s is not None:
        # L1 victim folds into L2 (inclusive hierarchy)
        ms.l2s[cpu].set_state(victim[0], _M)


def _ref_line(ms, line, write, cpu, now):
    l1 = ms.l1s[cpu]
    proto = ms.protocol
    lat = l1.cfg.latency
    st_ = l1.lookup(line)
    if st_ is not None:
        if not write or st_ >= _E:
            if write and st_ == _E:
                l1.set_state(line, _M)
                if ms.l2s is not None:
                    ms.l2s[cpu].set_state(line, _M)
            return lat
        up, newst = proto.write_miss(cpu, line, now)
        l1.set_state(line, newst)
        if ms.l2s is not None:
            ms.l2s[cpu].set_state(line, newst)
        return lat + up
    if ms.l2s is not None:
        l2 = ms.l2s[cpu]
        lat += l2.cfg.latency
        st2 = l2.lookup(line)
        if st2 is not None:
            if write and st2 < _E:
                up, st2 = proto.write_miss(cpu, line, now + lat)
                lat += up
                l2.set_state(line, st2)
            elif write and st2 == _E:
                st2 = _M
                l2.set_state(line, st2)
            _ref_fill_l1(ms, cpu, line, st2)
            return lat
        if write:
            miss_lat, newst = proto.write_miss(cpu, line, now + lat)
        else:
            miss_lat, newst = proto.read_miss(cpu, line, now + lat)
        lat += miss_lat
        victim = l2.insert(line, newst)
        if victim is not None:
            vline, vstate = victim
            # inclusion: the L1 copy must go too, merging dirtiness
            if l1.invalidate(vline) == _M:
                vstate = _M
            if vstate == _M:
                proto.writeback(cpu, vline, now + lat)
            else:
                proto.forget(cpu, vline)
        _ref_fill_l1(ms, cpu, line, newst)
        return lat
    # simple hierarchy: L1 is the coherence point
    if write:
        miss_lat, newst = proto.write_miss(cpu, line, now + lat)
    else:
        miss_lat, newst = proto.read_miss(cpu, line, now + lat)
    lat += miss_lat
    victim = l1.insert(line, newst)
    if victim is not None:
        if victim[1] == _M:
            proto.writeback(cpu, victim[0], now + lat)
        else:
            proto.forget(cpu, victim[0])
    return lat


def reference_access(ms, vaddr, size, write, atomic, cpu, now,
                     behind_probe=False):
    """One reference through translation + the Cache-method composition.
    ``behind_probe``: account ``lat_slow`` and the degraded-DIMM hook as a
    system whose L1 probe runs first does — the probe's hits are not
    slow-path latency and never pay the hook; everything else does,
    private L2 hits included."""
    fast = behind_probe and ms.ref_invisible_latency(
        PID, cpu, 2 if atomic else int(write), vaddr, size) >= 0
    paddr, major, minor = ms.vmm.translate(PID, vaddr, write, cpu)
    if major is not None:
        return 0, major
    ms.accesses += 1
    latency = ms.minor_fault_cycles if minor else 0
    if atomic:
        latency += 4
    line = paddr >> ms._line_shift
    last = (paddr + max(size, 1) - 1) >> ms._line_shift
    while line <= last:
        latency += _ref_line(ms, line, write, cpu, now + latency)
        line += 1
    if not fast:
        if ms.fault_extra is not None:
            latency += ms.fault_extra()
        ms.lat_slow += latency
    return latency, None


def reference_ff_access(ms, vaddr, size, write, atomic, cpu):
    """One reference in a fast-forward window, as the memory system warmed
    before its fill was written in place: translate, count L1 hits and
    misses, flip a written S/E line to M in the L1 alone, fill L2 then L1
    through the Cache methods (inclusion drops the L1 copy of an L2
    victim), no protocol call, the calibrated latency."""
    paddr, major, _minor = ms.vmm.translate(PID, vaddr, write, cpu)
    if major is not None:
        return 0, major
    ms.accesses += 1
    ms.ff_refs += 1
    l1 = ms.l1s[cpu]
    fill = _M if write else 1
    line = paddr >> ms._line_shift
    last = (paddr + max(size, 1) - 1) >> ms._line_shift
    while line <= last:
        st_ = l1.probe(line)
        if st_ is not None:
            l1.hits += 1
            if write and st_ < _M:
                l1._states[line] = _M
            line += 1
            continue
        l1.misses += 1
        if ms.l2s is not None:
            l2 = ms.l2s[cpu]
            st2 = l2.probe(line)
            if st2 is None:
                l2.misses += 1
                victim = l2.insert(line, fill)
                if victim is not None:
                    l1.invalidate(victim[0])
            else:
                l2.hits += 1
                if fill > st2:
                    l2.set_state(line, fill)
        _ref_fill_l1(ms, cpu, line, fill)
        line += 1
    lat = ms._ff_base
    e = ms._ff_err + ms._ff_frac
    if e >= 1.0:
        e -= 1.0
        lat += 1
    ms._ff_err = e
    return (lat + 4 if atomic else lat), None


# ---------------------------------------------------------------------------
# the systems under comparison
# ---------------------------------------------------------------------------

def make_system(detail, coherence, fault_extra, l1_latency=1):
    """Caches of 8 (L1) and 32 (L2) lines: a few dozen references already
    evict, and an L1-hot line routinely becomes the L2's LRU victim."""
    be = BackendConfig(
        detail=detail,
        l1=CacheConfig(size=256, line_size=32, assoc=2, latency=l1_latency),
        l2=(CacheConfig(size=1024, line_size=32, assoc=2, latency=8)
            if detail == "complex" else None),
        coherence=coherence,
        memory=MemoryConfig(num_nodes=1 if coherence == "mesi" else 2))
    cfg = SimConfig(num_cpus=NCPUS, backend=be).validate()
    ms = MemorySystem(cfg, StatsRegistry(NCPUS))
    ms.vmm.new_space(PID)
    ms.vmm.map_anon(PID, USER_BASE, NPAGES * PAGE)
    ms.vmm.map_file(PID, FILE_BASE, NPAGES * PAGE, FILE_KEY)
    if fault_extra:
        ms.fault_extra = lambda: fault_extra
    return ms


def observable(ms):
    caches = ms.l1s + (ms.l2s or [])
    return {
        "caches": [(c.name, c._sets, c._states, c.hits, c.misses,
                    c.evictions, c.writebacks, c.invalidations)
                   for c in caches],
        "protocol": ms.protocol.state_dict(),
        "vmm": ms.vmm.state_dict(),
        "accesses": ms.accesses,
        "ff_refs": ms.ff_refs,
        "lat_slow": ms.lat_slow,
    }


def versions(ms):
    return [c.version for c in ms.l1s + (ms.l2s or [])]


def page_in(ms, fault):
    """What the engine's VM trap path ends with: make the page resident."""
    ms.vmm.install_file_page(fault.vma.file_key, fault.page_index, 0)


#: one reference: cpu, kind (0 read / 1 write / 2 atomic), region, page,
#: line within the page (multiples of 16 collide in both caches' sets),
#: byte within the line, size (up to three lines; the last lines of a page
#: straddle it), idle cycles before it
reference = st.tuples(
    st.integers(0, NCPUS - 1),
    st.sampled_from([0, 0, 1, 1, 2]),
    st.sampled_from(["user", "user", "kernel", "file"]),
    st.integers(0, NPAGES - 1),
    st.one_of(st.sampled_from([0, 16, 32, 48, 64, 80, 96, 112, 126, 127]),
              st.integers(0, 127)),
    st.integers(0, 31),
    st.sampled_from([0, 1, 4, 8, 32, 40, 64, 72]),
    st.integers(0, 40),
)


def vaddr_of(ref):
    _cpu, _kind, region, page, line, byte, _size, _gap = ref
    return REGIONS[region] + page * PAGE + line * 32 + byte


HIERARCHIES = ["simple", "complex"]
PROTOCOLS = ["mesi", "directory", "coma", "dsm"]


@pytest.mark.parametrize("coherence", PROTOCOLS)
@pytest.mark.parametrize("detail", HIERARCHIES)
@settings(max_examples=30, deadline=None)
@given(refs=st.lists(reference, min_size=1, max_size=90),
       hand_translation=st.booleans(),
       fault_extra=st.sampled_from([0, 0, 7]))
def test_kernel_matches_cache_method_composition(detail, coherence, refs,
                                                 hand_translation,
                                                 fault_extra):
    """The kernel driven directly, with or without the caller's
    translation: latency, state and ``Cache.version`` all exact."""
    flat = make_system(detail, coherence, fault_extra)
    ref = make_system(detail, coherence, fault_extra)
    now = 0
    for r in refs:
        cpu, kind, _region, _page, _line, _byte, size, gap = r
        vaddr = vaddr_of(r)
        now += gap
        while True:
            paddr = -1
            if hand_translation:
                table = (flat.vmm._kernel.table if vaddr >= KERNEL_BASE
                         else flat.vmm._spaces[PID].table)
                ppn = table.get(vaddr >> 12)
                if ppn is not None:
                    paddr = (ppn << 12) | (vaddr & 0xFFF)
            got = flat._miss(PID, vaddr, size, kind != 0, kind == 2, cpu,
                             now, paddr)
            want = reference_access(ref, vaddr, size, kind != 0, kind == 2,
                                    cpu, now)
            assert got[0] == want[0]
            assert (got[1] is None) == (want[1] is None)
            assert versions(flat) == versions(ref)
            if got[1] is None:
                break
            # major fault: no progress on either side; page in and retry
            assert got[1].page_index == want[1].page_index
            page_in(flat, got[1])
            page_in(ref, want[1])
        now += got[0]
    assert observable(flat) == observable(ref)


def _ref(kind, line, size=4, cpu=0):
    return cpu, kind, "user", 0, line, 0, size, 0


def _probe_arm_cases():
    """Every case of the batched loop's private-L2 arm, on CPU 0 of one
    page (L1 set = line % 4, L2 set = line % 16): a line left in CPU 0's
    L2 in S (a second CPU read it), E (one read) or M (a write), pushed
    out of its L1 by two reads in its L1 set, then read, written or
    atomically updated — a write to S leaves the arm for the kernel's
    upgrade. Last, line 5 comes back from the L2 into an L1 set whose LRU
    line 1 a fast-forward write left MODIFIED over an E copy in the L2,
    so the fill's victim folds into the L2. One ``access`` at a time the
    same cases take the miss kernel's L2-hit branch and L1 fill. Returns
    the references and the fast-forward flag of each."""
    refs = []
    for n, (state, kind) in enumerate([(s, k) for s in "SEM"
                                       for k in (0, 1, 2)]):
        x = 32 + 4 * n
        refs += {"S": [_ref(0, x), _ref(0, x, cpu=1)], "E": [_ref(0, x)],
                 "M": [_ref(1, x)]}[state]
        refs += [_ref(0, x + 20), _ref(0, x + 24), _ref(kind, x)]
    refs += [_ref(0, 5), _ref(0, 9), _ref(0, 1), _ref(1, 1), _ref(0, 9),
             _ref(0, 5)]
    return refs, [False] * (len(refs) - 3) + [True, False, False]


def _as_runs(refs, ff):
    """``refs`` as batches — each run of consecutive references of one CPU
    and one fast-forward flag — and each batch's flag."""
    runs, run_ff = [], []
    for r, f in zip(refs, ff):
        if runs and runs[-1][0][0] == r[0] and run_ff[-1] == f:
            runs[-1].append(r)
        else:
            runs.append([r])
            run_ff.append(f)
    return runs, run_ff


@pytest.mark.parametrize("coherence", PROTOCOLS)
@pytest.mark.parametrize("detail", HIERARCHIES)
@settings(max_examples=30, deadline=None)
# every warming arm at least once: three reads through one L1 set push
# line 0 out of the L1 but not the L2, whose copy a write then upgrades; a
# detail read leaves line 1 EXCLUSIVE for a write to flip; a three-line
# write spans lines 2-4
@example(refs=[_ref(0, 0), _ref(0, 4), _ref(0, 8), _ref(1, 0), _ref(0, 1),
               _ref(1, 1), _ref(1, 2, size=72)],
         ff=[True, True, True, True, False, True, True], mean=2.5,
         fault_extra=0)
@example(refs=_probe_arm_cases()[0], ff=_probe_arm_cases()[1], mean=0.0,
         fault_extra=0)
@example(refs=_probe_arm_cases()[0], ff=_probe_arm_cases()[1], mean=0.0,
         fault_extra=7)
@given(refs=st.lists(reference, min_size=1, max_size=90),
       ff=st.lists(st.booleans(), max_size=90),
       mean=st.sampled_from([0.0, 1.0, 2.5, 7.75]),
       fault_extra=st.sampled_from([0, 0, 7]))
def test_access_matches_cache_method_composition(detail, coherence, refs, ff,
                                                 mean, fault_extra):
    """``access()`` — L1 probe, else kernel (L2 hits included) — against
    the composition. The degraded-DIMM hook charges every reference but
    the L1 probe's hits. Reference ``j``
    with ``ff[j]`` set is issued inside a fast-forward window (calibrated
    ``mean``) against :func:`reference_ff_access`, and must move every
    ``Cache.version`` exactly as the composition does."""
    flat = make_system(detail, coherence, fault_extra)
    ref = make_system(detail, coherence, fault_extra)
    now = 0
    for j, r in enumerate(refs):
        cpu, kind, _region, _page, _line, _byte, size, gap = r
        vaddr = vaddr_of(r)
        now += gap
        in_ff = j < len(ff) and ff[j]
        if in_ff != flat.ff_active:
            for ms in (flat, ref):
                if in_ff:
                    ms.ff_begin(mean)
                else:
                    ms.ff_end()
        while True:
            before, ref_before = versions(flat), versions(ref)
            got = flat.access(PID, vaddr, size, kind != 0, cpu, now,
                              atomic=(kind == 2))
            if in_ff:
                want = reference_ff_access(ref, vaddr, size, kind != 0,
                                           kind == 2, cpu)
                assert ([a - b for a, b in zip(versions(flat), before)]
                        == [a - b for a, b in zip(versions(ref),
                                                  ref_before)])
            else:
                want = reference_access(ref, vaddr, size, kind != 0,
                                        kind == 2, cpu, now,
                                        behind_probe=True)
                assert all(b <= a for b, a in zip(before, versions(flat)))
            assert got[0] == want[0]
            if got[1] is None:
                assert want[1] is None
                break
            page_in(flat, got[1])
            page_in(ref, want[1])
        now += got[0]
    assert observable(flat) == observable(ref)
    assert flat.fast_hits + flat.fast_fallbacks + flat.ff_refs >= len(refs)


@pytest.mark.parametrize("coherence", PROTOCOLS)
@pytest.mark.parametrize("detail", HIERARCHIES)
@settings(max_examples=30, deadline=None)
@example(runs=_as_runs(*_probe_arm_cases())[0],
         ff=_as_runs(*_probe_arm_cases())[1], fault_extra=0)
@example(runs=_as_runs(*_probe_arm_cases())[0],
         ff=_as_runs(*_probe_arm_cases())[1], fault_extra=7)
@given(runs=st.lists(st.lists(reference, min_size=1, max_size=24),
                     min_size=1, max_size=6),
       ff=st.lists(st.booleans(), max_size=6),
       fault_extra=st.sampled_from([0, 0, 7]))
def test_access_run_matches_cache_method_composition(detail, coherence,
                                                     runs, ff, fault_extra):
    """The batched run loop hands the kernel the translation its own probe
    made; each run is one CPU's batch, chained on issue times. A run with
    its ``ff`` flag set is a fast-forward window's batch: it goes through
    the per-reference loop into the warming arm, against
    :func:`reference_ff_access`. The degraded-DIMM hook is charged as in
    :func:`test_access_matches_cache_method_composition`. A third system
    serves the same runs one reference at a time through ``access``: every
    ``Cache.version`` must move exactly as there, so a batch
    classification keyed on a version cannot outlive a change the loop
    made."""
    flat = make_system(detail, coherence, fault_extra)
    ref = make_system(detail, coherence, fault_extra)
    each = make_system(detail, coherence, fault_extra)
    t = 0
    for k, run in enumerate(runs):
        in_ff = k < len(ff) and ff[k]
        for ms in (flat, ref, each):
            if in_ff:
                ms.ff_begin(2.5)
            else:
                ms.ff_end()
        cpu = run[0][0]
        kinds = [r[1] for r in run]
        addrs = [vaddr_of(r) for r in run]
        sizes = [r[6] for r in run]
        pends = [r[7] for r in run]
        n = len(run)
        # the reference: one reference_access per batch entry, issue times
        # chained the way access_run documents (faulting entries page in
        # and re-issue with their lead-in already paid)
        rt = t
        want_added = 0
        for j in range(n):
            if j:
                rt += pends[j]
            while True:
                if in_ff:
                    lat, major = reference_ff_access(
                        ref, addrs[j], sizes[j], kinds[j] != 0,
                        kinds[j] == 2, cpu)
                else:
                    lat, major = reference_access(
                        ref, addrs[j], sizes[j], kinds[j] != 0,
                        kinds[j] == 2, cpu, rt, behind_probe=True)
                if major is None:
                    break
                page_in(ref, major)
            want_added += lat
            rt += lat
        et = t
        for j in range(n):
            if j:
                et += pends[j]
            while True:
                lat, major = each.access(PID, addrs[j], sizes[j],
                                         kinds[j] != 0, cpu, et,
                                         atomic=(kinds[j] == 2))
                if major is None:
                    break
                page_in(each, major)
            et += lat
        batch = make_batch(zip(kinds, addrs, sizes, pends), time=t)
        got_added = 0
        before = versions(flat)
        while batch.cursor < n:
            consumed, batch.cursor, batch.time, added, major, ext_refs = \
                flat.access_run(PID, cpu, batch, n - batch.cursor, 1 << 60)
            got_added += added
            assert ext_refs == 0
            if major is not None:
                page_in(flat, major)
                batch.pendings[batch.cursor] = 0
        t = batch.time
        assert (t, got_added) == (rt, want_added) == (et, want_added)
        assert all(b <= a for b, a in zip(before, versions(flat)))
        assert versions(flat) == versions(each)
    assert observable(flat) == observable(ref) == observable(each)


def test_an_l1_miss_past_the_horizon_cuts_the_run():
    """The batched loop retires a one-line L1 miss — a private L2 hit or a
    miss at the coherence point — only below ``horizon``: in the lookahead
    zone ``[horizon, ext)`` it cuts the run unconsumed, with no protocol
    call, as the miss kernel's references do, so a window still carries
    only what the L1 probe retires (what ``invisible_until`` qualified).
    Below the horizon it retires with the kernel's latency and effects."""
    ms = make_system("complex", "mesi", 0)
    twin = make_system("complex", "mesi", 0)
    for m in (ms, twin):
        for line in (0, 4, 8):        # line 0 leaves the L1 for the L2
            m.access(PID, vaddr_of(_ref(0, line)), 4, False, 0, 0)
    l1, l2 = ms.l1s[0], ms.l2s[0]

    def held():
        return pickle.dumps((l1._sets, l2._sets, l1.misses, l2.hits,
                             l2.misses, ms.protocol.state_dict(),
                             ms.protocol.counters))

    # an L2 hit, then an L2 miss, each behind an L1 hit on the MRU line
    for mru, line in ((8, 0), (0, 12)):
        hit, addr = vaddr_of(_ref(0, mru)), vaddr_of(_ref(0, line))
        before = held()
        # the L1 hit issues at 100, below the horizon; the L1 miss at 106
        got = ms.access_run(PID, 0, make_batch(
            [(0, hit, 4, 0), (0, addr, 4, 5)], time=100), 2, 101, 1000)
        assert got == (1, 1, 101, 1, None, 0)
        twin.access(PID, hit, 4, False, 0, 100)
        assert held() == before
        # below the horizon the same reference retires as the kernel's
        want, _major = twin._miss(PID, addr, 4, False, False, 0, 106, -1)
        got = ms.access_run(PID, 0, make_batch([(0, addr, 4, 5)], time=106),
                            1, 107, 1000)
        assert got == (1, 1, 106 + want, want, None, 0)
        assert observable(ms) == observable(twin)
        assert versions(ms) == versions(twin)
    assert (l2.hits, l2.misses) == (1, 4)


# ---------------------------------------------------------------------------
# the probe's multi-line arm against its single-line arm
# ---------------------------------------------------------------------------

#: cpu, kind, first line (a dozen lines over four sets, so spans are often
#: fully resident and as often not), lines spanned
span_ref = st.tuples(st.integers(0, 1), st.sampled_from([0, 0, 1, 2]),
                     st.integers(0, 11), st.integers(1, 4))


@pytest.mark.parametrize("l1_latency", [1, 0])
@settings(max_examples=60, deadline=None)
@given(refs=st.lists(span_ref, min_size=1, max_size=60))
def test_hit_span_is_the_single_line_probe_line_by_line(l1_latency, refs):
    """``_hit_span`` over lines ``a..b`` leaves the caches exactly as one
    single-line probe hit per line, in order, would — or, when any line
    would decline, touches nothing (``Cache`` state byte-equal) and
    returns 0. Through ``access`` a span hit costs ``latency * lines``
    (+4 atomic) and never reaches the miss kernel, a zero-latency L1
    included."""
    span = make_system("complex", "mesi", 0, l1_latency)
    single = make_system("complex", "mesi", 0, l1_latency)
    for ms in (span, single):      # translate the page
        ms.access(PID, USER_BASE + 127 * 32, 1, False, 0, 0)
    ppn = span.vmm._spaces[PID].table[USER_BASE >> 12]
    assert single.vmm._spaces[PID].table[USER_BASE >> 12] == ppn
    now = 10
    for cpu, kind, first, nlines in refs:
        vaddr = USER_BASE + first * 32
        write, atomic = kind != 0, kind == 2
        line = ((ppn << 12) | (vaddr & 0xFFF)) >> 5
        hits = all(single.ref_invisible_latency(PID, cpu, kind,
                                                vaddr + j * 32, 1) >= 0
                   for j in range(nlines))
        before = pickle.dumps([(c._sets, c._states) for c in
                               span.l1s + span.l2s])
        if not hits:
            assert span._hit_span(cpu, line, line + nlines - 1, write) == 0
            assert pickle.dumps([(c._sets, c._states) for c in
                                 span.l1s + span.l2s]) == before
            got = span.access(PID, vaddr, nlines * 32, write, cpu, now,
                              atomic=atomic)
            assert got == single.access(PID, vaddr, nlines * 32, write, cpu,
                                        now, atomic=atomic)
        elif nlines == 1:
            # access() inlines this arm; the span of one line equals it
            assert span._hit_span(cpu, line, line, write) == 1
            single.access(PID, vaddr, 1, write, cpu, now)
        else:
            fallbacks = span.fast_fallbacks
            lat, major = span.access(PID, vaddr, nlines * 32, write, cpu,
                                     now, atomic=atomic)
            assert (lat, major) == (l1_latency * nlines + 4 * atomic, None)
            assert span.fast_fallbacks == fallbacks
            for j in range(nlines):
                single.access(PID, vaddr + j * 32, 1, write, cpu, now)
            # one reference on one side, ``nlines`` on the other
            single.accesses -= nlines - 1
            single.fast_hits -= nlines - 1
        now += 50
        assert observable(span) == observable(single)
        assert span.fast_hits == single.fast_hits
