"""Memory-system integration tests (translation + caches + protocol)."""

import pytest

from repro.core.config import complex_backend, simple_backend
from repro.core.stats import StatsRegistry
from repro.mem.cache import LineState
from repro.mem.hierarchy import MemorySystem

from tests.equivalence import decline_bulk


def make(cfg=None, minor=400, vec=True):
    """A memory system with pid 1 mapped; ``vec=False``: its bulk path
    declines everything, so runs take the scalar loop."""
    cfg = cfg or complex_backend(num_cpus=2)
    ms = MemorySystem(cfg, StatsRegistry(cfg.num_cpus),
                      minor_fault_cycles=minor)
    ms.vmm.new_space(1)
    ms.vmm.map_anon(1, 0x10000, 1 << 24)
    if not vec:
        decline_bulk(ms)
    return ms


def test_minor_fault_charged_once():
    ms = make()
    lat1, _ = ms.access(1, 0x20000, 4, False, 0, 0)
    # same page, new line, far enough in the future that no resource
    # occupancy from the first access lingers
    lat2, _ = ms.access(1, 0x20040, 4, False, 0, 10_000)
    assert lat1 - lat2 >= 400 - 60  # first access paid the fault


def test_l1_hit_is_l1_latency():
    ms = make()
    ms.access(1, 0x20000, 4, False, 0, 0)
    lat, _ = ms.access(1, 0x20000, 4, False, 0, 50)
    assert lat == ms.l1s[0].cfg.latency


def test_l2_hit_between_l1_and_miss():
    ms = make()
    ms.access(1, 0x20000, 4, False, 0, 0)
    # evict from tiny L1 by touching many lines in the same set family
    for n in range(1, 40):
        ms.access(1, 0x20000 + n * 32 * ms.l1s[0].n_sets, 4, False, 0, n)
    # if the line left L1 but not L2, latency == l1+l2
    line = ms.vmm.translate(1, 0x20000, False, 0)[0] >> 5
    if not ms.l1s[0].contains(line) and ms.l2s[0].contains(line):
        lat, _ = ms.access(1, 0x20000, 4, False, 0, 1000)
        assert lat == ms.l1s[0].cfg.latency + ms.l2s[0].cfg.latency


def test_write_after_read_upgrades():
    ms = make(complex_backend(num_cpus=2))
    ms.access(1, 0x20000, 4, False, 0, 0)
    ms.access(1, 0x20000, 4, False, 1, 10)   # now SHARED in both
    ms.access(1, 0x20000, 4, True, 0, 1000)
    line = ms.vmm.translate(1, 0x20000, False, 0)[0] >> 5
    assert ms.l1s[0].probe(line) == LineState.MODIFIED
    assert ms.l1s[1].probe(line) is None


def test_multi_line_access_touches_all_lines():
    ms = make()
    # a 100-byte access spanning 4 lines
    ms.access(1, 0x20010, 100, False, 0, 0)
    paddr = ms.vmm.translate(1, 0x20010, False, 0)[0]
    first = paddr >> 5
    for ln in range(first, ((paddr + 99) >> 5) + 1):
        assert ms.l1s[0].contains(ln)


def test_atomic_adds_penalty():
    ms = make()
    ms.access(1, 0x20000, 4, False, 0, 0)
    plain, _ = ms.access(1, 0x20000, 4, False, 0, 100)
    atomic, _ = ms.access(1, 0x20000, 4, False, 0, 200, atomic=True)
    assert atomic == plain + 4


def test_simple_backend_has_no_l2():
    ms = make(simple_backend(num_cpus=1))
    assert ms.l2s is None
    ms.access(1, 0x20000, 4, True, 0, 0)
    line = ms.vmm.translate(1, 0x20000, False, 0)[0] >> 5
    assert ms.l1s[0].probe(line) == LineState.MODIFIED


def test_major_fault_reported_not_charged():
    ms = make()
    ms.vmm.map_file(1, 0x9000000, 8192, file_key=5)
    lat, fault = ms.access(1, 0x9000000, 4, False, 0, 0)
    assert fault is not None and lat == 0
    ms.vmm.install_file_page(5, 0, 0)
    lat, fault = ms.access(1, 0x9000000, 4, False, 0, 10)
    assert fault is None and lat > 0


def test_cache_summary_shape():
    ms = make()
    ms.access(1, 0x20000, 4, False, 0, 0)
    s = ms.cache_summary()
    assert "l1" in s and "l2" in s and "protocol" in s
    assert s["minor_faults"] == 1


def test_kernel_addresses_translate():
    ms = make()
    lat, fault = ms.access(1, 0xC100_0000, 4, True, 0, 0)
    assert fault is None and lat > 0


# ---------------------------------------------------------------------------
# access_run edge cases feeding the vector path
# ---------------------------------------------------------------------------

def _per_ref_mirror(ms, kinds, addrs, sizes, pends, t, cpu=0, pid=1):
    """The engine's per-reference loop with no horizon/limit cuts —
    the ground truth access_run must replay."""
    added = 0
    for j, k in enumerate(kinds):
        if j:
            t += pends[j]
        lat, major = ms.access(pid, addrs[j], sizes[j], k != 0, cpu, t,
                               atomic=(k == 2))
        assert major is None
        added += lat
        t += lat
    return added, t


def _straddle_refs(start=0x20F00):
    """A run crossing two 4 KiB page boundaries: per-page state (TLB
    snapshot rows, minor-fault accounting) changes mid-run, and one
    reference straddles the boundary itself (two lines, two pages)."""
    kinds, addrs, sizes, pends = [], [], [], []
    a = start
    for j in range(40):
        kinds.append((0, 1, 0, 2)[j % 4])
        addrs.append(a)
        # every 8th reference spans the line it starts in and the next
        sizes.append(40 if j % 8 == 7 else 4)
        pends.append(3 if j else 0)
        a += 0x60  # 1.5 lines -> crosses 0x21000 and 0x22000 mid-run
    return kinds, addrs, sizes, pends


@pytest.mark.parametrize("vec", [True, False])
def test_access_run_zero_length_and_zero_limit(vec):
    ms = make(vec=vec)
    kinds, addrs, sizes, pends = _straddle_refs()
    n = len(kinds)
    # i >= n: nothing to consume, state untouched
    assert ms.access_run(1, 0, kinds, addrs, sizes, pends,
                         n, n, 500, 64, 1 << 60) == (0, n, 500, 0, None, 0)
    assert ms.access_run(1, 0, [], [], [], [], 0, 0, 500, 64,
                         1 << 60) == (0, 0, 500, 0, None, 0)
    # limit exhausted before the first reference
    assert ms.access_run(1, 0, kinds, addrs, sizes, pends,
                         0, n, 500, 0, 1 << 60) == (0, 0, 500, 0, None, 0)
    assert ms.accesses == 0


@pytest.mark.parametrize("vec", [True, False])
def test_access_run_page_straddle_matches_per_ref(vec):
    ms_run, ms_ref = make(vec=vec), make(vec=vec)
    kinds, addrs, sizes, pends = _straddle_refs()
    n = len(kinds)
    want_added, want_t = _per_ref_mirror(ms_ref, kinds, addrs, sizes,
                                         pends, 500)
    consumed, i, t, added, major, ext = ms_run.access_run(
        1, 0, kinds, addrs, sizes, pends, 0, n, 500, n, 1 << 60)
    assert (consumed, i, major, ext) == (n, n, None, 0)
    assert (added, t) == (want_added, want_t)
    assert ms_run.cache_summary() == ms_ref.cache_summary()
    # a second, warm pass must agree too (vec path can now accept)
    want_added, want_t = _per_ref_mirror(ms_ref, kinds, addrs, sizes,
                                         pends, want_t + 1_000)
    consumed, i, t, added, major, ext = ms_run.access_run(
        1, 0, kinds, addrs, sizes, pends, 0, n, t + 1_000, n, 1 << 60)
    assert (consumed, added, t) == (n, want_added, want_t)
    assert ms_run.cache_summary() == ms_ref.cache_summary()


@pytest.mark.parametrize("vec", [True, False])
def test_access_run_mixed_tapped_untapped(vec):
    """Installing a tracing tap (an instance rebinding of ``access``)
    between runs must flip access_run to the per-reference stream for
    exactly the tapped runs, with no effect on the simulated totals."""
    ms_run, ms_ref = make(vec=vec), make(vec=vec)
    kinds, addrs, sizes, pends = _straddle_refs()
    n = len(kinds)

    t = 500
    tref = 500
    seen = []
    for phase in ("untapped", "tapped", "untapped-again"):
        if phase == "tapped":
            real = ms_run.access

            def tap(pid, vaddr, size, write, cpu, now, atomic=False):
                seen.append((pid, vaddr, size, write, atomic))
                return real(pid, vaddr, size, write, cpu, now,
                            atomic=atomic)

            ms_run.access = tap
        elif phase == "untapped-again":
            del ms_run.access
        want_added, want_t = _per_ref_mirror(ms_ref, kinds, addrs, sizes,
                                             pends, tref)
        consumed, _, t2, added, major, _ = ms_run.access_run(
            1, 0, kinds, addrs, sizes, pends, 0, n, t, n, 1 << 60)
        assert (consumed, major) == (n, None)
        assert (added, t2) == (want_added, want_t)
        if phase == "tapped":
            # the tap observed every reference of its run, in order
            assert [(v, s) for _, v, s, _, _ in seen] == \
                list(zip(addrs, sizes))
        t = t2 + 1_000
        tref = want_t + 1_000
    assert ms_run.cache_summary() == ms_ref.cache_summary()
    assert len(seen) == n
