"""Coherence protocol tests: MESI, directory, COMA, DSM — plus
cross-protocol invariants checked with hypothesis-generated traces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (BackendConfig, CacheConfig, MemoryConfig,
                               SimConfig, complex_backend, simple_backend)
from repro.core.stats import StatsRegistry
from repro.mem.cache import LineState
from repro.mem.hierarchy import MemorySystem


def make_ms(coherence="directory", cpus=4, nodes=2):
    if coherence == "none":
        cfg = simple_backend(num_cpus=cpus)
    else:
        cfg = complex_backend(num_cpus=cpus, num_nodes=nodes,
                              coherence=coherence)
    ms = MemorySystem(cfg, StatsRegistry(cpus), minor_fault_cycles=0)
    for pid in (1,):
        ms.vmm.new_space(pid)
        ms.vmm.map_anon(pid, 0x10000, 1 << 26)
    return ms


def acc(ms, addr, write=False, cpu=0, now=0):
    lat, fault = ms.access(1, addr, 4, write, cpu, now)
    assert fault is None
    return lat


ALL_PROTOCOLS = ["none", "mesi", "directory", "coma", "dsm"]


@pytest.mark.parametrize("proto", ALL_PROTOCOLS)
def test_hit_faster_than_miss(proto):
    ms = make_ms(proto)
    cold = acc(ms, 0x20000)
    warm = acc(ms, 0x20000, now=1000)
    assert warm < cold


@pytest.mark.parametrize("proto", ["mesi", "directory", "coma", "dsm"])
def test_remote_write_invalidates_reader(proto):
    ms = make_ms(proto)
    acc(ms, 0x20000, cpu=0)
    l1_0 = ms.l1s[0]
    line = l1_0.line_of(ms.vmm.translate(1, 0x20000, False, 0)[0])
    assert l1_0.probe(line) is not None
    acc(ms, 0x20000, write=True, cpu=1, now=100)
    assert l1_0.probe(line) is None   # reader's copy dropped


def test_private_protocol_ignores_peers():
    ms = make_ms("none", cpus=2)
    acc(ms, 0x20000, cpu=0)
    paddr = ms.vmm.translate(1, 0x20000, False, 0)[0]
    line = ms.l1s[0].line_of(paddr)
    acc(ms, 0x20000, write=True, cpu=1, now=50)
    assert ms.l1s[0].probe(line) is not None   # by design: no snooping


class TestMesi:
    def test_first_reader_gets_exclusive(self):
        ms = make_ms("mesi", nodes=1)
        acc(ms, 0x20000, cpu=0)
        paddr = ms.vmm.translate(1, 0x20000, False, 0)[0]
        line = ms.l1s[0].line_of(paddr)
        assert ms.l2s[0].probe(line) == LineState.EXCLUSIVE

    def test_second_reader_downgrades_to_shared(self):
        ms = make_ms("mesi", nodes=1)
        acc(ms, 0x20000, cpu=0)
        acc(ms, 0x20000, cpu=1, now=50)
        paddr = ms.vmm.translate(1, 0x20000, False, 0)[0]
        line = ms.l1s[0].line_of(paddr)
        assert ms.l2s[0].probe(line) == LineState.SHARED
        assert ms.l2s[1].probe(line) == LineState.SHARED

    def test_dirty_intervention_c2c(self):
        ms = make_ms("mesi", nodes=1)
        acc(ms, 0x20000, write=True, cpu=0)
        acc(ms, 0x20000, cpu=1, now=100)
        assert ms.protocol.counters.get("c2c_transfer", 0) >= 1

    def test_upgrade_counts(self):
        ms = make_ms("mesi", nodes=1)
        acc(ms, 0x20000, cpu=0)
        acc(ms, 0x20000, cpu=1, now=10)       # both SHARED now
        acc(ms, 0x20000, write=True, cpu=0, now=20)
        assert ms.protocol.counters.get("bus_upgrade", 0) == 1
        assert ms.protocol.counters.get("invalidation", 0) >= 1

    def test_bus_contention_grows_latency(self):
        ms = make_ms("mesi", nodes=1)
        # many simultaneous misses at the same cycle queue on the bus
        lats = [acc(ms, 0x20000 + 4096 * i, cpu=i % 4, now=0)
                for i in range(4)]
        assert lats[-1] > lats[0]


class TestDirectory:
    def test_dirty_remote_3hop_costlier_than_clean(self):
        ms = make_ms("directory", cpus=4, nodes=4)
        clean = acc(ms, 0x20000, cpu=0)
        acc(ms, 0x30000, write=True, cpu=3, now=10)
        dirty = acc(ms, 0x30000, cpu=0, now=10_000)
        assert dirty > 0 and clean > 0
        assert ms.protocol.owner_of  # introspection exists

    def test_sharer_tracking(self):
        ms = make_ms("directory")
        acc(ms, 0x20000, cpu=0)
        acc(ms, 0x20000, cpu=1, now=100)
        paddr = ms.vmm.translate(1, 0x20000, False, 0)[0]
        line = paddr >> 5
        assert ms.protocol.sharers_of(line) == {0, 1}

    def test_write_makes_single_owner(self):
        ms = make_ms("directory")
        acc(ms, 0x20000, cpu=0)
        acc(ms, 0x20000, cpu=1, now=10)
        acc(ms, 0x20000, write=True, cpu=2, now=1000)
        paddr = ms.vmm.translate(1, 0x20000, False, 0)[0]
        line = paddr >> 5
        assert ms.protocol.owner_of(line) == 2
        assert ms.protocol.sharers_of(line) == {2}

    def test_eviction_forgets_sharer(self):
        ms = make_ms("directory")
        acc(ms, 0x20000, cpu=0)
        paddr = ms.vmm.translate(1, 0x20000, False, 0)[0]
        line = paddr >> 5
        # flood page-offset-0 lines: physical frames allocate sequentially,
        # so the same page offset revisits the victim's set every
        # (n_sets*line/page) pages — enough pages guarantees eviction
        n = 0
        while ms.l2s[0].contains(line) and n < 2000:
            acc(ms, 0x100000 + n * 4096, cpu=0, now=100 + n)
            n += 1
        assert not ms.l2s[0].contains(line), "flood failed to evict"
        assert 0 not in ms.protocol.sharers_of(line)


    def test_fill_evict_cycle_leaves_directory_empty(self):
        """Entries are reclaimed: the directory tracks the lines resident
        in some L2, not every line ever touched, so a checkpoint of it is
        bounded by cache capacity."""
        be = BackendConfig(
            detail="complex", coherence="directory",
            l1=CacheConfig(size=256, line_size=32, assoc=2, latency=1),
            l2=CacheConfig(size=1024, line_size=32, assoc=2, latency=8),
            memory=MemoryConfig(num_nodes=2))
        ms = MemorySystem(SimConfig(num_cpus=4, backend=be).validate(),
                          StatsRegistry(4), minor_fault_cycles=0)
        ms.vmm.new_space(1)
        ms.vmm.map_anon(1, 0x10000, 1 << 20)
        proto = ms.protocol
        for n in range(256):                  # 8x one L2's capacity
            for cpu in range(4):              # shared read fills
                acc(ms, 0x20000 + n * 32, cpu=cpu, now=1000 * n + cpu)
            # first-touch write fills (never a silent E->M upgrade, which
            # the directory cannot see and so cannot reclaim)
            acc(ms, 0x40000 + n * 32, write=True, cpu=n % 4, now=1000 * n + 9)
        assert min(c.evictions for c in ms.l2s) > 100, "no capacity pressure"
        resident = set().union(*(c._states for c in ms.l2s))
        snap = proto.state_dict()
        assert set(snap["sharers"]) == resident
        assert set(snap["owner"]) <= resident
        # evict what is left, the way the hierarchy retires a victim
        for cpu, l2 in enumerate(ms.l2s):
            for line in list(l2._states):
                if LineState.MODIFIED in (ms.l1s[cpu].invalidate(line),
                                          l2.invalidate(line)):
                    proto.writeback(cpu, line, 10**6)
                else:
                    proto.forget(cpu, line)
        snap = proto.state_dict()
        assert snap["sharers"] == {} and snap["owner"] == {}


class TestComa:
    def test_replication_makes_second_access_local(self):
        ms = make_ms("coma", cpus=4, nodes=2)
        # cpu2 (node1) reads a line homed on node0
        first = acc(ms, 0x20000, cpu=2)
        # evict it from cpu2's caches, then re-read: AM replica -> local
        paddr = ms.vmm.translate(1, 0x20000, False, 2)[0]
        line = paddr >> 5
        step = ms.l2s[2].n_sets * 32
        n = 0
        while ms.l2s[2].contains(line) and n < 64:
            acc(ms, 0x800000 + (n + 1) * step, cpu=2, now=1000 + n)
            n += 1
        again = acc(ms, 0x20000, cpu=2, now=100_000)
        assert again < first
        assert ms.protocol.counters.get("am_local_hit", 0) >= 1

    def test_write_invalidates_replicas(self):
        ms = make_ms("coma", cpus=4, nodes=2)
        acc(ms, 0x20000, cpu=0)
        acc(ms, 0x20000, cpu=2, now=100)
        paddr = ms.vmm.translate(1, 0x20000, False, 0)[0]
        line = paddr >> 5
        assert len(ms.protocol.holders_of(line)) == 2
        acc(ms, 0x20000, write=True, cpu=0, now=1000)
        assert ms.protocol.holders_of(line) == {0}


class TestDsm:
    def test_page_fetch_costs_software_handler(self):
        ms = make_ms("dsm", cpus=4, nodes=2)
        handler = ms.protocol.handler_cycles
        # cpu2 (node1) touches a page whose frame is on node0 (first-touch
        # by cpu0 first)
        acc(ms, 0x20000, cpu=0)
        lat = acc(ms, 0x20040, cpu=2, now=100)
        assert lat >= handler

    def test_same_page_second_line_cheap(self):
        ms = make_ms("dsm", cpus=4, nodes=2)
        acc(ms, 0x20000, cpu=0)
        acc(ms, 0x20040, cpu=2, now=100)       # page fetched to node1
        lat = acc(ms, 0x20080, cpu=2, now=10_000)
        assert lat < ms.protocol.handler_cycles

    def test_single_writer_invariant(self):
        ms = make_ms("dsm", cpus=4, nodes=2)
        acc(ms, 0x20000, write=True, cpu=0)
        acc(ms, 0x20000, write=True, cpu=2, now=50_000)
        paddr = ms.vmm.translate(1, 0x20000, False, 2)[0]
        page = paddr // 4096
        assert ms.protocol.owner_of_page(page) == 1   # cpu2 -> node1
        assert ms.protocol.holders_of_page(page) == {1}


# ---------------------------------------------------------------------------
# cross-protocol invariant: at most one MODIFIED copy of any line
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    proto=st.sampled_from(["mesi", "directory", "coma", "dsm"]),
    ops=st.lists(
        st.tuples(st.integers(0, 3),            # cpu
                  st.integers(0, 15),           # line index
                  st.booleans()),               # write?
        min_size=1, max_size=120),
)
def test_single_writer_multiple_reader(proto, ops):
    ms = make_ms(proto, cpus=4, nodes=1 if proto == "mesi" else 2)
    now = 0
    for cpu, idx, write in ops:
        addr = 0x20000 + idx * 32
        acc(ms, addr, write=write, cpu=cpu, now=now)
        now += 1000
        # invariant: any line is MODIFIED in at most one cache, and if
        # MODIFIED anywhere, no other cache holds it at all
        outer = ms.l2s if ms.l2s is not None else ms.l1s
        for check in range(16):
            line = (ms.vmm.translate(1, 0x20000 + check * 32, False, 0)[0]
                    >> 5)
            states = [c.probe(line) for c in outer]
            modified = [s for s in states if s == LineState.MODIFIED]
            present = [s for s in states if s is not None]
            if modified:
                assert len(present) == 1, (proto, check, states)
