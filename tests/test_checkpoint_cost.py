"""Cost guard: an autosave costs what changed, not what exists.

An autosave calls ``state_dict()`` on every state owner; the rule (DESIGN.md,
"Checkpoint/restore") is *borrow out, copy in*: owners hold plain
ints/containers and lend their footprint-sized tables, so the capture makes
a number of calls that does not depend on how much state there is. Counted
here with ``sys.setprofile`` (Python ``call`` + C ``c_call`` events): the
same number of events at 1x and 10x footprint for ``state_dict`` of every
owner with a footprint-sized table — the NUMA protocols, ``Cache``, ``Vmm``
and the whole ``MemorySystem`` under MESI / private / directory — and for
``load_state`` of each NUMA protocol. A per-entry ``sorted()`` /
constructor / method call, or a per-set ``list(s)``, shows up as thousands
of extra events. The second half checks the other growth terms: the reply
streams and the memory system's changes are appended to the log once, so
a save's snapshot frame stays flat in run length, and a delta is a
fraction of a full capture.
"""

import gc
import os
import pickle
import sys

import pytest

from repro import Engine, FaultPlan, FaultRule, complex_backend
from repro.checkpoint import generation_paths
from repro.checkpoint.log import BASE, DELTA, SNAPSHOT, STREAMS
from repro.checkpoint.manager import MAGIC
from repro.core.config import (BackendConfig, CacheConfig, MemoryConfig,
                               SimConfig)
from repro.core.framing import scan
from repro.core.frontend import SimProcess
from repro.core.stats import StatsRegistry
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemorySystem
from repro.service.workloads import WORKLOADS

from tests.test_protocol_ops import LINE_SIZE, NCPUS, PAGE_SIZE, build

PROTOCOLS = ("directory", "coma", "dsm")


def _events(fn):
    """Profiler events (function calls, Python and C) made by ``fn()``.

    The cyclic collector is off while counting: a collection that happens
    to fall inside ``fn`` runs the finalizers of earlier tests' garbage
    (suspended generators, ``__del__``), calls ``fn`` never made."""
    count = [0]

    def hook(_frame, event, _arg):
        if event in ("call", "c_call"):
            count[0] += 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return count[0]


def _tracking(proto, nlines):
    """A protocol tracking ``nlines`` lines (DSM: pages), a third of them
    dirty, shared by varying CPU sets."""
    p, _caches = build(proto, 2)
    stride = PAGE_SIZE // LINE_SIZE if proto == "dsm" else 1
    for i in range(nlines):
        line = i * stride
        p.read_miss(i % NCPUS, line, i)
        if i % 2:
            p.read_miss((i + 3) % NCPUS, line, i)
        if i % 3 == 0:
            p.write_miss((i + 5) % NCPUS, line, i)
    return p


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_state_dict_cost_independent_of_tracked_lines(proto):
    small, large = _tracking(proto, 2_000), _tracking(proto, 20_000)
    tables = [v for v in large.state_dict().values()
              if isinstance(v, dict) and len(v) >= 6_000]
    assert tables, "the large protocol does not track 10x the state"
    assert _events(small.state_dict) == _events(large.state_dict)


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_load_state_cost_independent_of_tracked_lines(proto):
    small, large = _tracking(proto, 2_000), _tracking(proto, 20_000)
    snap_small, snap_large = small.state_dict(), large.state_dict()
    fresh_small, _ = build(proto, 2)
    fresh_large, _ = build(proto, 2)
    # same network links exist on both sides before loading
    fresh_small.load_state(snap_small)
    fresh_large.load_state(snap_small)
    assert (_events(lambda: fresh_small.load_state(snap_small))
            == _events(lambda: fresh_large.load_state(snap_large)))
    assert fresh_large.state_dict() == snap_large


# ---------------------------------------------------------------------------
# every other owner with a footprint-sized table
# ---------------------------------------------------------------------------

def _filled_cache(nlines):
    c = Cache("L2", CacheConfig(size=nlines * LINE_SIZE, line_size=LINE_SIZE,
                                assoc=4))
    for line in range(nlines):
        c.insert(line, 1 + line % 3)
    assert c.occupancy() == nlines
    return c


def test_cache_state_dict_cost_independent_of_size():
    small, large = _filled_cache(1_024), _filled_cache(10_240)
    assert _events(small.state_dict) == _events(large.state_dict)
    # and what it lends is the cache itself, not a copy of it
    st = large.state_dict()
    assert st["sets"] is large._sets and st["states"] is large._states


def _memsys(coherence, npages):
    """A 4-CPU memory system that has touched ``npages`` pages (every line
    of each, spread over the CPUs, a quarter of them written)."""
    be = BackendConfig(
        detail="complex" if coherence != "none" else "simple",
        l1=CacheConfig(size=4096, line_size=32, assoc=2, latency=1),
        l2=(CacheConfig(size=65536, line_size=32, assoc=4, latency=8)
            if coherence != "none" else None),
        coherence=coherence,
        memory=MemoryConfig(num_nodes=2 if coherence == "directory" else 1))
    cfg = SimConfig(num_cpus=4, backend=be).validate()
    ms = MemorySystem(cfg, StatsRegistry(4))
    page = cfg.backend.memory.page_size
    ms.vmm.new_space(1)
    ms.vmm.map_anon(1, 0x100000, npages * page)
    now = 0
    for n in range(npages * page // 32):
        lat, major = ms.access(1, 0x100000 + n * 32, 4, n % 4 == 0, n % 4,
                               now)
        assert major is None
        now += lat + 1
    return ms


@pytest.mark.parametrize("coherence", ("mesi", "none", "directory"))
def test_memsys_state_dict_cost_independent_of_footprint(coherence):
    small, large = _memsys(coherence, 8), _memsys(coherence, 80)
    assert (len(large.vmm.state_dict()["spaces"][1])
            == 10 * len(small.vmm.state_dict()["spaces"][1]))
    assert _events(small.vmm.state_dict) == _events(large.vmm.state_dict)
    assert (_events(small.protocol.state_dict)
            == _events(large.protocol.state_dict))
    assert _events(small.state_dict) == _events(large.state_dict)


# ---------------------------------------------------------------------------
# a checkpoint's size is flat in run length; the log takes each reply once
# ---------------------------------------------------------------------------

def _spy_frames(mgr):
    """Wrap ``mgr.save``: per save, the file it returns, that file's size
    and the ``(tag, payload bytes)`` of its frames after the header."""
    saves = []
    real_save = mgr.save

    def save(path=None):
        target = real_save(path)
        s = scan(target, MAGIC)
        saves.append((target, s.size,
                      [(bytes(p[:1]), len(p)) for _off, p in s.frames[1:]]))
        return target

    mgr.save = save
    return saves


def test_generation_size_flat_and_log_written_once(tmp_path):
    """A steady reference stream over a fixed 16 KiB footprint: the
    snapshot frame of save k+10 is within 5 % of save k's; a delta save
    grows its segment by exactly the three frames it appended, and a base
    save writes a fresh segment holding every streams frame before it (copied,
    never re-encoded) and its own three; and the memory frame of a save
    that writes a delta is at most 40 % of a full capture of the memory
    system at the same point (the L1s go into every delta whole; the L2
    and the directory only as changed). One segment is left."""
    interval = 1_000
    path = str(tmp_path / "ck.pkl")

    def app(proc):
        for i in range(20_000):
            yield from proc.load(0x10_000 + i * 4 % 0x4000)
        yield from proc.exit(0)

    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=1, checkpoint_path=path,
                                 checkpoint_interval=interval))
    eng.spawn("steady", app)
    mgr = eng._ckpt
    full, written = [], []
    saves = _spy_frames(mgr)
    spied = mgr.save

    def save(path=None):
        full.append(1 + len(pickle.dumps(eng.memsys.state_dict(),
                                         protocol=pickle.HIGHEST_PROTOCOL)))
        before = mgr.cost("bytes")
        target = spied(path)
        written.append(mgr.cost("bytes") - before)
        return target

    mgr.save = save
    eng.run()
    assert len(saves) >= 16
    snapshots = [frames[-1] for _t, _n, frames in saves]
    assert {tag for tag, _n in snapshots} == {SNAPSHOT}
    k = 4                                   # past the cold-start fills
    first, later = snapshots[k][1], snapshots[k + 10][1]
    assert abs(later - first) <= 0.05 * first
    memory, prev = [], (None, 0, [])
    for (target, size, frames), w in zip(saves, written):
        tags = [tag for tag, _n in frames]
        memory.append(frames[-2])
        if target == prev[0]:
            assert w == size - prev[1] and tags[len(prev[2]):] == [
                STREAMS, DELTA, SNAPSHOT]
            assert frames[:len(prev[2])] == prev[2]
        else:
            streams = [f for f in prev[2] if f[0] == STREAMS]
            assert w == size and frames[:len(streams)] == streams
            assert tags[len(streams):] == [STREAMS, BASE, SNAPSHOT]
        prev = (target, size, frames)
    assert mgr.cost("bytes") == sum(written)
    assert memory[0][0] == BASE
    ratios = [n / f for (tag, n), f in zip(memory, full) if tag == DELTA]
    assert len(ratios) > k and max(ratios[k:]) <= 0.40, ratios
    assert generation_paths(path) == [saves[-1][0]]
    assert os.listdir(tmp_path) == [os.path.basename(saves[-1][0])]


def test_generation_size_flat_under_a_fault_plan(tmp_path):
    """``benchmarks/bench_checkpoint.py``'s TPC-C under its fault plan:
    every fault check's outcome (one per degraded-DIMM draw on the miss
    path) goes into the log's streams frames, written once, so the
    snapshot frames do not grow with them — from save 10 to save 39 they
    grow by under 10 %, where pickling the outcomes since cycle 0 into
    every checkpoint made save 39's seven times save 10's."""
    plan = FaultPlan(rules=(
        FaultRule(site="disk:latency", prob=0.2, extra_cycles=40_000),
        FaultRule(site="mem:degraded", prob=0.001, extra_cycles=300),
    ), seed=1998)
    path = str(tmp_path / "ck.pkl")
    SimProcess.set_pid_counter(1)
    eng = WORKLOADS["oltp"](
        lambda **kw: complex_backend(faults=plan, checkpoint_path=path,
                                     checkpoint_interval=2_000, **kw),
        nagents=4, tx_per_agent=8)
    saves = _spy_frames(eng._ckpt)
    eng.run()
    sizes = [frames[-1][1] for _t, _n, frames in saves]
    assert len(sizes) >= 39 and eng.faults.stats.fired
    assert sizes[38] - sizes[9] <= 0.10 * sizes[9], sizes


def test_disk_holds_the_streams_and_two_bases(tmp_path, monkeypatch):
    """What a checkpointed run leaves on disk is what it must keep: every
    streams frame (replay needs each reply from event 0), twice its largest
    memory base — the newest base, and a delta chain no larger than it —
    and the snapshot frames since the newest base, plus a segment's magic
    and header. Checked at the end of a TPC-C run that writes at least
    three bases: a log that keeps the chains before its newest base
    fails."""
    from repro.checkpoint import manager
    saves = []
    real = manager.tagged

    def spy(tag, obj):
        payload = real(tag, obj)
        if tag == STREAMS:                  # every save tags its streams first
            saves.append({})
        saves[-1].setdefault(tag, []).append(8 + len(payload))
        return payload

    monkeypatch.setattr(manager, "tagged", spy)
    path = str(tmp_path / "ck.pkl")
    SimProcess.set_pid_counter(1)
    eng = WORKLOADS["oltp"](
        lambda **kw: complex_backend(checkpoint_path=path,
                                     checkpoint_interval=2_000, **kw),
        nagents=4, tx_per_agent=8)
    eng.run()
    bases = sorted(n for s in saves for n in s.get(BASE, ()))
    newest = max(i for i, s in enumerate(saves) if BASE in s)
    streams = sum(n for s in saves for n in s[STREAMS])
    snapshots = sum(n for s in saves[newest:] for tag, sizes in s.items()
                    if tag not in (STREAMS, BASE, DELTA) for n in sizes)
    disk = sum(os.path.getsize(tmp_path / f) for f in os.listdir(tmp_path))
    assert len(bases) >= 3
    assert disk <= streams + 2 * bases[-1] + snapshots + 64, (
        disk, streams, bases[-1], snapshots)
    assert disk == sum(os.path.getsize(f) for f in generation_paths(path))
