"""Pin the NUMA protocols to recorded behaviour, not to themselves.

``test_miss_kernel.py`` compares two paths that share the protocol code, so
a bug in how a protocol *represents* its global line state is invisible to
it. Here each of ``directory`` / ``coma`` / ``dsm`` is driven directly —
seeded random ``read_miss`` / ``write_miss`` / ``writeback`` / ``forget``
calls in the order a memory hierarchy would issue them, over caches small
enough that evictions are routine — and the CRC32 of everything observable
(latency, returned state, counters, the sharer/holder introspection, every
peer cache's state for the line, and the interconnect occupancies at the
end) is diffed against ``tests/golden/protocol_ops.json``.

The file was recorded from the set-based (``_DirEntry`` / ``_ComaEntry`` /
``_PageEntry``) code of the parent commit with one edit: the directory's
write-miss invalidation loop visited ``sorted(e.sharers)``. Visiting order
is simulated timing there (each invalidation occupies mesh links), and a
``set`` of small ints iterates ascending only until an element has been
discarded and re-added, so the unedited parent is not reproducible by any
fixed order; it produced 59 of the 60 recorded streams (all but
``directory/8/0``) unchanged. The ``coma-overflow-rw`` streams were added
later, with the fix that lets them run at all (a write's arriving copy is
the master before it is inserted, so an overflowing attraction memory never
displaces it); every older entry was left as recorded. Regenerate
deliberately with::

    COMPASS_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_protocol_ops.py
"""

import copy
import json
import os
import random
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CacheConfig
from repro.mem.cache import Cache
from repro.mem.coherence import make_protocol

GOLDEN = Path(__file__).resolve().parent / "golden" / "protocol_ops.json"
UPDATE = os.environ.get("COMPASS_UPDATE_GOLDEN") == "1"

#: ``coma-overflow`` is COMA with attraction memories small enough to
#: displace replicas, driven read-only (all that could be driven while a
#: write's own arriving replica could be the displacement victim, which
#: left the line with no holder); ``coma-overflow-rw`` is the same machine
#: under the read+write mix of the other protocols
PROTOCOLS = ("directory", "coma", "dsm", "coma-overflow", "coma-overflow-rw")
NODE_COUNTS = (2, 4, 8)
SEEDS = range(5)
NCPUS = 8
NLINES = 192          # 12x one cache: evictions and re-fetches are routine
LINE_SIZE = 32
PAGE_SIZE = 256       # 8 lines a page, so DSM pages are shared and fought over
OVERFLOW_AM_LINES = 100
OPS = 5_000

_E, _M = 2, 3


def build(proto, nodes):
    """A protocol wired to eight 16-line outer caches, no hierarchy."""
    name, _, overflow = proto.partition("-")
    kw = {"am_lines": OVERFLOW_AM_LINES} if overflow else {}
    p = make_protocol(name, num_nodes=nodes, page_size=PAGE_SIZE, **kw)
    cfg = CacheConfig(size=16 * LINE_SIZE, line_size=LINE_SIZE, assoc=2)
    caches = [Cache(f"L2.{c}", cfg) for c in range(NCPUS)]
    lines_per_page = PAGE_SIZE // LINE_SIZE
    p.attach(caches, [None] * NCPUS,
             [c * nodes // NCPUS for c in range(NCPUS)],
             lambda line: (line // lines_per_page) % nodes, LINE_SIZE)
    return p, caches


def view(p, line):
    """What the protocol says about ``line``, through its public
    introspection only (the representation behind it is what changes)."""
    if p.name == "directory":
        return sorted(p.sharers_of(line)), p.owner_of(line)
    if p.name == "coma":
        return sorted(p.holders_of(line))
    page = line * LINE_SIZE // PAGE_SIZE
    return sorted(p.holders_of_page(page)), p.owner_of_page(page)


def _evict(p, cpu, victim, now):
    vline, vstate = victim
    if vstate == _M:
        return ("writeback", vline, p.writeback(cpu, vline, now))
    p.forget(cpu, vline)
    return ("forget", vline)


def drive(p, caches, rng, nops=OPS, sink=None, writes=True):
    """Issue ``nops`` protocol calls the way ``MemorySystem._miss`` does:
    miss -> protocol -> fill -> victim writeback/forget. Returns the CRC32
    of the observation stream (``sink`` also receives each record)."""
    crc = 0
    now = 0
    issued = 0
    while issued < nops:
        now += rng.randrange(40)
        cpu = rng.randrange(NCPUS)
        cache = caches[cpu]
        roll = rng.random()
        if roll < 0.12 and cache._states:
            # capacity pressure from elsewhere: drop a resident line
            line = rng.choice(sorted(cache._states))
            rec = _evict(p, cpu, (line, cache.invalidate(line)), now)
            issued += 1
        else:
            line = rng.randrange(NLINES)
            write = writes and roll > 0.6
            have = cache.probe(line)
            if have is not None and (not write or have >= _E):
                if write:
                    cache.set_state(line, _M)      # silent E -> M
                continue
            if write:
                lat, state = p.write_miss(cpu, line, now)
            else:
                lat, state = p.read_miss(cpu, line, now)
            issued += 1
            rec = ("write" if write else "read", lat, int(state))
            victim = cache.insert(line, state)
            if victim is not None:
                rec += _evict(p, cpu, victim, now + lat)
                issued += 1
        rec += (cpu, line, view(p, line), [c.probe(line) for c in caches],
                sorted(p.counters.items()))
        if sink is not None:
            sink.append(rec)
        crc = zlib.crc32(repr(rec).encode(), crc)
    tail = (p.network.messages, p.network.total_hops,
            sorted((k, r.busy_until, r.wait_cycles)
                   for k, r in p.network._links.items()))
    return zlib.crc32(repr(tail).encode(), crc)


def _key(proto, nodes, seed):
    return f"{proto}/{nodes}/{seed}"


def _split(key):
    proto, nodes, seed = key.split("/")
    return proto, int(nodes), int(seed)


def _run(proto, nodes, seed):
    p, caches = build(proto, nodes)
    return drive(p, caches, random.Random(seed),
                 writes=proto != "coma-overflow")


def test_update_golden():
    """Records the golden file under ``COMPASS_UPDATE_GOLDEN=1``; otherwise
    checks it covers exactly the protocol x nodes x seed grid."""
    keys = [_key(pr, n, s) for pr in PROTOCOLS for n in NODE_COUNTS
            for s in SEEDS]
    if UPDATE:
        GOLDEN.write_text(json.dumps(
            {k: _run(*_split(k)) for k in keys}, indent=1) + "\n")
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(keys)


@pytest.mark.parametrize("nodes", NODE_COUNTS)
@pytest.mark.parametrize("proto", PROTOCOLS)
def test_ops_match_recorded_behaviour(proto, nodes):
    golden = json.loads(GOLDEN.read_text())
    got = {_key(proto, nodes, s): _run(proto, nodes, s) for s in SEEDS}
    want = {k: golden[k] for k in got}
    assert got == want, (
        f"{proto} on {nodes} nodes no longer behaves as recorded: a "
        f"representation change altered latencies, states, counters or "
        f"sharer sets (regenerate only if that was the intent)")


@pytest.mark.parametrize("seed", SEEDS)
def test_overflowing_write_keeps_its_own_replica(seed):
    """An AM overflow caused by a write's arriving copy must displace some
    *other* line: the write invalidates every other replica, so after it
    the writer's node is the one holder — never nobody (the next miss
    used to die in ``min()`` over an empty holder set)."""
    # two nodes: the only count at which this mix fills a 100-line AM
    p, caches = build("coma-overflow-rw", 2)
    displaced = []
    inner = p._displace
    p._displace = lambda node: (displaced.append(node), inner(node))[1]
    recs = []
    drive(p, caches, random.Random(seed), sink=recs)
    assert displaced, "the stream never overflowed an attraction memory"
    writes = [r for r in recs if r[0] == "write"]
    assert writes
    for rec in writes:
        cpu, holders = rec[-5], rec[-3]
        assert holders == [p.cpu_node[cpu]]


# ---------------------------------------------------------------------------
# state_dict -> load_state -> state_dict round trip
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(proto=st.sampled_from(PROTOCOLS[:3]), nodes=st.sampled_from(NODE_COUNTS),
       seed=st.integers(0, 2**16), nops=st.integers(0, 400),
       other_seed=st.integers(0, 2**16), other_ops=st.integers(0, 400))
def test_state_dict_round_trip(proto, nodes, seed, nops, other_seed,
                               other_ops):
    src, src_caches = build(proto, nodes)
    drive(src, src_caches, random.Random(seed), nops)
    # state_dict() lends the protocol's own tables (valid until it next
    # runs), so a snapshot held across further driving is a deep copy
    snap = copy.deepcopy(src.state_dict())
    src.load_state(src.state_dict())           # own borrow: nothing is lost
    assert src.state_dict() == snap

    # the receiver already tracks other lines: load_state must replace,
    # not merge — and copy in: it never adopts the lender's containers
    dst, dst_caches = build(proto, nodes)
    drive(dst, dst_caches, random.Random(other_seed), other_ops)
    dst.load_state(src.state_dict())
    assert dst.state_dict() == snap
    assert src.state_dict() == snap            # capturing did not disturb
    for mine, theirs in zip(dst.state_dict().values(),
                            src.state_dict().values()):
        assert mine is not theirs or not isinstance(mine, dict)
    for line in range(NLINES):
        assert view(dst, line) == view(src, line)

    # and the restored protocol carries on exactly like the original
    for c_dst, c_src in zip(dst_caches, src_caches):
        c_dst.load_state(c_src.state_dict())
    a, b = [], []
    drive(src, src_caches, random.Random(seed + 1), 200, a)
    drive(dst, dst_caches, random.Random(seed + 1), 200, b)
    assert a == b
