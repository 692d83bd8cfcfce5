"""LRU exactness of the bulk retirement (``mem/vec.py``).

``VecState.run`` retires a run of L1 hits in bulk and then has to leave
every touched set in the MRU order the scalar per-touch move-to-front
would have produced. Fingerprints see that order only through later
evictions, so it is pinned here directly. The replay computes the per-set
fronts of the consumed slice and rewrites the sets that differ; a per-CPU
stamp ``(prefix, slice, Cache.version, Cache.hits)`` skips the replay when
the CPU last replayed the same slice and no L1 reorder or membership change
came since. The references are ``Cache.lookup`` once per touched line on a
twin cache, and a twin memory system whose bulk path declines (the scalar
loop).
"""

from __future__ import annotations

import copy
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.config import CacheConfig, complex_backend
from repro.core.stats import StatsRegistry
from repro.mem import vec as vecmod
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemorySystem

from tests.equivalence import decline_bulk, make_batch

LINE = 32
#: (n_sets, assoc): mask-indexed and modulo-indexed geometries
GEOMETRIES = [(8, 4), (16, 2), (6, 4), (3, 2), (5, 8)]


def _full_cache(n_sets, assoc) -> Cache:
    """Every line of ``range(n_sets * assoc)`` resident (so any line but
    the last has a resident successor for a two-line reference)."""
    cache = Cache("L1", CacheConfig(size=n_sets * assoc * LINE,
                                    line_size=LINE, assoc=assoc))
    for line in range(n_sets * assoc):
        assert cache.insert(line, 2) is None
    return cache


@st.composite
def _scripts(draw):
    n_sets, assoc = draw(st.sampled_from(GEOMETRIES))
    nlines = n_sets * assoc
    # a pool narrower than the cache: duplicates are routine, and a set
    # sees 1..4 of its lines touched
    pool = draw(st.lists(st.integers(0, nlines - 2), min_size=1, max_size=12,
                         unique=True))
    refs = draw(st.lists(st.tuples(st.sampled_from(pool),
                                   st.sampled_from([1, 1, 2])),
                         min_size=1, max_size=40))
    if draw(st.booleans()):
        refs.sort()             # the ascending-scan arm (no sort needed)
    n = len(refs)
    slices = draw(st.lists(
        st.integers(0, n - 1).flatmap(
            lambda o: st.tuples(st.just(o), st.integers(1, n - o))),
        min_size=1, max_size=3))
    # each step retires one of the few slices (a repeat finds the sets in
    # place, or — after a scalar hit — out of place)
    steps = draw(st.lists(
        st.one_of(st.sampled_from(slices),
                  st.integers(0, nlines - 1)),
        min_size=1, max_size=8))
    return n_sets, assoc, refs, steps


@settings(max_examples=300, deadline=None)
@given(_scripts())
def test_replay_equals_per_touch_move_to_front(script):
    n_sets, assoc, refs, steps = script
    cache, twin = _full_cache(n_sets, assoc), _full_cache(n_sets, assoc)
    lines, nlines = [], [0]
    for ln, k in refs:
        lines.extend(range(ln, ln + k))
        nlines.append(len(lines))
    cd = vecmod.Prefix(0, len(refs), len(refs), [], [], nlines, lines, [])
    for step in steps:
        if isinstance(step, int):
            # a scalar hit between two retirements: moves a line, no version
            cache.lookup(step)
            twin.lookup(step)
            continue
        o, c = step
        vecmod._replay_lru(cd, o, c, cache._sets, cache.set_mask,
                           cache.n_sets)
        for ln, k in refs[o:o + c]:
            for line in range(ln, ln + k):
                twin.lookup(line)
        assert cache._sets == twin._sets, (script, step)
    assert cache._states == twin._states


INF = 1 << 60
PID = 1
#: the filling the stamp tests sweep
BASE = 0x20000


def _warm_ms(vec: bool, l1: CacheConfig = None) -> MemorySystem:
    cfg = complex_backend(num_cpus=2)
    if l1 is not None:
        cfg = replace(cfg, backend=replace(cfg.backend, l1=l1)).validate()
    ms = MemorySystem(cfg, StatsRegistry(cfg.num_cpus))
    ms.vmm.new_space(PID)
    ms.vmm.map_anon(PID, 0x10000, 1 << 24)
    if not vec:
        decline_bulk(ms)
    return ms


def _line(ms, addr):
    ppn = ms._spaces[PID].table[addr >> ms._page_shift]
    return ((ppn << ms._page_shift) | (addr & ms._page_mask)) \
        >> ms._line_shift


class _Twins:
    """One memory system with the bulk path and one without, driven alike;
    every step must return the same and leave the same L1 sets and
    states."""

    def __init__(self, l1: CacheConfig = None) -> None:
        self.pair = _warm_ms(True, l1), _warm_ms(False, l1)
        self.vec = self.pair[0]._vec

    def __call__(self, fn):
        got = [fn(ms) for ms in self.pair]
        assert got[0] == got[1]
        a, b = ([(c._sets, c._states) for c in ms.l1s] for ms in self.pair)
        assert a == b
        return got[0]


def _lru(both):
    """``(lru_replays, lru_skips)`` of the bulk side, as vec_summary has
    them."""
    return both.pair[0].vec_batches - both.vec.lru_skips, both.vec.lru_skips


def _filling(n, kind=1):
    return make_batch([(kind, BASE + j * LINE, LINE, 0) for j in range(n)])


def _enter(ms, now=1500):
    """A one-reference run that hits: the L1 holds still from here on."""
    return ms.access_run(PID, 0, make_batch([(0, BASE, 4, 0)], time=now), 1,
                         INF)


def test_stamp_skips_only_what_stood_still():
    """Through ``access_run`` on a real hierarchy: repeated sweeps of one
    filling replay LRU once and then skip it; a scalar hit in
    between (hits move, the version does not) makes the next sweep replay;
    an invalidation (the version moves) gets a new classification, whose
    first retirement replays."""
    n = 64
    batch = _filling(n)
    addrs = batch.addrs
    both = _Twins()
    vec = both.vec

    def sweep(ms):
        return ms.access_run(PID, 0, batch, n, INF)

    both(sweep)                             # cold: fills
    both(_enter)
    both(sweep)
    assert _lru(both) == (1, 0)
    both(sweep)                             # every set already in place
    both(sweep)
    assert _lru(both) == (1, 2)
    cd = batch.prefix
    assert vec._stamps[0][0] is cd
    both(lambda ms: ms.access(PID, addrs[5], 4, False, 0, 2000))
    both(sweep)                             # the hit moved ``hits``
    assert _lru(both) == (2, 2)
    assert both.pair[0].vec_refs == 4 * n

    gone = _line(both.pair[0], addrs[9])
    both(lambda ms: ms.l1s[0].invalidate(gone))
    both(_enter)
    both(sweep)                             # hits up to the hole, then fills
    assert batch.prefix is not cd and batch.prefix.stop == 9
    assert _lru(both) == (3, 2)
    assert both.pair[0].vec_refs == 4 * n + 9


def test_stamp_version_term_catches_a_reorder_without_hits(monkeypatch):
    """A refill of a resident line (``Cache.insert``) moves it to MRU and
    bumps the version but not ``hits``. A classification's key carries the
    L1 version, so the next retirement normally reads a new prefix anyway;
    here the key leaves it out (a refill keeps every verdict), the same
    prefix comes back, and only the stamp's version term sees the move."""
    l1 = CacheConfig(size=4 * 4 * LINE, line_size=LINE, assoc=4, latency=1)
    n = 12                                  # three swept lines a set
    batch = _filling(n)
    both = _Twins(l1)
    vec = both.vec

    def versionless(pid, cpu, key=vec._key):
        l1, _version, *rest = key(pid, cpu)
        return (l1, 0, *rest)

    monkeypatch.setattr(vec, "_key", versionless)

    def sweep(ms):
        return ms.access_run(PID, 0, batch, n, INF)

    both(sweep)                             # cold: fills
    both(_enter)
    both(sweep)
    both(sweep)
    assert _lru(both) == (1, 1)
    # the oldest swept line of its set goes to MRU: version moves, hits not
    ms = both.pair[0]
    line = _line(ms, BASE)
    both(lambda ms: ms.l1s[0].insert(line, ms.l1s[0]._states[line]))
    # an entry that declines short (nothing retires): the L1 held still
    # from here, with the sets out of the stamped order
    assert vec.run(PID, 0, batch, 1, INF, 0, None) is None
    both(sweep)
    assert _lru(both) == (2, 1)


def test_one_filling_alternating_between_memory_systems():
    """One filling run in turn on two memory systems whose pid, CPU and
    version numbers are equal: a peer holds one of its lines SHARED on the
    first, a line past it on the second, so only the second may retire
    every write in bulk. Each reads only a classification walked on it and
    matches its own scalar-loop twin."""
    n = 16
    batch = _filling(n)
    pairs = _Twins(), _Twins()
    for both, peer in zip(pairs, (3, n + 3)):
        for j in range(2 * n):
            both(lambda ms: ms.access(PID, BASE + j * LINE, 4, False, 0,
                                      100 + j))
        both(lambda ms: ms.access(PID, BASE + peer * LINE, 4, False, 1, 500))
        both(_enter)
    first, second = (both.pair[0] for both in pairs)
    assert len({(ms.l1s[0].version, ms.vmm._kernel.version,
                 ms._spaces[PID].version) for ms in (first, second)}) == 1
    for k in range(6):
        batch.time = 2000 + 1000 * k
        pairs[(k + 1) % 2](lambda ms: ms.access_run(PID, 0, batch, n, INF))
    assert second.vec_refs == 3 * n and first.vec_refs > 0


@st.composite
def _stamp_scripts(draw):
    """Sweeps of one filling, whole or cut (by ``limit`` or by the
    horizon) and continued from where the cut left the cursor, mixed with
    per-event accesses, a peer's read (a downgrade) and write (an
    invalidation), a direct invalidation and a checkpoint restore."""
    n = draw(st.integers(vecmod.MIN_RUN, 20))
    kind = draw(st.sampled_from([0, 1]))
    # the filling's lines, and as many again that share their sets
    addr = st.integers(0, 2 * n - 1).map(lambda j: BASE + j * LINE)
    step = st.one_of(
        st.just(("sweep",)), st.just(("sweep",)), st.just(("sweep",)),
        st.tuples(st.just("cut"), st.integers(1, n)),
        st.tuples(st.just("horizon"), st.integers(1, n)),
        st.tuples(st.just("access"), addr, st.booleans()),
        st.tuples(st.just("peer"), addr, st.booleans()),
        st.tuples(st.just("invalidate"), addr),
        st.just(("save",)), st.just(("restore",)))
    return n, kind, draw(st.lists(step, min_size=1, max_size=30))


@settings(max_examples=200, deadline=None)
@given(_stamp_scripts())
def test_stamp_equals_the_scalar_loop(script):
    """A property over step scripts: after every step the bulk path's L1
    sets and states equal those of a twin that declines the bulk path.
    A stamp that skipped a replay it owed leaves a set out of order."""
    n, kind, steps = script
    l1 = CacheConfig(size=8 * 4 * LINE, line_size=LINE, assoc=4, latency=1)
    batch = _filling(n, kind)
    both = _Twins(l1)
    clock = [1000]
    saved = [None, None]

    def tick():
        clock[0] += 1000
        return clock[0]

    def run(limit, horizon):
        batch.time = now = tick()
        got = both(lambda ms: ms.access_run(PID, 0, batch, limit,
                                            now + horizon))
        batch.cursor = got[1] % n

    # warm: the filling and its set mates resident, then two sweeps (the
    # first enters run(), the second retires in bulk and stamps)
    for j in range(2 * n):
        now = tick()
        both(lambda ms: ms.access(PID, BASE + j * LINE, 4, False, 0, now))
    run(n, INF)
    run(n, INF)
    for op, *args in steps:
        if op == "sweep":
            run(n, INF)
        elif op == "cut":
            run(args[0], INF)
        elif op == "horizon":
            run(n, args[0])
        elif op in ("access", "peer"):
            a, write = args
            now = tick()
            cpu = 0 if op == "access" else 1
            both(lambda ms: ms.access(PID, a, 4, write, cpu, now))
        elif op == "invalidate":
            line = _line(both.pair[0], args[0])
            both(lambda ms: ms.l1s[0].invalidate(line))
        elif op == "save":
            saved[:] = [copy.deepcopy(ms.state_dict()) for ms in both.pair]
        elif saved[0] is not None:
            for ms, snap in zip(both.pair, saved):
                ms.load_state(copy.deepcopy(snap))
            both(lambda ms: None)
