"""LRU exactness of the vectorized retirement (``mem/vec.py``).

``VecState.run`` retires a run of L1 hits in bulk and then has to leave
every touched set in the MRU order the scalar per-touch move-to-front
would have produced. Fingerprints see that order only through later
evictions, so it is pinned here directly. The replay works from a plan
memoised with the batch classification — the per-set fronts of one
consumed slice — and reads the "already in place" verdict off the live set
lists on every call; the reference is ``Cache.lookup`` once per touched
line on a twin cache.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import CacheConfig, complex_backend
from repro.core.stats import StatsRegistry
from repro.mem import vec as vecmod
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemorySystem

from tests.equivalence import decline_mirror

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
    # each step retires one of the few slices (repeats hit the memoised
    # plan: first in place, then — after a scalar hit — out of place)
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
    line0 = np.array([ln for ln, _ in refs], dtype=np.int64)
    nl = np.array([k for _, k in refs], dtype=np.int64)
    two_any = bool((nl == 2).any())
    cd = {"line0": line0, "nl": nl if two_any else None, "two_any": two_any,
          "plans": {}}
    ran = set()
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
        ran.add(step)
        assert cache._sets == twin._sets, (script, step)
        assert set(cd["plans"]) == ran      # one plan a slice, reused
    assert cache._states == twin._states


def _warm_ms(vec: bool) -> MemorySystem:
    cfg = complex_backend(num_cpus=1)
    ms = MemorySystem(cfg, StatsRegistry(cfg.num_cpus))
    ms.vmm.new_space(1)
    ms.vmm.map_anon(1, 0x10000, 1 << 24)
    if not vec:
        decline_mirror(ms)
    return ms


def test_plan_lives_and_dies_with_the_classification():
    """Through ``access_run`` on a real hierarchy, against a twin whose
    mirror declines (the scalar loop): the same hinted filling reuses one
    plan; a scalar hit in between (no version moves) is caught by the live-list
    check; an invalidation (version moves) gets a new classification and a
    new plan — the old fronts, which name a line that is gone, are never
    replayed."""
    base, n = 0x20000, 64
    kinds, sizes, pends = [1] * n, [LINE] * n, [0] * n
    addrs = [base + j * LINE for j in range(n)]
    pair = _warm_ms(True), _warm_ms(False)
    vec = pair[0]._vec

    def both(fn):
        got = [fn(ms) for ms in pair]
        assert got[0] == got[1]
        assert pair[0]._l1_sets == pair[1]._l1_sets
        assert pair[0]._l1_states == pair[1]._l1_states
        return got[0]

    def sweep(ms):
        return ms.access_run(1, 0, kinds, addrs, sizes, pends, 0, n, 1000,
                             n, 1 << 60, serial=1, uhint=(1, LINE, 0))

    both(sweep)                             # cold: fills
    vec._rebuild_cache(0)
    both(sweep)                             # the slice is noted ...
    both(sweep)                             # ... and, recurring, planned
    (cd,) = vec._cache.values()
    (plan,) = cd["plans"].values()
    refs = pair[0].vec_refs
    assert refs == 2 * n and plan
    both(sweep)                             # every set already in place
    both(lambda ms: ms.access(1, addrs[5], 4, False, 0, 2000))
    both(sweep)                             # one set out of place
    (same_cd,) = vec._cache.values()
    (same_plan,) = cd["plans"].values()
    assert same_cd is cd and same_plan is plan
    assert pair[0].vec_refs == refs + 2 * n

    ms = pair[0]
    ppn = ms._spaces[1].table[addrs[9] >> ms._page_shift]
    gone = ((ppn << ms._page_shift) | (addrs[9] & ms._page_mask)) \
        >> ms._line_shift
    both(lambda ms: ms.l1s[0].invalidate(gone))
    vec._rebuild_cache(0)
    both(sweep)                             # hits up to the hole, then fills
    (new_cd,) = [c for c in vec._cache.values() if c is not cd]
    assert new_cd["plans"] == {(0, 9): ()} and len(cd["plans"]) == 1
    assert pair[0].vec_refs == refs + 2 * n + 9
