"""The L1 all-hit prefix of a batch filling: classified once, retired in bulk.

The scalar loop (``MemorySystem._access_run_scalar``) retires batched
references one dict probe at a time. The leading run of references that all
hit the issuing CPU's L1 needs no probe per turn: it is walked once over the
live dicts, with the probe that defines an *invisible* reference
(``MemorySystem._invisible_span``), into a :class:`Prefix`. The owner's
``run()`` retires any slice of it, a rival's ``frontier()`` reads its window
bound from it, and what follows the prefix goes to the scalar loop, so
results are bit-identical to the scalar loop's.

A classification is cached per batch filling (``EventBatch.serial``, or the
stream anchor of a hinted filling) under the version triple it was walked
under: the CPU's ``Cache.version`` and the kernel and space page-table
versions. Every mutation that could turn a hit into a decline bumps one of
them; those that bump none (LRU reordering, E->M upgrades) leave every
verdict standing, so a cached entry is exact. ``run()`` classifies only for
a CPU whose L1 version held still since its previous ``run()`` entry (a CPU
that is filling would pay a walk per entry for a few hits), and
``frontier()`` answers only under the same condition. See DESIGN.md, "The
batch classification cache".
"""

from __future__ import annotations

from bisect import bisect_left

#: runs shorter than this go scalar: classifying only pays over a prefix
MIN_RUN = 8

#: classifications kept before the cache is dropped whole (entries keyed
#: against a dead version or a consumed filling are never hit again)
CACHE_CAP = 64


class Prefix:
    """The classified all-hit prefix ``[base, stop)`` of one filling of
    ``end`` references (``stop == end``: every one hits); per-reference
    lists are indexed from ``base``."""

    __slots__ = ("base", "stop", "end", "offs", "lat", "nlines", "lines",
                 "flips", "plans")

    def __init__(self, base, stop, end, offs, lat, nlines, lines, flips):
        self.base = base
        self.stop = stop
        self.end = end
        #: issue time of each reference relative to ``base``'s, through the
        #: first declined one (``offs[-1]`` is ``frontier``'s bound)
        self.offs = offs
        #: cumulative latency and line count: entry x sums ``[base, base+x)``
        self.lat = lat
        self.nlines = nlines
        #: every line the prefix touches, in access order
        self.lines = lines
        #: ``(x, line)``: reference ``base + x`` writes EXCLUSIVE ``line``;
        #: an entry goes once retired
        self.flips = flips
        #: LRU replay plans by retired slice (see :func:`_replay_lru`)
        self.plans: dict = {}


class VecState:
    """The classification cache and the bulk retirement of ``access_run``'s
    all-hit prefix."""

    def __init__(self, ms) -> None:
        self.ms = ms
        #: per CPU, its L1 version at its previous run() entry
        self._entry_versions = [-1] * len(ms.l1s)
        #: classification cache: key (see _classified) -> Prefix
        self._cache: dict = {}
        #: observability only (harness vec_summary): prefixes walked, and
        #: why run() / frontier() left a run / bound to the scalar side
        self.classifications = 0
        self.declines = {"short": 0, "stale": 0, "first_miss": 0,
                         "frontier_short": 0, "frontier_stale": 0}

    # -- classification ----------------------------------------------------

    def _classify(self, pid, cpu, kinds, addrs, sizes, pends, base, n):
        """Walk references ``[base, n)`` up to the first one the L1 probe
        would decline; returns their :class:`Prefix`."""
        ms = self.ms
        self.classifications += 1
        probe = ms._invisible_span
        states = ms._l1_states[cpu]
        l1_lat = ms._l1_latency
        offs = [0]
        lat = [0]
        nlines = [0]
        lines = []
        flips = []
        x = base
        while True:
            k = kinds[x]
            hit = probe(pid, cpu, k, addrs[x], sizes[x])
            if hit is None:
                break
            span = range(hit[0], hit[1] + 1)
            lines.extend(span)
            if k:
                flips.extend((x - base, ln) for ln in span if states[ln] == 2)
            d = l1_lat * len(span) + (4 if k == 2 else 0)
            lat.append(lat[-1] + d)
            nlines.append(len(lines))
            x += 1
            if x == n:
                break
            offs.append(offs[-1] + d + pends[x])
        return Prefix(base, x, n, offs, lat, nlines, lines, flips)

    def _classified(self, pid, cpu, l1_version, kinds, addrs, sizes, pends,
                    i, n, serial, uhint):
        """The classification covering reference ``i`` of a filling of
        ``n``, from the cache or walked now. The caller has checked that
        ``cpu``'s L1 held still (``l1_version`` is its version)."""
        ms = self.ms
        ker = ms.vmm._kernel
        sp = ms._spaces.get(pid)
        uver = sp.version if sp is not None else -1
        if uhint is not None:
            # hinted fillings are position-independent: key on the stream's
            # virtual index-0 address so identical re-fillings (warm passes
            # over the same buffer) hit across batch serials
            key = (pid, cpu, l1_version, ker.version, uver, uhint,
                   addrs[i] - uhint[1] * i, n)
        else:
            key = (serial, pid, cpu, l1_version, ker.version, uver)
        cache = self._cache
        cd = cache.get(key)
        if cd is None or not (cd.base <= i <= cd.stop and cd.end == n):
            cd = self._classify(pid, cpu, kinds, addrs, sizes, pends, i, n)
            if uhint is not None or serial is not None:
                if len(cache) >= CACHE_CAP:
                    cache.clear()
                cache[key] = cd
        return cd

    def frontier(self, pid, cpu, batch, cap):
        """``MemorySystem.invisible_until`` past its cursor probe, answered
        from the classification the owner's own ``run()`` will read: the
        issue time of the first reference the probe declines, else of the
        last, clamped to ``cap`` — the scalar walk's bound. None when the
        walk answers (the CPU's L1 did not hold still, or too few
        references are left)."""
        i = batch.cursor
        n = batch.n
        if n - i < MIN_RUN:
            self.declines["frontier_short"] += 1
            return None
        l1_version = self.ms.l1s[cpu].version
        if l1_version != self._entry_versions[cpu]:
            self.declines["frontier_stale"] += 1
            return None
        cd = self._classified(pid, cpu, l1_version, batch.kinds, batch.addrs,
                              batch.sizes, batch.pendings, i, n,
                              batch.serial, batch.uhint)
        offs = cd.offs
        t = batch.time + offs[-1] - offs[i - cd.base]
        return t if t < cap else cap

    # -- the bulk run ------------------------------------------------------

    def run(self, pid, cpu, kinds, addrs, sizes, pends, i, n, t,
            limit, horizon, ext, clock, serial=None, uhint=None):
        """The all-hit prefix of one access_run, retired in bulk; returns
        the final ``(consumed, i, t, added, major, ext_refs)`` tuple, or
        None to decline the whole run (too short / the CPU's L1 did not
        hold still / first reference not an L1 hit) — the caller then runs
        the scalar loop unchanged."""
        ms = self.ms
        l1 = ms.l1s[cpu]
        held = l1.version == self._entry_versions[cpu]
        self._entry_versions[cpu] = l1.version
        m = n - i
        if limit < m:
            m = limit
        if m < MIN_RUN:
            self.declines["short"] += 1
            return None
        if not held:
            self.declines["stale"] += 1
            return None
        cd = self._classified(pid, cpu, l1.version, kinds, addrs, sizes,
                              pends, i, n, serial, uhint)
        o = i - cd.base
        h = cd.stop - i             # hits from the cursor on
        if h > m:
            h = m
        elif h == 0:
            self.declines["first_miss"] += 1
            return None

        if ext < horizon:
            ext = horizon

        # -- lookahead cut + issue-time bookkeeping ------------------------
        # reference o + x issues at t0 + offs[o + x]; consume those issuing
        # below ext (at least one), count those at or past horizon
        offs = cd.offs
        t0 = t - offs[o]
        c = bisect_left(offs, ext - t0, o + 1, o + h) - o
        ext_refs = c - (bisect_left(offs, horizon - t0, o, o + c) - o)
        last_issue = t0 + offs[o + c - 1]
        lat = cd.lat
        comp = last_issue + lat[o + c] - lat[o + c - 1]
        added = lat[o + c] - lat[o]

        # -- bulk retirement ----------------------------------------------
        l1.hits += cd.nlines[o + c] - cd.nlines[o]
        ms.accesses += c
        ms.fast_hits += c
        ms.vec_batches += 1
        ms.vec_refs += c

        flips = cd.flips
        if flips:
            # E->M upgrades (the only state change an L1 hit makes), as the
            # scalar loop makes them: a line already MODIFIED stays unmarked
            lo = bisect_left(flips, (o,))
            hi = bisect_left(flips, (o + c,))
            if lo < hi:
                states = ms._l1_states[cpu]
                l2s = (ms._l2_states[cpu]
                       if ms._l2_states is not None else None)
                dirty = ms.dirty
                for _x, ln in flips[lo:hi]:
                    if states[ln] == 2:
                        states[ln] = 3
                        if l2s is not None and ln in l2s:
                            l2s[ln] = 3
                            if dirty is not None:
                                dirty.add(ln)
                del flips[lo:hi]

        _replay_lru(cd, o, c, ms._l1_sets[cpu], ms._l1_set_mask,
                    ms._l1_nsets)

        if clock is not None and last_issue > clock.now:
            clock.now = last_issue

        if c >= m or c < h:
            # run complete / budget reached, or cut by the lookahead bound
            return c, i + c, comp, added, None, ext_refs
        # the prefix ended at a reference the probe declines: the scalar
        # loop takes the rest
        nt = comp + pends[i + c]
        if nt >= ext:
            return c, i + c, comp, added, None, ext_refs
        c2, i2, t2, a2, major2, er2 = ms._access_run_scalar(
            pid, cpu, kinds, addrs, sizes, pends, i + c, n, nt,
            limit - c, horizon, ext, clock)
        return c + c2, i2, t2, added + a2, major2, ext_refs + er2


def _replay_lru(cd, o, c, sets, mask, nsets) -> None:
    """LRU replay of references ``[o, o + c)`` of the prefix ``cd`` on the
    live per-set MRU lists ``sets``: touched lines, most-recent-touch
    first, then untouched lines in their prior order — exactly what the
    scalar per-touch move-to-front produces. A slice that recurs keeps its
    per-set fronts as a plan with ``cd`` (which dies on any
    ``Cache.version`` move); every call reads the verdict off the live
    lists, one column of heads per front depth, because scalar hits reorder
    sets without moving a version (DESIGN.md, "LRU replay from a memoised
    plan")."""
    plans = cd.plans
    plan = plans.get((o, c))
    if plan:
        fronts, cols = plan
        if all([s[j] for s in lists] == col
               for j, (lists, col) in enumerate(cols)):
            return
    else:
        nl = cd.nlines
        # walked backwards, a line's first sight is its most recent touch
        seen = set()
        fronts: dict = {}
        for ln in reversed(cd.lines[nl[o]:nl[o + c]]):
            if ln in seen:
                continue
            seen.add(ln)
            si = ln & mask if mask >= 0 else ln % nsets
            f = fronts.get(si)
            if f is None:
                fronts[si] = [ln]
            else:
                f.append(ln)
        if plan is None:
            # first sight of the slice: note it and keep nothing — most
            # slices of a serial-keyed filling never recur
            if len(plans) >= CACHE_CAP:
                plans.clear()
            plans[(o, c)] = ()
        else:
            plans[(o, c)] = (fronts, [
                ([sets[si] for si, f in fronts.items() if len(f) > j],
                 [f[j] for f in fronts.values() if len(f) > j])
                for j in range(max(map(len, fronts.values())))])
    for si, front in fronts.items():
        s = sets[si]
        if len(front) == 1:
            ln = front[0]
            if s[0] != ln:
                s.remove(ln)
                s.insert(0, ln)
        elif s[:len(front)] != front:
            members = set(front)
            s[:] = front + [x for x in s if x not in members]
