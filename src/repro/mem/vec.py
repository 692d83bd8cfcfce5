"""The L1 all-hit prefix of a batch filling: classified once, retired in bulk.

The leading run of a batch's references that all hit the issuing CPU's L1
is walked once over the live dicts, with the probe that defines an
*invisible* reference (``MemorySystem._invisible_span``), into a
:class:`Prefix`. The owner's ``run()`` retires any slice of it, a rival's
window bound is read from it, and what follows it goes to the scalar loop
(``MemorySystem._access_run_scalar``), so results are bit-identical.

A classification is stored on its filling (``EventBatch.prefix``) with what
it was walked under: the CPU's L1 ``Cache`` (naming memory system and CPU)
and its ``version``, the pid, and the page-table versions. Every mutation
that could turn a hit into a decline bumps one, so a stored prefix whose
key matches is exact, and :meth:`VecState.cached` hands it to anyone.
Only ``run()`` classifies, and only for a CPU whose L1 held still since its
previous ``run()`` entry (a filling CPU would pay a walk per entry for a
few hits). A per-CPU stamp skips the LRU replay of a slice the CPU's sets
already hold in order. See DESIGN.md, "The batch classification cache".
"""

from __future__ import annotations

from bisect import bisect_left

#: runs shorter than this go scalar: classifying only pays over a prefix
MIN_RUN = 8


class Prefix:
    """The classified all-hit prefix ``[base, stop)`` of one filling
    (``stop == n``: every one hits), walked under ``key`` (see
    :meth:`VecState._key`); per-reference lists are indexed from
    ``base``."""

    __slots__ = ("key", "base", "stop", "offs", "lat", "nlines", "lines",
                 "flips")

    def __init__(self, key, base, stop, offs, lat, nlines, lines, flips):
        self.key = key
        self.base = base
        self.stop = stop
        #: issue time of each reference relative to ``base``'s, through the
        #: first declined one (``offs[-1]`` is :meth:`bound`'s)
        self.offs = offs
        #: cumulative latency and line count: entry x sums ``[base, base+x)``
        self.lat = lat
        self.nlines = nlines
        #: every line the prefix touches, in access order
        self.lines = lines
        #: ``(x, line)``: reference ``base + x`` writes EXCLUSIVE ``line``;
        #: an entry goes once retired
        self.flips = flips

    def bound(self, batch, cap):
        """A rival's window bound, the scalar walk's: the issue time of the
        first reference the probe declines, or of the filling's last,
        clamped to ``cap`` unless that reference is the cursor's own."""
        x = batch.cursor - self.base
        if x == len(self.offs) - 1:
            return batch.time
        t = batch.time + self.offs[-1] - self.offs[x]
        return t if t < cap else cap


class VecState:
    """The classification of a filling's all-hit prefix and its bulk
    retirement in ``access_run``."""

    def __init__(self, ms) -> None:
        self.ms = ms
        #: per CPU, its L1 version at its previous run() entry
        self._entry_versions = [-1] * len(ms.l1s)
        #: per CPU, ``(cd, o, c, version, hits)`` of its L1 right after its
        #: last LRU replay of slice ``[o, o + c)`` of prefix ``cd``
        self._stamps: list = [None] * len(ms.l1s)
        #: observability only (harness vec_summary): prefixes walked, LRU
        #: replays skipped, why run() declined, rival bounds the cache did
        #: not answer (``MemorySystem.invisible_until`` walked them)
        self.classifications = 0
        self.lru_skips = 0
        self.declines = {"short": 0, "stale": 0, "first_miss": 0}
        self.walks = 0

    # -- classification ----------------------------------------------------

    def _classify(self, pid, cpu, batch):
        """Walk ``batch``'s references from its cursor up to the first one
        the L1 probe would decline; stores their :class:`Prefix` on the
        filling and returns it."""
        ms = self.ms
        self.classifications += 1
        probe = ms._invisible_span
        (_l1, states, _sets, _l2, _l2s, _s2, _m2, _n2, _fl, _mask, _nsets,
         l1_lat) = ms._views[cpu]
        kinds = batch.kinds
        addrs = batch.addrs
        sizes = batch.sizes
        pends = batch.pendings
        n = batch.n
        offs = [0]
        lat = [0]
        nlines = [0]
        lines = []
        flips = []
        x = base = batch.cursor
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
        cd = batch.prefix = Prefix(self._key(pid, cpu), base, x, offs, lat,
                                   nlines, lines, flips)
        return cd

    def _key(self, pid, cpu):
        """What a classification for ``pid`` on ``cpu`` is walked under."""
        ms = self.ms
        sp = ms._spaces.get(pid)
        # the L1, not self: a kept filling must not hold a memory system
        l1 = ms.l1s[cpu]
        return (l1, l1.version, pid, ms.vmm._kernel.version,
                sp.version if sp is not None else -1)

    def cached(self, pid, cpu, batch):
        """The filling's classification when it covers ``batch``'s cursor
        and was walked under the current key, else None. A matching key
        means ``cpu``'s L1 has not moved since the walk (its version only
        rises), so the entry is exact for anyone who reads it."""
        cd = batch.prefix
        if (cd is not None and cd.base <= batch.cursor <= cd.stop
                and cd.key == self._key(pid, cpu)):
            return cd
        return None

    def _classified(self, pid, cpu, batch):
        """The classification covering ``batch``'s cursor: the cached one,
        else walked now. Only :meth:`run` asks."""
        return self.cached(pid, cpu, batch) or self._classify(pid, cpu, batch)

    # -- the bulk run ------------------------------------------------------

    def run(self, pid, cpu, batch, limit, horizon, ext, clock):
        """The all-hit prefix of one access_run, retired in bulk; returns
        the final ``(consumed, i, t, added, major, ext_refs)`` tuple, or
        None to decline the whole run (too short / the CPU's L1 did not
        hold still / first reference not an L1 hit) — the caller then runs
        the scalar loop unchanged."""
        ms = self.ms
        (l1, states, sets, _l2, l2s, _s2, _m2, _n2, _fl, mask, nsets,
         _lat) = ms._views[cpu]
        held = l1.version == self._entry_versions[cpu]
        self._entry_versions[cpu] = l1.version
        i = batch.cursor
        n = batch.n
        m = n - i
        if limit < m:
            m = limit
        if m < MIN_RUN:
            self.declines["short"] += 1
            return None
        if not held:
            self.declines["stale"] += 1
            return None
        cd = self._classified(pid, cpu, batch)
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
        t0 = batch.time - offs[o]
        c = bisect_left(offs, ext - t0, o + 1, o + h) - o
        ext_refs = c - (bisect_left(offs, horizon - t0, o, o + c) - o)
        last_issue = t0 + offs[o + c - 1]
        lat = cd.lat
        comp = last_issue + lat[o + c] - lat[o + c - 1]
        added = lat[o + c] - lat[o]

        # -- bulk retirement ----------------------------------------------
        hits = l1.hits                  # before this retirement's own
        l1.hits = hits + cd.nlines[o + c] - cd.nlines[o]
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
                dirty = ms.dirty
                for _x, ln in flips[lo:hi]:
                    if states[ln] == 2:
                        states[ln] = 3
                        if l2s is not None and ln in l2s:
                            l2s[ln] = 3
                            if dirty is not None:
                                dirty.add(ln)
                del flips[lo:hi]

        # no reorder (hits) or membership change (version) since the CPU
        # last replayed this slice: its sets already hold its post-order
        stamps = self._stamps
        if stamps[cpu] == (cd, o, c, l1.version, hits):
            self.lru_skips += 1
        else:
            _replay_lru(cd, o, c, sets, mask, nsets)
        stamps[cpu] = (cd, o, c, l1.version, l1.hits)

        if clock is not None and last_issue > clock.now:
            clock.now = last_issue

        if c >= m or c < h:
            # run complete / budget reached, or cut by the lookahead bound
            return c, i + c, comp, added, None, ext_refs
        # the prefix ended at a reference the probe declines: the scalar
        # loop takes the rest
        pends = batch.pendings
        nt = comp + pends[i + c]
        if nt >= ext:
            return c, i + c, comp, added, None, ext_refs
        c2, i2, t2, a2, major2, er2 = ms._access_run_scalar(
            pid, cpu, batch.kinds, batch.addrs, batch.sizes, pends, i + c, n,
            nt, limit - c, horizon, ext, clock)
        return c + c2, i2, t2, added + a2, major2, ext_refs + er2


def _replay_lru(cd, o, c, sets, mask, nsets) -> None:
    """LRU replay of references ``[o, o + c)`` of the prefix ``cd`` on the
    live per-set MRU lists ``sets``: touched lines, most-recent-touch
    first, then untouched lines in their prior order — exactly what the
    scalar per-touch move-to-front produces (DESIGN.md, "LRU replay and
    its stamp")."""
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
