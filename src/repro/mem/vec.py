"""Vectorized mirror of the L1 fast-path lookup state.

The scalar fast path (hierarchy.access_run) classifies and retires batched
references one dict probe at a time. This module keeps a numpy mirror of the
same lookup state — a sorted array of each CPU's resident L1 lines (with
MESI states) and a sorted merged snapshot of each pid's page tables — so a
whole EventBatch run is classified in a handful of vectorized membership
tests, and the leading all-hit prefix retires in bulk array ops (counters,
E->M upgrades, LRU replay). Anything else — a miss, an upgrade from SHARED,
an untranslated page, a reference spanning more than two lines — ends the
prefix and is delegated to the unchanged scalar loop, so results are
bit-identical to the scalar loop's.

Mirror-state invariants (see DESIGN.md, "Vectorized mirror state"):

* The dicts are authoritative; the mirror is a cache of them keyed on
  ``Cache.version`` / ``_Space.version`` counters bumped by every mutation
  that could make the mirror *falsely permissive* (fills, invalidations,
  downgrades, restores, page-table changes).
* Mutations that leave the fast-path predicate invariant — LRU reordering
  and direct E->M upgrades — do not bump versions; the mirror may then lag
  but only in the *conservative* direction (a stale EXCLUSIVE where the
  dict says MODIFIED still accepts, and accept is correct for both).
* A stale mirror therefore only ever causes false *declines*, which fall
  back to the scalar path — never false accepts.

Classification is cached per batch filling (``EventBatch.serial``, or the
stream anchor of a hinted filling) together with the version triple it was
computed under: a batch cut at the horizon re-enters ``run()`` once per
continuation, and every rival that wins a turn in between asks
``frontier()`` how far the parked batch stays invisible. As long as no
version moved they all read the same cached verdicts, so the array work is
paid once per filling instead of once per cut or query. Anything that could
change a verdict (fill, invalidation, downgrade, unmap, restore) bumps a
version and misses the cache; in-place E->M flips only widen acceptance and
pend zeroing on the fault path only affects the retried reference's own
lead-in, which the issue-time chain never reads.

Resync is amortised, not eager. Rebuilding a CPU's mirror costs one pass
over its resident lines, and a fill bumps ``Cache.version``, so a CPU that
is missing would otherwise pay a rebuild per entry to retire a handful of
hits. ``run()`` therefore declines a stale mirror for free (the scalar loop
takes the run) until two things it already observes hold: the issuing CPU's
L1 version stood still from one entry to the next, and since then the CPU
retired at least as many L1 hits as the rebuild has lines to visit — a hit
streak that pays for the pass. A missing CPU never rebuilds; a CPU that
turned warm rebuilds once and keeps the mirror until its next fill. The
rule reads only simulated state (``Cache.version``, ``Cache.hits``, the
resident-line count), keeping runs deterministic.
"""

from __future__ import annotations

import numpy as np

#: runs shorter than this go scalar: the fixed cost of the array classify
#: only amortises over a reasonable prefix
MIN_RUN = 8

#: classifications kept before the cache is dropped whole (entries keyed
#: against a dead version or a consumed filling are never hit again)
CACHE_CAP = 64

_SENTINEL = np.iinfo(np.int64).max


class VecState:
    """Numpy mirror + the vectorized prefix of ``access_run``."""

    def __init__(self, ms) -> None:
        self.ms = ms
        n_cpus = len(ms.l1s)
        #: per-CPU sorted array of resident line addresses (+inf sentinel)
        self._lines = [None] * n_cpus
        #: per-CPU MESI states aligned with ``_lines``
        self._lsts = [None] * n_cpus
        self._cache_versions = [-1] * n_cpus
        #: pid -> (kernel_version, space_version, vpns, pbase): one merged
        #: sorted translation snapshot per pid (user vpns sit strictly below
        #: kernel vpns — USER_LIMIT — so concatenation stays sorted), with a
        #: +inf sentinel so lookups need no bounds clipping
        self._snaps: dict = {}
        #: classification cache: key -> per-filling arrays (see
        #: _classified), bounded by CACHE_CAP. An unhinted filling is keyed
        #: on its batch serial; a hinted one is fully described by (kind,
        #: stride, lead-in, anchor, length), so a warm re-scan of the same
        #: buffer reuses its classification across serials. The version
        #: triple is part of either key.
        self._cache: dict = {}
        #: reusable arange for rebuilding hinted address streams
        self._ar = None
        #: amortised resync (see run()): per CPU, the L1 version at its
        #: last entry that found the mirror stale, and its L1 hit count then
        self._stale_versions = [-1] * n_cpus
        self._stale_hits = [0] * n_cpus
        #: decline reasons (observability only; see harness vec_summary):
        #: why run() left a run to the scalar loop, and why frontier() left
        #: a rival's window to the scalar walk
        self.declines = {"short": 0, "stale": 0, "first_miss": 0,
                         "frontier_short": 0, "frontier_stale": 0}

    # -- resync ------------------------------------------------------------

    def _rebuild_cache(self, cpu: int) -> None:
        ms = self.ms
        l1 = ms.l1s[cpu]
        st_dict = l1._states
        n = len(st_dict)
        lines = np.empty(n + 1, dtype=np.int64)
        lsts = np.zeros(n + 1, dtype=np.int8)
        lines[n] = _SENTINEL
        if n:
            keys = np.fromiter(st_dict.keys(), dtype=np.int64, count=n)
            vals = np.fromiter(st_dict.values(), dtype=np.int8, count=n)
            order = np.argsort(keys)
            lines[:n] = keys[order]
            lsts[:n] = vals[order]
        self._lines[cpu] = lines
        self._lsts[cpu] = lsts
        self._cache_versions[cpu] = l1.version
        ms.vec_rebuilds += 1

    def _snap_tables(self, pid, ker, sp, uver):
        """(Re)build the merged translation snapshot for ``pid``."""
        pshift = self.ms._page_shift
        parts_v = []
        parts_p = []
        tables = (sp.table, ker.table) if sp is not None else (ker.table,)
        for table in tables:
            tn = len(table)
            if tn:
                v = np.fromiter(table.keys(), dtype=np.int64, count=tn)
                p = np.fromiter(table.values(), dtype=np.int64, count=tn)
                o = np.argsort(v)
                parts_v.append(v[o])
                parts_p.append(p[o])
        parts_v.append(np.array([_SENTINEL], dtype=np.int64))
        parts_p.append(np.zeros(1, dtype=np.int64))
        snap = (ker.version, uver, np.concatenate(parts_v),
                np.concatenate(parts_p) << pshift)
        self._snaps[pid] = snap
        return snap

    # -- classification ----------------------------------------------------

    def _arange(self, m):
        """Shared int64 arange, grown on demand (hinted streams only)."""
        ar = self._ar
        if ar is None or ar.shape[0] < m:
            ar = np.arange(max(m, 1024), dtype=np.int64)
            self._ar = ar
        return ar[:m]

    def _classify(self, cpu, kinds, addrs, sizes, pends, base, n, snap,
                  uhint):
        """Classify references [base, n) against the mirror; returns the
        cache-data dict (see field comments).

        ``uhint`` is the producer's ``(kind, stride, work_per_ref)`` claim
        that the whole filling is one arithmetic reference stream (see
        EventBatch.uhint): the address array is then rebuilt from three
        integers instead of converting the batch lists, kinds and sizes are
        compile-time constants, and — when each reference stays within one
        line — the issue-time chain is closed-form (constant latency,
        constant lead-in), so cut decisions need no arrays at all."""
        ms = self.ms
        mfull = n - base
        pshift = ms._page_shift
        lsh = ms._line_shift
        B = ms._l1_latency
        if uhint is not None:
            k0, stride, wpl = uhint
            a = addrs[base] + stride * self._arange(mfull)
            all_read = k0 == 0
            atomic = k0 == 2
        else:
            a = np.array(addrs[base:n], dtype=np.int64)
            sz = np.array(sizes[base:n], dtype=np.int64)
            all_read = not any(kinds[base:n])
        vpn = a >> pshift
        pos = np.searchsorted(snap[2], vpn)
        okt = snap[2][pos] == vpn
        # physical address from the start-page translation only — same
        # page-straddle semantics as the scalar walk; where okt is false
        # the value is garbage but harmless (membership tests just fail)
        pa = snap[3][pos] + (a & ms._page_mask)
        line0 = pa >> lsh
        if uhint is not None:
            line1 = (pa + (stride - 1)) >> lsh
        else:
            line1 = (pa + sz - 1) >> lsh
        lines = self._lines[cpu]
        lsts = self._lsts[cpu]
        pos0 = np.searchsorted(lines, line0)
        ok = okt & (lines[pos0] == line0)
        two_any = bool((line1 != line0).any())
        #: hinted non-read stream: every reference writes (no rd array)
        all_write = uhint is not None and not all_read
        rd = st0 = st1 = pos1 = nl = None
        if two_any:
            nl = line1 - line0 + 1
            pos1 = np.searchsorted(lines, line1)
            ok &= (nl <= 2) & (lines[pos1] == line1)
        if not all_read:
            st0 = lsts[pos0]
            if all_write:
                ok &= st0 >= 2
            else:
                k = np.array(kinds[base:n], dtype=np.int64)
                rd = k == 0
                ok &= rd | (st0 >= 2)
            if two_any:
                st1 = lsts[pos1]
                ok &= (st1 >= 2) if all_write else (rd | (st1 >= 2))
        # per-reference latency + relative issue-time prefix. ``uniform``
        # (constant latency AND constant lead-in) needs no arrays at all:
        # issue times are t + step * x, computed in plain ints.
        lat = prefix = None
        step = latc = 0
        if uhint is not None:
            # the hint pins kind and lead-in, so single-line streams are
            # uniform even with nonzero per-reference work
            uniform = not two_any
            if uniform:
                latc = B + (4 if atomic else 0)
                step = latc + wpl
        else:
            uniform = (all_read and not two_any
                       and not any(pends[base + 1:n]))
            if uniform:
                latc = step = B
        if not uniform:
            if two_any:
                lat = nl * B
            else:
                lat = np.full(mfull, B, dtype=np.int64)
            if not all_read:
                if all_write:
                    if atomic:
                        lat += 4
                else:
                    atom = k == 2
                    if atom.any():
                        lat[atom] += 4
            prefix = np.empty(mfull, dtype=np.int64)
            prefix[0] = 0
            if mfull > 1:
                if uhint is not None:
                    np.cumsum(lat[:-1] + wpl, out=prefix[1:])
                else:
                    np.cumsum(lat[:-1] + np.array(pends[base + 1:n],
                                                  dtype=np.int64),
                              out=prefix[1:])
        return {
            "base": base, "end": n, "ok": ok, "line0": line0,
            "two_any": two_any, "all_read": all_read,
            "all_write": all_write, "uniform": uniform,
            "step": step, "latc": latc,
            "nl": nl, "rd": rd, "st0": st0, "st1": st1,
            "pos0": pos0, "pos1": pos1, "line1": line1,
            "lat": lat, "prefix": prefix, "plans": {},
        }

    def _classified(self, pid, cpu, l1_version, kinds, addrs, sizes, pends,
                    i, n, serial, uhint):
        """The classification covering references [i, n) of one filling,
        from the cache or computed now. The caller has checked that
        ``cpu``'s mirror is fresh (``l1_version`` is its version)."""
        ms = self.ms
        # the pid's merged translation snapshot is keyed on version counters
        ker = ms.vmm._kernel
        sp = ms._spaces.get(pid)
        uver = sp.version if sp is not None else -1
        snap = self._snaps.get(pid)
        if snap is None or snap[0] != ker.version or snap[1] != uver:
            snap = self._snap_tables(pid, ker, sp, uver)
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
        if cd is None or not (cd["base"] <= i and cd["end"] == n):
            cd = self._classify(cpu, kinds, addrs, sizes, pends, i, n, snap,
                                uhint)
            if uhint is not None or serial is not None:
                if len(cache) >= CACHE_CAP:
                    cache.clear()
                cache[key] = cd
        return cd

    def frontier(self, pid, cpu, batch, cap):
        """``MemorySystem.invisible_until`` answered from the arrays: how
        far the batch parked by ``pid`` on ``cpu`` provably stays invisible,
        or None when only the scalar walk can tell (mirror stale, or too
        few references left to be worth classifying).

        The classification is the one the owner's own ``run()`` hits when
        its turn comes, so it is paid once and read from both sides. The
        bound is the issue time of the first reference the mirror declines,
        else of the last, clamped to ``cap`` — never above the scalar walk,
        and equal to it unless a reference spans more than two lines (the
        mirror declines those; the walk probes every line). Only asked once
        ``invisible_until``'s probe of the cursor reference hit: a cursor
        that declines is answered there, uncapped, with the batch's time."""
        i = batch.cursor
        n = batch.n
        if n - i < MIN_RUN:
            self.declines["frontier_short"] += 1
            return None
        l1_version = self.ms.l1s[cpu].version
        if l1_version != self._cache_versions[cpu]:
            # resync is run()'s call: it knows whether a rebuild will pay
            self.declines["frontier_stale"] += 1
            return None
        cd = self._classified(pid, cpu, l1_version, batch.kinds, batch.addrs,
                              batch.sizes, batch.pendings, i, n,
                              batch.serial, batch.uhint)
        o = i - cd["base"]
        seg = cd["ok"][o:]
        stop = int(seg.argmin())
        if seg[stop]:
            stop = n - 1 - i    # no False anywhere: bounded by the last
        t = batch.time
        if cd["uniform"]:
            t += cd["step"] * stop
        else:
            prefix = cd["prefix"]
            t += int(prefix[o + stop] - prefix[o])
        return t if t < cap else cap

    # -- the vectorized run ------------------------------------------------

    def run(self, pid, cpu, kinds, addrs, sizes, pends, i, n, t,
            limit, horizon, ext, clock, serial=None, uhint=None):
        """Vectorized prefix of one access_run; returns the final
        ``(consumed, i, t, added, major, ext_refs)`` tuple, or None to
        decline the whole run (too short / mirror stale and not yet worth
        a rebuild / first ref not an L1 fast hit) — the caller then runs
        the scalar loop unchanged."""
        ms = self.ms
        m = n - i
        if limit < m:
            m = limit
        if m < MIN_RUN:
            self.declines["short"] += 1
            return None

        # a stale L1 mirror is resynced only when the rebuild will pay: the
        # version held still across an entry, and the CPU has since retired
        # as many hits as the rebuild has resident lines to visit
        l1 = ms.l1s[cpu]
        if l1.version != self._cache_versions[cpu]:
            if l1.version != self._stale_versions[cpu]:
                self._stale_versions[cpu] = l1.version
                self._stale_hits[cpu] = l1.hits
                self.declines["stale"] += 1
                return None
            if l1.hits - self._stale_hits[cpu] < len(l1._states):
                self.declines["stale"] += 1
                return None
            self._rebuild_cache(cpu)
        cd = self._classified(pid, cpu, l1.version, kinds, addrs, sizes,
                              pends, i, n, serial, uhint)
        o = i - cd["base"]

        ok = cd["ok"]
        seg = ok[o:o + m]
        j_stop = int(seg.argmin())
        if seg[j_stop]:
            j_stop = m          # no False anywhere: whole run is a hit
        elif j_stop == 0:
            self.declines["first_miss"] += 1
            return None

        if ext < horizon:
            ext = horizon

        # -- lookahead cut + issue-time bookkeeping ------------------------
        if cd["uniform"]:
            # issue[x] = t + step*x: cuts resolve in plain integer math
            step = cd["step"]
            latc = cd["latc"]
            c = j_stop
            if t + step * (c - 1) >= ext:
                c = -(-(ext - t) // step)   # ceil: refs with issue < ext
                if c < 1:
                    c = 1
            if t + step * (c - 1) < horizon:
                ext_refs = 0
            else:
                vis = -(-(horizon - t) // step)
                if vis < 0:
                    vis = 0
                ext_refs = c - vis
            last_issue = t + step * (c - 1)
            comp = last_issue + latc
            added = latc * c
            tot = c
        else:
            prefix = cd["prefix"]
            issue = prefix[o:o + j_stop] + (t - int(prefix[o]))
            c = j_stop
            cut = int(np.searchsorted(issue, ext, side="left"))
            if cut < 1:
                cut = 1
            if cut < c:
                c = cut
            ext_refs = c - int(np.searchsorted(issue[:c], horizon,
                                               side="left"))
            lat = cd["lat"]
            last_issue = int(issue[c - 1])
            comp = last_issue + int(lat[o + c - 1])
            added = int(lat[o:o + c].sum())
            tot = (int(cd["nl"][o:o + c].sum()) if cd["two_any"] else c)

        # -- bulk retirement ----------------------------------------------
        l1.hits += tot
        ms.accesses += c
        ms.fast_hits += c
        ms.vec_batches += 1
        ms.vec_refs += c

        line0 = cd["line0"]
        # E->M upgrades (the only state change the fast path makes): flip
        # the dicts, the inclusive L2 mirror and the array mirror; repeated
        # flips of one line within the batch are idempotent
        if not cd["all_read"]:
            wr = None
            do_flip = cd["all_write"]
            if not do_flip:
                rdc = cd["rd"][o:o + c]
                if not rdc.all():
                    wr = ~rdc
                    do_flip = True
            if do_flip:
                lsts = self._lsts[cpu]
                states = ms._l1_states[cpu]
                l2s = (ms._l2_states[cpu]
                       if ms._l2_states is not None else None)
                dirty = ms.dirty
                flip0 = cd["st0"][o:o + c] == 2
                if wr is not None:
                    flip0 &= wr
                if flip0.any():
                    lsts[cd["pos0"][o:o + c][flip0]] = 3
                    for ln in line0[o:o + c][flip0].tolist():
                        states[ln] = 3
                        if l2s is not None and ln in l2s:
                            l2s[ln] = 3
                            if dirty is not None:
                                dirty.add(ln)
                if cd["two_any"]:
                    sl = slice(o, o + c)
                    flip1 = (cd["nl"][sl] == 2) & (cd["st1"][sl] == 2)
                    if wr is not None:
                        flip1 &= wr
                    if flip1.any():
                        lsts[cd["pos1"][sl][flip1]] = 3
                        for ln in cd["line1"][sl][flip1].tolist():
                            states[ln] = 3
                            if l2s is not None and ln in l2s:
                                l2s[ln] = 3
                                if dirty is not None:
                                    dirty.add(ln)

        _replay_lru(cd, o, c, ms._l1_sets[cpu], ms._l1_set_mask,
                    ms._l1_nsets)

        if clock is not None and last_issue > clock.now:
            clock.now = last_issue

        if c >= m or c < j_stop:
            # run complete / budget reached, or cut by the lookahead bound
            return c, i + c, comp, added, None, ext_refs
        # prefix ended at a reference the mirror declined: hand the rest to
        # the scalar loop (which re-probes the authoritative dicts — a
        # conservative mirror decline may still be a scalar fast hit)
        nt = comp + pends[i + c]
        if nt >= ext:
            return c, i + c, comp, added, None, ext_refs
        c2, i2, t2, a2, major2, er2 = ms._access_run_scalar(
            pid, cpu, kinds, addrs, sizes, pends, i + c, n, nt,
            limit - c, horizon, ext, clock)
        return c + c2, i2, t2, added + a2, major2, ext_refs + er2


def _replay_lru(cd, o, c, sets, mask, nsets) -> None:
    """LRU replay of references ``[o, o + c)`` of classification ``cd`` on
    the live per-set MRU lists ``sets``: touched lines, most-recent-touch
    first, then untouched lines in their prior order — exactly what the
    scalar per-touch move-to-front produces.

    The per-set fronts are a pure function of the classified lines, the
    slice and the geometry, so a slice ``(o, c)`` that recurs keeps them as
    a plan with ``cd`` (which dies on any ``Cache.version`` move, i.e.
    before set membership can change; the set lists themselves are only ever
    mutated in place). Every call reads the verdict off the live lists,
    because scalar hits reorder sets without moving a version: a planned
    slice compares one column of heads per front depth (two list builds and
    a list ``==`` for ``private_hot``'s 128 two-line sets) and only a call
    that finds a column out of place walks the sets, from the same fronts."""
    plans = cd["plans"]
    plan = plans.get((o, c))
    if plan:
        fronts, cols = plan
        if all([s[j] for s in lists] == col
               for j, (lists, col) in enumerate(cols)):
            return
    else:
        line0 = cd["line0"]
        if cd["two_any"]:
            nlc = cd["nl"][o:o + c]
            starts = np.cumsum(nlc) - nlc
            offs = (np.arange(int(nlc.sum()), dtype=np.int64)
                    - np.repeat(starts, nlc))
            seq = np.repeat(line0[o:o + c], nlc) + offs
        else:
            seq = line0[o:o + c]
        # dedupe keeps the *last* occurrence of each line (stable sort
        # groups duplicates; the last of each group has the highest index)
        nseq = seq.shape[0]
        flag = np.empty(nseq, dtype=bool)
        flag[-1] = True
        if nseq > 1 and bool((seq[1:] >= seq[:-1]).all()):
            # nondecreasing touch sequence (ascending scans): duplicates
            # are consecutive — keep each group's last, reverse, no sort
            np.not_equal(seq[1:], seq[:-1], out=flag[:-1])
            recent = seq[flag][::-1]
        else:
            order = np.argsort(seq, kind="stable")
            ss = seq[order]
            np.not_equal(ss[1:], ss[:-1], out=flag[:-1])
            recent = ss[flag][np.argsort(order[flag])[::-1]]
        fronts: dict = {}
        for ln in recent.tolist():
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
