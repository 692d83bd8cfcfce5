"""The backend memory system: translation + cache hierarchy + coherence.

``MemorySystem.access`` services one memory-reference event and
``MemorySystem.access_run`` a run of batched ones. Both probe the issuing
CPU's private hierarchy first (page already translated, every line in the
L1 with enough rights, or the one line in this CPU's L2 with them: raw dict
probes, nothing else consulted); whatever the probe declines goes to the
one miss kernel, ``MemorySystem._miss``, which takes the caller's
translation (or walks the page table itself when there is none), walks the
private cache hierarchy and lets the coherence protocol service misses and
upgrades. The returned latency is what the backend replies to the
frontend's event port.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.config import SimConfig
from ..core.stats import StatsRegistry
from .cache import Cache, _EXCLUSIVE, _MODIFIED, _SHARED
from .coherence import CoherenceProtocol, make_protocol
from .pagetable import KERNEL_BASE, MajorFault, Vmm
from .vec import VecState


class MemorySystem:
    """Caches, interconnect and VM for one simulated machine."""

    def __init__(self, cfg: SimConfig, stats: StatsRegistry,
                 minor_fault_cycles: int = 400) -> None:
        cfg.backend.validate()
        self.cfg = cfg
        self.stats = stats
        be = cfg.backend
        mem = be.memory
        n = cfg.num_cpus

        self.vmm = Vmm(mem.num_nodes, mem.node_mem_bytes, mem.page_size,
                       mem.placement, n)
        self.minor_fault_cycles = minor_fault_cycles

        self.l1s: List[Cache] = [Cache(f"L1.{c}", be.l1) for c in range(n)]
        self.l2s: Optional[List[Cache]] = None
        if be.detail == "complex" and be.l2 is not None:
            self.l2s = [Cache(f"L2.{c}", be.l2) for c in range(n)]
        outer = self.l2s if self.l2s is not None else self.l1s
        inner: List[Optional[Cache]] = (
            list(self.l1s) if self.l2s is not None else [None] * n
        )

        self.protocol = make_protocol(
            be.coherence,
            dram_latency=mem.dram_latency,
            bus_latency=mem.bus_latency,
            dir_latency=mem.dir_latency,
            hop_latency=mem.hop_latency,
            num_nodes=mem.num_nodes,
            page_size=mem.page_size,
        )
        self.protocol.attach(outer, inner, self.vmm.cpu_node,
                             self.vmm.line_home_fn(be.l1.line_size),
                             be.l1.line_size)
        self._outer = outer
        self._line_size = be.l1.line_size
        self._line_shift = be.l1.line_size.bit_length() - 1
        self.accesses = 0

        # --- the probe -----------------------------------------------------
        # A reference whose page is already translated and whose lines all
        # hit this CPU's L1 with sufficient rights resolves as raw dict
        # probes, with no protocol/VMM involvement; so does a one-line
        # reference that hits this CPU's L2 with them (a fast_fallback:
        # the L1 probe did not retire it). The cached container
        # references below are stable objects mutated in place by the miss
        # kernel, so the probe always sees current state; every decline
        # goes to the miss kernel having mutated nothing.
        self.fast_hits = 0
        self.fast_fallbacks = 0
        self._l1_latency = be.l1.latency
        self._page_shift = self.vmm._page_shift
        self._page_mask = mem.page_size - 1
        self._kernel_table = self.vmm._kernel.table
        self._spaces = self.vmm._spaces
        self._l1_states = [c._states for c in self.l1s]
        self._l1_sets = [c._sets for c in self.l1s]
        self._l2_states = ([c._states for c in self.l2s]
                           if self.l2s is not None else None)
        self._l1_set_mask = self.l1s[0].set_mask
        self._l1_nsets = self.l1s[0].n_sets

        #: lines whose L2 state or protocol entry may have changed since
        #: the last checkpoint capture (:meth:`track_changes`); None when no
        #: checkpoint manager is attached, and then nothing marks
        self.dirty: Optional[set] = None

        #: fault injection: callable() -> extra cycles on the miss kernel
        #: (a degraded DIMM adds latency to misses/DRAM traffic; L1 probe
        #: hits stay unaffected, and the private-L2 arm stands down while
        #: it is set). None outside fault-plan runs.
        self.fault_extra = None

        # --- the batch all-hit prefix, retired in bulk (see mem/vec.py) -----
        self.vec_batches = 0
        self.vec_refs = 0
        self.vec_fallbacks = 0
        self._vec = VecState(self)

        # --- sampled-simulation fast-forward mode --------------------------
        # While ff_active, references warm translation + cache contents
        # functionally and are charged a constant calibrated latency; no
        # protocol/interconnect modeling runs (see core/sampling.py).
        self.ff_active = False
        self.ff_refs = 0
        self._ff_base = 0
        self._ff_frac = 0.0
        self._ff_err = 0.0
        #: slow-path latency accumulator: every reference the L1 probe did
        #: not retire (private-L2 hits and the miss kernel's) — with
        #: fast_hits * l1_latency this yields the mean reference latency a
        #: detail window measured, which calibrates the next ff window
        self.lat_slow = 0

    # ------------------------------------------------------------------

    def access(self, pid: int, vaddr: int, size: int, write: bool,
               cpu: int, now: int,
               atomic: bool = False) -> Tuple[int, Optional[MajorFault]]:
        """Service one reference; returns (latency, major_fault).

        On a major fault no timing progress is made — the engine must run
        the VM trap path and retry.
        """
        if self.ff_active:
            return self._ff_access(pid, vaddr, size, write, cpu, atomic)
        # the probe: page translated, all lines in L1 (or the one line in
        # this CPU's L2) with enough rights; the miss kernel takes the rest
        paddr = -1
        if vaddr >= KERNEL_BASE:
            ppn = self._kernel_table.get(vaddr >> self._page_shift)
        else:
            sp = self._spaces.get(pid)
            ppn = (sp.table.get(vaddr >> self._page_shift)
                   if sp is not None else None)
        if ppn is not None:
            paddr = (ppn << self._page_shift) | (vaddr & self._page_mask)
            shift = self._line_shift
            line = paddr >> shift
            last = (paddr + (size or 1) - 1) >> shift
            if line == last:
                states = self._l1_states[cpu]
                st = states.get(line)
                mask = self._l1_set_mask
                s = self._l1_sets[cpu][line & mask if mask >= 0
                                       else line % self._l1_nsets]
                if st is not None and (not write or st >= 2):
                    self.l1s[cpu].hits += 1
                    if s[0] != line:
                        s.remove(line)
                        s.insert(0, line)
                    if write and st == 2:   # EXCLUSIVE -> MODIFIED
                        states[line] = 3
                        l2s = self._l2_states
                        if l2s is not None and line in l2s[cpu]:
                            l2s[cpu][line] = 3
                            if self.dirty is not None:
                                self.dirty.add(line)
                    self.accesses += 1
                    self.fast_hits += 1
                    lat = self._l1_latency
                    return (lat + 4, None) if atomic else (lat, None)
                l2 = self.l2s[cpu] if self.l2s is not None else None
                if st is None and l2 is not None and self.fault_extra is None:
                    # the private-L2 arm, as _access_run_scalar has it
                    st = (l2s := l2._states).get(line)
                    if st is not None and (not write or st >= 2):
                        m2 = l2.set_mask
                        i = line & m2 if m2 >= 0 else line % l2.n_sets
                        s2 = l2._sets[i]
                        if s2[0] != line:
                            s2.remove(line)
                            s2.insert(0, line)
                            if l2.dirty_sets is not None:
                                l2.dirty_sets[i] = 1
                        dirty = self.dirty
                        if write and st == 2:   # EXCLUSIVE -> MODIFIED
                            if dirty is not None:
                                dirty.add(line)
                            l2s[line] = st = 3
                            l2.version += 1
                        l1 = self.l1s[cpu]
                        l1.version += 1
                        if len(s) >= l1.assoc:
                            v = s.pop()
                            l1.evictions += 1
                            if states.pop(v) == 3:
                                l1.writebacks += 1
                                if v in l2s:   # folds into the L2
                                    if dirty is not None and l2s[v] != 3:
                                        dirty.add(v)
                                    l2s[v] = 3
                                    l2.version += 1
                        s.insert(0, line)
                        states[line] = st
                        l1.misses += 1
                        l2.hits += 1
                        self.accesses += 1
                        self.fast_fallbacks += 1
                        lat = self._l1_latency + l2.cfg.latency
                        if atomic:
                            lat += 4
                        self.lat_slow += lat
                        return lat, None
            else:
                nlines = self._hit_span(cpu, line, last, write)
                if nlines:
                    lat = self._l1_latency * nlines
                    return (lat + 4, None) if atomic else (lat, None)
        self.fast_fallbacks += 1
        return self._miss(pid, vaddr, size, write, atomic, cpu, now, paddr)

    def _hit_span(self, cpu: int, line: int, last: int, write: bool) -> int:
        """The probe's multi-line arm. Every line is qualified before any
        is mutated, so a decline (returns 0) leaves the caches untouched
        for the miss kernel to service from scratch; a hit returns the
        line count (not a latency: ``CacheConfig.latency`` may be 0)."""
        states = self._l1_states[cpu]
        sts = []
        for l in range(line, last + 1):
            st = states.get(l)
            if st is None or (write and st < 2):
                return 0
            sts.append(st)
        self.l1s[cpu].hits += len(sts)
        sets = self._l1_sets[cpu]
        mask = self._l1_set_mask
        l2s = self._l2_states[cpu] if self._l2_states is not None else None
        for l, st in zip(range(line, last + 1), sts):
            s = sets[l & mask if mask >= 0 else l % self._l1_nsets]
            if s[0] != l:
                s.remove(l)
                s.insert(0, l)
            if write and st == 2:   # EXCLUSIVE -> MODIFIED
                states[l] = 3
                if l2s is not None and l in l2s:
                    l2s[l] = 3
                    if self.dirty is not None:
                        self.dirty.add(l)
        self.accesses += 1
        self.fast_hits += 1
        return len(sts)

    # ------------------------------------------------------------------
    # conservative lookahead support (see DESIGN.md)
    # ------------------------------------------------------------------

    def strict_stream(self) -> Optional[str]:
        """Why every reference must go through :meth:`access` alone, at its
        strict-order cycle — or None when runs may be inlined, retired in
        bulk or windowed. ``"tapped"``: ``access`` is rebound on the
        instance (memtrace, checkpoint record/replay) and must see the
        strict interleaving call by call. ``"fast_forward"``: a sampled ff
        window, whose synthetic timing no invisibility argument covers."""
        if "access" in self.__dict__:
            return "tapped"
        return "fast_forward" if self.ff_active else None

    def _invisible_span(self, pid: int, cpu: int, kind: int, vaddr: int,
                        size: int):
        """First and last line of a reference the L1 probe would retire
        (page translated, every line in ``cpu``'s L1, E or M unless a read),
        else None; read-only. The one definition of an *invisible*
        reference: the rivals' walk and the batch classification ask it."""
        if vaddr >= KERNEL_BASE:
            ppn = self._kernel_table.get(vaddr >> self._page_shift)
        else:
            sp = self._spaces.get(pid)
            ppn = (sp.table.get(vaddr >> self._page_shift)
                   if sp is not None else None)
        if ppn is None:
            return None
        paddr = (ppn << self._page_shift) | (vaddr & self._page_mask)
        shift = self._line_shift
        first = line = paddr >> shift
        last = (paddr + (size or 1) - 1) >> shift
        states_get = self._l1_states[cpu].get
        while line <= last:
            st = states_get(line)
            if st is None or (kind != 0 and st < _EXCLUSIVE):
                return None
            line += 1
        return first, last

    def ref_invisible_latency(self, pid: int, cpu: int, kind: int,
                              vaddr: int, size: int) -> int:
        """Latency this single reference would resolve with on the L1
        probe, or -1 when it would decline (miss / upgrade / untranslated).
        Read-only (:meth:`_invisible_span`), so it can bound how long a
        *rival* stays invisible. Callers rule out :meth:`strict_stream`."""
        span = self._invisible_span(pid, cpu, kind, vaddr, size)
        if span is None:
            return -1
        lat = self._l1_latency * (span[1] - span[0] + 1)
        return lat + 4 if kind == 2 else lat

    def invisible_until(self, pid: int, cpu: int, batch, cap: int) -> int:
        """Earliest cycle at which the frontend owning ``batch`` could next
        act *non-invisibly*, walking its pending references from the cursor.

        A reference is invisible when the L1 probe fully hits: it then
        mutates only issuer-private state (own LRU order, E->M flips of
        lines no peer holds, commutative counters), so any interleaving of
        invisible references from different frontends is bit-identical to
        the strict order. The walk is read-only and chains the same
        issue-time arithmetic as :meth:`access_run`. Returns ``cap`` when
        the whole prefix up to ``cap`` qualifies, else the issue time of
        the first reference that might need the miss kernel — or of the
        *last* reference when the batch ends first: the frontend's next
        event can be no earlier than the batch's completion, but the host
        code it runs on completion reads the global clock, which must not
        have passed the cycle the strict schedule completes the batch at.

        The reference at the cursor is probed first: a rival about to miss
        is visible at its own time, and costs no classification. Past it
        the bound is read from the batch's cached classification
        (:meth:`VecState.frontier`, the one the owner's own run will use)
        when ``cpu``'s L1 held still since its last run; otherwise the walk
        over :meth:`ref_invisible_latency` continues from that probe. Both
        ask one probe and agree. The caller rules out :meth:`strict_stream`.
        """
        t = batch.time
        i = batch.cursor
        kinds = batch.kinds
        addrs = batch.addrs
        sizes = batch.sizes
        probe = self.ref_invisible_latency
        lat = probe(pid, cpu, kinds[i], addrs[i], sizes[i])
        if lat < 0:
            return t
        bound = self._vec.frontier(pid, cpu, batch, cap)
        if bound is not None:
            return bound
        pends = batch.pendings
        for i in range(i + 1, batch.n):
            nt = t + lat + pends[i]
            if nt >= cap:
                return cap
            t = nt
            lat = probe(pid, cpu, kinds[i], addrs[i], sizes[i])
            if lat < 0:
                break
        return t

    # ------------------------------------------------------------------

    def access_run(self, pid: int, cpu: int, kinds: list, addrs: list,
                   sizes: list, pends: list, i: int, n: int, t: int,
                   limit: int, horizon: int, ext: int = 0, clock=None,
                   serial=None, uhint=None):
        """Service a run of batched references in one loop.

        Replays exactly the sequence of :meth:`access` calls the engine's
        per-reference loop would make: the reference at ``i`` issues at
        ``t``; each later reference issues at the previous completion time
        plus its pending cycles, and is consumed only while that stays
        below ``horizon`` and fewer than ``limit`` references were served.
        ``clock`` (the engine's global scheduler) reads each reference's
        issue time wherever the miss kernel runs, and the last one on
        return, as the per-event loop leaves it.
        Returns ``(consumed, i, t, added_latency, major_fault, ext_refs)``
        with ``i`` and ``t`` at the stop point (on a fault, the faulting
        reference's index and issue time).

        ``ext`` is the engine's conservative lookahead horizon: when it
        exceeds ``horizon``, references issuing in ``[horizon, ext)`` may
        also be consumed — but only while they stay *invisible* (resolve on
        the inlined L1 probe); the first reference at or past ``horizon``
        that would not (a private L2 hit included) cuts the run unconsumed,
        because slow-path effects at those cycles could be observed by the
        rival whose qualified window justified the extension. ``ext_refs``
        counts references consumed beyond the strict horizon.

        Under :meth:`strict_stream` the extension is ignored and the run
        goes through the instance's ``access`` reference by reference
        (:meth:`_run_each`): a tap sees every reference, and a fast-forward
        window warms through ``access``'s ff arm, so a sampled result does
        not depend on whether a tap is attached. Otherwise the all-hit
        prefix retires in bulk from its cached classification when it can
        (:meth:`VecState.run`; ``serial`` names the batch filling so a
        classification survives horizon-cut continuations, ``uhint`` is the
        producer's uniform stream claim) and the scalar loop, the
        simulator's hottest, does the rest — bit-identically.
        """
        if i >= n or limit <= 0:
            return 0, i, t, 0, None, 0
        if self.strict_stream() is not None:
            return self._run_each(pid, cpu, kinds, addrs, sizes, pends, i, n,
                                  t, limit, horizon, clock)
        res = self._vec.run(pid, cpu, kinds, addrs, sizes, pends, i, n, t,
                            limit, horizon, ext, clock, serial, uhint)
        if res is not None:
            return res
        self.vec_fallbacks += 1
        return self._access_run_scalar(pid, cpu, kinds, addrs, sizes, pends,
                                       i, n, t, limit, horizon, ext, clock)

    def _run_each(self, pid: int, cpu: int, kinds: list, addrs: list,
                  sizes: list, pends: list, i: int, n: int, t: int,
                  limit: int, horizon: int, clock):
        """The per-reference loop: one ``access`` per reference through
        the instance (a tap sees the whole stream), each at its strict
        issue time, cut at ``horizon``; returns as :meth:`access_run`."""
        access = self.access
        consumed = 0
        added = 0
        while True:
            k = kinds[i]
            if clock is not None and t > clock.now:
                clock.now = t
            lat, major = access(pid, addrs[i], sizes[i], k != 0, cpu,
                                t, atomic=(k == 2))
            consumed += 1
            if major is not None:
                return consumed, i, t, added, major, 0
            added += lat
            t += lat
            i += 1
            if i >= n or consumed >= limit:
                return consumed, i, t, added, None, 0
            nt = t + pends[i]
            if nt >= horizon:
                return consumed, i, t, added, None, 0
            t = nt

    def _access_run_scalar(self, pid: int, cpu: int, kinds: list,
                           addrs: list, sizes: list, pends: list, i: int,
                           n: int, t: int, limit: int, horizon: int,
                           ext: int = 0, clock=None):
        """The scalar hot loop: locals bound once, the single-line probe
        and its private-L2 arm (below ``horizon`` only) inlined; the rest
        goes straight to the miss kernel with the translation this loop
        made. Tallies and the clock are written back on return (the clock
        before a miss too): nothing in between reads them."""
        miss = self._miss
        consumed = 0
        added = 0
        if ext < horizon:
            ext = horizon
        ext_refs = 0
        kbase = KERNEL_BASE
        ktable_get = self._kernel_table.get
        spaces_get = self._spaces.get
        # pid is constant for the run; the space's table dict is mutated in
        # place by the fallback path (minor faults), never replaced mid-run,
        # so its bound .get stays valid. A space that does not exist yet can
        # be created by a fallback access, so retry the lookup until found.
        sp = spaces_get(pid)
        utable_get = sp.table.get if sp is not None else None
        pshift = self._page_shift
        pmask = self._page_mask
        shift = self._line_shift
        states = self._l1_states[cpu]
        states_get = states.get
        sets = self._l1_sets[cpu]
        mask = self._l1_set_mask
        nsets = self._l1_nsets
        l1 = self.l1s[cpu]
        l1_lat = self._l1_latency
        dirty = self.dirty
        l2 = self.l2s[cpu] if self.l2s is not None else None
        l2s = l2._states if l2 is not None else None
        # the private-L2 arm stands down under a degraded-DIMM hook
        arm = l2 is not None and self.fault_extra is None
        fill_lat = l1_lat + l2.cfg.latency if arm else 0
        fast = l2hits = l2lat = 0
        try:
            while True:
                vaddr = addrs[i]
                k = kinds[i]
                if vaddr >= kbase:
                    ppn = ktable_get(vaddr >> pshift)
                elif utable_get is not None:
                    ppn = utable_get(vaddr >> pshift)
                else:
                    sp = spaces_get(pid)
                    if sp is not None:
                        utable_get = sp.table.get
                        ppn = utable_get(vaddr >> pshift)
                    else:
                        ppn = None
                lat = -1
                if ppn is not None:
                    paddr = (ppn << pshift) | (vaddr & pmask)
                    line = paddr >> shift
                    size = sizes[i]
                    last = (paddr + (size or 1) - 1) >> shift
                    if line == last:
                        st = states_get(line)
                        s = sets[line & mask if mask >= 0 else line % nsets]
                        if st is not None and (k == 0 or st >= 2):
                            if s[0] != line:
                                s.remove(line)
                                s.insert(0, line)
                            if k != 0 and st == 2:   # EXCLUSIVE -> MODIFIED
                                states[line] = 3
                                if l2s is not None and line in l2s:
                                    l2s[line] = 3
                                    if dirty is not None:
                                        dirty.add(line)
                            fast += 1
                            lat = l1_lat + 4 if k == 2 else l1_lat
                        elif (st is None and arm and t < horizon
                              and (st := l2s.get(line)) is not None
                              and (k == 0 or st >= 2)):
                            # the miss kernel's L2 hit and L1 fill, inline
                            m2 = l2.set_mask
                            j = line & m2 if m2 >= 0 else line % l2.n_sets
                            s2 = l2._sets[j]
                            if s2[0] != line:
                                s2.remove(line)
                                s2.insert(0, line)
                                if l2.dirty_sets is not None:
                                    l2.dirty_sets[j] = 1
                            if k != 0 and st == 2:   # EXCLUSIVE -> MODIFIED
                                if dirty is not None:
                                    dirty.add(line)
                                l2s[line] = st = 3
                                l2.version += 1
                            l1.version += 1
                            if len(s) >= l1.assoc:
                                v = s.pop()
                                l1.evictions += 1
                                if states.pop(v) == 3:
                                    l1.writebacks += 1
                                    if v in l2s:   # folds into the L2
                                        if dirty is not None and l2s[v] != 3:
                                            dirty.add(v)
                                        l2s[v] = 3
                                        l2.version += 1
                            s.insert(0, line)
                            states[line] = st
                            lat = fill_lat + 4 if k == 2 else fill_lat
                            l2hits += 1
                            l2lat += lat
                    else:
                        nlines = self._hit_span(cpu, line, last, k != 0)
                        if nlines:
                            lat = l1_lat * nlines + 4 if k == 2 \
                                else l1_lat * nlines
                if lat < 0:
                    if t >= horizon:
                        # lookahead zone: this reference would take the
                        # slow path, which rivals could observe — cut it
                        # unconsumed (its lead-in pending was folded into
                        # t; undo it so the engine re-parks the batch at
                        # the right time)
                        return (consumed, i, t - pends[i], added, None,
                                ext_refs)
                    self.fast_fallbacks += 1
                    if clock is not None and t > clock.now:
                        clock.now = t
                    lat, major = miss(pid, vaddr, sizes[i], k != 0, k == 2,
                                      cpu, t,
                                      paddr if ppn is not None else -1)
                    if major is not None:
                        return consumed + 1, i, t, added, major, ext_refs
                if t >= horizon:
                    ext_refs += 1
                consumed += 1
                added += lat
                i += 1
                if i >= n or consumed >= limit:
                    return consumed, i, t + lat, added, None, ext_refs
                nt = t + lat + pends[i]
                if nt >= ext:
                    return consumed, i, t + lat, added, None, ext_refs
                t = nt
        finally:
            # t is the last issue time: the per-event loop's clock
            if clock is not None and t > clock.now:
                clock.now = t
            self.accesses += fast + l2hits
            self.fast_hits += fast
            l1.hits += fast
            if l2hits:
                l1.misses += l2hits
                l2.hits += l2hits
                self.fast_fallbacks += l2hits
                self.lat_slow += l2lat

    # ------------------------------------------------------------------
    # sampled-simulation fast-forward (see core/sampling.py + DESIGN.md)
    # ------------------------------------------------------------------

    def ff_begin(self, mean_latency: float) -> None:
        """Enter functional fast-forward: references warm the caches but
        are charged a constant ``mean_latency`` (fractional parts spread
        deterministically by an error accumulator)."""
        base = int(mean_latency)
        if base < 0:
            base = 0
        frac = mean_latency - base
        if frac < 0.0 or frac >= 1.0:
            frac = 0.0
        self._ff_base = base
        self._ff_frac = frac
        self._ff_err = 0.0
        self.ff_active = True

    def ff_end(self) -> None:
        """Leave fast-forward; detailed timing resumes on warmed caches."""
        self.ff_active = False

    def _ff_access(self, pid: int, vaddr: int, size: int, write: bool,
                   cpu: int, atomic: bool = False):
        """One reference in fast-forward: translate like the probe (the VMM
        is walked only for an untranslated page, which may allocate —
        uncharged — or major-fault), warm L1/L2 contents, charge the
        calibrated constant latency. The coherence protocol is *not*
        consulted: its guards tolerate the stale directory entries this
        leaves, and the next detail window re-establishes precise sharing
        state on miss. A present line counts a hit and promotes nothing (a
        write flips it to M in the L1 alone, with no version bump: a batch
        classification made before may then decline a hit, never accept a
        decline); an absent line fills L2 then L1 in place, with exactly
        the effects of composing ``Cache.insert`` / ``set_state`` /
        ``invalidate`` (counters, LRU order, versions) and no writeback or
        forget.
        ``tests/test_miss_kernel.py`` holds that composition."""
        pshift = self._page_shift
        if vaddr >= KERNEL_BASE:
            ppn = self._kernel_table.get(vaddr >> pshift)
        else:
            sp = self._spaces.get(pid)
            ppn = sp.table.get(vaddr >> pshift) if sp is not None else None
        if ppn is not None:
            paddr = (ppn << pshift) | (vaddr & self._page_mask)
        else:
            paddr, major, _minor = self.vmm.translate(pid, vaddr, write, cpu)
            if major is not None:
                return 0, major
        self.accesses += 1
        self.ff_refs += 1
        shift = self._line_shift
        line = paddr >> shift
        last = (paddr + (size or 1) - 1) >> shift
        l1 = self.l1s[cpu]
        states = l1._states
        sets = l1._sets
        mask = self._l1_set_mask
        nsets = self._l1_nsets
        l2 = self.l2s[cpu] if self.l2s is not None else None
        l2states = l2._states if l2 is not None else None
        fill = _MODIFIED if write else _SHARED
        dirty = self.dirty
        while line <= last:
            st = states.get(line)
            if st is not None:
                l1.hits += 1
                if write and st < _MODIFIED:
                    states[line] = _MODIFIED
                line += 1
                continue
            l1.misses += 1
            if l2 is not None:
                st = l2states.get(line)
                if dirty is not None and (st is None or fill > st):
                    dirty.add(line)
                if st is None:
                    l2.misses += 1
                    l2.version += 1
                    m2 = l2.set_mask
                    i = line & m2 if m2 >= 0 else line % l2.n_sets
                    s = l2._sets[i]
                    if dirty is not None:
                        l2.dirty_sets[i] = 1
                    if len(s) >= l2.assoc:
                        v = s.pop()
                        if dirty is not None:
                            dirty.add(v)
                        l2.evictions += 1
                        if l2states.pop(v) == _MODIFIED:
                            l2.writebacks += 1
                        # inclusion: the L1 copy of the victim goes too
                        if states.pop(v, None) is not None:
                            sets[v & mask if mask >= 0
                                 else v % nsets].remove(v)
                            l1.invalidations += 1
                            l1.version += 1
                    s.insert(0, line)
                    l2states[line] = fill
                else:
                    l2.hits += 1
                    if fill > st:
                        l2states[line] = fill
                        l2.version += 1
            l1.version += 1
            s = sets[line & mask if mask >= 0 else line % nsets]
            if len(s) >= l1.assoc:
                v = s.pop()
                l1.evictions += 1
                if states.pop(v) == _MODIFIED:
                    l1.writebacks += 1
                    if l2 is not None and v in l2states:
                        if dirty is not None and l2states[v] != _MODIFIED:
                            dirty.add(v)
                        l2states[v] = _MODIFIED
                        l2.version += 1
            s.insert(0, line)
            states[line] = fill
            line += 1
        lat = self._ff_base
        e = self._ff_err + self._ff_frac
        if e >= 1.0:
            e -= 1.0
            lat += 1
        self._ff_err = e
        if atomic:
            lat += 4
        return lat, None

    # ------------------------------------------------------------------

    def _miss(self, pid: int, vaddr: int, size: int, write: bool,
              atomic: bool, cpu: int, now: int,
              paddr: int) -> Tuple[int, Optional[MajorFault]]:
        """The miss kernel: service one reference the probe declined.

        ``access`` and the batched run loop call it after their own probe
        for an L2 miss, an upgrade, a multi-line or untranslated reference,
        and any reference while ``fault_extra`` is set. ``paddr`` is the
        translation that probe made, or -1 when it found none; only then is
        the VMM walked, which may allocate (minor fault, charged here) or
        report a major fault (no timing progress; the engine traps and
        retries).

        Each line of the reference is serviced in order — L1 probe, L2
        probe, protocol call, L2 fill with its inclusion victim, L1 fill —
        as in-place operations on the caches' own dicts and set lists. The
        effects are exactly those of composing ``Cache.lookup`` /
        ``insert`` / ``set_state`` / ``invalidate`` (counters, LRU order
        and ``Cache.version`` bumps included); ``tests/test_miss_kernel.py``
        holds that composition and compares the two.
        """
        latency = 4 if atomic else 0   # bus-locked RMW pipeline cost
        if paddr < 0:
            paddr, major, minor = self.vmm.translate(pid, vaddr, write, cpu)
            if major is not None:
                return 0, major
            if minor:
                latency += self.minor_fault_cycles
        self.accesses += 1
        shift = self._line_shift
        line = paddr >> shift
        last = (paddr + (size or 1) - 1) >> shift
        # a line is marked where its L2 state or protocol entry changes (a
        # fill or an upgrade, and each victim), an L2 set where its contents
        # or LRU order change
        dirty = self.dirty
        proto = self.protocol
        l1 = self.l1s[cpu]
        states = l1._states
        sets = l1._sets
        mask = self._l1_set_mask
        nsets = self._l1_nsets
        l1_lat = self._l1_latency
        if self.l2s is not None:
            l2 = self.l2s[cpu]
            l2states = l2._states
            l2sets = l2._sets
            l2mask = l2.set_mask
            l2nsets = l2.n_sets
            l2dirty = l2.dirty_sets
            fill_lat = l1_lat + l2.cfg.latency
        else:
            # simple hierarchy: L1 is the coherence point
            l2 = l2states = l2dirty = None
            fill_lat = l1_lat
        while line <= last:
            st = states.get(line)
            if st is not None:
                # present, but the reference as a whole did not qualify for
                # the fast path: a write to SHARED, or a sibling line missed
                l1.hits += 1
                s = sets[line & mask if mask >= 0 else line % nsets]
                if s[0] != line:
                    s.remove(line)
                    s.insert(0, line)
                if write and st < _MODIFIED:
                    if dirty is not None:
                        dirty.add(line)
                    if st == _SHARED:
                        up, st = proto.write_miss(cpu, line, now + latency)
                        latency += up
                    else:
                        st = _MODIFIED
                    if line in states:
                        states[line] = st
                        l1.version += 1
                    if l2 is not None and line in l2states:
                        l2states[line] = st
                        l2.version += 1
                latency += l1_lat
                line += 1
                continue
            l1.misses += 1
            t = now + latency + fill_lat
            st = l2states.get(line) if l2 is not None else None
            if st is not None:
                l2.hits += 1
                i = line & l2mask if l2mask >= 0 else line % l2nsets
                s = l2sets[i]
                if s[0] != line:
                    s.remove(line)
                    s.insert(0, line)
                    if l2dirty is not None:
                        l2dirty[i] = 1
                if write and st < _MODIFIED:
                    if dirty is not None:
                        dirty.add(line)
                    if st == _SHARED:
                        up, st = proto.write_miss(cpu, line, t)
                        latency += up
                    else:
                        st = _MODIFIED
                    if line in l2states:
                        l2states[line] = st
                        l2.version += 1
            else:
                # miss at the coherence point
                if dirty is not None:
                    dirty.add(line)
                if write:
                    miss_lat, st = proto.write_miss(cpu, line, t)
                else:
                    miss_lat, st = proto.read_miss(cpu, line, t)
                latency += miss_lat
                t += miss_lat
                if l2 is not None:
                    l2.misses += 1
                    l2.version += 1
                    i = line & l2mask if l2mask >= 0 else line % l2nsets
                    s = l2sets[i]
                    if l2dirty is not None:
                        l2dirty[i] = 1
                    if len(s) >= l2.assoc:
                        v = s.pop()
                        if dirty is not None:
                            dirty.add(v)
                        vst = l2states.pop(v)
                        l2.evictions += 1
                        if vst == _MODIFIED:
                            l2.writebacks += 1
                        s.insert(0, line)
                        l2states[line] = st
                        # inclusion: the L1 copy of the victim goes too,
                        # merging dirtiness
                        l1st = states.pop(v, None)
                        if l1st is not None:
                            sets[v & mask if mask >= 0
                                 else v % nsets].remove(v)
                            l1.invalidations += 1
                            l1.version += 1
                            if l1st == _MODIFIED:
                                vst = _MODIFIED
                        if vst == _MODIFIED:
                            proto.writeback(cpu, v, t)
                        else:
                            proto.forget(cpu, v)
                    else:
                        s.insert(0, line)
                        l2states[line] = st
            # L1 fill; its victim folds into the inclusive L2, or leaves
            # the hierarchy when L1 is the coherence point
            l1.version += 1
            s = sets[line & mask if mask >= 0 else line % nsets]
            if len(s) >= l1.assoc:
                v = s.pop()
                vst = states.pop(v)
                l1.evictions += 1
                s.insert(0, line)
                states[line] = st
                if vst == _MODIFIED:
                    l1.writebacks += 1
                    if l2 is None:
                        if dirty is not None:
                            dirty.add(v)
                        proto.writeback(cpu, v, t)
                    elif v in l2states:
                        if dirty is not None and l2states[v] != _MODIFIED:
                            dirty.add(v)
                        l2states[v] = _MODIFIED
                        l2.version += 1
                elif l2 is None:
                    if dirty is not None:
                        dirty.add(v)
                    proto.forget(cpu, v)
            else:
                s.insert(0, line)
                states[line] = st
            latency += fill_lat
            line += 1
        fe = self.fault_extra
        if fe is not None:
            latency += fe()
        self.lat_slow += latency
        return latency, None

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-data snapshot of the whole memory system: every cache's
        sets/states, the coherence protocol's global line state and shared
        resources, the VMM's translation state, and the counters."""
        return {
            **self._whole_state(),
            "l2": ([c.state_dict() for c in self.l2s]
                   if self.l2s is not None else None),
            "protocol": self.protocol.state_dict(),
        }

    def _whole_state(self) -> dict:
        """The part of :meth:`state_dict` a delta carries whole: the
        counters, the L1s (every hit reorders them), the VMM and the
        fast-forward phase."""
        return {
            "accesses": self.accesses,
            "fast_hits": self.fast_hits,
            "fast_fallbacks": self.fast_fallbacks,
            "l1": [c.state_dict() for c in self.l1s],
            "vmm": self.vmm.state_dict(),
            # sampled fast-forward mode: a checkpoint taken inside an ff
            # window must resume *inside* it, same calibrated latency and
            # error-accumulator phase
            "ff": {
                "active": self.ff_active,
                "refs": self.ff_refs,
                "base": self._ff_base,
                "frac": self._ff_frac,
                "err": self._ff_err,
                "lat_slow": self.lat_slow,
            },
        }

    def track_changes(self) -> None:
        """Start marking what changes (a checkpoint manager attached). A
        line mark covers the line's L2 state in every cache and its
        protocol entry; the miss kernel (the lines it fills or upgrades,
        and every victim), the L2 E->M flips of the hit paths and the
        fast-forward fill mark lines. A protocol's peer drops and
        downgrades are of the line the miss kernel is servicing, which it
        has marked. Each L2 marks its own sets whose contents or LRU order
        move (:attr:`Cache.dirty_sets`). An L1 hit that flips no L2 state
        marks nothing: the L1s go into every delta whole."""
        if self.dirty is None:
            self.dirty = set()
            for c in self.l2s or ():
                c.dirty_sets = bytearray(c.n_sets)

    def clear_changes(self) -> None:
        """Forget the marks: the state as it stands has been captured (or
        installed)."""
        self.dirty.clear()
        for c in self.l2s or ():
            c.dirty_sets[:] = bytes(c.n_sets)

    def state_delta(self) -> dict:
        """What changed since the dirty set was last cleared, for
        :meth:`apply_delta`: :meth:`state_dict` with the L2 states and the
        protocol's line tables cut down to the dirty ``lines``, and only the
        L2 sets each cache marked. A *borrow* like :meth:`state_dict`; the
        caller calls :meth:`clear_changes` once the delta is kept."""
        lines = list(self.dirty)
        return {
            **self._whole_state(),
            "lines": lines,
            "l2": ([c.state_delta(lines) for c in self.l2s]
                   if self.l2s is not None else None),
            "protocol": self.protocol.state_delta(lines),
        }

    @staticmethod
    def apply_delta(state: dict, delta: dict) -> None:
        """Fold a :meth:`state_delta` into ``state``, a plain (owned)
        :meth:`state_dict` taken at the capture before it: the result is
        the ``state_dict()`` of the delta's capture point."""
        lines = delta["lines"]
        for key, value in delta.items():
            if key == "l2":
                if value is not None:
                    for cs, cd in zip(state["l2"], value):
                        Cache.apply_delta(cs, cd, lines)
            elif key == "protocol":
                CoherenceProtocol.apply_delta(state["protocol"], value, lines)
            elif key != "lines":
                state[key] = value

    def load_state(self, state: dict) -> None:
        """Restore a snapshot in place; all fast-path container references
        (``_kernel_table``, ``_spaces``, ``_l1_states`` …) stay valid
        because every component mutates its containers rather than
        replacing them."""
        self.accesses = state["accesses"]
        self.fast_hits = state["fast_hits"]
        self.fast_fallbacks = state["fast_fallbacks"]
        for c, cs in zip(self.l1s, state["l1"]):
            c.load_state(cs)
        if self.l2s is not None and state["l2"] is not None:
            for c, cs in zip(self.l2s, state["l2"]):
                c.load_state(cs)
        self.protocol.load_state(state["protocol"])
        self.vmm.load_state(state["vmm"])
        ff = state.get("ff")
        if ff is not None:
            self.ff_active = ff["active"]
            self.ff_refs = ff["refs"]
            self._ff_base = ff["base"]
            self._ff_frac = ff["frac"]
            self._ff_err = ff["err"]
            self.lat_slow = ff["lat_slow"]

    # -- reporting ------------------------------------------------------------

    def cache_summary(self) -> dict:
        """Hit/miss totals for every cache plus protocol counters."""
        out = {
            "l1": {c.name: (c.hits, c.misses) for c in self.l1s},
            "protocol": dict(self.protocol.counters),
            "minor_faults": self.vmm.minor_faults,
            "major_faults": self.vmm.major_faults,
        }
        if self.l2s is not None:
            out["l2"] = {c.name: (c.hits, c.misses) for c in self.l2s}
        return out
