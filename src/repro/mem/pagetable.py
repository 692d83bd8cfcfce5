"""Virtual memory management (category-2 OS function, paper §3.3.1).

Per-process page tables, the shared-memory descriptor model, file mappings
and the home-node map. The paper keeps "a hash table of the home nodes of
each of the pages hashed by physical address" in the backend; here the home
node is computable from the physical frame number (frames are allocated from
per-node pools), and the page tables map virtual page number → frame.

Address layout (AIX-flavoured 32-bit):

* user space:    0x0000_0000 .. 0xBFFF_FFFF (private per process)
* kernel space:  0xC000_0000 .. 0xFFFF_FFFF (one shared kernel page table)

Translation performs allocation-on-first-touch for anonymous and shared
pages (minor faults, counted and costed by the engine). References to
file-backed pages with no resident frame report a *major* fault, which the
engine services through the buffer cache / disk path before retrying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import ConfigError, MemoryError_, ReplayDivergence
from .cache import refill
from .placement import PagePlacement

KERNEL_BASE = 0xC000_0000
USER_LIMIT = KERNEL_BASE


class PhysMem:
    """Per-node physical frame pools.

    Frame numbers are global; ``home_node(ppn)`` recovers the owning node in
    O(1), replacing the paper's physical-address hash table.
    """

    def __init__(self, num_nodes: int, node_bytes: int, page_size: int) -> None:
        if node_bytes % page_size:
            raise ConfigError("node memory must be a multiple of page size")
        self.num_nodes = num_nodes
        self.page_size = page_size
        self.frames_per_node = node_bytes // page_size
        self._next = [0] * num_nodes
        self.allocated = 0

    def alloc(self, node: int) -> int:
        """Allocate one frame on ``node`` (spilling to the next node with
        free frames when full). Returns the global frame number."""
        n = self.num_nodes
        for k in range(n):
            cand = (node + k) % n
            if self._next[cand] < self.frames_per_node:
                ppn = cand * self.frames_per_node + self._next[cand]
                self._next[cand] += 1
                self.allocated += 1
                return ppn
        raise MemoryError_("out of physical memory on all nodes")

    def home_node(self, ppn: int) -> int:
        """Owning NUMA node of a frame."""
        return ppn // self.frames_per_node

    def state_dict(self) -> dict:
        return {"next": list(self._next), "allocated": self.allocated}

    def load_state(self, state: dict) -> None:
        self._next[:] = state["next"]
        self.allocated = state["allocated"]


@dataclass
class SharedSegment:
    """The paper's *common shared memory descriptor* (shmget model).

    Links a shared-memory key to one system-wide page array; every attaching
    process's page table entries resolve into the same frames.
    """

    shmid: int
    key: int
    size: int
    #: per-page frame numbers; None until placed (first touch) or filled
    #: eagerly at creation (round-robin / block)
    pages: List[Optional[int]] = field(default_factory=list)
    nattach: int = 0

    def npages(self, page_size: int) -> int:
        return (self.size + page_size - 1) // page_size


@dataclass
class Vma:
    """One mapped region of a process address space."""

    start: int
    end: int                       # exclusive
    kind: str                      # "anon" | "shm" | "file"
    segment: Optional[SharedSegment] = None
    file_key: Optional[object] = None   # opaque file identity (inode)
    file_offset: int = 0
    shared_file: bool = True

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end


class _Space:
    """Page table + region list for one address space."""

    __slots__ = ("table", "vmas", "version")

    def __init__(self) -> None:
        self.table: Dict[int, int] = {}       # vpn -> ppn
        self.vmas: List[Vma] = []
        #: bumped on every page-table mutation; a batch classification
        #: (mem/vec.py) is keyed on it
        self.version = 0

    def find_vma(self, vaddr: int) -> Optional[Vma]:
        for v in self.vmas:
            if v.contains(vaddr):
                return v
        return None


class MajorFault:
    """Reported when a reference touches a non-resident file-backed page.

    The engine runs the VM trap path: read the page via the buffer cache
    (possibly blocking on disk), then call :meth:`Vmm.install_file_page` and
    retry the translation.
    """

    __slots__ = ("pid", "vaddr", "vma", "vpn", "page_index")

    def __init__(self, pid: int, vaddr: int, vma: Vma, vpn: int,
                 page_index: int) -> None:
        self.pid = pid
        self.vaddr = vaddr
        self.vma = vma
        self.vpn = vpn
        #: index of the faulting page within the backing file
        self.page_index = page_index


class Vmm:
    """The backend's virtual-memory manager."""

    def __init__(self, num_nodes: int, node_bytes: int, page_size: int,
                 placement: str, num_cpus: int) -> None:
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self.phys = PhysMem(num_nodes, node_bytes, page_size)
        self.placement = PagePlacement(placement, num_nodes)
        self.num_nodes = num_nodes
        #: node of each cpu (cpus striped across nodes in order)
        self.cpu_node = [c * num_nodes // num_cpus for c in range(num_cpus)]
        self._spaces: Dict[int, _Space] = {}
        self._kernel = _Space()
        self._kernel.vmas.append(Vma(KERNEL_BASE, 0x1_0000_0000, "anon"))
        self._segments: Dict[int, SharedSegment] = {}
        self._key_to_shmid: Dict[int, int] = {}
        self._next_shmid = 1
        #: file pages resident in memory: (file_key, page_index) -> ppn
        self._file_pages: Dict[Tuple[object, int], int] = {}
        # statistics
        self.minor_faults = 0
        self.major_faults = 0

    # -- spaces ----------------------------------------------------------

    def new_space(self, pid: int) -> None:
        """Create the address space for process ``pid``."""
        if pid in self._spaces:
            raise MemoryError_(f"pid {pid} already has an address space")
        self._spaces[pid] = _Space()

    def space_of(self, pid: int) -> _Space:
        sp = self._spaces.get(pid)
        if sp is None:
            raise MemoryError_(f"pid {pid} has no address space")
        return sp

    # -- mapping ------------------------------------------------------------

    def map_anon(self, pid: int, base: int, size: int) -> None:
        """Map private zero-fill memory (heap, stack, bss)."""
        self._add_vma(pid, Vma(base, base + size, "anon"))

    def map_file(self, pid: int, base: int, size: int, file_key: object,
                 offset: int = 0, shared: bool = True) -> None:
        """mmap a file region (paper's mmap; TPC-D's dominant OS call)."""
        self._add_vma(pid, Vma(base, base + size, "file", file_key=file_key,
                               file_offset=offset, shared_file=shared))

    def unmap(self, pid: int, base: int) -> Vma:
        """munmap the region starting at ``base``; page-table entries for the
        region are dropped (frames are not reclaimed — the simulator never
        reuses frames, keeping home-node identity stable)."""
        sp = self.space_of(pid)
        for i, v in enumerate(sp.vmas):
            if v.start == base:
                del sp.vmas[i]
                for vpn in range(v.start >> self._page_shift,
                                 ((v.end - 1) >> self._page_shift) + 1):
                    sp.table.pop(vpn, None)
                sp.version += 1
                if v.kind == "shm" and v.segment is not None:
                    v.segment.nattach -= 1
                return v
        raise MemoryError_(f"pid {pid}: no mapping at {base:#x}")

    def _add_vma(self, pid: int, vma: Vma) -> None:
        if vma.end > USER_LIMIT:
            raise MemoryError_(
                f"mapping [{vma.start:#x},{vma.end:#x}) crosses kernel base"
            )
        sp = self.space_of(pid)
        for v in sp.vmas:
            if vma.start < v.end and v.start < vma.end:
                raise MemoryError_(
                    f"pid {pid}: mapping overlaps [{v.start:#x},{v.end:#x})"
                )
        sp.vmas.append(vma)

    # -- shared memory (shmget / shmat / shmdt) ------------------------------

    def shmget(self, key: int, size: int) -> int:
        """Create (or look up) the common shared-memory descriptor for
        ``key``; returns the shmid. For round-robin/block placement the home
        nodes are assigned now, at page-creation time (paper §3.3.1)."""
        if key in self._key_to_shmid:
            return self._key_to_shmid[key]
        shmid = self._next_shmid
        self._next_shmid += 1
        seg = SharedSegment(shmid=shmid, key=key, size=size)
        npages = seg.npages(self.page_size)
        seg.pages = [None] * npages
        if self.placement.policy in ("round_robin", "block"):
            for i in range(npages):
                node = self.placement.place(i, npages, 0)
                seg.pages[i] = self.phys.alloc(node)
        self._segments[shmid] = seg
        self._key_to_shmid[key] = shmid
        return shmid

    def shmat(self, pid: int, shmid: int, base: int) -> int:
        """Attach segment ``shmid`` at ``base``; creates the VMA (page-table
        entries materialise on reference). Returns the attach address."""
        seg = self._segments.get(shmid)
        if seg is None:
            raise MemoryError_(f"no shared segment {shmid}")
        self._add_vma(pid, Vma(base, base + seg.size, "shm", segment=seg))
        seg.nattach += 1
        return base

    def shmdt(self, pid: int, base: int) -> None:
        """Detach the segment mapped at ``base``."""
        self.unmap(pid, base)

    def segment(self, shmid: int) -> SharedSegment:
        seg = self._segments.get(shmid)
        if seg is None:
            raise MemoryError_(f"no shared segment {shmid}")
        return seg

    # -- file page residency (used by the VM trap path) ----------------------

    def install_file_page(self, file_key: object, page_index: int,
                          node: int) -> int:
        """Make a file page resident (called by the major-fault handler after
        the disk read); idempotent. Returns the frame."""
        k = (file_key, page_index)
        ppn = self._file_pages.get(k)
        if ppn is None:
            ppn = self.phys.alloc(node)
            self._file_pages[k] = ppn
        return ppn

    # -- translation ----------------------------------------------------------

    def translate(self, pid: int, vaddr: int, write: bool,
                  cpu: int) -> Tuple[int, Optional[MajorFault], bool]:
        """Translate a reference to ``(paddr, major_fault, minor_fault)``.

        Minor faults (anonymous/shared/kernel first touch) are serviced
        inline: the frame is allocated by the placement policy and the flag
        returned so the engine can charge the trap cost. A major fault
        returns a :class:`MajorFault` and no paddr progress (paddr is 0).
        """
        ps = self.page_size
        shift = self._page_shift
        vpn = vaddr >> shift
        offset = vaddr & (ps - 1)

        if vaddr >= KERNEL_BASE:
            sp = self._kernel
            ppn = sp.table.get(vpn)
            if ppn is not None:
                return (ppn * ps + offset, None, False)
            # kernel first touch: place near the accessing CPU
            node = self.placement.place(vpn & 0xFFFF, 0, self.cpu_node[cpu])
            ppn = self.phys.alloc(node)
            sp.table[vpn] = ppn
            sp.version += 1
            self.minor_faults += 1
            return (ppn * ps + offset, None, True)

        sp = self.space_of(pid)
        ppn = sp.table.get(vpn)
        if ppn is not None:
            return (ppn * ps + offset, None, False)

        vma = sp.find_vma(vaddr)
        if vma is None:
            raise MemoryError_(
                f"pid {pid}: segmentation fault at {vaddr:#x} "
                f"({'write' if write else 'read'})"
            )
        if vma.kind == "anon":
            node = self.placement.place(vpn - (vma.start >> shift),
                                        (vma.end - vma.start) // ps,
                                        self.cpu_node[cpu])
            ppn = self.phys.alloc(node)
            sp.table[vpn] = ppn
            sp.version += 1
            self.minor_faults += 1
            return (ppn * ps + offset, None, True)
        if vma.kind == "shm":
            seg = vma.segment
            idx = vpn - (vma.start >> shift)
            if idx >= len(seg.pages):
                raise MemoryError_(f"pid {pid}: past end of shm segment")
            ppn = seg.pages[idx]
            if ppn is None:   # first touch placement
                node = self.placement.place(idx, len(seg.pages),
                                            self.cpu_node[cpu])
                ppn = self.phys.alloc(node)
                seg.pages[idx] = ppn
            sp.table[vpn] = ppn
            sp.version += 1
            self.minor_faults += 1
            return (ppn * ps + offset, None, True)
        # file-backed
        page_index = (vma.file_offset + (vaddr - vma.start)) // ps
        k = (vma.file_key, page_index)
        ppn = self._file_pages.get(k)
        if ppn is not None:
            sp.table[vpn] = ppn
            sp.version += 1
            self.minor_faults += 1
            return (ppn * ps + offset, None, True)
        self.major_faults += 1
        return (0, MajorFault(pid, vaddr, vma, vpn, page_index), False)

    def home_of_paddr(self, paddr: int) -> int:
        """NUMA home node of a physical address."""
        return self.phys.home_node(paddr // self.page_size)

    def line_home_fn(self, line_size: int):
        """``line address -> NUMA home node`` as one flat function (frames
        come from per-node pools, so a node's lines are contiguous): what
        the coherence protocols call once per outer-level miss."""
        lines_per_node = (self.phys.frames_per_node
                          * (self.page_size // line_size))
        return lambda line: line // lines_per_node

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-data snapshot of translation state. VMAs are *not* here:
        they are rebuilt live by the replayed mmap/shmat calls; only the
        frame assignments (which depend on allocation order, not replayable
        without the backend) need installing. A *borrow*: the page tables,
        segment page arrays and file-page map are the Vmm's own containers,
        valid until it next runs; pickle or deep-copy to keep."""
        return {
            "spaces": {pid: sp.table for pid, sp in self._spaces.items()},
            "kernel_table": self._kernel.table,
            "segments": {shmid: {"pages": seg.pages, "nattach": seg.nattach}
                         for shmid, seg in self._segments.items()},
            "key_to_shmid": dict(self._key_to_shmid),
            "next_shmid": self._next_shmid,
            "file_pages": self._file_pages,
            "phys": self.phys.state_dict(),
            "minor_faults": self.minor_faults,
            "major_faults": self.major_faults,
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot into a live Vmm whose spaces/segments were
        already recreated (by replayed spawns and shm calls). Containers are
        mutated in place — the memory system's fast path holds direct
        references to ``_kernel.table`` and ``_spaces``."""
        snap_pids = set(state["spaces"])
        live_pids = set(self._spaces)
        if snap_pids != live_pids:
            raise ReplayDivergence(
                f"address spaces diverged: snapshot pids {sorted(snap_pids)}"
                f" vs live {sorted(live_pids)}")
        for pid, table in state["spaces"].items():
            sp = self._spaces[pid]
            refill(sp.table, table)
            sp.version += 1
        refill(self._kernel.table, state["kernel_table"])
        self._kernel.version += 1
        for shmid, seg_state in state["segments"].items():
            seg = self._segments.get(shmid)
            if seg is None:
                raise ReplayDivergence(f"shared segment {shmid} missing")
            seg.pages[:] = seg_state["pages"]
            seg.nattach = seg_state["nattach"]
        refill(self._key_to_shmid, state["key_to_shmid"])
        self._next_shmid = state["next_shmid"]
        refill(self._file_pages, state["file_pages"])
        self.phys.load_state(state["phys"])
        self.minor_faults = state["minor_faults"]
        self.major_faults = state["major_faults"]
