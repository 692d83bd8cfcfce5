"""The multi-threaded OS server (paper §3.1).

A stand-alone pool of *OS threads*; each thread pairs one-to-one with a user
process at connection time and provides its kernel services, sharing one
kernel address space with all other OS threads. Kernel service routines are
instrumented like application code: their memory references flow through the
paired process's event port (the thread "uses the same event port of the
former"), land in kernel addresses, and are charged to kernel time.

Mechanically, a category-1 syscall pushes the service generator onto the
calling process's frame stack (mode="kernel") — equivalent to the paper's
send-request/halt/resume protocol over the OS port, with the same event-port
sharing. Category-2 syscalls are plain backend functions (§3.3): immediate
functional effect + a direct cycle charge, no instrumented kernel references.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..core import events as ev
from ..core.errors import OSError_
from ..core.frontend import Proc, SimProcess, WaitToken
from ..devices.disk import DiskRequest
from ..mem.pagetable import MajorFault
from . import kmem
from .buffercache import BufferCache
from .filesystem import BLOCK_SIZE, FileSystem, Inode
from .tcpip import TcpIpStack

#: cycles of kernel entry/exit path per category-1 syscall (trap, MSR save,
#: argument copyin) — calibrated to keep small syscalls ~1-2 µs at 133 MHz
SYSCALL_ENTRY_CYCLES = 180
#: copy loop: cycles of kernel ALU work per cache line moved
COPY_WORK_PER_LINE = 2
#: the copy loop's reference kinds, bound once (not an ``EvKind`` lookup each)
_READ = int(ev.EvKind.READ)
_WRITE = int(ev.EvKind.WRITE)


class OSThread:
    """One thread of the OS server pool."""

    __slots__ = ("tid", "state", "proc")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.state = "single"      # "single" | "paired"
        self.proc: Optional[SimProcess] = None

    @property
    def kstack(self) -> int:
        """Base kernel address of this thread's stack."""
        return kmem.kstack_addr(self.tid)

    def __repr__(self) -> str:  # pragma: no cover
        who = self.proc.name if self.proc else "-"
        return f"OSThread(tid={self.tid}, {self.state}, proc={who})"


class FdEntry:
    """Per-process file-descriptor table entry."""

    __slots__ = ("kind", "ino", "sid", "offset", "path")

    def __init__(self, kind: str, ino: int = -1, sid: int = -1,
                 path: str = "") -> None:
        self.kind = kind          # "file" | "socket"
        self.ino = ino
        self.sid = sid
        self.offset = 0
        self.path = path


class Sys:
    """Per-call context handed to category-1 syscall handlers.

    Carries the engine, the OS server subsystems, the calling process and a
    :class:`~repro.core.frontend.Proc` for emitting kernel-mode events, plus
    the shared copy/readahead helpers.
    """

    __slots__ = ("engine", "server", "proc", "k", "thread")

    def __init__(self, server: "OSServer", proc: SimProcess) -> None:
        self.server = server
        self.engine = server.engine
        self.proc = proc
        self.k = Proc(proc)
        self.thread = proc.os_thread

    # -- conveniences ---------------------------------------------------------

    @property
    def now(self) -> int:
        return self.engine.gsched.now

    @property
    def fs(self) -> FileSystem:
        return self.server.fs

    @property
    def bufcache(self) -> BufferCache:
        return self.server.bufcache

    @property
    def net(self) -> TcpIpStack:
        return self.server.net

    @property
    def faults(self):
        """The engine's fault injector, or None when faults are disabled
        (so call sites stay a single is-None test on fault-free runs)."""
        fi = self.engine.faults
        return fi if fi.enabled else None

    def fd(self, fdno: int) -> Optional[FdEntry]:
        return self.server.fd_entry(self.proc.pid, fdno)

    def result(self, value: Any = 0, errno: int = 0,
               data: Any = None) -> ev.SyscallResult:
        return ev.SyscallResult(value, errno, data)

    def error(self, errno: int) -> ev.SyscallResult:
        return ev.SyscallResult(-1, errno)

    # -- instrumented kernel building blocks ---------------------------------

    def entry(self, extra: int = 0) -> None:
        """Charge the fixed syscall entry path + thread-stack activity."""
        self.k.compute(SYSCALL_ENTRY_CYCLES + extra)

    def copy_block(self, src: int, dst: int, nbytes: int):
        """Copy ``nbytes`` src→dst, one read+write event per cache line —
        the dominant memory behaviour of kreadv/kwritev/send."""
        if nbytes <= 0:
            return 0
        line = self.engine.cfg.backend.l1.line_size
        k = self.k
        total = 0
        off = 0
        if self.proc.batching:
            # batched pipeline: same read+write pair and compute cost per
            # line (none while events are off, as k.compute), published as
            # bulk-filled EventBatches instead of per-reference yields
            work = COPY_WORK_PER_LINE if self.proc.events_enabled else 0
            return (yield from ev.strided_batches(
                [0, 1], (src, dst), nbytes, line, work, self.proc.clock))
        while off < nbytes:
            step = min(line, nbytes - off)
            k.compute(COPY_WORK_PER_LINE)
            total += yield ev.Event(_READ, src + off, step)
            total += yield ev.Event(_WRITE, dst + off, step)
            off += line
        return total

    def read_block_into_cache(self, ino: Inode, blk: int):
        """Ensure file block ``blk`` is buffer-cache resident; blocks the
        process on the disk on a miss. Returns the buffer slot."""
        bc = self.bufcache
        k = self.k
        yield from k.lock(kmem.KLOCK_BUFCACHE)
        slot = bc.lookup(ino.ino, blk)
        yield from k.load(kmem.file_entry_addr(ino.ino))
        if slot is not None:
            yield from k.load(bc.hdr_addr(slot))
            yield from k.unlock(kmem.KLOCK_BUFCACHE)
            return slot
        slot, evicted = bc.install(ino.ino, blk)
        yield from k.store(bc.hdr_addr(slot))
        # the cache lock is NOT held across the disk wait (per-buffer busy
        # bits protect the slot in a real kernel)
        yield from k.unlock(kmem.KLOCK_BUFCACHE)
        if evicted is not None and evicted[2]:
            # delayed write of the displaced dirty buffer (no blocking)
            evino, evblk, _ = evicted
            try:
                evnode = self.fs.inode(evino)
                req = DiskRequest(evnode.disk_offset(evblk), bc.bsize, True)
                self.engine.disk.submit(req, self.now)
            except OSError_:
                pass   # file deleted while dirty: drop the write
        req = DiskRequest(ino.disk_offset(blk), bc.bsize, False)
        token = WaitToken(f"diskread:{ino.ino}:{blk}")
        req.actions.append(token.wake)
        self.engine.disk.submit(req, self.now)
        k.compute(600)   # driver strategy routine + sleep
        yield token
        fi = self.faults
        if fi is not None and fi.disk_read_error():
            # transient media error reported at iodone: the driver logs it
            # and re-issues the request once; data is valid after the retry
            k.compute(1500)   # error log + strategy re-issue
            retry = DiskRequest(ino.disk_offset(blk), bc.bsize, False)
            rtok = WaitToken(f"diskretry:{ino.ino}:{blk}")
            retry.actions.append(rtok.wake)
            self.engine.disk.submit(retry, self.now)
            yield rtok
        k.compute(400)   # iodone, buffer valid
        return slot

    def write_block_through_cache(self, ino: Inode, blk: int,
                                  sync: bool = False):
        """Dirty file block ``blk`` in the cache; synchronous writes block on
        the disk. Returns the buffer slot."""
        bc = self.bufcache
        k = self.k
        yield from k.lock(kmem.KLOCK_BUFCACHE)
        slot, evicted = bc.install(ino.ino, blk)
        yield from k.store(bc.hdr_addr(slot))
        yield from k.unlock(kmem.KLOCK_BUFCACHE)
        if evicted is not None and evicted[2]:
            evino, evblk, _ = evicted
            try:
                evnode = self.fs.inode(evino)
                req = DiskRequest(evnode.disk_offset(evblk), bc.bsize, True)
                self.engine.disk.submit(req, self.now)
            except OSError_:
                pass
        if sync:
            req = DiskRequest(ino.disk_offset(blk), bc.bsize, True)
            token = WaitToken(f"diskwrite:{ino.ino}:{blk}")
            req.actions.append(token.wake)
            self.engine.disk.submit(req, self.now)
            k.compute(600)
            yield token
            bc.clean(ino.ino, blk)
        else:
            bc.mark_dirty(ino.ino, blk)
        return slot


#: handler type aliases (documentation only)
Category1Handler = Callable[..., Generator]
Category2Handler = Callable[..., Tuple[ev.SyscallResult, int]]


def syscall_handler(name: str, category: int):
    """Decorator marking a module-level syscall handler for registration."""
    def wrap(fn):
        fn._syscall = (name, category)
        return fn
    return wrap


class OSServer:
    """Thread pool + syscall registry + kernel subsystems."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.threads: List[OSThread] = []
        self._free_threads: List[OSThread] = []
        self._next_tid = 0
        self.fs = FileSystem()
        self.bufcache = BufferCache()
        self.net = TcpIpStack(engine.nic)
        #: readahead blocks issued by the file-read path
        self.readahead = 0
        #: pid -> {fd -> FdEntry}
        self._fdtables: Dict[int, Dict[int, FdEntry]] = {}
        self._registry: Dict[str, Tuple[int, Callable]] = {}
        self._register_builtin()

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Verification snapshot of kernel bookkeeping that replay rebuilds:
        thread-pool shape, per-process fd tables, readahead counter."""
        return {
            "next_tid": self._next_tid,
            "free_threads": sorted(t.tid for t in self._free_threads),
            "readahead": self.readahead,
            "fdtables": {pid: {fd: (e.kind, e.ino, e.sid, e.offset, e.path)
                               for fd, e in table.items()}
                         for pid, table in self._fdtables.items()},
            "bufcache": self.bufcache.state_dict(),
            "net": self.net.state_dict(),
        }

    # -- registry ----------------------------------------------------------

    def register(self, name: str, category: int, handler: Callable) -> None:
        """Install a syscall. New services can be added without touching the
        rest of the simulator — the extensibility §3.1 argues for."""
        if category not in (1, 2):
            raise OSError_(f"syscall {name}: category must be 1 or 2")
        self._registry[name] = (category, handler)

    def register_module(self, module) -> None:
        """Register every ``@syscall_handler`` function in ``module``."""
        for obj in vars(module).values():
            marker = getattr(obj, "_syscall", None)
            if marker is not None:
                name, cat = marker
                self.register(name, cat, obj)

    def lookup(self, name: str) -> Optional[Tuple[int, Callable]]:
        return self._registry.get(name)

    def syscall_names(self) -> List[str]:
        return sorted(self._registry)

    def _register_builtin(self) -> None:
        from .syscalls import fs as fs_calls
        from .syscalls import net as net_calls
        from .syscalls import ipc as ipc_calls
        from .syscalls import misc as misc_calls
        for mod in (fs_calls, net_calls, ipc_calls, misc_calls):
            self.register_module(mod)

    # -- pairing (OS port connection protocol) --------------------------------

    def pair(self, proc: SimProcess) -> OSThread:
        """Bind a single OS thread to a new frontend process."""
        if self._free_threads:
            th = self._free_threads.pop()
        else:
            th = OSThread(self._next_tid)
            self._next_tid += 1
            self.threads.append(th)
        th.state = "paired"
        th.proc = proc
        proc.os_thread = th
        self._fdtables.setdefault(proc.pid, {})
        return th

    def unpair(self, proc: SimProcess) -> None:
        """EXIT message: the thread becomes single again."""
        th = proc.os_thread
        if th is not None:
            th.state = "single"
            th.proc = None
            proc.os_thread = None
            self._free_threads.append(th)
        # close straggler fds
        table = self._fdtables.get(proc.pid)
        if table:
            for entry in list(table.values()):
                if entry.kind == "socket":
                    self.net.close(entry.sid)
            table.clear()

    def context_for(self, proc: SimProcess) -> Sys:
        return Sys(self, proc)

    # -- fd table ----------------------------------------------------------

    def fd_alloc(self, pid: int, entry: FdEntry) -> int:
        table = self._fdtables.setdefault(pid, {})
        if len(table) >= self.engine.cfg.os.max_fds:
            return -1
        fd = 3
        while fd in table:
            fd += 1
        table[fd] = entry
        return fd

    def fd_entry(self, pid: int, fd: int) -> Optional[FdEntry]:
        return self._fdtables.get(pid, {}).get(fd)

    def fd_close(self, pid: int, fd: int) -> Optional[FdEntry]:
        return self._fdtables.get(pid, {}).pop(fd, None)

    # -- the VM trap path (major faults on mmapped files) ---------------------

    def vm_fault_handler(self, proc: SimProcess, fault: MajorFault):
        """Kernel frame servicing a file-backed page fault: read the page
        through the buffer cache (blocking on disk when absent), install the
        frame, fix the page table, return — after which the engine retries
        the faulting reference (§3.2's precise-trap property)."""
        sys = self.context_for(proc)

        def handler():
            sys.entry(420)   # trap prologue + VMM lookup
            ino = self.fs.inode(fault.vma.file_key)
            ps = self.engine.cfg.backend.memory.page_size
            blocks_per_page = max(1, ps // BLOCK_SIZE)
            first = fault.page_index * blocks_per_page
            for b in range(first, first + blocks_per_page):
                yield from sys.read_block_into_cache(ino, b)
            node = self.engine.memsys.vmm.cpu_node[max(proc.cpu, 0)]
            ppn = self.engine.memsys.vmm.install_file_page(
                fault.vma.file_key, fault.page_index, node)
            space = self.engine.memsys.vmm.space_of(proc.pid)
            space.table[fault.vpn] = ppn
            sys.k.compute(250)   # PTE insert + TLB reload
            return None

        return handler()
