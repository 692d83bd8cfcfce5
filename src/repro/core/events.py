"""Event vocabulary exchanged between frontends and the backend.

In COMPASS, instrumented frontend code fills out an *event data structure*
for every memory reference (reference type, effective address, size, cycle of
issue) and passes it to the backend through the event port. Synchronisation
instructions and OS calls also produce events. This module defines those
records.

Events are small ``__slots__`` objects. A memory reference from the
:class:`~repro.core.frontend.Proc` API allocates none: each ``Proc`` refills
one reusable ``Event``, its slot, per reference. Runs of references travel
as pooled :class:`EventBatch` objects. Fresh events are made for
control events (syscalls, locks, barriers, exits) and by the per-event
fallbacks of the other producers (see DESIGN.md, "The per-reference event
path").
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Optional, Tuple


class EvKind(IntEnum):
    """Discriminator for :class:`Event` payloads."""

    #: Data load. ``addr``/``size`` give the virtual reference.
    READ = 0
    #: Data store.
    WRITE = 1
    #: Atomic read-modify-write (lwarx/stwcx-style); used by lock models.
    RMW = 2
    #: Pure time synchronisation: no memory traffic, just publishes the
    #: frontend's execution-time so interleaving stays fine-grained across
    #: long computation stretches, and gives the engine an interrupt-poll
    #: point (the paper polls at memory/branch instructions).
    ADVANCE = 3
    #: Acquire a simulated lock (arg = lock id). May block the entity.
    LOCK = 4
    #: Release a simulated lock (arg = lock id).
    UNLOCK = 5
    #: Barrier arrival (arg = (barrier id, participant count)).
    BARRIER = 6
    #: OS call: ``arg`` is ``(name, args_tuple)``. Routed to the OS server
    #: (category 1) or handled directly in the backend (category 2).
    SYSCALL = 7
    #: Frontend announces termination (sent before the coroutine returns,
    #: mirroring the EXIT message that unpairs the OS thread).
    EXIT = 8
    #: A pooled :class:`EventBatch` — a run of consecutive memory references
    #: published through the port as one message (the batched hot path).
    BATCH = 9


#: Kinds that reference simulated memory.
MEMORY_KINDS = frozenset({EvKind.READ, EvKind.WRITE, EvKind.RMW})

#: Kinds that the communicator forwards straight to the memory system.
_KIND_NAMES = {k.value: k.name for k in EvKind}


class Event:
    """One frontend→backend message.

    An ``Event`` is not necessarily fresh: a ``Proc``'s memory macros
    yield the same instance, refilled, for every reference. The engine
    must not hold an event past the step that resumes its producer, except
    as a faulting reference's retry frame, which ends before it resumes.

    Attributes
    ----------
    kind:
        An :class:`EvKind` value (stored as a plain int for speed).
    addr, size:
        Virtual address and byte size for memory kinds; 0 otherwise.
    arg:
        Kind-specific payload (lock id, barrier tuple, syscall tuple).
    time:
        The issuing entity's execution-time (cycles) when the event was
        generated; filled in by the engine from the entity clock, exactly as
        the instrumentation fills the cycle field in the paper.
    pid:
        Simulated process id of the issuer (filled in by the engine).
    kernel:
        True when the reference was generated in kernel mode (by OS-server
        code); such references translate through the kernel address space.
    """

    __slots__ = ("kind", "addr", "size", "arg", "time", "pid", "kernel", "mode")

    def __init__(
        self,
        kind: int,
        addr: int = 0,
        size: int = 0,
        arg: Any = None,
    ) -> None:
        self.kind = kind
        self.addr = addr
        self.size = size
        self.arg = arg
        self.time = 0
        self.pid = -1
        self.kernel = False
        #: charge bucket of the generating code: "user"|"kernel"|"interrupt"
        self.mode = "user"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = _KIND_NAMES.get(self.kind, str(self.kind))
        return (
            f"Event({name}, addr={self.addr:#x}, size={self.size}, "
            f"arg={self.arg!r}, t={self.time}, pid={self.pid}, "
            f"{'kernel' if self.kernel else 'user'})"
        )


#: monotone id distinguishing batch *contents*: reused pool objects get a
#: fresh serial on every refill, so a serial uniquely names one filling
_serial_counter = [0]


def _next_serial() -> int:
    _serial_counter[0] += 1
    return _serial_counter[0]


class EventBatch:
    """A run of consecutive memory references from one frontend frame.

    The per-reference round trip (suspend generator → handle → resume) is
    the simulator's dominant cost; a batch carries up to :data:`BATCH_CAP`
    references in parallel arrays so the engine can service them in a tight
    loop without re-entering the generator. Semantics are identical to
    yielding the references one by one:

    * ``pendings[i]`` holds the statically-known cycles accumulated *before*
      reference ``i`` (what the per-event path would fold into the event's
      time stamp), so each reference's issue time is reconstructed exactly;
    * ``time`` is the absolute issue time of the reference at ``cursor``
      (the port timestamp the communicator orders on);
    * the engine advances ``cursor``/``total`` as it consumes references and
      may re-park a half-consumed batch at the port (conservative-ordering
      cut) or on ``pending_batches`` (interrupt/fault frames pushed above
      it); the generator resumes only once, receiving ``total``.

    Batches are pooled (:func:`acquire_batch` / :func:`release_batch`): a
    producer reuses one batch object for its whole life, so the hot loop
    allocates nothing.
    """

    #: class-level Event protocol: a batch is its own kind, has no payload
    kind = int(EvKind.BATCH)
    arg = None

    __slots__ = ("kinds", "addrs", "sizes", "pendings", "n", "cursor",
                 "total", "time", "pid", "kernel", "mode", "depth",
                 "serial", "uhint")

    def __init__(self) -> None:
        self.serial = _next_serial()
        #: producer hint ``(kind, stride, work_per_ref)``: set by a producer
        #: that filled the WHOLE batch as one arithmetic reference stream —
        #: every kind equal, addresses stepping by ``stride`` with sizes
        #: ``stride``, and every pending after the first ``work_per_ref``.
        #: Purely an accelerator hint (mem/vec.py keys the filling's
        #: classification on it, so a warm re-scan of the same buffer reuses
        #: one across batches); None = no structure claimed.
        self.uhint = None
        self.kinds: list = []
        self.addrs: list = []
        self.sizes: list = []
        self.pendings: list = []
        self.n = 0
        self.cursor = 0
        self.total = 0
        self.time = 0
        self.pid = -1
        self.kernel = False
        self.mode = "user"
        #: frame-stack depth a half-consumed batch was parked under (engine)
        self.depth = 0

    def append(self, kind: int, addr: int, size: int, pending: int) -> None:
        """Add one reference (caller zeroes its pending-cycle counter)."""
        self.kinds.append(kind)
        self.addrs.append(addr)
        self.sizes.append(size)
        self.pendings.append(pending)
        self.n += 1

    def reset(self) -> None:
        """Empty the batch for reuse. Bumps ``serial``: no cached
        classification of the old contents (mem/vec.py) is read again."""
        self.serial = _next_serial()
        self.uhint = None
        self.kinds.clear()
        self.addrs.clear()
        self.sizes.clear()
        self.pendings.clear()
        self.n = 0
        self.cursor = 0
        self.total = 0
        self.depth = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventBatch(n={self.n}, cursor={self.cursor}, "
                f"t={self.time}, pid={self.pid}, total={self.total})")


#: references per batch before the producer must flush (bounds both the
#: parallel-array size and how far a frontend can run ahead of a cut).
#: A filling is classified once (mem/vec.py) however often it is cut, so a
#: larger cap means fewer flushes for the same work; results are
#: cap-independent (the consumer cuts batches wherever timing requires), so
#: this is purely a host-side knob.
BATCH_CAP = 1024

#: freelist of EventBatch objects (engine is single-threaded)
_batch_pool: list = []
_BATCH_POOL_MAX = 64


def acquire_batch() -> EventBatch:
    """Take a clean batch from the pool (or allocate one)."""
    if _batch_pool:
        return _batch_pool.pop()
    return EventBatch()


def release_batch(batch: EventBatch) -> None:
    """Return a batch to the pool once no party references it."""
    batch.reset()
    if len(_batch_pool) < _BATCH_POOL_MAX:
        _batch_pool.append(batch)


def strided_batches(kinds: list, bases: tuple, nbytes: int, stride: int,
                    work: int, clock):
    """Publish an arithmetic reference stream over ``nbytes`` as bulk-filled
    batches (generator; returns the total latency): per ``stride`` bytes one
    reference per lane — lane *j* has kind ``kinds[j]`` and starts at
    ``bases[j]`` — each ``stride`` bytes wide except those of a ragged last
    stride, with ``work`` cycles ahead of each stride's first reference.
    ``clock.pending`` is folded into the head of *every* batch: handler
    frames may leave cycles there while the previous batch is parked. Each
    batch is a handful of C-level list operations, no per-reference step."""
    w = len(kinds)
    batch = acquire_batch()
    total = off = 0
    left = -(-nbytes // stride)
    while left:
        cnt = min(left, BATCH_CAP // w)
        left -= cnt
        span = cnt * stride
        batch.kinds.extend(kinds * cnt)
        if w == 1:
            batch.addrs.extend(range(bases[0] + off, bases[0] + off + span,
                                     stride))
        else:
            addrs = [0] * (cnt * w)
            for j, base in enumerate(bases):
                addrs[j::w] = range(base + off, base + off + span, stride)
            batch.addrs.extend(addrs)
        sizes = [stride] * (cnt * w)
        ragged = not left and nbytes < off + span
        if ragged:
            sizes[-w:] = [nbytes - off - span + stride] * w
        batch.sizes.extend(sizes)
        if w == 1 and not ragged:
            # one arithmetic stream: advertised so its classification is
            # shared by every re-filling of it (see EventBatch.uhint)
            batch.uhint = (kinds[0], stride, work)
        pendings = ([work] + [0] * (w - 1)) * cnt
        pendings[0] += clock.pending
        clock.pending = 0
        batch.pendings.extend(pendings)
        batch.n = cnt * w
        off += span
        total += yield batch
        batch.reset()
    release_batch(batch)
    return total


# ---------------------------------------------------------------------------
# Constructors (cheap factory helpers used by Proc / the interpreter)
# ---------------------------------------------------------------------------

def read(addr: int, size: int = 4) -> Event:
    """A data-load event."""
    return Event(EvKind.READ, addr, size)


def write(addr: int, size: int = 4) -> Event:
    """A data-store event."""
    return Event(EvKind.WRITE, addr, size)


def rmw(addr: int, size: int = 4) -> Event:
    """An atomic read-modify-write event."""
    return Event(EvKind.RMW, addr, size)


def advance() -> Event:
    """A pure time-publication event."""
    return Event(EvKind.ADVANCE)


def lock(lock_id: int) -> Event:
    """A lock-acquire event."""
    return Event(EvKind.LOCK, arg=lock_id)


def unlock(lock_id: int) -> Event:
    """A lock-release event."""
    return Event(EvKind.UNLOCK, arg=lock_id)


def barrier(barrier_id: int, count: int) -> Event:
    """A barrier-arrival event for a barrier of ``count`` participants."""
    return Event(EvKind.BARRIER, arg=(barrier_id, count))


def syscall(name: str, *args: Any) -> Event:
    """An OS-call event (name + positional arguments)."""
    return Event(EvKind.SYSCALL, arg=(name, args))


def exit_event(status: int = 0) -> Event:
    """A process-exit announcement."""
    return Event(EvKind.EXIT, arg=status)


class SyscallResult:
    """Reply delivered to a frontend for a SYSCALL event.

    ``value`` is the return value; ``errno`` is 0 on success or a simulated
    errno. ``data`` optionally carries out-of-band payloads (e.g. bytes read)
    so syscall models can return rich results without extra round trips.
    """

    __slots__ = ("value", "errno", "data")

    def __init__(self, value: Any = 0, errno: int = 0, data: Any = None) -> None:
        self.value = value
        self.errno = errno
        self.data = data

    @property
    def ok(self) -> bool:
        """True when the call succeeded (errno == 0)."""
        return self.errno == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyscallResult(value={self.value!r}, errno={self.errno})"


# Simulated errno values (AIX-flavoured subset).
EPERM = 1
ENOENT = 2
EINTR = 4
EIO = 5
EBADF = 9
EAGAIN = 11
ENOMEM = 12
EACCES = 13
EFAULT = 14
EEXIST = 17
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
ENFILE = 23
EMFILE = 24
ENOSPC = 28
EPIPE = 32
ENOSYS = 38
ENOTCONN = 57
EADDRINUSE = 67
ECONNRESET = 73
ECONNREFUSED = 79
ETIMEDOUT = 78

ERRNO_NAMES = {
    EPERM: "EPERM", ENOENT: "ENOENT", EINTR: "EINTR", EIO: "EIO",
    EBADF: "EBADF", EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES",
    EFAULT: "EFAULT", EEXIST: "EEXIST", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR",
    EINVAL: "EINVAL", ENFILE: "ENFILE", EMFILE: "EMFILE", ENOSPC: "ENOSPC",
    EPIPE: "EPIPE", ENOSYS: "ENOSYS", ENOTCONN: "ENOTCONN",
    EADDRINUSE: "EADDRINUSE", ECONNRESET: "ECONNRESET",
    ECONNREFUSED: "ECONNREFUSED", ETIMEDOUT: "ETIMEDOUT",
}
