"""Frontend processes and the Augmint-macro-style application API.

A *frontend process* in COMPASS is a real UNIX process running instrumented
application code; it accumulates an execution-time value and blocks on its
event port after every event until the backend replies (§2). Here a frontend
is a :class:`SimProcess` driving a stack of generator frames:

* the base frame is the application coroutine (either hand-written against
  the :class:`Proc` API — the Augmint-macro analog — or an
  :class:`~repro.isa.interpreter.Interpreter` run);
* the engine pushes additional frames for kernel-mode work: category-1 OS
  service routines executed by the paired OS-server thread, and interrupt
  handlers delivered as pseudo-interrupt requests (§3.1–3.2). Frames above
  the base run in *kernel mode*: their memory references translate through
  the kernel address space and their cycles are charged to kernel/interrupt
  time, which is exactly the paper's OS-thread-shares-the-event-port scheme.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Callable, Generator, List, Optional

from . import events as ev
from .errors import FrontendError

#: generator type of an application/kernel coroutine
Coroutine = Generator[ev.Event, Any, Any]

#: memory kinds as plain ints, bound once: the macros would otherwise look
#: an ``EvKind`` member up on the enum class per reference
_READ = int(ev.EvKind.READ)
_WRITE = int(ev.EvKind.WRITE)
_RMW = int(ev.EvKind.RMW)


class ProcState(IntEnum):
    """Life-cycle states of a simulated process."""

    NEW = 0        #: created, never dispatched
    READY = 1      #: runnable, waiting for a processor
    RUNNING = 2    #: bound to a processor, exchanging events
    BLOCKED = 3    #: waiting in a blocking OS call (processor released)
    SYNCWAIT = 4   #: waiting on a lock/barrier grant (still holds the CPU)
    DONE = 5       #: exited


class WaitToken:
    """Yielded by kernel service code to block the calling process.

    The engine parks the process (informing the process scheduler, which
    frees the CPU, §3.3.3) until some backend task calls :meth:`wake`.
    ``value`` is delivered as the result of the yield.
    """

    __slots__ = ("label", "waker", "value", "woken")

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.waker: Optional[Callable[["WaitToken"], None]] = None
        self.value: Any = None
        self.woken = False

    def wake(self, value: Any = None) -> None:
        """Mark complete and hand back to the engine (idempotent)."""
        if self.woken:
            return
        self.woken = True
        self.value = value
        if self.waker is not None:
            self.waker(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitToken({self.label!r}, woken={self.woken})"


class FrontendClock:
    """The per-process execution-time accumulator of the paper.

    ``pending`` collects statically-known cycles (basic-block costs, compute
    macros) between events; the engine folds it into the process's virtual
    time when the next event is published.
    """

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending = 0


class SimProcess:
    """One simulated application process (a frontend)."""

    _next_pid = [1]

    @classmethod
    def pid_counter(cls) -> int:
        """Next pid to be assigned (checkpointed so a resumed run recreates
        the same pid sequence)."""
        return cls._next_pid[0]

    @classmethod
    def set_pid_counter(cls, value: int) -> None:
        """Reset the global pid sequence (restore/test harness use only)."""
        cls._next_pid[0] = value

    def __init__(self, name: str, clock: Optional[FrontendClock] = None) -> None:
        self.pid = SimProcess._next_pid[0]
        SimProcess._next_pid[0] += 1
        self.name = name
        self.state = ProcState.NEW
        #: frame stack: [app, (kernel service | interrupt handler)...]
        self.frames: List[Coroutine] = []
        #: kernel-mode depth == len(frames) - 1; >0 means kernel mode
        self.clock = clock if clock is not None else FrontendClock()
        #: accumulated execution time (cycles) — the event-port time value
        self.vtime = 0
        #: event waiting at the event port (set after each step)
        self.port_event: Optional[ev.Event] = None
        #: value to send into the coroutine on the next step
        self.reply: Any = None
        #: CPU currently running this process (-1 = none)
        self.cpu = -1
        #: CPUs this process has used (affinity scheduler history, §3.3.2)
        self.cpu_history: List[int] = []
        #: paired OS-server thread (set by the OS server)
        self.os_thread: Any = None
        self.exit_status: Optional[int] = None
        #: set while this process must not take interrupts (in-handler)
        self.intr_enabled = True
        #: outstanding wait token while BLOCKED
        self.wait: Optional[WaitToken] = None
        #: charge-mode stack entries: "user"|"kernel"|"interrupt"
        self.mode_stack: List[str] = ["user"]
        #: current charge mode (top of ``mode_stack``) and whether OS-server
        #: or handler code is executing (any frame above the base); plain
        #: fields kept by push_frame/pop_frame — the engine reads both on
        #: every event
        self.mode = "user"
        self.kernel_mode = False
        #: per-frame pop directives, parallel to ``frames``:
        #: ("exit", None) | ("syscall", None) | ("interrupt", saved_reply)
        #: | ("retry", original_event)
        self.frame_meta: List[tuple] = []
        #: cycle up to which this process's time has been charged to stats
        self.acct_mark = 0
        #: set by the timer tick when pre-emption is due at the next event
        self.preempt_pending = False
        #: cycle at which the current CPU stint began (quantum accounting)
        self.run_since = 0
        #: the per-process context-record flag of §4.1: when False, the
        #: Proc API generates no events and no time (simulation OFF regions,
        #: signal handlers, static constructors)
        self.events_enabled = True
        #: batched event pipeline enabled (set by the engine from
        #: SimConfig.fastpath; producers fall back to per-event yields
        #: when False)
        self.batching = False
        #: half-consumed EventBatches stashed while interrupt/fault frames
        #: run above their producers (LIFO; engine re-parks each when the
        #: frame stack unwinds back to its recorded depth)
        self.pending_batches: List[ev.EventBatch] = []

    # -- frame management (engine use) ------------------------------------

    def push_frame(self, frame: Coroutine, mode: str,
                   meta: tuple = ("syscall", None)) -> None:
        """Enter kernel-mode code (OS service or interrupt handler)."""
        self.frames.append(frame)
        self.mode_stack.append(mode)
        self.mode = mode
        self.kernel_mode = True
        self.frame_meta.append(meta)

    def pop_frame(self) -> tuple:
        """Leave kernel-mode code; returns the frame's pop directive."""
        self.frames.pop()
        stack = self.mode_stack
        stack.pop()
        self.mode = stack[-1]
        self.kernel_mode = len(stack) > 1
        return self.frame_meta.pop()

    def base_frame(self, frame: Coroutine) -> None:
        """Install the application coroutine (exactly once)."""
        if self.frames:
            raise FrontendError(f"{self.name}: base frame already set")
        self.frames.append(frame)
        self.frame_meta.append(("exit", None))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SimProcess(pid={self.pid}, {self.name!r}, "
                f"{self.state.name}, cpu={self.cpu}, t={self.vtime})")


class Proc:
    """The application-facing macro API (the Augmint analog).

    Application coroutines receive a ``Proc`` and drive the simulation with
    ``yield from`` calls::

        def app(proc: Proc):
            proc.compute(120)                      # 120 cycles of ALU work
            v = yield from proc.load(0x1000)       # one read reference
            yield from proc.store(0x1000, 4)
            r = yield from proc.call("open", "/db/t1", 0)   # OS call
            yield from proc.exit(0)

    Memory here is *timing-only*: ``load`` returns the reference latency, not
    data (apps keep functional state in ordinary Python objects, as COMPASS
    frontends keep theirs in native memory). Use the ISA interpreter path
    when functional simulated memory is wanted.

    ``load`` / ``store`` / ``rmw`` all yield the same :class:`Event`, this
    instance's slot, refilled per reference: the engine is done with it
    before the coroutine resumes, except for a faulting reference, whose
    ``("retry", slot)`` frame runs while the coroutine is still suspended.
    Every other producer on the same process (a syscall's ``Sys.k``, a
    signal wrapper) is built around its own ``Proc`` and so its own slot.
    """

    __slots__ = ("process", "_clock", "_slot")

    def __init__(self, process: SimProcess) -> None:
        self.process = process
        self._clock = process.clock
        self._slot = ev.Event(_READ)

    # -- instrumentation control (the Simulation ON/OFF switch, §4/§5) ------

    def sim_off(self) -> None:
        """Stop generating events and time (uninteresting code regions)."""
        self.process.events_enabled = False

    def sim_on(self) -> None:
        """Resume event generation."""
        self.process.events_enabled = True

    # -- time ---------------------------------------------------------------

    def compute(self, cycles: int) -> None:
        """Accumulate ``cycles`` of computation (no event, no interleave
        point — the inserted basic-block timing update)."""
        if cycles < 0:
            raise FrontendError(f"negative compute: {cycles}")
        if self.process.events_enabled:
            self._clock.pending += cycles

    def advance(self, cycles: int = 0):
        """Accumulate ``cycles`` then publish time with an ADVANCE event —
        an explicit interleave/interrupt-poll point."""
        if cycles:
            self.compute(cycles)
        if not self.process.events_enabled:
            return 0
        return (yield ev.advance())

    # -- memory -------------------------------------------------------------

    def load(self, addr: int, size: int = 4):
        """Issue a read reference; returns its latency in cycles."""
        if not self.process.events_enabled:
            return 0
        e = self._slot
        e.kind = _READ
        e.addr = addr
        e.size = size
        return (yield e)

    def store(self, addr: int, size: int = 4):
        """Issue a write reference; returns its latency in cycles."""
        if not self.process.events_enabled:
            return 0
        e = self._slot
        e.kind = _WRITE
        e.addr = addr
        e.size = size
        return (yield e)

    def rmw(self, addr: int, size: int = 4):
        """Issue an atomic read-modify-write reference."""
        if not self.process.events_enabled:
            return 0
        e = self._slot
        e.kind = _RMW
        e.addr = addr
        e.size = size
        return (yield e)

    def touch(self, addr: int, nbytes: int, write: bool = False,
              stride: int = 32, work_per_line: int = 0):
        """Reference ``nbytes`` starting at ``addr``, one event per
        ``stride`` bytes (bulk copies, scans). ``work_per_line`` adds compute
        cycles between references. Returns total memory latency."""
        if nbytes <= 0 or not self.process.events_enabled:
            return 0
        kind = _WRITE if write else _READ
        total = 0
        end = addr + nbytes
        a = addr
        pend = self._clock
        if self.process.batching:
            # batched pipeline: one bulk-filled EventBatch per BATCH_CAP
            # references instead of one generator suspension each
            return (yield from ev.strided_batches(
                [kind], (addr,), nbytes, stride, work_per_line, pend))
        while a < end:
            if work_per_line:
                pend.pending += work_per_line
            total += yield ev.Event(kind, a, min(stride, end - a))
            a += stride
        return total

    # -- synchronisation ------------------------------------------------------

    def lock(self, lock_id: int):
        """Acquire a simulated lock (FIFO; spins without releasing the CPU)."""
        return (yield ev.lock(lock_id))

    def unlock(self, lock_id: int):
        """Release a simulated lock."""
        return (yield ev.unlock(lock_id))

    def barrier(self, barrier_id: int, count: int):
        """Arrive at a ``count``-party barrier and wait for the last party."""
        return (yield ev.barrier(barrier_id, count))

    # -- OS -------------------------------------------------------------------

    def call(self, name: str, *args: Any):
        """Issue an OS call through the COMPASS stub; returns a
        :class:`~repro.core.events.SyscallResult`."""
        res = yield ev.syscall(name, *args)
        if not isinstance(res, ev.SyscallResult):  # pragma: no cover
            raise FrontendError(f"syscall {name!r} reply was {res!r}")
        return res

    def call_retry(self, name: str, *args: Any, retries: int = 8):
        """OS call with the classic EINTR restart loop.

        Without a fault plan this is event-for-event identical to
        :meth:`call` (EINTR never occurs), so applications can use it
        unconditionally; under fault injection it models the retry path
        commercial code takes around interruptible I/O."""
        res = yield from self.call(name, *args)
        while res.errno == ev.EINTR and retries > 0:
            retries -= 1
            res = yield from self.call(name, *args)
        return res

    def exit(self, status: int = 0):
        """Announce termination (the EXIT message that unpairs the OS
        thread); the coroutine should return right after."""
        yield ev.exit_event(status)
        return status
