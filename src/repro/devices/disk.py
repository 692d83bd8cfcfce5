"""Hard disk drive model.

A single-spindle disk with a FIFO request queue: each request pays controller
overhead + average seek + half-rotation rotational delay + transfer time at
the media rate. Completion raises a disk interrupt whose handler performs the
request's completion actions (waking the process blocked in kreadv/kwritev,
§3.3.3). Sequential requests to nearby blocks get a reduced seek (a simple
locality model so DSS table scans behave differently from OLTP random I/O).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.clock import ClockDomain
from ..core.config import DiskConfig
from ..core.errors import DeviceError
from ..core.scheduler import GlobalScheduler
from .. import osim


class DiskRequest:
    """One I/O: byte offset, length, direction and completion callbacks."""

    __slots__ = ("offset", "nbytes", "write", "actions", "submitted_at",
                 "completed_at")

    def __init__(self, offset: int, nbytes: int, write: bool) -> None:
        if nbytes <= 0:
            raise DeviceError(f"bad I/O size {nbytes}")
        self.offset = offset
        self.nbytes = nbytes
        self.write = write
        self.actions: List[Callable[[], None]] = []
        self.submitted_at = 0
        self.completed_at = 0


class Disk:
    """FIFO hard disk with seek locality."""

    def __init__(self, name: str, gsched: GlobalScheduler,
                 intctl: "osim.interrupts.InterruptController",
                 cfg: DiskConfig, clock: ClockDomain) -> None:
        cfg.validate()
        self.name = name
        self.gsched = gsched
        self.intctl = intctl
        self.cfg = cfg
        self.clock = clock
        self._busy_until = 0
        self._head_pos = 0
        self.requests = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.busy_cycles = 0
        self.queue_cycles = 0
        #: fault injection: callable(req) -> extra service cycles (a latency
        #: spike for this request); None outside fault-plan runs
        self.fault_hook: Optional[Callable[[DiskRequest], int]] = None
        self.fault_delay_cycles = 0

    # -- timing ---------------------------------------------------------------

    def service_cycles(self, req: DiskRequest) -> int:
        """Raw service time for one request (no queueing)."""
        c = self.clock
        seek_ms = self.cfg.avg_seek_ms
        # locality: sequential-ish access within 2 MB of the head pays 1/8 seek
        if abs(req.offset - self._head_pos) < (2 << 20):
            seek_ms /= 8.0
        rot_ms = 0.5 * 60_000.0 / self.cfg.rpm
        xfer_ms = req.nbytes / (self.cfg.transfer_mb_s * 1e6) * 1e3
        ctl_ms = self.cfg.controller_us / 1e3
        return c.ms_to_cycles(seek_ms + rot_ms + xfer_ms + ctl_ms)

    # -- submission ---------------------------------------------------------

    def submit(self, req: DiskRequest, now: int) -> int:
        """Queue a request at cycle ``now``; schedules the completion
        interrupt and returns the completion cycle."""
        self.requests += 1
        if req.write:
            self.write_bytes += req.nbytes
        else:
            self.read_bytes += req.nbytes
        req.submitted_at = now
        start = max(now, self._busy_until)
        self.queue_cycles += start - now
        service = self.service_cycles(req)
        if self.fault_hook is not None:
            extra = self.fault_hook(req)
            if extra:
                service += extra
                self.fault_delay_cycles += extra
        self.busy_cycles += service
        done = start + service
        self._busy_until = done
        self._head_pos = req.offset + req.nbytes
        req.completed_at = done

        def complete() -> None:
            intr = osim.interrupts.Interrupt(
                f"disk:{self.name}", self.cfg.intr_handler_cycles,
                actions=list(req.actions), lines=4)
            self.intctl.post(intr, self.gsched.now)

        self.gsched.schedule_at(done, complete)
        return done

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        return {"busy_until": self._busy_until, "head_pos": self._head_pos,
                "requests": self.requests,
                "read_bytes": self.read_bytes, "write_bytes": self.write_bytes,
                "busy_cycles": self.busy_cycles,
                "queue_cycles": self.queue_cycles,
                "fault_delay_cycles": self.fault_delay_cycles}
