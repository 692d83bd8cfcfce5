"""Ethernet NIC model.

Frames arrive from the (trace-driven) client side into the RX queue; each
delivery raises a receive interrupt whose handler runs the TCP/IP input path.
Transmissions occupy the wire at the configured bandwidth and raise a TX
completion interrupt per frame batch. The heavy per-frame handler cost is
what pushes the web-server profile to the paper's ~38 % interrupt time.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.clock import ClockDomain
from ..core.config import EthernetConfig
from ..core.errors import DeviceError
from ..core.scheduler import GlobalScheduler
from .. import osim


class Frame:
    """One Ethernet frame carrying opaque payload for the TCP/IP model."""

    __slots__ = ("nbytes", "payload", "conn_id")

    def __init__(self, nbytes: int, payload: object = None,
                 conn_id: int = -1) -> None:
        if nbytes <= 0:
            raise DeviceError(f"bad frame size {nbytes}")
        self.nbytes = nbytes
        self.payload = payload
        self.conn_id = conn_id


class EthernetNic:
    """Half-duplex-wire NIC with per-frame interrupts."""

    def __init__(self, name: str, gsched: GlobalScheduler,
                 intctl: "osim.interrupts.InterruptController",
                 cfg: EthernetConfig, clock: ClockDomain) -> None:
        cfg.validate()
        self.name = name
        self.gsched = gsched
        self.intctl = intctl
        self.cfg = cfg
        self.clock = clock
        self._wire_busy_until = 0
        self.rx_frames = 0
        self.tx_frames = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        #: called with each received Frame at interrupt time (TCP/IP input)
        self.on_receive: Optional[Callable[[Frame], None]] = None

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        return {"wire_busy_until": self._wire_busy_until,
                "rx_frames": self.rx_frames, "tx_frames": self.tx_frames,
                "rx_bytes": self.rx_bytes, "tx_bytes": self.tx_bytes}

    def _wire_cycles(self, nbytes: int) -> int:
        c = self.clock
        return (c.us_to_cycles(self.cfg.frame_us)
                + c.bytes_at_rate(nbytes, self.cfg.bandwidth_mb_s * 1e6))

    # -- receive path (client -> server) ----------------------------------

    def deliver(self, frame: Frame, now: int) -> int:
        """Inject a frame from the network at cycle ``now``; schedules wire
        transfer + RX interrupt. Returns the delivery cycle."""
        start = max(now, self._wire_busy_until)
        done = start + self._wire_cycles(frame.nbytes)
        self._wire_busy_until = done
        self.rx_frames += 1
        self.rx_bytes += frame.nbytes

        def arrive() -> None:
            actions: List[Callable[[], None]] = []
            if self.on_receive is not None:
                actions.append(lambda f=frame: self.on_receive(f))
            # handler cost grows with payload: input checksum + mbuf copies
            cost = self.cfg.intr_handler_cycles + frame.nbytes // 4
            intr = osim.interrupts.Interrupt(
                f"eth:{self.name}:rx", cost, actions=actions, lines=6)
            self.intctl.post(intr, self.gsched.now)

        self.gsched.schedule_at(done, arrive)
        return done

    # -- transmit path (server -> client) ------------------------------------

    def transmit(self, nbytes: int, now: int,
                 on_done: Optional[Callable[[], None]] = None) -> int:
        """Send ``nbytes`` as MTU-sized frames; one TX-complete interrupt at
        the end. Returns the cycle the last frame leaves the wire."""
        if nbytes <= 0:
            raise DeviceError(f"bad transmit size {nbytes}")
        mtu = self.cfg.mtu
        nframes = (nbytes + mtu - 1) // mtu
        t = max(now, self._wire_busy_until)
        rem = nbytes
        for _ in range(nframes):
            sz = min(mtu, rem)
            t += self._wire_cycles(sz)
            rem -= sz
        self._wire_busy_until = t
        self.tx_frames += nframes
        self.tx_bytes += nbytes

        def complete() -> None:
            actions = [on_done] if on_done is not None else []
            intr = osim.interrupts.Interrupt(
                f"eth:{self.name}:tx", self.cfg.intr_handler_cycles,
                actions=actions, lines=3)
            self.intctl.post(intr, self.gsched.now)

        self.gsched.schedule_at(t, complete)
        return t
