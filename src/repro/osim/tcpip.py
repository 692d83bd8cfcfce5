"""TCP/IP stack model.

The SPECWeb profile in Table 1 is dominated by the TCP/IP stack (kwritev,
kreadv, select, connect, open, close, naccept, send) plus ethernet interrupt
handlers, so this is a first-class model: listening sockets, connection
establishment, receive queues, and transmission through the NIC. Functional
state (which bytes are where) lives here; the *timing* — mbuf walking,
checksums, copies — is charged by the syscall handlers in
:mod:`repro.osim.syscalls.net`.

Two kinds of peers:

* **remote clients** — traffic sources outside the simulated machine (the
  SPECWeb trace player): they inject frames into the NIC (RX interrupts) and
  are notified when server data finishes transmitting (TX interrupts);
* **local peers** — other simulated processes on the same machine
  connecting over loopback (database clients talking to server processes):
  data moves queue-to-queue with no NIC involvement.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core import events as ev
from ..core.errors import OSError_
from ..core.frontend import WaitToken
from ..devices.ethernet import EthernetNic, Frame

SERVER = 0
CLIENT = 1


class Connection:
    """One TCP connection; ``rx[side]`` is the data waiting for that side."""

    __slots__ = ("conn_id", "state", "rx", "fin_seen", "sids", "remote",
                 "bytes_in", "bytes_out")

    def __init__(self, conn_id: int, remote: bool) -> None:
        self.conn_id = conn_id
        self.state = "syn"                    # syn | est | closed
        self.rx: Tuple[Deque[bytes], Deque[bytes]] = (deque(), deque())
        self.fin_seen = [False, False]        # per side
        #: socket id per side (-1 = remote / not yet accepted)
        self.sids = [-1, -1]
        #: True when the client end is a trace-player traffic source
        self.remote = remote
        self.bytes_in = 0                     # client -> server
        self.bytes_out = 0                    # server -> client


class Socket:
    """A simulated socket: listener or connection endpoint."""

    __slots__ = ("sid", "state", "port", "accept_q", "conn", "side",
                 "waiters", "owner_pid", "refs")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.state = "closed"     # closed | bound | listen | connected
        self.port = -1
        self.accept_q: Deque[int] = deque()   # pending conn ids
        self.conn: Optional[Connection] = None
        self.side = SERVER
        #: tokens parked in accept/recv/select on this socket
        self.waiters: List[WaitToken] = []
        self.owner_pid = -1
        #: descriptor references (pre-fork workers inherit the listener)
        self.refs = 1

    def readable(self) -> bool:
        """select() readability: pending accepts, queued data, or EOF."""
        if self.state == "listen":
            return bool(self.accept_q)
        c = self.conn
        if c is None:
            return False
        return bool(c.rx[self.side]) or c.fin_seen[self.side] \
            or c.state == "closed"


class TcpIpStack:
    """Functional socket layer wired to one NIC plus loopback."""

    def __init__(self, nic: EthernetNic) -> None:
        self.nic = nic
        nic.on_receive = self._input
        self._sockets: Dict[int, Socket] = {}
        self._listeners: Dict[int, int] = {}       # port -> sid
        self._conns: Dict[int, Connection] = {}
        self._next_sid = 1
        self._next_conn = 1 << 20                  # local conn ids high
        #: called at TX-complete with (conn_id, nbytes, payload) — the trace
        #: player hooks this to pace its requests
        self.on_server_send: Optional[Callable[[int, int, object], None]] = None
        self.conns_established = 0
        self.conns_closed = 0
        #: fault injection (site ``tcp:drop``): set to the engine's
        #: FaultInjector only when a tcp: rule is armed; None normally
        self.faults = None
        self.retransmits = 0

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Verification snapshot: connection/socket topology as plain data
        (waiter tokens and callbacks are rebuilt by replay) plus the
        counters."""
        return {
            "next_sid": self._next_sid,
            "next_conn": self._next_conn,
            "conns_established": self.conns_established,
            "conns_closed": self.conns_closed,
            "retransmits": self.retransmits,
            "listeners": dict(self._listeners),
            "sockets": {s.sid: (s.state, s.port, list(s.accept_q),
                                s.conn.conn_id if s.conn else None,
                                s.side, s.owner_pid, s.refs)
                        for s in self._sockets.values()},
            "conns": {c.conn_id: (c.state, [len(q) for q in c.rx],
                                  list(c.fin_seen), list(c.sids), c.remote,
                                  c.bytes_in, c.bytes_out)
                      for c in self._conns.values()},
        }

    # -- socket API (called by syscall handlers) ----------------------------

    def socket(self, pid: int) -> int:
        s = Socket(self._next_sid)
        self._next_sid += 1
        s.owner_pid = pid
        self._sockets[s.sid] = s
        return s.sid

    def get(self, sid: int) -> Socket:
        s = self._sockets.get(sid)
        if s is None:
            raise OSError_(f"no socket {sid}")
        return s

    def bind(self, sid: int, port: int) -> int:
        if port in self._listeners:
            return ev.EADDRINUSE
        s = self.get(sid)
        s.port = port
        s.state = "bound"
        self._listeners[port] = sid
        return 0

    def listen(self, sid: int) -> int:
        s = self.get(sid)
        if s.state != "bound":
            return ev.EINVAL
        s.state = "listen"
        return 0

    def pop_accept(self, sid: int) -> Optional[int]:
        """Dequeue one pending connection; returns a new connected socket id
        (None when the queue is empty)."""
        s = self.get(sid)
        if not s.accept_q:
            return None
        conn_id = s.accept_q.popleft()
        conn = self._conns[conn_id]
        ns = Socket(self._next_sid)
        self._next_sid += 1
        ns.state = "connected"
        ns.conn = conn
        ns.side = SERVER
        ns.owner_pid = s.owner_pid
        conn.sids[SERVER] = ns.sid
        conn.state = "est"
        self._sockets[ns.sid] = ns
        self.conns_established += 1
        # a local peer blocked in connect() can now proceed
        if not conn.remote and conn.sids[CLIENT] >= 0:
            peer = self._sockets.get(conn.sids[CLIENT])
            if peer is not None:
                self._wake(peer)
        return ns.sid

    def connect_local(self, pid: int, port: int) -> Optional[int]:
        """Loopback connect from a simulated process: enqueues the request at
        the listener and returns the *client-side* socket id (None when
        nothing listens on ``port``)."""
        lsid = self._listeners.get(port)
        if lsid is None:
            return None
        conn = Connection(self._next_conn, remote=False)
        self._next_conn += 1
        self._conns[conn.conn_id] = conn
        cs = Socket(self._next_sid)
        self._next_sid += 1
        cs.state = "connected"
        cs.conn = conn
        cs.side = CLIENT
        cs.owner_pid = pid
        conn.sids[CLIENT] = cs.sid
        self._sockets[cs.sid] = cs
        listener = self.get(lsid)
        listener.accept_q.append(conn.conn_id)
        self._wake(listener)
        return cs.sid

    def pop_recv(self, sid: int, nbytes: int) -> Optional[bytes]:
        """Dequeue up to ``nbytes``; b"" = EOF; None = would block."""
        s = self.get(sid)
        c = s.conn
        if c is None:
            raise OSError_(f"socket {sid} not connected")
        q = c.rx[s.side]
        if not q:
            if c.fin_seen[s.side] or c.state == "closed":
                return b""
            return None
        out = bytearray()
        while q and len(out) < nbytes:
            seg = q[0]
            take = nbytes - len(out)
            if take >= len(seg):
                out += q.popleft()
            else:
                out += seg[:take]
                q[0] = seg[take:]
        return bytes(out)

    def send(self, sid: int, nbytes: int, now: int,
             payload: object = None, data: bytes = b"") -> int:
        """Transmit data on a connection.

        Remote peer: NIC transmit + client notification at TX complete.
        Local peer: enqueue on the peer's receive queue and wake it.
        """
        s = self.get(sid)
        c = s.conn
        if c is None or c.state != "est":
            raise OSError_(f"send on non-connected socket {sid}")
        if s.side == SERVER:
            c.bytes_out += nbytes
        else:
            c.bytes_in += nbytes
        if c.remote and s.side == SERVER:
            fi = self.faults
            if fi is not None and fi.check("tcp:drop") is not None:
                # segment lost on the wire: the first transmission occupies
                # the NIC but delivers nothing, the retransmission below
                # carries the data (the sender pays double wire time)
                self.nic.transmit(nbytes, now)
                self.retransmits += 1
            cb = None
            if self.on_server_send is not None:
                cid = c.conn_id
                hook = self.on_server_send
                cb = lambda: hook(cid, nbytes, payload)
            self.nic.transmit(nbytes, now, on_done=cb)
            return nbytes
        # loopback
        other = CLIENT if s.side == SERVER else SERVER
        c.rx[other].append(data if data else b"\0" * nbytes)
        osid = c.sids[other]
        if osid >= 0:
            peer = self._sockets.get(osid)
            if peer is not None:
                self._wake(peer)
        return nbytes

    def addref(self, sid: int) -> None:
        """An inherited descriptor now also references this socket."""
        self.get(sid).refs += 1

    def close(self, sid: int) -> None:
        s = self._sockets.get(sid)
        if s is None:
            return
        s.refs -= 1
        if s.refs > 0:
            return
        del self._sockets[sid]
        if s.port >= 0 and self._listeners.get(s.port) == sid:
            del self._listeners[s.port]
        c = s.conn
        if c is not None:
            other = CLIENT if s.side == SERVER else SERVER
            c.fin_seen[other] = True
            if c.state == "est":
                c.state = "closed"
                self.conns_closed += 1
            osid = c.sids[other]
            if osid >= 0:
                peer = self._sockets.get(osid)
                if peer is not None:
                    self._wake(peer)
        self._wake(s)

    # -- waiting ----------------------------------------------------------

    def add_waiter(self, sid: int, token: WaitToken) -> None:
        self.get(sid).waiters.append(token)

    def _wake(self, s: Socket) -> None:
        if s.waiters:
            ws, s.waiters = s.waiters, []
            for t in ws:
                t.wake(s.sid)

    # -- client-side injection (trace player / workload generator) ----------

    def client_connect(self, conn_id: int, port: int, now: int) -> None:
        """Inject a SYN from the remote network."""
        self.nic.deliver(Frame(64, ("syn", conn_id, port), conn_id), now)

    def client_send(self, conn_id: int, data: bytes, now: int) -> None:
        """Inject request data from the remote network."""
        self.nic.deliver(Frame(64 + len(data), ("data", conn_id, data),
                               conn_id), now)

    def client_close(self, conn_id: int, now: int) -> None:
        """Inject a FIN from the remote network."""
        self.nic.deliver(Frame(64, ("fin", conn_id), conn_id), now)

    # -- NIC input path (runs at RX interrupt delivery) -----------------------

    def _input(self, frame: Frame) -> None:
        payload = frame.payload
        if not isinstance(payload, tuple):
            return
        kind = payload[0]
        if kind == "syn":
            _, conn_id, port = payload
            sid = self._listeners.get(port)
            if sid is None:
                return   # connection refused: silently dropped in the model
            conn = Connection(conn_id, remote=True)
            self._conns[conn_id] = conn
            s = self.get(sid)
            s.accept_q.append(conn_id)
            self._wake(s)
        elif kind == "data":
            _, conn_id, data = payload
            conn = self._conns.get(conn_id)
            if conn is None:
                return
            conn.rx[SERVER].append(data)
            conn.bytes_in += len(data)
            sid = conn.sids[SERVER]
            if sid >= 0:
                sock = self._sockets.get(sid)
                if sock is not None:
                    self._wake(sock)
        elif kind == "fin":
            conn_id = payload[1]
            conn = self._conns.get(conn_id)
            if conn is None:
                return
            conn.fin_seen[SERVER] = True
            sid = conn.sids[SERVER]
            if sid >= 0:
                sock = self._sockets.get(sid)
                if sock is not None:
                    self._wake(sock)

    # -- introspection ------------------------------------------------------

    def connection(self, conn_id: int) -> Optional[Connection]:
        return self._conns.get(conn_id)

    def socket_count(self) -> int:
        return len(self._sockets)
