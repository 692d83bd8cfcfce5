"""Frontends as real host processes (the Table 3 experiment).

Workers ship batches
--------------------
A worker process runs its ISA program through the *batched* interpreter —
the very generator an inline ISA frontend runs — and ships what it yields
to the backend over a pipe. Four message tags go worker -> backend:

* ``("B", kinds, addrs, sizes, pendings)`` — one filled ``EventBatch``
  (up to ``events.BATCH_CAP`` references, each with the cycles accumulated
  before it). **Fire-and-forget**: the interpreter's control flow never
  depends on a reference's latency, so the worker keeps running while the
  backend times the batch (the shared-memory implicit communication of the
  paper's communicator);
* ``("c", kind, addr, size, arg, delta)`` — a control event (OS call,
  lock/unlock/barrier). The worker **blocks** until the backend replies,
  because the result feeds back into execution;
* ``("exit", status, delta)`` and ``("crash", why)``.

The engine-side proxy (``ParallelEngine._proxy``) refills one reusable
``EventBatch`` from each ``"B"`` message and yields it, so a worker's
references go through ``Engine._handle_batch`` / ``MemorySystem.access_run``
/ the bulk all-hit prefix / the qualified lookahead window exactly like an
inline ISA frontend's. With ``SimConfig.fastpath`` off the proxy replays the
batch reference by reference instead (the equivalence oracle). There is one
run loop, ``Engine.run``.

Conservative ordering
---------------------
The backend may only process the globally-earliest event. A worker whose
proxy has nothing parked and nothing queued is still *computing* its next
message; that message can carry no event earlier than the proxy's virtual
time ``vtime + clock.pending``. ``Engine.run`` asks ``_round_gate`` once a
round: while a computing worker's bound could still order it ahead of the
selected winner the backend waits on that worker's pipe (the reasoning the
COMPASS communicator applies while scanning event ports); otherwise the
smallest such bound caps the winner's batch round, so no reference of a
batch is consumed at a cycle a computing worker could still get in front
of. With the same timestamps and the same pid tie-break as inline mode,
parallel runs produce bit-identical simulated results.

Crash replay
------------
Workers are pure functions of their spec. A ``"B"`` message is *one*
logical message: the proxy owns its contents from the moment it pops it,
so a worker killed while the engine is half-way through a batch is
relaunched, its stream replayed, and exactly the consumed prefix —
that batch included — discarded: nothing is lost or applied twice.

Limitation: workers own their functional memory privately, so programs whose
*values* must be shared across processes need inline mode; timing-level
sharing (locks, coherence, placement) works fully.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time as _time
from collections import deque
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import events as ev
from ..core.engine import Engine
from ..core.errors import HostError
from ..core.jsonable import to_jsonable
from ..core.frontend import ProcState, SimProcess
from ..core.stats import StatsRegistry
from ..isa.assembler import assemble
from ..isa.interpreter import Interpreter, Machine
from ..isa.memory import DataMemory
from ..isa.translate import translate

#: sentinel yielded by the proxy while its worker computes ahead
COMPUTING = object()

#: kinds the worker and the proxy test or yield, bound once as plain ints
_ADVANCE = int(ev.EvKind.ADVANCE)
_BATCH = int(ev.EvKind.BATCH)


class WorkerSpec:
    """What a worker process runs: program text + data segments."""

    def __init__(self, name: str, program_text: str,
                 segments: Sequence[Tuple[int, int]] = ((0x10_0000, 1 << 22),),
                 regs: Optional[Dict[int, int]] = None) -> None:
        self.name = name
        self.program_text = program_text
        self.segments = list(segments)
        self.regs = dict(regs or {})


def _encode_reply(reply) -> tuple:
    if isinstance(reply, ev.SyscallResult):
        return ("sr", reply.value, reply.errno, reply.data)
    return ("i", reply if reply is not None else 0)


def _decode_reply(msg) -> object:
    if msg[0] == "sr":
        return ev.SyscallResult(msg[1], msg[2], msg[3])
    return msg[1]


def _worker_main(conn: Connection, spec_name: str, program_text: str,
                 segments: list, regs: dict,
                 cpu_affinity: Optional[frozenset]) -> None:
    """Child-process body: interpret (batched) and ship what is yielded."""
    if cpu_affinity:
        try:
            os.sched_setaffinity(0, cpu_affinity)
        except (AttributeError, OSError):
            pass
    try:
        prog = assemble(program_text, spec_name)
        dm = DataMemory(spec_name)
        for base, size in segments:
            dm.map_segment(base, size)
        m = Machine(dm)
        for r, v in regs.items():
            m.regs[r] = v
        gen = Interpreter(prog, m).run(batched=True)
        reply = None
        while True:
            out = gen.send(reply)
            if out.kind == _BATCH:
                # pickled here, so the interpreter may refill it at once
                conn.send(("B", out.kinds, out.addrs, out.sizes,
                           out.pendings))
                reply = 0
            else:
                delta = m.pending
                m.pending = 0
                conn.send(("c", out.kind, out.addr, out.size, out.arg, delta))
                reply = _decode_reply(conn.recv())
    except StopIteration as si:
        status = si.value if isinstance(si.value, int) else 0
        conn.send(("exit", status, m.pending))
    except (EOFError, BrokenPipeError):
        pass
    except Exception as exc:   # noqa: BLE001 - forwarded to the supervisor
        # interpreter / protocol failure: tell the backend why before dying,
        # so the supervisor can report it instead of a bare EOF
        try:
            conn.send(("crash", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError, ValueError):
            pass
    finally:
        conn.close()


class _Worker:
    """Backend-side handle for one worker process.

    Workers are pure functions of their spec, so a crashed worker can be
    relaunched and its event stream replayed deterministically: the
    supervisor discards the first ``skip`` (= already consumed) logical
    messages of the fresh stream and answers re-sent control events from
    the recorded reply log.
    """

    __slots__ = ("spec", "proc", "conn", "process", "queue", "alive",
                 "consumed", "streamed", "skip", "reply_cursor",
                 "control_replies", "restarts", "restartable", "exit_seen",
                 "last_msgs", "death_reason")

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.proc: Optional[SimProcess] = None
        self.conn: Optional[Connection] = None
        self.process: Optional[mp.Process] = None
        #: harvested messages waiting to be replayed into the proxy
        self.queue: deque = deque()
        self.alive = True
        #: logical messages the proxy has consumed (the replay frontier)
        self.consumed = 0
        #: logical messages received over the *current* pipe
        self.streamed = 0
        #: after a restart: how many fresh-stream messages are replay
        self.skip = 0
        #: recorded control replies already re-sent during replay
        self.reply_cursor = 0
        #: every encoded control reply, in consumption order
        self.control_replies: List[tuple] = []
        self.restarts = 0
        self.restartable = True
        self.exit_seen = False
        #: ring of the last messages (a batch as ``("B", n, first address,
        #: last address)``), for the forensic report
        self.last_msgs: deque = deque(maxlen=6)
        self.death_reason = ""


class ParallelEngine(Engine):
    """Engine whose frontends are real host processes."""

    def __init__(self, cfg, stats: Optional[StatsRegistry] = None,
                 host_cpus: Optional[int] = None) -> None:
        """``host_cpus`` restricts the whole simulator (backend + workers)
        to the first N host CPUs — the knob behind the paper's Table 3
        uniprocessor-vs-SMP comparison."""
        super().__init__(cfg, stats)
        self._workers: Dict[int, _Worker] = {}
        self._ctx = mp.get_context("fork")
        #: rounds since the pipes were last drained (see ``_round_gate``)
        self._since_harvest = 0
        # -- worker supervision knobs ------------------------------------
        #: restarts allowed per worker before giving up with a HostError
        self.max_worker_restarts = 2
        #: base wall-clock delay before a relaunch (doubles per restart)
        self.worker_backoff = 0.05
        #: blocking-harvest poll period: how often silent workers get a
        #: liveness check (seconds)
        self.heartbeat_interval = 0.25
        #: a live worker silent for this long while the backend is blocked
        #: on it is declared hung (seconds)
        self.worker_hang_timeout = 60.0
        #: control replies kept for crash replay; past this the worker is
        #: no longer restartable (the log would be unbounded)
        self.replay_log_limit = 65536
        self._affinity: Optional[frozenset] = None
        if host_cpus is not None:
            avail = sorted(os.sched_getaffinity(0))
            self._affinity = frozenset(avail[:max(1, host_cpus)])
            try:
                os.sched_setaffinity(0, self._affinity)
            except OSError:
                pass

    # -- spawning ------------------------------------------------------------

    def spawn_worker(self, spec: WorkerSpec) -> SimProcess:
        """Launch a worker process and register its frontend. The program
        is assembled and translated here first, so one that does not
        assemble or translate raises (``TranslationError``) before any
        process starts, and the engine is left as it was."""
        translate(assemble(spec.program_text, spec.name))
        w = _Worker(spec)
        self._launch(w)
        proc = self.spawn(spec.name, lambda _api, w=w: self._proxy(w))
        w.proc = proc
        self._workers[proc.pid] = w
        return proc

    def _launch(self, w: _Worker) -> None:
        """(Re)start the host process behind ``w`` on a fresh pipe."""
        parent, child = self._ctx.Pipe()
        p = self._ctx.Process(
            target=_worker_main,
            args=(child, w.spec.name, w.spec.program_text, w.spec.segments,
                  w.spec.regs, self._affinity),
            daemon=True)
        p.start()
        child.close()
        w.conn = parent
        w.process = p

    def _proxy(self, w: _Worker):
        """Engine-side base frame replaying the worker's message stream."""
        batch = ev.acquire_batch() if self._frontend_batching else None
        while True:
            while not w.queue:
                # park until the harvest loop refills the queue; the sentinel
                # rides in an ADVANCE event so the base stepper can stamp it
                yield ev.Event(_ADVANCE, 0, 0, COMPUTING)
            msg = w.queue.popleft()
            w.consumed += 1
            tag = msg[0]
            clock = w.proc.clock
            if tag == "B":
                if batch is None:
                    # fastpath off: the same references, one event each
                    for kind, addr, size, delta in zip(*msg[1:]):
                        clock.pending += delta
                        yield ev.Event(kind, addr, size)
                    continue
                batch.reset()
                _, batch.kinds, batch.addrs, batch.sizes, batch.pendings = msg
                batch.n = len(batch.kinds)
                # cycles a handler frame left on the clock while the last
                # batch was parked lead this one in (an inline interpreter
                # folds them into its next append the same way)
                batch.pendings[0] += clock.pending
                clock.pending = 0
                yield batch
            elif tag == "exit":
                clock.pending += msg[2]
                w.alive = False
                if batch is not None:
                    ev.release_batch(batch)
                return msg[1]
            else:   # control
                kind, addr, size, arg, delta = msg[1:]
                clock.pending += delta
                reply = yield ev.Event(kind, addr, size, arg)
                self._answer(w, _encode_reply(reply), "a control reply")

    def _answer(self, w: _Worker, enc: tuple, what: str) -> None:
        """Answer a worker blocked on a control event.

        Recorded before sending — whether the send succeeds or the worker
        dies mid-flight, the answer is available for crash replay."""
        if w.restartable:
            w.control_replies.append(enc)
            if (len(w.control_replies) > self.replay_log_limit
                    and w.streamed >= w.skip):
                # log too large to keep replaying; not mid-replay, so it
                # is safe to drop it and give up restarts
                w.restartable = False
                w.control_replies.clear()
                w.reply_cursor = 0
        if w.streamed >= w.skip:
            # the worker is past the replay frontier and blocked in recv
            # on the current pipe
            try:
                w.conn.send(enc)
            except (BrokenPipeError, OSError):
                self._worker_failed(w, f"pipe closed while sending {what}")
        # else: a restarted worker has not re-reached this request yet;
        # _ingest sends the recorded answer when it does

    # -- harvest -------------------------------------------------------------

    def _harvest(self, block_on: Optional[List[_Worker]] = None) -> None:
        """Drain worker pipes into queues; optionally block until at least
        one of ``block_on`` delivers. Re-steps proxies that were computing.

        Blocking waits poll at ``heartbeat_interval`` so a worker that died
        (or hung) without closing its pipe is detected and handed to the
        supervisor instead of blocking the backend forever.
        """
        if block_on:
            ready: List[Connection] = []
            waited = 0.0
            while True:
                live = [w for w in block_on
                        if w.alive and w.conn is not None]
                if not live:
                    break
                ready = conn_wait([w.conn for w in live],
                                  timeout=self.heartbeat_interval)
                if ready:
                    break
                # heartbeat expired with nothing on the wire: make sure the
                # silent workers still exist before waiting again
                waited += self.heartbeat_interval
                dead = [w for w in live
                        if w.process is not None
                        and not w.process.is_alive()]
                if dead:
                    for w in dead:
                        self._worker_failed(
                            w, "worker process died while the backend was "
                               "waiting for its events")
                    continue   # restarted workers stream on fresh pipes
                if waited >= self.worker_hang_timeout:
                    w = live[0]
                    raise HostError(
                        self._forensic(
                            w, f"no events for {waited:.0f}s while the "
                               "backend was blocked on this worker "
                               "(worker hung)"),
                        report=self._forensic_report(
                            w, "worker hung", None))
        else:
            conns = [w.conn for w in self._workers.values()
                     if w.alive and w.conn is not None]
            if not conns:
                return
            ready = conn_wait(conns, timeout=0)
        by_conn = {w.conn: w for w in self._workers.values()
                   if w.alive and w.conn is not None}
        for c in ready:
            w = by_conn.get(c)
            if w is None or not w.alive or w.conn is not c:
                continue   # stale pipe of a worker restarted this call
            try:
                while c.poll():
                    if not self._ingest(w, c.recv()):
                        break
            except (EOFError, OSError):
                self._worker_failed(w, "worker pipe closed unexpectedly")
        # resume proxies that were starved and now have input
        for w in self._workers.values():
            p = w.proc
            if (p is not None and w.queue and p.port_event is None
                    and p.state == ProcState.RUNNING and p.reply is None
                    and not p.kernel_mode):
                self._step(p)

    def _ingest(self, w: _Worker, msg: tuple) -> bool:
        """Deliver one logical worker message.

        Returns False when the message reported a crash and the failure
        was already handled (restart or raise), so the caller must stop
        reading the now-stale pipe.
        """
        if msg[0] == "crash":
            self._worker_failed(w, f"worker crashed: {msg[1]}")
            return False
        w.last_msgs.append(("B", len(msg[1]), msg[2][0], msg[2][-1])
                           if msg[0] == "B" else msg)
        if msg[0] == "exit":
            w.exit_seen = True
        if w.streamed < w.skip:
            # replaying a restarted worker's deterministic stream: this
            # message was consumed before the crash — discard it, but
            # answer re-sent controls from the recorded reply log
            w.streamed += 1
            if msg[0] == "c":
                if w.reply_cursor < len(w.control_replies):
                    enc = w.control_replies[w.reply_cursor]
                    w.reply_cursor += 1
                    try:
                        w.conn.send(enc)
                    except (BrokenPipeError, OSError):
                        self._worker_failed(
                            w, "worker pipe closed during replay")
                        return False
                # else: the in-flight frontier — the simulation has not
                # produced this reply yet; the proxy sends it on arrival
            return True
        w.streamed += 1
        w.queue.append(msg)
        return True

    # -- supervision ---------------------------------------------------------

    def _worker_failed(self, w: _Worker, reason: str) -> None:
        """A worker died or its pipe broke: relaunch it and replay its
        deterministic stream, or raise a forensic HostError when the
        restart budget is exhausted (or the worker cannot be replayed)."""
        w.death_reason = reason
        if w.conn is not None:
            try:
                w.conn.close()
            except OSError:
                pass
            w.conn = None
        exitcode = None
        if w.process is not None:
            try:
                w.process.join(timeout=2.0)
                exitcode = w.process.exitcode
            except (OSError, ValueError, AssertionError):
                pass
        if w.exit_seen or (w.proc is not None
                           and w.proc.state == ProcState.DONE):
            # the full stream was already delivered: a closed pipe after
            # the exit message is a normal shutdown, not a failure
            w.alive = False
            return
        if not w.restartable or w.restarts >= self.max_worker_restarts:
            w.alive = False
            raise HostError(self._forensic(w, reason, exitcode),
                            report=self._forensic_report(w, reason, exitcode))
        w.restarts += 1
        self.stats.counter("worker_restarts").add(key=w.spec.name)
        _time.sleep(min(self.worker_backoff * (2 ** (w.restarts - 1)), 2.0))
        # everything queued but not consumed will be re-streamed; replay
        # skips exactly the consumed prefix
        w.queue.clear()
        w.skip = w.consumed
        w.streamed = 0
        w.reply_cursor = 0
        w.alive = True
        self._launch(w)

    def _forensic_report(self, w: _Worker, reason: str,
                         exitcode: Optional[int]) -> dict:
        """Worker post-mortem as JSON-plain data (``last_messages`` are
        pipe tuples — batches summarised, see ``_Worker.last_msgs`` — so
        the whole payload goes through :func:`to_jsonable`); control-plane
        job records embed it with ``json.dumps``."""
        p = w.proc
        return to_jsonable({
            "worker": w.spec.name,
            "reason": reason,
            "host_pid": w.process.pid if w.process is not None else None,
            "exitcode": exitcode,
            "restarts": w.restarts,
            "max_restarts": self.max_worker_restarts,
            "restartable": w.restartable,
            "messages_consumed": w.consumed,
            "messages_streamed": w.streamed,
            "pending_queue": len(w.queue),
            "last_messages": list(w.last_msgs),
            "sim_pid": p.pid if p is not None else None,
            "sim_state": p.state.name if p is not None else None,
            "sim_vtime": p.vtime if p is not None else None,
            "now": self.gsched.now,
        })

    def _forensic(self, w: _Worker, reason: str,
                  exitcode: Optional[int] = None) -> str:
        r = self._forensic_report(w, reason, exitcode)
        lines = [f"worker {r['worker']!r} failed after "
                 f"{r['restarts']}/{r['max_restarts']} restarts: {reason}",
                 "forensic report:"]
        for key in ("host_pid", "exitcode", "restartable",
                    "messages_consumed", "messages_streamed",
                    "pending_queue", "sim_pid", "sim_state", "sim_vtime",
                    "now", "last_messages"):
            lines.append(f"  {key}: {r[key]}")
        return "\n".join(lines)

    # -- stepping override -----------------------------------------------------

    def _step(self, proc: SimProcess) -> None:
        super()._step(proc)
        # a proxy that yielded COMPUTING parks with no port event; the
        # harvest loop re-steps it when its queue refills
        e = proc.port_event
        if e is not None and e.arg is COMPUTING:
            proc.port_event = None

    # -- the safety condition ----------------------------------------------------

    def _computing(self):
        """Workers still computing their proxy's next message: alive, the
        proxy RUNNING in user mode with nothing parked and nothing queued."""
        for w in self._workers.values():
            p = w.proc
            if (w.alive and p is not None and p.state == ProcState.RUNNING
                    and p.port_event is None and not w.queue
                    and not p.kernel_mode and p.reply is None):
                yield w

    def _ports_quiet(self) -> bool:
        """A computing worker is an event on its way, not a deadlock."""
        return super()._ports_quiet() and next(self._computing(), None) is None

    def _round_gate(self, cand: Optional[SimProcess],
                    t_task: Optional[int]) -> Optional[int]:
        """The conservative safety condition (``Engine._round_gate``).

        The round's winner is the backend task at ``t_task`` when it is due
        no later than ``cand``'s parked event, else ``cand``. A computing
        worker's next event is stamped no earlier than its proxy's
        ``vtime + clock.pending`` — cycles are only ever added to a clock —
        so the winner stays first below that cycle, or up to and including
        it when the winner's pid is smaller (a task goes before any event of
        its cycle). While some worker's bound does not clear the winner,
        wait on those pipes and answer None; otherwise answer the smallest
        bound, which caps how far the winner's batch may be consumed.
        """
        self._since_harvest += 1
        if self._since_harvest >= 512:
            # nothing is starved, but a worker streaming ahead must not
            # stall on a full OS pipe buffer; a drained message may park
            # an earlier event, hence "select again"
            self._since_harvest = 0
            self._harvest()
            return None
        if cand is not None and (t_task is None
                                 or cand.port_event.time < t_task):
            wt, pid = cand.port_event.time, cand.pid
        elif t_task is not None:
            wt, pid = t_task, -1
        else:
            wt, pid = 1 << 62, 1 << 30   # only a worker can move the run on
        cap = self._max_cycles + 1
        unsafe = []
        for w in self._computing():
            p = w.proc
            b = p.vtime + p.clock.pending + (pid < p.pid)
            if b <= wt:
                unsafe.append(w)
            elif b < cap:
                cap = b
        if unsafe:
            self._harvest(block_on=unsafe)
            return None
        return cap

    # -- cleanup ------------------------------------------------------------

    def shutdown(self) -> None:
        """Terminate worker processes and restore CPU affinity
        (idempotent)."""
        if self._affinity is not None:
            try:
                os.sched_setaffinity(0, os.sched_getaffinity(os.getppid()))
            except (OSError, AttributeError):
                try:
                    import multiprocessing as _mp
                    os.sched_setaffinity(
                        0, set(range(_mp.cpu_count())))
                except OSError:
                    pass
            self._affinity = None
        for w in self._workers.values():
            p = w.process
            if p is not None:
                # tolerate workers that already died, were killed by the
                # supervisor, or were never successfully started
                try:
                    if p.is_alive():
                        p.terminate()
                except (OSError, ValueError):
                    pass
            if w.conn is not None:
                try:
                    w.conn.close()
                except OSError:
                    pass
                w.conn = None
        for w in self._workers.values():
            p = w.process
            if p is None:
                continue
            try:
                p.join(timeout=2)
                if p.is_alive():
                    p.kill()
                    p.join(timeout=1)
            except (OSError, ValueError, AssertionError):
                pass

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
