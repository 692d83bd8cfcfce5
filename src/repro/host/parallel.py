"""Frontends as real host processes (the Table 3 experiment).

Protocol
--------
A worker process interprets its ISA program and streams events to the
backend over a pipe:

* memory/advance events are **fire-and-forget** — the interpreter's control
  flow never depends on a reference's latency, so the worker keeps running
  while the backend times the reference (this is the shared-memory implicit
  communication of the paper's communicator);
* control events (OS calls, lock/unlock/barrier, EXIT) **block** the worker
  until the backend replies, because the result feeds back into execution;
* events carry the pending-cycle delta accumulated since the previous event,
  so the backend can stamp exact execution times in order.

Worker-side pre-timing (leases)
-------------------------------
With ``SimConfig.lookahead`` on, a worker that has streamed
``SimConfig.worker_lease`` consecutive full fire-and-forget batches sends a
lease request (``"lr"``) and blocks. When the simulation reaches that stream
position the proxy either denies (``"ld"``) or grants (``"lg"``) a window
``[t0, T)`` together with a read-only snapshot of the worker's own L1 state
and page table. The worker then times its next references *itself* against
a private mirror — but only references that satisfy the L1 fast-path
full-hit predicate, which touch nothing outside the issuer's private state
(see DESIGN.md, "Conservative lookahead windows") — and reports the result
as one pre-timed delta (``"pr"``) instead of dozens of event messages.
``T`` is the earliest cycle at which a backend task could run or a rival
frontend could act *visibly* — its parked event and already-harvested
stream are walked through their own L1 hits (``_rival_stream_bound``), and
L1 hits of different frontends commute — so the reported timing is
bit-identical to the strict schedule's. Requests are denied (by reason, in
``Engine.stand_downs``) while anything needs the strict per-reference
stream: a memory tap (checkpointing is one), bounded stepping, a sampler.

Conservative ordering
---------------------
The backend may only process the globally-earliest event. A worker whose
queue is empty might still produce an earlier event, but never earlier than
its current virtual time — that lower bound tells the backend when it is
safe to proceed and when it must wait for a pipe (the same reasoning the
COMPASS communicator applies while scanning event ports). With the same
timestamps and the same pid tie-break as inline mode, parallel runs produce
bit-identical simulated results.

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
from ..mem.hierarchy import KERNEL_BASE

#: sentinel yielded by the proxy while its worker computes ahead
COMPUTING = object()


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


def _drain_lease(conn: Connection, gen, m, grant: tuple):
    """Consume fire-and-forget events worker-side under a granted lease.

    ``grant`` carries the window ``[t0, T)`` plus a snapshot of the
    worker's own L1 line states, per-set LRU orders and page table. Each
    reference is qualified against the mirror with exactly the backend's
    L1 fast-path predicate (translate, every line present, writes need
    state >= EXCLUSIVE) and, when it qualifies, timed with exactly the
    fast-path latency and applied to the mirror (LRU move-to-front,
    EXCLUSIVE->MODIFIED flips). The first reference that would take the
    slow path — or would issue at or past the window end — stops the
    drain; it is returned *unconsumed* (its pending delta still in
    ``m.pending``) for normal streaming. The drain result goes back as
    one ``"pr"`` message — on program end before the StopIteration
    propagates, so the exit message follows in stream order.
    """
    (_, t0, T, states, sets, utable, pshift, pmask, lshift, smask,
     nsets, l1_lat) = grant
    sget = states.get
    uget = utable.get
    t = t0
    #: issue time of the last consumed reference — the strict engine's
    #: global clock lands there (advance_to at each event's issue time)
    last_issue = t0
    n_mem = n_adv = n_lines = 0
    touched: dict = {}
    flips: list = []
    ended = None
    try:
        evt = gen.send(0)
        while True:
            k = evt.kind
            if k > 3:           # control event: stream it normally
                break
            nt = t + m.pending
            if nt >= T:
                break
            if k == 3:          # ADVANCE: a poll point, zero latency
                m.pending = 0
                t = nt
                last_issue = nt
                n_adv += 1
                evt = gen.send(0)
                continue
            vaddr = evt.addr
            if vaddr >= KERNEL_BASE:
                break
            ppn = uget(vaddr >> pshift)
            if ppn is None:
                break
            paddr = (ppn << pshift) | (vaddr & pmask)
            line = paddr >> lshift
            last = (paddr + (evt.size or 1) - 1) >> lshift
            ok = True
            sts = []
            l = line
            while l <= last:
                st = sget(l)
                if st is None or (k != 0 and st < 2):
                    ok = False
                    break
                sts.append(st)
                l += 1
            if not ok:
                break
            nlines = last - line + 1
            for j in range(nlines):
                l = line + j
                idx = l & smask if smask >= 0 else l % nsets
                s = sets[idx]
                if s[0] != l:
                    s.remove(l)
                    s.insert(0, l)
                touched[idx] = s
                if k != 0 and sts[j] == 2:   # EXCLUSIVE -> MODIFIED
                    states[l] = 3
                    flips.append(l)
            m.pending = 0
            t = nt + l1_lat * nlines + (4 if k == 2 else 0)
            last_issue = nt
            n_mem += 1
            n_lines += nlines
            evt = gen.send(0)
    except StopIteration as si:
        ended = si
    conn.send(("pr", n_mem, n_adv, n_lines, t - t0, last_issue,
               touched, flips))
    if ended is not None:
        raise ended
    return evt


def _worker_main(conn: Connection, spec_name: str, program_text: str,
                 segments: list, regs: dict,
                 cpu_affinity: Optional[frozenset], translate: bool,
                 batch_size: int, lease_every: int) -> None:
    """Child-process body: interpret and stream events."""
    if cpu_affinity:
        try:
            os.sched_setaffinity(0, cpu_affinity)
        except (AttributeError, OSError):
            pass
    batch: list = []

    def flush() -> None:
        if batch:
            conn.send(("b", list(batch)))
            batch.clear()

    try:
        prog = assemble(program_text, spec_name)
        dm = DataMemory(spec_name)
        for base, size in segments:
            dm.map_segment(base, size)
        m = Machine(dm)
        for r, v in regs.items():
            m.regs[r] = v
        gen = Interpreter(prog, m).run(translate=translate)
        reply = None
        full_runs = 0
        evt = next(gen)
        while True:
            delta = m.pending
            m.pending = 0
            if evt.kind <= ev.EvKind.ADVANCE:   # memory / advance
                batch.append((evt.kind, evt.addr, evt.size, delta))
                reply = 0
                if len(batch) >= batch_size:
                    flush()
                    full_runs += 1
                    if lease_every and full_runs >= lease_every:
                        # steady fire-and-forget state: ask to time the
                        # next stretch ourselves (deterministic stream
                        # position — right after a full batch flush)
                        full_runs = 0
                        conn.send(("lr",))
                        grant = conn.recv()
                        if grant[0] == "lg":
                            evt = _drain_lease(conn, gen, m, grant)
                            continue
            else:
                full_runs = 0
                flush()
                conn.send(("c", evt.kind, evt.addr, evt.size, evt.arg, delta))
                reply = _decode_reply(conn.recv())
            evt = gen.send(reply)
    except StopIteration as si:
        flush()
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

    __slots__ = ("spec", "proc", "conn", "process", "queue", "computing",
                 "alive", "consumed", "streamed", "skip", "reply_cursor",
                 "control_replies", "restarts", "restartable", "exit_seen",
                 "last_msgs", "death_reason")

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.proc: Optional[SimProcess] = None
        self.conn: Optional[Connection] = None
        self.process: Optional[mp.Process] = None
        #: decoded event messages waiting to be replayed into the proxy
        self.queue: deque = deque()
        self.computing = True
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
        #: ring of the last raw messages, for the forensic report
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
        # worker proxies replay one decoded event per generator step; the
        # batched port pipeline only applies to in-process frontends
        self._frontend_batching = False
        self._workers: Dict[int, _Worker] = {}
        self._ctx = mp.get_context("fork")
        # -- worker-side pre-timing (lookahead layer 2) -------------------
        #: workers ask for a lease after ``worker_lease`` consecutive full
        #: fire-and-forget batches (never when this is off)
        self._lease_on = bool(cfg.lookahead and cfg.worker_lease)
        #: a granted window shorter than this is not worth the snapshot
        self.lease_min_window = 64
        #: pre-timed events to drain from the run loop's event budget
        self._pretimed = 0
        #: run-bound caps for lease windows, stashed by run()
        self._run_until = self._max_cycles + 1
        self._run_budget_capped = False
        self.batch_stats.setdefault("leases", 0)
        self.batch_stats.setdefault("lease_refs", 0)
        self.batch_stats.setdefault("lease_denied", 0)
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
        """Launch a worker process and register its frontend."""
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
                  w.spec.regs, self._affinity, self._frontend_translate,
                  self.cfg.worker_batch,
                  self.cfg.worker_lease if self._lease_on else 0),
            daemon=True)
        p.start()
        child.close()
        w.conn = parent
        w.process = p

    def _proxy(self, w: _Worker):
        """Engine-side base frame replaying the worker's event stream."""
        clock = None
        while True:
            while not w.queue:
                # park until the harvest loop refills the queue; the sentinel
                # rides in an ADVANCE event so the base stepper can stamp it
                yield ev.Event(ev.EvKind.ADVANCE, 0, 0, COMPUTING)
            msg = w.queue.popleft()
            w.consumed += 1
            tag = msg[0]
            if tag == "exit":
                if clock is None:
                    clock = w.proc.clock
                clock.pending += msg[2]
                w.alive = False
                return msg[1]
            if clock is None:
                clock = w.proc.clock
            if tag == "m":
                kind, addr, size, delta = msg[1], msg[2], msg[3], msg[4]
                clock.pending += delta
                yield ev.Event(kind, addr, size)
            elif tag == "lr":
                # lease request: everything the worker streamed before it
                # has been consumed and timed (stream order), so the
                # simulation is exactly at the worker's position — decide
                # and answer without yielding. Recorded like a control
                # reply so crash replay re-answers it identically.
                self._answer(w, self._lease_decision(w), "a lease request")
            elif tag == "pr":
                # pre-timed drain result: fold it into the proxy's clock
                # and the backend caches, no yield (the engine never saw
                # these references as events)
                self._apply_pretimed(w, msg)
            else:   # control
                kind, addr, size, arg, delta = (msg[1], msg[2], msg[3],
                                                msg[4], msg[5])
                clock.pending += delta
                reply = yield ev.Event(kind, addr, size, arg)
                self._answer(w, _encode_reply(reply), "a control reply")

    def _answer(self, w: _Worker, enc: tuple, what: str) -> None:
        """Answer a blocked worker: a control reply or a lease decision.

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
                    msg = c.recv()
                    if msg[0] == "b":
                        ok = True
                        for kind, addr, size, delta in msg[1]:
                            if not self._ingest(w, ("m", kind, addr, size,
                                                    delta)):
                                ok = False
                                break
                        if not ok:
                            break
                    elif not self._ingest(w, msg):
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
        w.last_msgs.append(msg)
        if msg[0] == "exit":
            w.exit_seen = True
        if w.streamed < w.skip:
            # replaying a restarted worker's deterministic stream: this
            # message was consumed before the crash — discard it, but
            # answer re-sent controls (and lease requests — the recorded
            # grant carries the original snapshot, so the re-run drain is
            # deterministic) from the recorded reply log
            w.streamed += 1
            if msg[0] in ("c", "lr"):
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

    # -- worker-side pre-timing ----------------------------------------------

    def _lease_decision(self, w: _Worker) -> tuple:
        """Grant or deny a worker's lease request (see module docstring).

        A grant is safe only when (a) every reference the worker will
        drain can be timed from its own private L1 state — enforced
        reference-by-reference worker-side via the fast-path predicate —
        and (b) nothing else can act *visibly* before the window's end
        ``T``: no backend task, no rival frontend (``_rival_stream_bound``,
        with the pid tie-break), and no pending delivery for this
        frontend. The gate every window passes (:meth:`Engine._stand_down`)
        comes first, then the reasons only a lease has, each counted in
        ``stand_downs`` (``lease_denied`` is their sum).
        """
        p = w.proc
        why = self._stand_down(p)
        if why is None:
            why = ("sampler" if self._sampler is not None
                   else "bounded_run" if self._run_budget_capped
                   else "kernel_mode" if p.kernel_mode
                   else "pending_batch" if p.pending_batches
                   else None)
            grant = self._lease_grant(p) if why is None else None
            if grant is not None:
                return grant
            self.stand_downs[why or "short_window"] += 1
        self.batch_stats["lease_denied"] += 1
        return ("ld",)

    def _lease_grant(self, p: SimProcess) -> Optional[tuple]:
        """The ``"lg"`` message granting ``[t0, T)``; None: window too short"""
        ms = self.memsys
        t0 = p.vtime + p.clock.pending
        T = self._run_until
        t_task = self.gsched.next_time()
        if t_task is not None and t_task < T:
            T = t_task
        pid = p.pid
        for q in self.comm.running():
            if q is p:
                continue
            b = self._rival_stream_bound(q, T)
            if pid < q.pid:
                b += 1
            if b < T:
                T = b
        if T - t0 < self.lease_min_window:
            return None
        cpu = p.cpu
        sp = ms._spaces.get(pid)
        return ("lg", t0, T,
                dict(ms._l1_states[cpu]),
                [list(s) for s in ms._l1_sets[cpu]],
                dict(sp.table) if sp is not None else {},
                ms._page_shift, ms._page_mask, ms._line_shift,
                ms._l1_set_mask, ms._l1_nsets, ms._l1_latency)

    def _apply_pretimed(self, w: _Worker, msg: tuple) -> None:
        """Fold a worker's ``"pr"`` drain result into the backend.

        The drained references were all L1 fast-path full hits, so their
        only backend-visible effects are the issuer's own LRU orders,
        EXCLUSIVE->MODIFIED flips (mirrored into the inclusive L2) and
        the commutative hit/access counters — exactly what the strict
        engine would have produced processing them one event at a time.
        """
        _, n_mem, n_adv, n_lines, advance, last_issue, touched, flips = msg
        p = w.proc
        ms = self.memsys
        cpu = p.cpu
        sets = ms._l1_sets[cpu]
        for idx, lst in touched.items():
            sets[idx][:] = lst
        states = ms._l1_states[cpu]
        l2s = ms._l2_states[cpu] if ms._l2_states is not None else None
        for line in flips:
            states[line] = 3
            if l2s is not None and line in l2s:
                l2s[line] = 3
        ms.l1s[cpu].hits += n_lines
        ms.accesses += n_mem
        ms.fast_hits += n_mem
        self.batch_stats["leases"] += 1
        self.batch_stats["lease_refs"] += n_mem
        n = n_mem + n_adv
        if n:
            # materialise the drained span into virtual time directly (not
            # clock.pending): the program may exit before another event, and
            # pending cycles are dropped at exit exactly like the strict
            # path drops trailing compute — but these cycles were *timed*
            # references. The global clock lands on the last issue time, as
            # advance_to would have per event; both are below the window
            # end, hence below every visible rival action and backend task.
            p.vtime += p.clock.pending + advance
            p.clock.pending = 0
            self.gsched.advance_to(last_issue)
            self._last_progress = last_issue
        self.events_processed += n
        self._pretimed += n

    def _rival_stream_bound(self, q: SimProcess, cap: int) -> int:
        """Earliest cycle at which rival ``q`` could act *non-invisibly*:
        the one rule that bounds a lease window.

        A rival that is not a worker proxy, runs OS-server code or has a
        delivery pending is bounded at its parked event (or, computing,
        at its published virtual time): what follows runs in this process
        and reads the global clock, as in ``Engine._invisible_bound``. A
        *user-mode* proxy's single references can be walked through
        (loads/stores qualified with a read-only fast-path probe, ADVANCE
        poll points pure time), because the code that follows them runs
        in the worker process and cannot read this process's clock. The
        walk goes on through the rival's already-harvested message queue,
        clamped at ``cap``. Every stop case returns a cycle the strict
        engine could not order a visible action of ``q`` before.
        """
        t = q.vtime + q.clock.pending
        e = q.port_event
        if e is not None:
            t = e.time
        w = self._workers.get(q.pid)
        if (w is None or q.cpu < 0 or q.kernel_mode
                or self._delivery_due(q, self.comm.cpus[q.cpu])):
            return t
        ms = self.memsys
        if e is not None:
            kind = e.kind
            if kind > 3:
                return t
            if kind != 3:
                lat = ms.ref_invisible_latency(q.pid, q.cpu, kind,
                                               e.addr, e.size)
                if lat < 0:
                    return t
                t += lat
            if t >= cap:
                return cap
        for msg in w.queue:
            tag = msg[0]
            if tag == "m":
                issue = t + msg[4]
                if issue >= cap:
                    return cap
                kind = msg[1]
                if kind == 3:
                    t = issue
                    continue
                lat = ms.ref_invisible_latency(q.pid, q.cpu, kind,
                                               msg[2], msg[3])
                if lat < 0:
                    return issue
                t = issue + lat
            elif tag == "c":
                return t + msg[5]
            elif tag == "exit":
                return t + msg[2]
            elif tag == "pr":
                # a queued drain result: all fast-path full hits
                # (invisible), spanning ``advance`` cycles
                t += msg[4]
            else:
                return t
        return t

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
        raw pipe tuples, so the whole payload goes through
        :func:`to_jsonable`); control-plane job records embed it with
        ``json.dumps``."""
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

    # -- the run loop with the safety condition ---------------------------------

    def _unsafe_workers(self, horizon: int, pid: int) -> List[_Worker]:
        """Workers that might still produce an event ordered before
        (horizon, pid): computing, alive, with an empty queue, and a virtual
        time at or before the horizon."""
        out = []
        for w in self._workers.values():
            p = w.proc
            if (w.alive and p is not None and p.state == ProcState.RUNNING
                    and p.port_event is None and not w.queue
                    and not p.kernel_mode and p.reply is None):
                lb = p.vtime + p.clock.pending
                if lb < horizon or (lb == horizon and p.pid < pid):
                    out.append(w)
        return out

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> StatsRegistry:
        """Conservative parallel run loop."""
        import time as _wall
        if not self._timer_started:
            self.timer.start()
            self._timer_started = True
        ck = self._ckpt
        if ck is not None:
            ck.on_run_begin(self, until, max_events)
        sam = self._sampler
        t0 = _wall.perf_counter()
        budget = max_events if max_events is not None else (1 << 62)
        # lease-window caps for this run: windows must not reach past the
        # run bound, and bounded-event stepping needs the strict stream
        self._run_until = self._max_cycles + 1
        if until is not None and until + 1 < self._run_until:
            self._run_until = until + 1
        self._run_budget_capped = max_events is not None
        since_harvest = 0
        wd_rounds = 0
        wd_time = -1
        wd_limit = self._watchdog_rounds
        while budget > 0:
            if self._pretimed:
                # events timed worker-side under a lease still count
                # against the caller's event budget
                budget -= self._pretimed
                self._pretimed = 0
            if self._live <= 0:
                break
            if ck is not None and ck.on_loop_top(self):
                # replay stop: skip finalisation, same as Engine.run
                return self.stats
            if sam is not None:
                sam.on_loop_top(self)
            now = self.gsched.now
            if now != wd_time:
                wd_time = now
                wd_rounds = 0
            else:
                wd_rounds += 1
                if wd_rounds > wd_limit:
                    self._report_deadlock(
                        self.comm.live_processes(),
                        reason=f"watchdog: global time stuck at cycle {now} "
                               f"for {wd_rounds} scheduler rounds (livelock)")
            # pipes only need draining when a worker is starved (the unsafe
            # check below catches the ones that matter for ordering) or
            # periodically to keep OS pipe buffers from filling
            since_harvest += 1
            if since_harvest >= 512:
                since_harvest = 0
                self._harvest()
            t_task = self.gsched.next_time()
            cand = self.comm.select()
            if cand is None and t_task is None:
                self._harvest()
                if self.comm.select() is not None:
                    continue
                waiters = self._unsafe_workers(1 << 62, 1 << 30)
                if not waiters:
                    self._report_deadlock(self.comm.live_processes())
                self._harvest(block_on=waiters)
                continue
            horizon = cand.port_event.time if cand is not None else t_task
            pid = cand.pid if cand is not None else (1 << 30)
            if t_task is not None and (cand is None or t_task <= horizon):
                horizon, pid = t_task, -1
            unsafe = self._unsafe_workers(horizon, pid)
            if unsafe:
                self._harvest(block_on=unsafe)
                continue
            if cand is None or (t_task is not None
                                and t_task <= cand.port_event.time):
                if until is not None and t_task > until:
                    break
                task = self.gsched.pop_due(t_task)
                self.gsched.run_task(task)
                if (cand is None
                        and self.comm.next_event_time() is None
                        and not self._unsafe_workers(1 << 62, 1 << 30)
                        and self.gsched.now - self._last_progress
                        > self._deadlock_window):
                    live = self.comm.live_processes()
                    if not any(p.state == ProcState.BLOCKED for p in live):
                        self._report_deadlock(live)
                    self._last_progress = self.gsched.now
                continue
            if until is not None and cand.port_event.time > until:
                break
            event = cand.port_event
            cand.port_event = None
            self.gsched.advance_to(event.time)
            self.events_processed += 1
            self._last_progress = event.time
            budget -= 1
            self._handle_event(cand, event)
        if self._live <= 0:
            self.timer.stop()
        self.stats.end_cycle = self.gsched.now
        self.stats.host_seconds += _wall.perf_counter() - t0
        self._account_trailing_idle()
        return self.stats

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
