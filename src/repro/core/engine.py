"""The COMPASS simulation engine.

Binds the pieces of Figure 1 together: frontend processes exchange events
with the backend through the communicator; the backend services each event
(memory system, sync managers, OS dispatch), replies, and lets the frontend
run ahead to its next event; devices and deferred work live in the global
event scheduler. The loop always takes whichever is earliest — the smallest
frontend event-port timestamp or the head of the task queue — so the whole
simulation executes in one global time order.
"""

from __future__ import annotations

import time as _wallclock
from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .. import devices as _devices
from .. import osim as _osim
from ..faults import FaultInjector
from ..mem.hierarchy import MemorySystem
from ..mem.pagetable import MajorFault
from . import events as ev
from .communicator import Communicator
from .config import SimConfig
from .errors import DeadlockError, FrontendError
from .jsonable import to_jsonable
from .frontend import (Coroutine, FrontendClock, Proc, ProcState, SimProcess,
                       WaitToken)
from .sampling import SamplingController
from .scheduler import GlobalScheduler
from .stats import StatsRegistry
from .sync import BarrierManager, LockManager, lock_address

class _SignalMark:
    """Stats marker for signal-wrapper frames (they cost nothing)."""

    source = "signal"
    handler_cycles = 0


_SIGNAL_MARK = _SignalMark()

#: default private VMA for spawned processes (text+data+heap+stack)
DEFAULT_ANON_BASE = 0x0001_0000
DEFAULT_ANON_END = 0xB000_0000
#: region managed by the mmap/shmat address allocator
MMAP_BASE = 0xB000_0000


class Engine:
    """One simulated machine plus its workload."""

    def __init__(self, cfg: SimConfig,
                 stats: Optional[StatsRegistry] = None) -> None:
        cfg.validate()
        self.cfg = cfg
        self.stats = stats if stats is not None else StatsRegistry(cfg.num_cpus)
        self.gsched = GlobalScheduler()
        self.memsys = MemorySystem(cfg, self.stats)
        self.locks = LockManager()
        self.barriers = BarrierManager()
        self.procsched = _osim.ProcessScheduler(
            cfg.num_cpus, cfg.os.scheduler, self.memsys.vmm.cpu_node)
        self.comm = Communicator(self.procsched.on_cpu)
        self.intctl = _osim.InterruptController(self.comm.cpus)
        self.intctl.post_hook = self._interrupt_posted
        self.timer = _devices.IntervalTimer(
            self.gsched, self.intctl, cfg.os.timer_interval,
            cfg.os.timer_handler_cycles, cfg.num_cpus)
        if cfg.os.preemptive:
            self.timer.on_tick.append(self._preempt_tick)
        self.disk = _devices.Disk("hd0", self.gsched, self.intctl,
                                  cfg.disk, cfg.clock)
        self.nic = _devices.EthernetNic("en0", self.gsched, self.intctl,
                                        cfg.ethernet, cfg.clock)
        #: signal manager (§4.1 non-augmented wrapper delivery)
        self.signals = _osim.signals.SignalManager()
        # the OS server pairs threads with processes and owns the
        # category-1 syscall models (fs, sockets, ipc)
        self.os_server = _osim.OSServer(self)
        #: seeded deterministic fault injection; with no (or an empty) plan
        #: the injector is disabled, no hooks are bound anywhere, and runs
        #: are bit-identical to a build without the subsystem
        self.faults = FaultInjector(cfg.faults, self.stats)
        self._faults_on = self.faults.enabled
        if self._faults_on:
            self.stats.counter("fault_plan_seed").add(self.faults.plan.seed)
            self._wire_faults()
        #: per-process mmap address allocator cursor
        self._mmap_cursor: Dict[int, int] = {}
        #: pid -> tokens to wake when that process exits (waitpid support)
        self._exit_watchers: Dict[int, List[WaitToken]] = {}
        self.events_processed = 0
        #: frontends publish EventBatches instead of per-reference events
        self._frontend_batching = bool(cfg.fastpath)
        #: batched-pipeline observability: batches consumed, references
        #: consumed, and why each consume loop stopped; ``la_windows`` /
        #: ``la_refs`` count granted lookahead windows and references
        #: consumed beyond the strict rival horizon. The last four keys
        #: stay 0: nothing writes them, ``benchmarks/e2e/bench.py`` reads
        #: them (the next ``benchmark`` PR drops both)
        self.batch_stats: Dict[str, int] = {
            "batches": 0, "refs": 0, "completed": 0,
            "cut_horizon": 0, "cut_budget": 0, "cut_intr": 0,
            "cut_fault": 0, "la_windows": 0, "la_refs": 0,
            "sp_windows": 0, "sp_refs": 0, "sp_commits": 0,
            "sp_rollbacks": 0,
        }
        #: windows not opened, by the owner's stand-down reason in
        #: ``_handle_batch`` (the rows of DESIGN.md's stand-down table), at
        #: most one a round; observability only: in no
        #: ``batch_stats``, fingerprint, checkpoint
        self.stand_downs: Dict[str, int] = dict.fromkeys(
            ("delivery", "tapped", "fast_forward", "miss"), 0)
        #: fillings re-issued from ``events._kept``, emptied per engine
        self.reissued_fillings = 0
        ev._kept.clear()
        self._max_cycles = cfg.max_cycles
        self._timer_started = False
        #: count of not-yet-exited processes (kept in step with spawns/exits)
        self._live = 0
        #: cycle of the last frontend progress (event processed / wake /
        #: dispatch); when only housekeeping tasks fire for this many cycles
        #: with live processes, the run is declared deadlocked
        self._last_progress = 0
        self._deadlock_window = max(10 * cfg.os.timer_interval, 10_000_000)
        #: watchdog: scheduler rounds tolerated with global time frozen
        self._watchdog_rounds = cfg.watchdog_rounds
        #: ring of the most recent events, for deadlock/livelock forensics:
        #: (cycle, pid, event kind) tuples
        self._recent_events: deque = deque(maxlen=8)
        #: deterministic checkpoint/restore; None = subsystem entirely off
        #: (no tap installed, no hook bound, zero cost)
        self._ckpt = None
        if cfg.checkpoint_interval > 0:
            from ..checkpoint import CheckpointManager
            self._ckpt = CheckpointManager(self, cfg.checkpoint_path,
                                           cfg.checkpoint_interval)
        #: sampled-simulation window controller; None = full detail (one
        #: ``is not None`` a round — see core/sampling.py)
        self._sampler = (None if cfg.sampling is None
                         else SamplingController(self, cfg.sampling))

    def _wire_faults(self) -> None:
        """Bind injection hooks at every armed site.

        Called only for a non-empty plan, so disabled runs never see an
        extra attribute, branch, or RNG draw on a hot path.
        """
        fi = self.faults
        if fi.has_prefix("mem:"):
            self.memsys.fault_extra = fi.mem_extra
        if fi.has_prefix("disk:latency"):
            self.disk.fault_hook = fi.disk_latency_extra
        if fi.has_prefix("tcp:"):
            self.os_server.net.faults = fi
        if fi.has_prefix("link:"):
            proto = getattr(self.memsys, "protocol", None)
            hook = fi.link_extra
            for attr in ("bus", "dirctl", "memctl", "amctl"):
                res = getattr(proto, attr, None)
                if res is None:
                    continue
                if isinstance(res, list):
                    for r in res:
                        r.fault_hook = hook
                else:
                    res.fault_hook = hook
            net = getattr(proto, "network", None)
            if net is not None:
                net.set_fault_hook(hook)

    # ------------------------------------------------------------------
    # process setup
    # ------------------------------------------------------------------

    def spawn(self, name: str,
              app: Callable[[Proc], Coroutine],
              map_default: bool = True,
              clock: Optional[FrontendClock] = None) -> SimProcess:
        """Create a frontend process running ``app(proc_api)``.

        ``map_default=True`` installs the standard private VMA so the app can
        reference heap/stack addresses immediately.
        """
        proc = SimProcess(name, clock=clock)
        proc.batching = self._frontend_batching
        self.memsys.vmm.new_space(proc.pid)
        if map_default:
            self.memsys.vmm.map_anon(proc.pid, DEFAULT_ANON_BASE,
                                     DEFAULT_ANON_END - DEFAULT_ANON_BASE)
        api = Proc(proc)
        proc.base_frame(app(api))
        proc.vtime = self.gsched.now
        proc.acct_mark = proc.vtime
        self.comm.register(proc)
        self._live += 1
        self.os_server.pair(proc)
        disp = self.procsched.admit(proc)
        if disp is not None:
            self._dispatch(disp[0], disp[1], self.gsched.now)
        return proc

    def spawn_interpreter(self, name: str, interp) -> SimProcess:
        """Spawn a frontend executing an ISA interpreter (the faithful
        instrumented-assembly path). The interpreter's pending-cycle counter
        becomes the process clock: the machine has the ``pending`` slot the
        engine reads and writes. The program is translated before the
        engine takes any state, so a ``TranslationError`` leaves it as it
        was."""
        gen = interp.run(batched=self._frontend_batching)
        return self.spawn(name, lambda _api: gen, clock=interp.machine)

    def mmap_alloc(self, pid: int, size: int) -> int:
        """Pick a free address in the mmap region (page aligned)."""
        ps = self.cfg.backend.memory.page_size
        size = (size + ps - 1) & ~(ps - 1)
        cur = self._mmap_cursor.get(pid, MMAP_BASE)
        self._mmap_cursor[pid] = cur + size
        return cur

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> StatsRegistry:
        """Simulate until every process exits (or a bound is hit)."""
        if not self._timer_started:
            self.timer.start()
            self._timer_started = True
        ck = self._ckpt
        if ck is not None:
            ck.on_run_begin(self, until, max_events)
        sam = self._sampler
        t0 = _wallclock.perf_counter()
        budget = max_events if max_events is not None else (1 << 62)
        wd_rounds = 0
        wd_time = -1
        gsched = self.gsched
        heap = gsched._heap
        # bound once per run; an instance-level override (the interleaving
        # ablation's selector, a test's _handle_event spy — both installed
        # before run is called) is what gets bound
        select = self.comm.select
        handle_event = self._handle_event
        max_cycles = self._max_cycles
        gate = self._round_gate
        #: no batch reference is consumed at or past this cycle
        cap = max_cycles + 1
        while budget > 0:
            if self._live <= 0:
                break
            if ck is not None:
                ck.on_loop_top(self)
            now = gsched.now
            if now != wd_time:
                wd_time = now
                wd_rounds = 0
            else:
                wd_rounds += 1
                if wd_rounds > self._watchdog_rounds:
                    self._report_deadlock(
                        self.comm.live_processes(),
                        reason=(f"watchdog: global time stuck at cycle {now} "
                                f"for {wd_rounds} scheduler rounds "
                                "(livelock)"))
            # a live heap head is the next task; next_time() only has to
            # run when cancelled tasks need dropping first
            if heap and not heap[0].cancelled:
                t_task = heap[0].when
            else:
                t_task = gsched.next_time()
            cand = select()
            if gate is not None:
                cap = gate(cand, t_task)
                if cap is None:
                    continue
            if sam is not None:
                # a phase switches before the first winner at or past it
                t = t_task
                if cand is not None and (t is None
                                         or cand.port_event.time < t):
                    t = cand.port_event.time
                if t is not None and t >= sam.boundary:
                    sam.cross(t)
            if cand is None:
                if t_task is None:
                    self._report_deadlock(self.comm.live_processes())
                if until is not None and t_task > until:
                    break
                task = gsched.pop_due(t_task)
                gsched.run_task(task)
                if (self._ports_quiet()
                        and gsched.now - self._last_progress
                        > self._deadlock_window):
                    # long silence is only a deadlock when nobody is waiting
                    # for a device completion: BLOCKED processes have wakers
                    # scheduled (a deep disk queue can legitimately run tens
                    # of millions of cycles ahead of the frontends); timer
                    # ticks are no wakers, they only flag pre-emption
                    live = self.comm.live_processes()
                    if not any(p.state == ProcState.BLOCKED for p in live):
                        self._report_deadlock(live)
                    if all(t.cancelled or t.fn == self.timer._tick
                           for t in heap):
                        self._report_deadlock(
                            live, reason="no frontend can make progress and "
                                         "only timer ticks are left to run")
                    self._last_progress = gsched.now
                continue
            event = cand.port_event
            et = event.time
            if t_task is not None and t_task <= et:
                if until is not None and t_task > until:
                    break
                task = gsched.pop_due(t_task)
                gsched.run_task(task)
                continue
            if until is not None and et > until:
                break
            if et > max_cycles:
                raise DeadlockError(
                    f"simulation exceeded max_cycles={max_cycles}"
                )
            cand.port_event = None
            if et > gsched.now:
                gsched.now = et
            self._last_progress = et
            if event.kind == 9:     # EvKind.BATCH
                # no reference of the round is consumed at or past the next
                # backend task (tasks can mutate anything), the run bounds
                # or the sampler's next phase switch
                bound = cap
                if t_task is not None and t_task < bound:
                    bound = t_task
                if until is not None and until + 1 < bound:
                    bound = until + 1
                if sam is not None and sam.boundary < bound:
                    bound = sam.boundary
                n = self._handle_batch(cand, event, bound, budget)
                self.events_processed += n
                budget -= n
                continue
            self.events_processed += 1
            budget -= 1
            handle_event(cand, event)
        if ck is not None and ck.at_replay_stop(self):
            return self.stats       # the checkpointed run was mid-loop
        if self._live <= 0:
            self.timer.stop()
        self.stats.end_cycle = gsched.now
        self.stats.host_seconds += _wallclock.perf_counter() - t0
        self._account_trailing_idle()
        return self.stats

    #: per-round hook of an engine whose frontends compute in other host
    #: processes (``ParallelEngine``): ``gate(cand, t_task)`` answers None —
    #: "select again", it drained or waited on a port — or the cycle below
    #: which the selected winner stays first against every frontend that
    #: has nothing parked yet, at most ``max_cycles + 1``. None here: the
    #: inline loop pays one ``is not None`` a round.
    _round_gate = None

    def _ports_quiet(self) -> bool:
        """No frontend event is parked (or, for a subclass, on its way):
        what the deadlock window asks before it calls silence a deadlock."""
        return self.comm.next_event_time() is None

    def _report_deadlock(self, live: List[SimProcess],
                         reason: str = "no frontend can make progress and "
                                       "the task queue is empty") -> None:
        report = self.diagnostic_report(reason)
        raise DeadlockError(report["text"], report=report)

    def diagnostic_report(self, reason: str) -> Dict[str, Any]:
        """Structured no-progress diagnostic: per-process states with their
        blocked-on wait tokens, CPU states, lock/barrier ownership and the
        most recent events — everything needed to debug a hang without
        re-running under a debugger.

        The report is JSON-plain (dict[str]/list/str/int only, no live
        objects) so control-plane job records can embed it verbatim with
        ``json.dumps``; in particular lock/barrier ids appear as *string*
        keys."""
        now = self.gsched.now
        procs = []
        for p in sorted(self.comm.processes.values(), key=lambda q: q.pid):
            if p.state == ProcState.DONE:
                continue
            procs.append({
                "pid": p.pid, "name": p.name, "state": p.state.name,
                "cpu": p.cpu, "vtime": p.vtime, "mode": p.mode,
                "frames": len(p.frames),
                "wait": (p.wait.label if p.wait is not None else None),
            })
        cpus = []
        for c, p in zip(self.comm.cpus, self.procsched.on_cpu):
            cpus.append({
                "cpu": c.index, "time": c.time,
                "running_pid": -1 if p is None else p.pid,
                "irq_pending": bool(c.irq_pending),
                "irq_enabled": bool(c.irq_enabled),
            })
        locks = {lid: {"holder": holder, "waiters": waiters}
                 for lid, (holder, waiters) in self.locks.owners().items()}
        barriers = self.barriers.pending()
        recent = list(self._recent_events)
        lines = [f"DEADLOCK at cycle {now}: {reason}",
                 f"  events processed: {self.events_processed}; "
                 f"last progress at cycle {self._last_progress}",
                 "  processes:"]
        for p in procs:
            lines.append(
                f"    pid={p['pid']} {p['name']!r} state={p['state']} "
                f"cpu={p['cpu']} vtime={p['vtime']} mode={p['mode']} "
                f"frames={p['frames']} wait={p['wait']!r}")
        lines.append("  cpus:")
        for c in cpus:
            lines.append(
                f"    cpu{c['cpu']}: time={c['time']} "
                f"running_pid={c['running_pid']} "
                f"irq_pending={c['irq_pending']} "
                f"irq_enabled={c['irq_enabled']}")
        if locks:
            lines.append("  locks:")
            for lid in sorted(locks):
                info = locks[lid]
                lines.append(f"    lock {lid}: holder={info['holder']} "
                             f"waiters={info['waiters']}")
        if barriers:
            lines.append("  barriers:")
            for bid in sorted(barriers):
                lines.append(f"    barrier {bid}: waiting={barriers[bid]}")
        if recent:
            lines.append("  recent events (cycle, pid, kind):")
            lines.extend(f"    {r}" for r in recent)
        return to_jsonable({
            "reason": reason, "now": now,
            "events_processed": self.events_processed,
            "last_progress": self._last_progress,
            "processes": procs, "cpus": cpus,
            "locks": locks, "barriers": barriers,
            "recent_events": recent,
            "text": "\n".join(lines),
        })

    def _account_trailing_idle(self) -> None:
        for c, p in zip(self.comm.cpus, self.procsched.on_cpu):
            if p is None and self.gsched.now > c.idle_since:
                self.stats.cpu[c.index].idle += self.gsched.now - c.idle_since
                c.idle_since = self.gsched.now

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------

    def _handle_event(self, proc: SimProcess, event: ev.Event) -> None:
        kind = event.kind
        now = self.gsched.now
        self._recent_events.append((now, proc.pid, kind))
        resume = True

        if kind <= 2:   # READ / WRITE / RMW: one pass, no shared tail
            lat, major = self.memsys.access(
                proc.pid, event.addr, event.size, kind != 0, proc.cpu, now,
                kind == 2)
            if major is None:
                proc.vtime = vt = proc.vtime + lat
                proc.reply = lat
                cpu_state = self.comm.cpus[proc.cpu]
                if event.mode == "user":
                    # _charge's user arm, in place
                    if vt > proc.acct_mark:
                        self.stats.cpu[proc.cpu].user += vt - proc.acct_mark
                        proc.acct_mark = vt
                        if vt > cpu_state.time:
                            cpu_state.time = vt
                else:
                    self._charge(proc, event.mode)
                if (proc.state == ProcState.RUNNING
                        and not self._delivery_due(proc, cpu_state)):
                    self._step(proc)
                else:
                    self._after_event(proc)
                return
            self._push_fault_handler(proc, event, major)
        elif kind == 3:     # ADVANCE
            proc.reply = 0
        elif kind == 4:     # LOCK
            resume = self._do_lock(proc, event, now)
        elif kind == 5:     # UNLOCK
            self._do_unlock(proc, event, now)
        elif kind == 6:     # BARRIER
            resume = self._do_barrier(proc, event)
        elif kind == 7:     # SYSCALL
            self._do_syscall(proc, event, now)
        elif kind == 8:     # EXIT
            proc.exit_status = event.arg
            proc.reply = 0
        else:  # pragma: no cover
            raise FrontendError(f"unknown event kind {kind}")

        self._charge(proc, event.mode)
        if resume:
            self._after_event(proc)

    # -- the batched hot loop ----------------------------------------------

    def _handle_batch(self, proc: SimProcess, batch: ev.EventBatch,
                      bound: int, budget: int) -> int:
        """One batch round: decide how far ``proc`` may run, then consume
        references from ``batch`` in one tight loop.

        Bit-identity contract: each reference is serviced at exactly the
        cycle and in exactly the global order the per-event path would have
        used. The run loop guarantees the reference at ``cursor`` is
        globally first; ``bound`` is the next backend task or run bound.
        Later references are consumed while their issue time stays below
        the rival ``horizon`` — or below ``ext`` when the owner has no
        stand-down reason (tallied in ``stand_downs``) and a lookahead
        window was granted, in which case references past ``horizon`` must
        resolve invisibly (L1 fast-path full hits commute with everything
        the qualified rivals can do before ``ext``; see DESIGN.md).
        Interrupt/signal/preemption flags only change when backend tasks
        run — never inside this loop — so they are evaluated once on entry:
        when delivery is due, exactly one reference is consumed (the
        per-event path polls after each reference too). Returns the number
        of references consumed.
        """
        cpu = proc.cpu
        pid = proc.pid
        deliver = self._delivery_due(proc, self.comm.cpus[cpu])
        horizon = self.comm.batch_horizon(proc)
        ext = 0
        if horizon is None or horizon >= bound:
            horizon = bound
        else:
            ms = self.memsys
            why = "delivery" if deliver else ms.strict_stream()
            if why is None:
                c = batch.cursor
                cd = ms._vec.cached(pid, cpu, batch)
                if (cd is None or cd.stop == c) and ms.ref_invisible_latency(
                        pid, cpu, batch.kinds[c], batch.addrs[c],
                        batch.sizes[c]) < 0:
                    why = "miss"    # consumed anyway: it is globally first
            if why is None:
                ext = self.comm.lookahead_horizon(
                    proc, horizon, bound, self._invisible_bound)
            else:
                self.stand_downs[why] += 1
        limit = batch.n - batch.cursor
        if budget < limit:
            limit = budget
        if deliver:
            limit = 1
        consumed, i, t, added, fault, ext_refs = self.memsys.access_run(
            pid, cpu, batch, limit, horizon, ext, self.gsched)
        n = batch.n
        batch.cursor = i
        batch.total = total = batch.total + added
        self._last_progress = self.gsched.now
        bs = self.batch_stats
        bs["batches"] += 1
        bs["refs"] += consumed
        if ext > horizon:
            bs["la_windows"] += 1
            bs["la_refs"] += ext_refs
        self._recent_events.append((self.gsched.now, proc.pid, 9))
        if fault is not None:
            # the faulting reference re-runs via the ("retry", batch) meta,
            # which reads no pending: its lead-in is already folded into t
            bs["cut_fault"] += 1
            proc.vtime = t
            batch.time = t
            batch.depth = len(proc.frames)
            proc.pending_batches.append(batch)
            self._push_fault_handler(proc, batch, fault)
            self._charge(proc, batch.mode)
            self._after_event(proc)
            return consumed
        proc.vtime = t
        if i >= n:
            bs["completed"] += 1
            proc.reply = total
            self._charge(proc, batch.mode)
            self._after_event(proc)
            return consumed
        # cut with references remaining
        self._charge(proc, batch.mode)
        if deliver:
            # stash under the handler frames _after_event will push; _step
            # re-parks it when the stack unwinds back to this depth
            bs["cut_intr"] += 1
            batch.depth = len(proc.frames)
            proc.pending_batches.append(batch)
            proc.reply = None
            self._after_event(proc)
        else:
            bs["cut_horizon" if consumed < limit else "cut_budget"] += 1
            batch.time = t + batch.pendings[i]
            proc.port_event = batch
        return consumed

    def _invisible_bound(self, proc: SimProcess, event, cap: int) -> int:
        """Earliest cycle at which rival ``proc`` could next act
        *non-invisibly*, given its parked port event.

        Used by the lookahead scan: another frontend may safely consume
        invisible references up to this cycle without being reordered
        against anything ``proc`` can observe. Only a parked batch extends
        past its own time: it is qualified reference-by-reference
        (read-only) up to ``cap`` by :meth:`MemorySystem.invisible_until`.
        Every single event bounds the window at its own time — locks,
        syscalls and exits act there, and a single memory event, even one
        that would hit L1, is followed by host code of the rival (a syscall
        body arming a timed wake-up, a block or dispatch taking
        ``gsched.now``) that reads the global clock, which a window reaching
        past the event would have advanced. So does a batch with a delivery
        due at its next event boundary: the handler frames it pushes cannot
        be bounded. The owner has ruled out :meth:`MemorySystem.strict_stream`
        in the same round; nothing is tallied here.
        """
        if (event.kind != 9
                or self._delivery_due(proc, self.comm.cpus[proc.cpu])):
            return event.time
        return self.memsys.invisible_until(event.pid, proc.cpu, event, cap)

    # -- memory faults -----------------------------------------------------

    def _push_fault_handler(self, proc: SimProcess, event: ev.Event,
                            fault: MajorFault) -> None:
        """Major (file-backed) page fault: run the VM trap path, then retry
        the faulting reference — the paper's precise-trap mechanism."""
        frame = self.os_server.vm_fault_handler(proc, fault)
        proc.push_frame(frame, "kernel", ("retry", event))
        proc.reply = None
        self.stats.counter("major_fault_traps").add()

    # -- synchronisation -----------------------------------------------------

    def _do_lock(self, proc: SimProcess, event: ev.Event, now: int) -> bool:
        lid = event.arg
        lat, _ = self.memsys.access(proc.pid, lock_address(lid), 4, True,
                                    proc.cpu, now, atomic=True)
        proc.vtime += lat
        if self.locks.acquire(lid, proc):
            proc.reply = lat
            return True
        # contended: block through the process scheduler (AIX-style sleeping
        # lock — the CPU is handed to a ready process, §3.3.3; spinning
        # waiters would deadlock oversubscribed workloads because SYNCWAIT
        # processes emit no events and thus can never be preempted)
        self.stats.counter("lock_contention").add(key=lid)
        self._sync_park(proc, ProcState.SYNCWAIT)
        return False

    def _do_unlock(self, proc: SimProcess, event: ev.Event, now: int) -> None:
        lid = event.arg
        lat, _ = self.memsys.access(proc.pid, lock_address(lid), 4, True,
                                    proc.cpu, now)
        proc.vtime += lat
        proc.reply = lat
        nxt = self.locks.release(lid, proc)
        if nxt is not None:
            # lock-line handoff cost to the new holder
            self._sync_release(nxt, proc.vtime, reply=0)

    def _do_barrier(self, proc: SimProcess, event: ev.Event) -> bool:
        bid, count = event.arg
        released = self.barriers.arrive(bid, count, proc)
        if released is None:
            self._sync_park(proc, ProcState.SYNCWAIT)
            return False
        for w in released:
            self._sync_release(w, proc.vtime, reply=0)
        proc.reply = 0
        return True

    def _sync_park(self, proc: SimProcess, state: ProcState) -> None:
        """Wait for a lock/barrier grant: release the processor (the
        blocking-OS-call protocol of §3.3.3 applied to synchronisation)."""
        self._charge(proc, proc.mode)
        proc.state = state
        self._vacate(proc)

    def _sync_release(self, proc: SimProcess, at: int, reply: int) -> None:
        """Grant a lock/barrier to a parked process: back to the scheduler."""
        proc.vtime = max(proc.vtime, at, self.gsched.now)
        proc.reply = reply
        disp = self.procsched.admit(proc)
        if disp is not None:
            self._dispatch(disp[0], disp[1], proc.vtime)

    # -- syscalls ---------------------------------------------------------

    def _do_syscall(self, proc: SimProcess, event: ev.Event, now: int) -> None:
        name, args = event.arg
        entry = self.os_server.lookup(name)
        self.stats.syscall_counts[name] += 1
        if self._faults_on:
            injected = self.faults.syscall_fault(name)
            if injected is not None:
                # abort at syscall entry with the planned errno, before the
                # handler touches any functional state, so the caller's
                # retry re-executes the call from scratch; the cost mirrors
                # the category-2 accounting (entry + error return)
                errno, kcycles = injected
                proc.vtime += kcycles
                self.stats.cpu[proc.cpu].kernel += kcycles
                self.stats.syscall_cycles[name] += kcycles
                proc.reply = ev.SyscallResult(-1, errno)
                return
        if entry is None:
            proc.reply = ev.SyscallResult(-1, ev.ENOSYS)
            return
        category, handler = entry
        if category == 2:
            # backend-modeled (category 2): immediate effect, direct cost
            result, kcycles = handler(self, proc, *args)
            proc.vtime += kcycles
            self.stats.cpu[proc.cpu].kernel += kcycles
            self.stats.syscall_cycles[name] += kcycles
            proc.reply = result
            return
        # category 1: run instrumented kernel code in the OS thread
        sys_ctx = self.os_server.context_for(proc)
        frame = handler(sys_ctx, *args)
        proc.push_frame(frame, "kernel", ("syscall", (name, proc.vtime)))
        proc.reply = None

    # ------------------------------------------------------------------
    # stepping, interrupts, preemption
    # ------------------------------------------------------------------

    def _delivery_due(self, proc: SimProcess, cpu_state) -> bool:
        """True when ``proc``'s next event boundary has something to
        deliver — a pending enabled interrupt, a signal (user mode only) or
        a pre-emption — i.e. when :meth:`_after_event` would do more than
        step the frontend."""
        return ((cpu_state.irq_pending and cpu_state.irq_enabled
                 and proc.intr_enabled and proc.mode != "interrupt")
                or (not proc.kernel_mode
                    and proc.pid in self.signals.pending)
                or proc.preempt_pending)

    def _after_event(self, proc: SimProcess) -> None:
        """Post-processing at an event boundary: interrupt poll, preemption,
        then run the frontend ahead to its next event."""
        if proc.state != ProcState.RUNNING:
            return
        cpu_state = self.comm.cpus[proc.cpu]
        if (cpu_state.irq_pending and cpu_state.irq_enabled
                and proc.intr_enabled and proc.mode != "interrupt"):
            for intr in self.intctl.pending_for(proc.cpu):
                self.stats.interrupt_counts[intr.source] += 1
                frame = self.intctl.handler_frame(intr, proc.clock)
                proc.push_frame(frame, "interrupt",
                                ("interrupt", (intr, proc.reply, proc.vtime)))
                proc.reply = None
        if not proc.kernel_mode:
            signo = self.signals.pending_for(proc.pid)
            while signo is not None:
                # §4.1: the wrapper runs in user mode with event generation
                # disabled; pushing it costs nothing simulated
                frame = self.signals.wrapper_frame(proc, signo)
                proc.push_frame(frame, "user",
                                ("interrupt", (_SIGNAL_MARK, proc.reply,
                                               proc.vtime)))
                proc.reply = None
                signo = self.signals.pending_for(proc.pid)
        if proc.preempt_pending:
            proc.preempt_pending = False
            if not proc.kernel_mode and self.procsched.ready:
                self._preempt_now(proc)
                return
        self._step(proc)

    def _interrupt_posted(self, cpu: int) -> None:
        """Post-hook from the interrupt controller: when the target CPU has
        no event-producing frontend (idle, spinning on a lock/barrier, or its
        process just blocked), service the interrupt immediately — the idle
        loop takes interrupts without waiting for a memory event."""
        cpu_state = self.comm.cpus[cpu]
        if not cpu_state.irq_enabled:
            return
        proc = self.procsched.on_cpu[cpu]
        if proc is not None:
            if not proc.intr_enabled:
                return   # masked: stays pending until re-enabled
            if proc.state == ProcState.RUNNING:
                return   # the frontend will poll the flag at its next event
        start = max(self.gsched.now, cpu_state.time)
        if proc is None and start > cpu_state.idle_since:
            self.stats.cpu[cpu].idle += start - cpu_state.idle_since
        # charge all handler time first: wake actions may dispatch a process
        # onto this very CPU, and it must see the post-handler clock
        pending = self.intctl.pending_for(cpu)
        t = start
        for intr in pending:
            self.stats.interrupt_counts[intr.source] += 1
            self.stats.interrupt_cycles[intr.source] += intr.handler_cycles
            self.stats.cpu[cpu].interrupt += intr.handler_cycles
            t += intr.handler_cycles
        cpu_state.time = t
        if proc is None:
            cpu_state.idle_since = t
        for intr in pending:
            self.intctl.direct_service(intr)

    def _preempt_tick(self, cpu: int, now: int) -> None:
        """Timer hook: flag the process on ``cpu`` for pre-emption once it
        has held the CPU for a full quantum (the paper's changeable
        pre-emption interval)."""
        p = self.procsched.on_cpu[cpu]
        if (p is not None and p.state == ProcState.RUNNING
                and now - p.run_since >= self.cfg.os.quantum):
            p.preempt_pending = True

    def _preempt_now(self, proc: SimProcess) -> None:
        """Hand ``proc``'s CPU to the head waiter (the caller has seen the
        ready queue non-empty)."""
        cs = self.cfg.os.ctx_switch_cycles
        proc.vtime += cs
        self.stats.cpu[proc.cpu].ctx_switch += cs
        proc.acct_mark = proc.vtime
        self._vacate(proc)

    def _vacate(self, proc: SimProcess) -> None:
        """``proc`` leaves its CPU: pre-empted (still RUNNING: it rejoins
        the ready queue), blocked or parked, or exited (DONE). The
        scheduler hands the CPU on; the head waiter, if any, is dispatched.
        A CPU left idle services a pending interrupt from its idle loop,
        except after an exit, which leaves the interrupt pending."""
        cpu_state = self.comm.cpus[proc.cpu]
        cpu_state.time = max(cpu_state.time, proc.vtime)
        if proc.state == ProcState.RUNNING:
            disp = self.procsched.preempt(proc)
        else:
            disp = self.procsched.release_cpu(proc)
        cpu_state.idle_since = cpu_state.time
        if disp is not None:
            nxt, cpu = disp
            self._dispatch(nxt, cpu, max(self.gsched.now, cpu_state.time))
        elif proc.state != ProcState.DONE:
            self._interrupt_posted(cpu_state.index)

    # -- blocking / waking (paper §3.3.3) ------------------------------------

    def _block(self, proc: SimProcess, token: WaitToken) -> None:
        if token.woken:
            # completion raced ahead of the block: resume immediately
            proc.reply = token.value
            self._step(proc)
            return
        proc.state = ProcState.BLOCKED
        proc.wait = token
        token.waker = lambda t, p=proc: self._token_woken(p, t)
        self._vacate(proc)

    def _token_woken(self, proc: SimProcess, token: WaitToken) -> None:
        if proc.state != ProcState.BLOCKED or proc.wait is not token:
            return
        self._last_progress = max(self._last_progress, self.gsched.now)
        proc.wait = None
        proc.reply = token.value
        proc.vtime = max(proc.vtime, self.gsched.now)
        disp = self.procsched.admit(proc)
        if disp is not None:
            self._dispatch(disp[0], disp[1], self.gsched.now)

    def _dispatch(self, proc: SimProcess, cpu: int, at: int) -> None:
        """Bind ``proc`` to ``cpu`` at cycle ``at`` (plus context switch)."""
        cpu_state = self.comm.cpus[cpu]
        start = max(at, cpu_state.time)
        if start > cpu_state.idle_since:
            self.stats.cpu[cpu].idle += start - cpu_state.idle_since
        cs = self.cfg.os.ctx_switch_cycles
        self.stats.cpu[cpu].ctx_switch += cs
        proc.vtime = max(proc.vtime, start) + cs
        proc.acct_mark = proc.vtime
        proc.run_since = proc.vtime
        cpu_state.time = proc.vtime
        self._step(proc)

    # -- the stepper ----------------------------------------------------------

    def _step(self, proc: SimProcess) -> None:
        """Run the frontend ahead until it parks an event at its port,
        blocks on a wait token, or exits."""
        send_val = proc.reply
        proc.reply = None
        while True:
            pb = proc.pending_batches
            if pb and len(proc.frames) == pb[-1].depth:
                # the frames stacked above a half-consumed batch have all
                # unwound: put it back at the port instead of resuming the
                # generator (which is still suspended at its yield)
                b = pb.pop()
                b.time = proc.vtime + b.pendings[b.cursor]
                proc.port_event = b
                return
            top = proc.frames[-1]
            try:
                out = top.send(send_val)
            except StopIteration as si:
                if len(proc.frames) == 1:
                    self._on_exit(proc, si.value)
                    return
                kind, payload = proc.pop_frame()
                if kind == "syscall":
                    # kernel CPU time is attributed per syscall in _charge
                    # (wall time would double-count disk-blocked waits)
                    rv = si.value
                    if not isinstance(rv, ev.SyscallResult):
                        rv = ev.SyscallResult(rv if rv is not None else 0)
                    send_val = rv
                elif kind == "interrupt":
                    intr, saved, t0 = payload
                    self.stats.interrupt_cycles[intr.source] += (
                        proc.vtime - t0)
                    send_val = saved
                elif kind == "retry":
                    orig = payload
                    batched = orig.kind == 9    # a half-consumed EventBatch
                    if batched:
                        c = orig.cursor
                        k, addr, size = orig.kinds[c], orig.addrs[c], \
                            orig.sizes[c]
                    else:
                        k, addr, size = orig.kind, orig.addr, orig.size
                    lat, major = self.memsys.access(
                        proc.pid, addr, size, k != 0, proc.cpu,
                        self.gsched.now, k == 2)
                    if major is not None:
                        frame = self.os_server.vm_fault_handler(proc, major)
                        proc.push_frame(frame, "kernel", ("retry", orig))
                        send_val = None
                        continue
                    proc.vtime += lat
                    self._charge(proc, orig.mode)
                    send_val = lat
                    if batched:
                        orig.total += lat
                        orig.cursor = c = c + 1
                        proc.pending_batches.pop()
                        if c < orig.n:
                            # the trap's leftover cycles come first, as
                            # on the per-event path
                            proc.vtime += proc.clock.pending
                            proc.clock.pending = 0
                            orig.time = proc.vtime + orig.pendings[c]
                            proc.port_event = orig
                            return
                        # batch done: resume the generator with the
                        # aggregate latency, as one yield reply
                        send_val = orig.total
                else:  # pragma: no cover
                    raise FrontendError(f"bad frame meta {kind!r}")
                continue
            if isinstance(out, WaitToken):
                self._charge(proc, proc.mode)
                self._block(proc, out)
                return
            if out.kind == 9:
                # an EventBatch: per-reference pendings are already folded
                # into the batch (clock.pending holds only cycles belonging
                # to whatever the producer yields next, so leave it alone)
                out.time = proc.vtime + out.pendings[out.cursor]
                if out.reissued:
                    self.reissued_fillings += 1
                out.pid = proc.pid
                out.mode = proc.mode
                out.kernel = proc.kernel_mode
                proc.port_event = out
                return
            # an Event: stamp it and park it at the event port
            clock = proc.clock
            out.time = proc.vtime = proc.vtime + clock.pending
            clock.pending = 0
            out.pid = proc.pid
            out.mode = proc.mode
            out.kernel = proc.kernel_mode
            proc.port_event = out
            return

    def watch_exit(self, pid: int, token: WaitToken) -> None:
        """Wake ``token`` when process ``pid`` exits (waitpid support)."""
        proc = self.comm.processes.get(pid)
        if proc is None or proc.state == ProcState.DONE:
            token.wake(proc.exit_status if proc else -1)
            return
        self._exit_watchers.setdefault(pid, []).append(token)

    def _on_exit(self, proc: SimProcess, status: Any) -> None:
        proc.state = ProcState.DONE
        self._live -= 1
        if proc.exit_status is None:
            proc.exit_status = status if isinstance(status, int) else 0
        self._charge(proc, "user")
        self.signals.clear(proc.pid)
        for token in self._exit_watchers.pop(proc.pid, []):
            token.wake(proc.exit_status)
        self.os_server.unpair(proc)
        if proc.cpu >= 0:
            self._vacate(proc)
        else:
            self.procsched.remove(proc)

    # -- accounting -----------------------------------------------------------

    def _charge(self, proc: SimProcess, mode: str) -> None:
        delta = proc.vtime - proc.acct_mark
        if delta <= 0 or proc.cpu < 0:
            return
        c = self.stats.cpu[proc.cpu]
        if mode == "kernel":
            c.kernel += delta
            for meta in reversed(proc.frame_meta):
                if meta[0] == "syscall":
                    self.stats.syscall_cycles[meta[1][0]] += delta
                    break
                if meta[0] == "retry":
                    self.stats.syscall_cycles["__vm_fault"] += delta
                    break
        elif mode == "interrupt":
            c.interrupt += delta
        else:
            c.user += delta
        proc.acct_mark = proc.vtime
        cpu_state = self.comm.cpus[proc.cpu]
        if proc.vtime > cpu_state.time:
            cpu_state.time = proc.vtime
