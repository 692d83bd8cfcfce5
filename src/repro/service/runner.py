"""Supervised job execution: many sims in watched subprocesses.

The :class:`JobRunner` drives every submitted :class:`JobSpec` to a
terminal state. Each attempt runs in its own forked subprocess built
around a :class:`~repro.service.adapter.SimulatorAdapter`; the child
simulates in ``heartbeat_events``-sized segments (segment cuts are
bit-identical to one uninterrupted run) and reports a heartbeat after
each, so the parent's single-threaded pump — the same
``connection.wait``-over-pipes shape as the PR 3 worker supervision in
``host/parallel.py`` — can tell *slow* from *dead* from *hung*:

* child exits without a result → **crashed**: retry with exponential
  backoff + deterministic jitter;
* heartbeat silence beyond ``hang_timeout`` → **hung**: SIGKILL, retry;
* wall clock beyond ``timeout`` → **timeout**: SIGKILL, retry;
* structured error message (``DeadlockError``/``HostError``…) → retry,
  with the forensic report embedded in the attempt record.

With ``checkpoint_interval`` set, every attempt autosaves through the
PR 4 :class:`~repro.checkpoint.manager.CheckpointManager`; a retried,
preempted, or externally SIGKILLed job *resumes from its last autosave*
instead of restarting, and the checkpoint layer guarantees the resumed
run is bit-identical to an undisturbed one. When the retry budget runs
out, one last "safe mode" attempt resumes the last autosave like any
retry, and keeps autosaving, with ``fastpath`` off: the strict schedule,
which lands the canonical fingerprint, just slower. A checkpoint names the
simulated machine, not the host path, so either arm resumes it. A
safe-mode success terminates the job as ``DEGRADED`` rather than
``DONE`` so fleets can alert on it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import tempfile
import time
from multiprocessing.connection import wait as conn_wait
from typing import Dict, Iterable, Optional

from ..checkpoint import checkpoint_exists, generation_paths
from ..checkpoint import resume as ckpt_resume
from ..core.framing import sweep_stale_tmp
from ..core.jsonable import to_jsonable
from .adapter import SimulatorAdapter
from .job import AttemptRecord, JobRecord, JobSpec, JobState
from .spool import JobSpool

try:
    _ctx = mp.get_context("fork")
except ValueError:                             # non-POSIX host
    _ctx = mp.get_context()

#: what a safe-mode attempt overrides: the one host switch, bit-identical
#: on and off
SAFE_MODE_OVERRIDES = {"fastpath": False}


# ---------------------------------------------------------------------------
# the job child
# ---------------------------------------------------------------------------

def _job_child(spec_dict: dict, attempt: int, ckpt_path: str,
               safe_mode: bool, conn) -> None:
    """One supervised attempt. Protocol (child -> parent):

    ``("resumed", events)`` restored from the autosave up to *events*;
    ``("hb", attempt, events, cycle)`` one segment retired;
    ``("done", collect_payload)`` finished, payload is JSON-plain;
    ``("err", {type, message, report})`` structured failure.
    Dying without ``done``/``err`` is a crash — the parent sees only the
    process sentinel.
    """
    spec = JobSpec.from_dict(spec_dict)
    chaos = spec.chaos or {}
    try:
        adapter = SimulatorAdapter()
        config = dict(spec.config)
        if safe_mode:
            # the strict schedule; host policy is not part of a
            # checkpoint's identity, so it resumes the optimistic autosave
            config.update(SAFE_MODE_OVERRIDES)
        if spec.checkpoint_interval > 0:
            config["checkpoint_path"] = ckpt_path
            config["checkpoint_interval"] = spec.checkpoint_interval

        def build():
            return adapter.prepare(config=config, workload=spec.workload,
                                   workload_kwargs=spec.workload_kwargs)

        if spec.checkpoint_interval > 0 and checkpoint_exists(ckpt_path):
            engine, stats = ckpt_resume(ckpt_path, build, finish=True)
            adapter.stats = stats
            conn.send(("resumed", engine.events_processed))
        else:
            build()

        if attempt in chaos.get("hang_on_attempts", ()):
            # deterministic hang: prove liveness once, then fall silent
            conn.send(("hb", attempt, adapter.engine.events_processed,
                       adapter.engine.gsched.now))
            while True:
                time.sleep(3600)

        kill_at = chaos.get("kill_at_events")
        kill_on = chaos.get("kill_on_attempts", (1,))
        while adapter.running:
            seg = spec.heartbeat_events
            done_events = adapter.engine.events_processed
            if spec.budget is not None:
                if done_events >= spec.budget:
                    break
                seg = min(seg, spec.budget - done_events)
            adapter.run(budget=seg)
            conn.send(("hb", attempt, adapter.engine.events_processed,
                       adapter.engine.gsched.now))
            if (kill_at is not None and attempt in kill_on
                    and adapter.engine.events_processed >= kill_at):
                os.kill(os.getpid(), signal.SIGKILL)   # simulated kill -9
            if attempt in chaos.get("crash_on_attempts", ()):
                raise RuntimeError("chaos: injected crash")
        conn.send(("done", adapter.collect()))
        conn.close()
    except BaseException as exc:   # noqa: BLE001 — forwarded, then exit
        try:
            conn.send(("err", {
                "type": type(exc).__name__,
                "message": str(exc),
                "report": to_jsonable(getattr(exc, "report", None)),
            }))
            conn.close()
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------

class _Active:
    """Parent-side bookkeeping for one live attempt."""

    __slots__ = ("process", "conn", "attempt", "safe_mode", "started",
                 "last_alive", "events", "resumed_from", "backoff",
                 "finished")

    def __init__(self, process, conn, attempt, safe_mode, backoff):
        self.process = process
        self.conn = conn
        self.attempt = attempt
        self.safe_mode = safe_mode
        self.started = time.monotonic()
        self.last_alive = self.started
        self.events = 0
        self.resumed_from: Optional[int] = None
        self.backoff = backoff
        self.finished = False


class JobQueue:
    """In-process submission queue: name -> JobRecord, insertion-ordered."""

    def __init__(self) -> None:
        self.records: Dict[str, JobRecord] = {}

    def submit(self, spec: JobSpec) -> JobRecord:
        if spec.name in self.records:
            raise ValueError(f"duplicate job name {spec.name!r}")
        rec = JobRecord(spec=spec)
        self.records[spec.name] = rec
        return rec

    def get(self, name: str) -> JobRecord:
        return self.records[name]

    def __iter__(self):
        return iter(self.records.values())

    def __len__(self) -> int:
        return len(self.records)


class JobRunner:
    """Drive submitted jobs to terminal states under supervision."""

    def __init__(self, queue: Optional[JobQueue] = None, *,
                 max_workers: int = 2, workdir: Optional[str] = None,
                 poll: float = 0.05, spool_dir: Optional[str] = None,
                 spool_fsync: bool = True, compact_every: int = 256) -> None:
        self.queue = queue if queue is not None else JobQueue()
        self.max_workers = max(1, max_workers)
        self.workdir = (workdir if workdir is not None
                        else tempfile.mkdtemp(prefix="compass-jobs-"))
        os.makedirs(self.workdir, exist_ok=True)
        self.poll = poll
        #: the WAL job spool; None = in-memory only (pre-spool behaviour)
        self._spool: Optional[JobSpool] = None
        if spool_dir is not None:
            spool = JobSpool(spool_dir, fsync=spool_fsync,
                             compact_every=compact_every)
            if spool.segment_indices():
                raise ValueError(
                    f"spool dir {spool_dir!r} already holds journal "
                    f"segments; use JobRunner.recover() to adopt them")
            self._spool = spool
            self._journal({"type": "meta", "workdir": self.workdir})
        self._active: Dict[str, _Active] = {}
        #: monotonic time each non-active job becomes launchable
        self._eligible_at: Dict[str, float] = {}
        #: next launch index per job (1-based; preemptions advance it too)
        self._next_launch: Dict[str, int] = {}
        #: crash/hang/timeout failures charged against max_retries
        self._retries_used: Dict[str, int] = {}
        #: delay charged before the *next* launch (for the record)
        self._pending_backoff: Dict[str, float] = {}
        self._safe_pending: set = set()
        self._preempt_requested: set = set()
        #: preempted jobs held until resume() is called
        self._held: set = set()

    # -- journaling --------------------------------------------------------

    def _journal(self, record: dict) -> None:
        """Append one WAL record (no-op without a spool)."""
        if self._spool is not None:
            self._spool.append(record)

    def _journal_attempt(self, rec: JobRecord, ar: AttemptRecord) -> None:
        """One atomic record per finished attempt: the attempt itself,
        the resulting state, and every counter recovery needs."""
        name = rec.spec.name
        entry = {
            "type": "attempt", "job": name, "record": ar.to_dict(),
            "state": rec.state,
            "retries_used": self._retries_used.get(name, 0),
            "safe_pending": name in self._safe_pending,
            "resumes": rec.resumes, "preemptions": rec.preemptions,
            "degraded": rec.degraded,
        }
        if rec.terminal:
            entry["result"] = rec.result
            entry["error"] = rec.error
        self._journal(entry)
        if self._spool is not None and rec.terminal:
            self._spool.maybe_compact(self._snapshot_records)

    def _snapshot_records(self) -> list:
        """The compaction snapshot: meta + one full record per job."""
        records = [{"type": "meta", "workdir": self.workdir}]
        for rec in self.queue:
            name = rec.spec.name
            records.append({
                "type": "job", "job": name, "record": rec.to_dict(),
                "retries_used": self._retries_used.get(name, 0),
                "next_launch": self._next_launch.get(name, 1),
                "safe_pending": name in self._safe_pending,
                "held": name in self._held,
            })
        return records

    # -- public API --------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        rec = self.queue.submit(spec)
        self._journal({"type": "submit", "spec": spec.to_dict()})
        return rec

    def run(self) -> Dict[str, JobRecord]:
        """Pump until every job is terminal (or preempted-and-held);
        returns name -> record."""
        while any(not r.terminal and r.spec.name not in self._held
                  for r in self.queue):
            self.step()
        return dict(self.queue.records)

    def step(self, timeout: Optional[float] = None) -> None:
        """One pump round: launch eligible jobs, poll pipes/sentinels,
        enforce hang and wall-clock deadlines."""
        self._launch_eligible()
        self._poll(self.poll if timeout is None else timeout)
        self._check_deadlines()

    def preempt(self, name: str) -> None:
        """Stop ``name`` now (SIGKILL) without consuming retry budget; it
        stays ``PREEMPTED`` until :meth:`resume`, then continues from its
        last autosave."""
        rec = self.queue.get(name)
        act = self._active.get(name)
        self._held.add(name)
        if act is not None:
            self._preempt_requested.add(name)
            try:
                os.kill(act.process.pid, signal.SIGKILL)
            except (OSError, TypeError):
                pass
        elif not rec.terminal:
            rec.preemptions += 1
            rec.transition(JobState.PREEMPTED)
            self._journal({"type": "state", "job": name,
                           "state": JobState.PREEMPTED,
                           "preemptions": rec.preemptions})

    def resume(self, name: str) -> None:
        """Make a preempted job launchable again."""
        rec = self.queue.get(name)
        if rec.terminal:
            return
        self._held.discard(name)
        self._eligible_at[name] = time.monotonic()
        self._journal({"type": "resume", "job": name})

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def recover(cls, spool_dir: str, *, workdir: Optional[str] = None,
                max_workers: int = 2, poll: float = 0.05,
                spool_fsync: bool = True,
                compact_every: int = 256) -> "JobRunner":
        """Reconstruct a runner from its WAL spool after a supervisor
        crash (SIGKILL included).

        Replays the journal to rebuild the queue — completed results,
        attempt histories, retry counters, safe-mode/held flags — then:

        * **reaps orphaned RUNNING jobs**: the journaled child pid is
          SIGKILLed (it may still be simulating), an ``"orphaned"``
          attempt record is appended, and the job returns to RETRYING
          *without* consuming retry budget, so its next launch resumes
          from its checkpoint autosave bit-identically;
        * sweeps stale ``*.tmp`` files (left by an older build's
          checkpoint writer that died mid-save) from the work directory;
        * unlinks the checkpoint log segments (and any quarantined
          bytes) of jobs already terminal;
        * compacts the spool, so recovery cost stays bounded no matter
          how many crashes preceded this one.

        ``workdir`` defaults to the one journaled by the crashed runner
        — it must, or resumed jobs could not find their autosaves.
        """
        spool = JobSpool(spool_dir, fsync=spool_fsync,
                         compact_every=compact_every)
        records = spool.recover()
        queue = JobQueue()
        meta_workdir: Optional[str] = None
        retries: Dict[str, int] = {}
        next_launch: Dict[str, int] = {}
        safe_pending: set = set()
        held: set = set()
        pids: Dict[str, Optional[int]] = {}
        running_safe: Dict[str, bool] = {}
        for r in records:
            kind = r.get("type")
            name = r.get("job")
            rec = queue.records.get(name) if name else None
            if kind == "meta":
                meta_workdir = r.get("workdir", meta_workdir)
            elif kind == "submit":
                spec = JobSpec.from_dict(r["spec"])
                if spec.name not in queue.records:
                    queue.submit(spec)
            elif kind == "job":        # compaction snapshot entry
                queue.records[name] = JobRecord.from_dict(r["record"])
                retries[name] = int(r.get("retries_used", 0))
                next_launch[name] = int(r.get("next_launch", 1))
                (safe_pending.add if r.get("safe_pending")
                 else safe_pending.discard)(name)
                (held.add if r.get("held") else held.discard)(name)
            elif rec is None:
                continue               # delta for a job we never saw
            elif kind == "launch":
                next_launch[name] = int(r["attempt"]) + 1
                running_safe[name] = bool(r.get("safe_mode"))
                pids[name] = r.get("pid")
                rec.transition(JobState.RUNNING)
            elif kind == "attempt":
                rec.attempts.append(AttemptRecord.from_dict(r["record"]))
                retries[name] = int(r.get("retries_used", 0))
                (safe_pending.add if r.get("safe_pending")
                 else safe_pending.discard)(name)
                rec.resumes = int(r.get("resumes", rec.resumes))
                rec.preemptions = int(r.get("preemptions", rec.preemptions))
                rec.degraded = bool(r.get("degraded", rec.degraded))
                if r.get("result") is not None:
                    rec.result = r["result"]
                if r.get("error") is not None:
                    rec.error = r["error"]
                state = r.get("state")
                if state:
                    rec.transition(state)
                    (held.add if state == JobState.PREEMPTED
                     else held.discard)(name)
                pids.pop(name, None)
            elif kind == "state":
                rec.transition(r["state"])
                rec.preemptions = int(r.get("preemptions", rec.preemptions))
                if r["state"] == JobState.PREEMPTED:
                    held.add(name)
            elif kind == "resume":
                held.discard(name)

        runner = cls(queue, max_workers=max_workers, poll=poll,
                     workdir=workdir if workdir is not None
                     else meta_workdir)
        runner._spool = spool
        runner._retries_used = retries
        runner._next_launch = next_launch
        runner._safe_pending = safe_pending
        runner._held = held

        sweep_stale_tmp(runner.workdir)
        for rec in queue:
            name = rec.spec.name
            if rec.state != JobState.RUNNING:
                continue
            pid = pids.get(name)
            if pid:
                try:                    # the orphan may still be running
                    os.kill(pid, signal.SIGKILL)
                except (OSError, TypeError):
                    pass
            ar = AttemptRecord(
                attempt=next_launch.get(name, 2) - 1,
                safe_mode=running_safe.get(name, False),
                outcome="orphaned",
                detail="supervisor crashed while the attempt was in "
                       "flight; reaped on recovery, resuming from its "
                       "checkpoint autosave")
            rec.attempts.append(ar)
            rec.transition(JobState.RETRYING)   # no retry budget charged
            runner._journal_attempt(rec, ar)
        for rec in queue:
            if rec.terminal:            # autosaves of finished jobs are
                base = runner._ckpt_path(rec.spec.name)   # dead weight
                for dead in generation_paths(base):
                    try:
                        os.unlink(dead)
                    except OSError:
                        pass
        spool.compact(runner._snapshot_records())
        return runner

    # -- launching ---------------------------------------------------------

    def _launch_eligible(self) -> None:
        now = time.monotonic()
        for rec in self.queue:
            name = rec.spec.name
            if (rec.terminal or name in self._active or name in self._held
                    or len(self._active) >= self.max_workers
                    or self._eligible_at.get(name, 0.0) > now):
                continue
            self._launch(rec)

    def _ckpt_path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.ckpt")

    def _launch(self, rec: JobRecord) -> None:
        name = rec.spec.name
        attempt = self._next_launch.get(name, 1)
        self._next_launch[name] = attempt + 1
        safe_mode = name in self._safe_pending
        parent_conn, child_conn = _ctx.Pipe(duplex=False)
        proc = _ctx.Process(
            target=_job_child,
            args=(rec.spec.to_dict(), attempt, self._ckpt_path(name),
                  safe_mode, child_conn),
            name=f"job-{name}-a{attempt}", daemon=True)
        proc.start()
        child_conn.close()
        self._active[name] = _Active(
            proc, parent_conn, attempt, safe_mode,
            self._pending_backoff.pop(name, 0.0))
        rec.transition(JobState.RUNNING)
        # journaled after start so the child pid lands in the WAL;
        # recovery SIGKILLs journaled pids before relaunching orphans
        self._journal({"type": "launch", "job": name, "attempt": attempt,
                       "safe_mode": safe_mode, "pid": proc.pid})

    # -- polling -----------------------------------------------------------

    def _poll(self, timeout: float) -> None:
        if not self._active:
            if timeout:
                time.sleep(min(timeout, self.poll))
            return
        sources = {}
        for name, act in self._active.items():
            sources[act.conn] = name
            sources[act.process.sentinel] = name
        ready = conn_wait(list(sources), timeout)
        # messages first: a finished child's pipe and sentinel fire
        # together and the result must win over the exit notification
        for src in ready:
            name = sources[src]
            act = self._active.get(name)
            if act is None or src is not act.conn:
                continue
            self._drain(name, act)
        for src in ready:
            name = sources[src]
            act = self._active.get(name)
            if act is None or src is act.conn:
                continue
            self._drain(name, act)          # late messages before the exit
            act = self._active.get(name)
            if act is not None and not act.process.is_alive():
                act.process.join()
                self._attempt_failed(
                    name, "crashed",
                    f"job process exited without a result "
                    f"(exitcode {act.process.exitcode})",
                    exitcode=act.process.exitcode)

    def _drain(self, name: str, act: _Active) -> None:
        while True:
            try:
                if not act.conn.poll():
                    return
                msg = act.conn.recv()
            except (EOFError, OSError):
                return
            act.last_alive = time.monotonic()
            kind = msg[0]
            if kind == "hb":
                act.events = msg[2]
            elif kind == "resumed":
                act.resumed_from = msg[1]
                act.events = msg[1]
                self.queue.get(name).resumes += 1
            elif kind == "done":
                self._attempt_done(name, act, msg[1])
                return
            elif kind == "err":
                self._attempt_failed(name, "error", msg[1]["message"],
                                     error=msg[1])
                return

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for name in list(self._active):
            act = self._active[name]
            spec = self.queue.get(name).spec
            if now - act.started > spec.timeout:
                self._kill(act)
                self._attempt_failed(
                    name, "timeout",
                    f"attempt exceeded its {spec.timeout:.1f}s wall-clock "
                    f"budget")
            elif now - act.last_alive > spec.hang_timeout:
                self._kill(act)
                self._attempt_failed(
                    name, "hung",
                    f"no heartbeat for {now - act.last_alive:.2f}s "
                    f"(hang_timeout={spec.hang_timeout:.2f}s)")

    @staticmethod
    def _kill(act: _Active) -> None:
        try:
            os.kill(act.process.pid, signal.SIGKILL)
        except (OSError, TypeError):
            pass
        act.process.join()

    # -- attempt outcomes --------------------------------------------------

    def _attempt_record(self, act: _Active, outcome: str, detail: str,
                        exitcode=None, report=None) -> AttemptRecord:
        return AttemptRecord(
            attempt=act.attempt, safe_mode=act.safe_mode,
            resumed_from_events=act.resumed_from, outcome=outcome,
            detail=detail, exitcode=exitcode, events_processed=act.events,
            wall_seconds=round(time.monotonic() - act.started, 4),
            backoff_seconds=round(act.backoff, 4), report=report)

    def _attempt_done(self, name: str, act: _Active, payload: dict) -> None:
        rec = self.queue.get(name)
        self._active.pop(name, None)
        act.process.join()
        self._preempt_requested.discard(name)
        self._held.discard(name)
        act.events = payload["events_processed"]
        ar = self._attempt_record(act, "done", "", 0)
        rec.attempts.append(ar)
        rec.result = payload
        rec.degraded = act.safe_mode
        self._safe_pending.discard(name)
        rec.transition(JobState.DEGRADED if act.safe_mode else JobState.DONE)
        self._journal_attempt(rec, ar)

    def _attempt_failed(self, name: str, outcome: str, detail: str,
                        exitcode=None, error: Optional[dict] = None) -> None:
        rec = self.queue.get(name)
        act = self._active.pop(name, None)
        if act is None:
            return
        if act.process.is_alive():
            self._kill(act)
        act.process.join()
        preempted = name in self._preempt_requested
        self._preempt_requested.discard(name)
        report = error.get("report") if error else None
        ar = self._attempt_record(
            act, "preempted" if preempted else outcome, detail,
            exitcode if exitcode is not None
            else act.process.exitcode, report)
        rec.attempts.append(ar)
        spec = rec.spec
        if preempted:
            rec.preemptions += 1
            rec.transition(JobState.PREEMPTED)     # held until resume()
            self._journal_attempt(rec, ar)
            return
        if act.safe_mode:
            self._fail(rec, ar, error)
            self._journal_attempt(rec, ar)
            return
        self._retries_used[name] = self._retries_used.get(name, 0) + 1
        used = self._retries_used[name]
        if used <= spec.max_retries:
            delay = spec.backoff_delay(used + 1)
            self._pending_backoff[name] = delay
            self._eligible_at[name] = time.monotonic() + delay
            rec.transition(JobState.RETRYING)
        elif spec.safe_mode_fallback:
            # retry budget gone: degrade to one serial safe-mode attempt
            self._safe_pending.add(name)
            delay = spec.backoff_delay(used + 1)
            self._pending_backoff[name] = delay
            self._eligible_at[name] = time.monotonic() + delay
            rec.transition(JobState.RETRYING)
        else:
            self._fail(rec, ar, error)
        self._journal_attempt(rec, ar)

    def _fail(self, rec: JobRecord, ar: AttemptRecord,
              error: Optional[dict]) -> None:
        rec.error = to_jsonable({
            "outcome": ar.outcome,
            "detail": ar.detail,
            "attempts": len(rec.attempts),
            "retries_used": self._retries_used.get(rec.spec.name, 0),
            "last_error": error,
        })
        self._safe_pending.discard(rec.spec.name)
        rec.transition(JobState.FAILED)


def run_matrix(specs: Iterable[JobSpec], **runner_kw) -> Dict[str, JobRecord]:
    """Convenience: submit every spec to a fresh runner, pump to
    completion, return name -> record."""
    runner = JobRunner(**runner_kw)
    for spec in specs:
        runner.submit(spec)
    return runner.run()
