"""Crash-recovery loop harness: kill the supervisor, recover, repeat.

:func:`crash_recovery_loop` runs a job matrix under a
:class:`~repro.faults.crashpoints.CrashPointPlan` in a sequence of
*rounds*. Each round forks a fresh supervisor process that installs the
plan, then either starts the matrix (first round, empty spool) or
adopts it with :meth:`JobRunner.recover`. When an injected crash kills
the round — whether it lands in the supervisor itself or in one of its
forked job children — the next round recovers from the WAL spool and
the checkpoint autosaves and carries on. The loop ends when a round
completes cleanly and returns the final job records.

Because every crash rule is once-only across the process tree (claimed
via sentinel files in the plan ``state_dir``), the loop is guaranteed
to make progress: a spent rule cannot re-fire in the recovery round.
A plan arriving without a ``state_dir`` gets one under the harness
work directory for exactly this reason.

The harness is the acceptance gate for the durability layer: tests
assert that :func:`final_fingerprints` of a crashed-and-recovered loop
is bit-identical to an undisturbed run of the same specs.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..faults import crashpoints
from ..faults.crashpoints import CrashPointPlan
from .job import JobSpec
from .runner import JobRunner, _ctx
from .spool import segment_log


def spool_has_segments(spool_dir: str) -> bool:
    """True when ``spool_dir`` already holds WAL segments to recover."""
    return bool(segment_log(spool_dir).indices())


def final_fingerprints(records: Dict[str, Dict[str, Any]]
                       ) -> Dict[str, Any]:
    """name -> stats fingerprint of each job's final result (None for
    jobs that failed)."""
    out = {}
    for name, rec in records.items():
        result = rec.get("result")
        out[name] = None if result is None else result.get("fingerprint")
    return out


def _round_child(spec_dicts: List[dict], plan_dict: Optional[dict],
                 spool_dir: str, workdir: str, runner_kw: dict,
                 conn) -> None:
    """One supervisor round: install the plan, start or recover the
    matrix, pump to completion, ship the record dicts back."""
    try:
        plan = (CrashPointPlan.from_dict(plan_dict)
                if plan_dict is not None else None)
        crashpoints.install(plan)
        if spool_has_segments(spool_dir):
            runner = JobRunner.recover(spool_dir, workdir=workdir,
                                       **runner_kw)
        else:
            runner = JobRunner(spool_dir=spool_dir, workdir=workdir,
                               **runner_kw)
        for d in spec_dicts:
            spec = JobSpec.from_dict(d)
            if spec.name not in runner.queue.records:
                runner.submit(spec)
        records = runner.run()
        conn.send(("done", {n: r.to_dict() for n, r in records.items()}))
        conn.close()
    except BaseException as exc:   # noqa: BLE001 — forwarded, then exit
        try:
            conn.send(("err", {"type": type(exc).__name__,
                               "message": str(exc)}))
            conn.close()
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


def crash_recovery_loop(specs: Iterable[JobSpec],
                        plan: Optional[CrashPointPlan] = None, *,
                        spool_dir: Optional[str] = None,
                        workdir: Optional[str] = None,
                        max_rounds: int = 12,
                        round_timeout: float = 120.0,
                        **runner_kw
                        ) -> Tuple[Dict[str, Dict[str, Any]],
                                   List[Dict[str, Any]]]:
    """Run ``specs`` to completion through supervisor crashes.

    Returns ``(records, rounds)``: the final name -> record dicts from
    the first clean round, and a per-round log (``round``, ``exitcode``,
    ``crashed``, optional ``error``). Raises ``RuntimeError`` if no
    round completes within ``max_rounds`` — a regression in either the
    spool recovery scan or the once-only crash-rule claims.

    Extra keyword arguments are forwarded to :class:`JobRunner` /
    :meth:`JobRunner.recover` (``max_workers``, ``poll``,
    ``spool_fsync``, ``compact_every``).
    """
    spec_dicts = [s.to_dict() if isinstance(s, JobSpec) else dict(s)
                  for s in specs]
    root = tempfile.mkdtemp(prefix="compass-crl-")
    spool_dir = spool_dir or os.path.join(root, "spool")
    workdir = workdir or os.path.join(root, "work")
    os.makedirs(workdir, exist_ok=True)
    if plan is not None and plan.state_dir is None:
        # once-only claims must survive the round process dying, or a
        # kill rule would re-fire every round and the loop could not
        # converge
        plan = CrashPointPlan(rules=plan.rules, seed=plan.seed,
                              state_dir=os.path.join(root, "crash-state"),
                              tag=plan.tag)
    plan_dict = plan.to_dict() if plan is not None else None

    rounds: List[Dict[str, Any]] = []
    for round_no in range(1, max_rounds + 1):
        parent_conn, child_conn = _ctx.Pipe(duplex=False)
        proc = _ctx.Process(
            target=_round_child,
            args=(spec_dicts, plan_dict, spool_dir, workdir, runner_kw,
                  child_conn),
            name=f"crl-round-{round_no}")
        proc.start()
        child_conn.close()
        msg = None
        deadline = time.monotonic() + round_timeout
        while time.monotonic() < deadline:
            try:
                if parent_conn.poll(0.05):
                    msg = parent_conn.recv()
                    break
            except (EOFError, OSError):
                break
            if not proc.is_alive():
                break
        try:
            # the child may have sent and exited after the last poll timed
            # out: what it left in the pipe still counts
            if msg is None and parent_conn.poll():
                msg = parent_conn.recv()
        except (EOFError, OSError):
            pass
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (OSError, TypeError):
                pass
            proc.join()
        parent_conn.close()
        entry: Dict[str, Any] = {
            "round": round_no,
            "exitcode": proc.exitcode,
            "crashed": msg is None or msg[0] != "done",
        }
        if msg is not None and msg[0] == "err":
            entry["error"] = msg[1]
        rounds.append(entry)
        if msg is not None and msg[0] == "done":
            return msg[1], rounds
    raise RuntimeError(
        f"crash_recovery_loop did not converge within {max_rounds} "
        f"rounds (spool_dir={spool_dir!r}); round log: {rounds}")
