"""Job descriptions and structured job records for the control plane.

A :class:`JobSpec` is a plain-data description of one simulation plus the
supervision policy it runs under (timeouts, retry budget, backoff curve,
checkpoint cadence, safe-mode fallback). A :class:`JobRecord` is the
runner's account of what actually happened: the state machine history
(``PENDING → RUNNING → {DONE, RETRYING, PREEMPTED, DEGRADED, FAILED}``),
per-attempt outcomes with the forensic ``DeadlockError`` /
``HostError.report`` payloads attached verbatim, and the final stats
fingerprint. Both serialize to JSON-plain dicts — a record written with
``json.dumps`` survives a load round trip unchanged.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..core.jsonable import to_jsonable


class JobState:
    """Control-plane job states (plain strings, so records stay JSON-plain).

    Terminal states are ``DONE`` (succeeded as configured), ``DEGRADED``
    (succeeded, but only in the serial safe-mode fallback after the retry
    budget ran out), and ``FAILED``. ``RETRYING`` and ``PREEMPTED`` return
    to ``RUNNING``; a preemption never consumes retry budget.
    """

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    RETRYING = "RETRYING"
    PREEMPTED = "PREEMPTED"
    DEGRADED = "DEGRADED"
    DONE = "DONE"
    FAILED = "FAILED"

    TERMINAL = frozenset({DONE, DEGRADED, FAILED})


@dataclass
class JobSpec:
    """One simulation + the supervision policy to run it under."""

    name: str
    workload: str = "oltp"
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: SimConfig knobs in the :func:`make_config_factory` dict form
    config: Dict[str, Any] = field(default_factory=dict)
    #: total event budget (None = run the workload to completion)
    budget: Optional[int] = None
    #: per-attempt wall-clock ceiling (seconds)
    timeout: float = 300.0
    #: max heartbeat silence before an attempt is declared hung (seconds)
    hang_timeout: float = 30.0
    #: events per child run() segment — one heartbeat per segment
    heartbeat_events: int = 2_000
    #: crash/hang retries after the first attempt (0 = no retries)
    max_retries: int = 2
    #: exponential backoff: first delay, doubling per retry, capped
    backoff: float = 0.05
    backoff_max: float = 2.0
    #: deterministic jitter fraction on top of each backoff delay
    jitter: float = 0.25
    #: autosave cadence in events; 0 disables checkpointing, so crashed
    #: attempts restart from scratch instead of resuming
    checkpoint_interval: int = 2_000
    #: after the last retry, try once more with ``fastpath`` off (resuming
    #: the last autosave), before giving up
    safe_mode_fallback: bool = True
    #: deterministic failure injection for tests/CI: ``kill_at_events``
    #: (child SIGKILLs itself at that event count, on the attempts listed
    #: in ``kill_on_attempts``, default [1]), ``hang_on_attempts`` (child
    #: sends one heartbeat then sleeps forever), ``crash_on_attempts``
    #: (child raises after its first segment)
    chaos: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return to_jsonable(asdict(self))

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobSpec":
        return cls(**d)

    def backoff_delay(self, attempt: int) -> float:
        """Wall-clock delay before launching ``attempt`` (2, 3, …).

        Exponential in the retry index with a deterministic per-job
        jitter draw, so tests are reproducible while a fleet of jobs
        that crashed together still fans out instead of thundering back
        in lockstep."""
        import random
        base = min(self.backoff * (2 ** max(attempt - 2, 0)),
                   self.backoff_max)
        spread = random.Random(f"{self.name}:{attempt}").random()
        return base * (1.0 + self.jitter * spread)


@dataclass
class AttemptRecord:
    """What one supervised attempt did and how it ended."""

    attempt: int
    safe_mode: bool = False
    resumed_from_events: Optional[int] = None
    outcome: str = ""               # "done" | "crashed" | "hung" |
    #                                 "timeout" | "error" | "preempted"
    detail: str = ""
    exitcode: Optional[int] = None
    events_processed: int = 0
    wall_seconds: float = 0.0
    backoff_seconds: float = 0.0    # delay charged *before* this attempt
    #: forensic DeadlockError/HostError report, embedded verbatim
    report: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return to_jsonable(asdict(self))

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "AttemptRecord":
        return cls(**d)


@dataclass
class JobRecord:
    """The runner's structured, JSON-serializable account of one job."""

    spec: JobSpec
    state: str = JobState.PENDING
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: state-machine transitions in order, e.g. ["PENDING", "RUNNING", ...]
    history: List[str] = field(default_factory=lambda: [JobState.PENDING])
    resumes: int = 0
    preemptions: int = 0
    degraded: bool = False
    #: the collect() payload of the successful attempt (None on FAILED)
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None

    @property
    def fingerprint(self):
        return None if self.result is None else self.result["fingerprint"]

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def transition(self, state: str) -> None:
        self.state = state
        self.history.append(state)

    def to_dict(self) -> Dict[str, Any]:
        return to_jsonable({
            "spec": self.spec.to_dict(),
            "state": self.state,
            "history": list(self.history),
            "attempts": [a.to_dict() for a in self.attempts],
            "resumes": self.resumes,
            "preemptions": self.preemptions,
            "degraded": self.degraded,
            "result": self.result,
            "error": self.error,
        })

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobRecord":
        """Rebuild a record from its :meth:`to_dict` form — the spool's
        compaction snapshots and crash recovery both replay these."""
        return cls(
            spec=JobSpec.from_dict(d["spec"]),
            state=d.get("state", JobState.PENDING),
            attempts=[AttemptRecord.from_dict(a)
                      for a in d.get("attempts", ())],
            history=list(d.get("history", (JobState.PENDING,))),
            resumes=int(d.get("resumes", 0)),
            preemptions=int(d.get("preemptions", 0)),
            degraded=bool(d.get("degraded", False)),
            result=d.get("result"),
            error=d.get("error"),
        )
