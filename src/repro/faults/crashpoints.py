"""Deterministic crash-point injection for the durability layer.

Where the :class:`~repro.faults.plan.FaultPlan` injects *simulated*
faults (errno returns, slow disks) into the simulated machine, a
:class:`CrashPointPlan` injects *host* crashes into the simulator's own
durability code, at the exact instants that matter for crash
consistency:

``spool:append``
    entry of :meth:`JobSpool.append`, before the frame is written —
    the journal record is lost entirely;
``spool:fsync``
    after the frame reached the OS but before fsync — models the
    classic torn-tail/power-cut window;
``ckpt:log-append``
    a save is about to write (new replies and fault outcomes, the memory
    system's base or delta, the snapshot) — nothing of this save exists
    yet;
``ckpt:log-fsync``
    a delta save's three frames reached the OS but are not fsynced — a
    load finds them (they are the newest snapshot) or, torn, falls back
    to the previous save in the same segment;
``ckpt:base-append``
    a base save's fresh segment (or a sampler window file) holds the
    copied streams and this save's streams, not yet its base or snapshot
    — a load skips that segment for the older one;
``ckpt:base-fsync``
    the fresh segment is written, not yet durable; the older segment
    still holds the previous checkpoint;
``ckpt:compact``
    the fresh segment and its directory entry are durable, the older
    segments are not yet unlinked — the newest wins, and the next
    compaction unlinks the rest.

Each rule fires at the *Nth* hit of its site — either an explicit
``hit`` index or one drawn deterministically from the plan ``seed``
over ``hit_range`` — and either SIGKILLs the process (``action:
"kill"``, indistinguishable from power loss) or raises
:class:`~repro.core.errors.SimulatedCrash` (``action: "raise"``, for
in-process harnesses).

Rules are **once-only across a process tree**: firing claims a sentinel
file under the plan's ``state_dir`` with ``O_CREAT|O_EXCL``, so a
forked job child that inherits the installed plan cannot re-fire a rule
the supervisor (or an earlier child) already spent. Without that, every
checkpoint-site retry would die at the same local hit count and no
recovery loop could converge. With no ``state_dir`` the claim set is
process-local.

The plan installs process-globally (:func:`install`) because the crash
sites live deep inside ``checkpoint/`` and ``service/spool.py`` hot
paths where threading a handle through every caller would be pure
noise; :func:`hit` is a no-op attribute read when nothing is installed.
A plan can also arrive through the ``COMPASS_CRASH_POINTS`` environment
variable (inline JSON or a path to a JSON file) so CI can crash fresh
processes without code changes.
"""

from __future__ import annotations

import json
import os
import random
import signal
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ConfigError, SimulatedCrash

#: every site the durability layer consults, in code order
KNOWN_CRASH_SITES = (
    "spool:append",
    "spool:fsync",
    "ckpt:log-append",
    "ckpt:log-fsync",
    "ckpt:base-append",
    "ckpt:base-fsync",
    "ckpt:compact",
)

ENV_VAR = "COMPASS_CRASH_POINTS"


@dataclass(frozen=True)
class CrashRule:
    """Crash at the Nth hit of ``site``.

    Exactly one of ``hit`` (explicit 1-based index) or ``hit_range``
    (inclusive bounds; the index is drawn from the plan seed) must be
    given. ``action`` is ``"kill"`` (SIGKILL self) or ``"raise"``
    (raise :class:`SimulatedCrash`).
    """

    site: str
    hit: Optional[int] = None
    hit_range: Optional[Tuple[int, int]] = None
    action: str = "kill"

    def __post_init__(self) -> None:
        if self.hit_range is not None:
            object.__setattr__(self, "hit_range", tuple(self.hit_range))

    def validate(self) -> "CrashRule":
        if self.site not in KNOWN_CRASH_SITES:
            raise ConfigError(
                f"unknown crash site {self.site!r}; known sites are "
                f"{KNOWN_CRASH_SITES}")
        if self.action not in ("kill", "raise"):
            raise ConfigError(
                f"crash action must be 'kill' or 'raise', got {self.action!r}")
        if (self.hit is None) == (self.hit_range is None):
            raise ConfigError(
                f"crash rule for {self.site!r} needs exactly one of "
                f"'hit' or 'hit_range'")
        if self.hit is not None and self.hit < 1:
            raise ConfigError("crash 'hit' is a 1-based index")
        if self.hit_range is not None:
            lo, hi = self.hit_range
            if not (1 <= lo <= hi):
                raise ConfigError(
                    f"crash hit_range must satisfy 1 <= lo <= hi, "
                    f"got {self.hit_range!r}")
        return self

    def resolve_hit(self, seed: int, index: int) -> int:
        """The concrete 1-based hit count this rule fires at."""
        if self.hit is not None:
            return self.hit
        lo, hi = self.hit_range
        return random.Random(f"{seed}:{self.site}:{index}").randint(lo, hi)

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"site": self.site, "action": self.action}
        if self.hit is not None:
            d["hit"] = self.hit
        if self.hit_range is not None:
            d["hit_range"] = list(self.hit_range)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CrashRule":
        unknown = set(d) - {"site", "hit", "hit_range", "action"}
        if unknown:
            raise ConfigError(f"unknown crash rule keys {sorted(unknown)}")
        if "site" not in d:
            raise ConfigError("crash rule needs a 'site'")
        hit_range = d.get("hit_range")
        return cls(site=d["site"], hit=d.get("hit"),
                   hit_range=tuple(hit_range) if hit_range else None,
                   action=d.get("action", "kill")).validate()


@dataclass(frozen=True)
class CrashPointPlan:
    """A seeded set of crash rules plus the cross-process claim store.

    ``tag`` namespaces the once-only sentinels so a recovery harness
    can reuse one ``state_dir`` across rounds with distinct plans.
    """

    rules: Tuple[CrashRule, ...] = ()
    seed: int = 0
    state_dir: Optional[str] = None
    tag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def validate(self) -> "CrashPointPlan":
        for rule in self.rules:
            rule.validate()
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "tag": self.tag,
                "state_dir": self.state_dir,
                "rules": [r.to_dict() for r in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CrashPointPlan":
        unknown = set(d) - {"seed", "tag", "state_dir", "rules"}
        if unknown:
            raise ConfigError(f"unknown crash plan keys {sorted(unknown)}")
        rules = tuple(CrashRule.from_dict(r) for r in d.get("rules", ()))
        return cls(rules=rules, seed=int(d.get("seed", 0)),
                   state_dir=d.get("state_dir"),
                   tag=str(d.get("tag", ""))).validate()

    @classmethod
    def from_json(cls, text: str) -> "CrashPointPlan":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad crash plan JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("crash plan JSON must be an object")
        return cls.from_dict(d)


class CrashPointInjector:
    """Runtime state: per-site hit counters + the once-only claim set."""

    def __init__(self, plan: CrashPointPlan) -> None:
        plan.validate()
        self.plan = plan
        self._counts: Dict[str, int] = {}
        self._claimed: set = set()
        self._sites: Dict[str, List[Tuple[int, str, str]]] = {}
        for idx, rule in enumerate(plan.rules):
            nth = rule.resolve_hit(plan.seed, idx)
            key = f"{plan.tag or plan.seed}-{idx}-{rule.site}-{nth}"
            self._sites.setdefault(rule.site, []).append(
                (nth, rule.action, key.replace(":", "_").replace("/", "_")))

    def _claim(self, key: str) -> bool:
        """True exactly once per key across every process sharing
        ``state_dir`` (or per process without one)."""
        if self.plan.state_dir is None:
            if key in self._claimed:
                return False
            self._claimed.add(key)
            return True
        os.makedirs(self.plan.state_dir, exist_ok=True)
        path = os.path.join(self.plan.state_dir, f"fired-{key}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def on_hit(self, site: str) -> None:
        rules = self._sites.get(site)
        if not rules:
            return
        n = self._counts[site] = self._counts.get(site, 0) + 1
        for nth, action, key in rules:
            if n == nth and self._claim(key):
                if action == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise SimulatedCrash(
                    f"crash point {site!r} fired at hit #{n} "
                    f"(pid {os.getpid()})")


#: the process-global injector; None = crash points fully disabled
_injector: Optional[CrashPointInjector] = None


def install(plan: Optional[CrashPointPlan]) -> None:
    """Install (or with ``None`` clear) the process-global crash plan."""
    global _injector
    _injector = None if plan is None or not plan.rules \
        else CrashPointInjector(plan)


def current() -> Optional[CrashPointInjector]:
    return _injector


def hit(site: str) -> None:
    """Consult the installed plan at one crash site (cheap no-op when
    nothing is installed)."""
    inj = _injector
    if inj is not None:
        inj.on_hit(site)


def _install_from_env() -> None:
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return
    spec = spec.strip()
    if not spec.startswith("{") and os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            spec = fh.read()
    install(CrashPointPlan.from_json(spec))


_install_from_env()
