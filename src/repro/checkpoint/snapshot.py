"""Collect / verify / install the plain-data engine snapshot.

``collect_snapshot`` gathers every component's ``state_dict()``.
``verify_snapshot`` compares a snapshot against the state a replay
rebuilt: components the replay reconstructs live (scheduler, communicator,
sync managers, devices, OS server, stats) must match exactly; the memory
hierarchy and the fault injector are *not* compared — replay answers from
the log without touching them — and are instead installed authoritatively
by ``install_snapshot``. Only what it installs (memory hierarchy, stats,
fault injector, sampler) has a ``load_state``; the owners replay rebuilds
are compared, never loaded.

Collecting runs on every autosave, so its cost is part of the run. The
state-owner rule is *borrow out, copy in*: ``state_dict()`` lends the
owner's own footprint-sized tables (valid until the owner next runs; pickle
or deep-copy to keep) and ``load_state()`` copies into them — so a snapshot
is consumed at once, by ``CheckpointManager.save`` (pickled) or
``verify_snapshot`` (compared), never held (DESIGN.md, "Checkpoint/restore";
``tests/test_checkpoint_cost.py``). Host-side measurements of the saving
itself (``CheckpointManager.by_kind``) are not state, never collected.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.errors import ReplayDivergence

#: components replay does not rebuild, or rebuilds as the resuming arm
#: runs (host counters): installed from the snapshot, never compared
_INSTALL_ONLY = ("memsys", "faults", "sampler", "batch_stats",
                 "recent_events")


def collect_snapshot(engine) -> Dict[str, Any]:
    """Plain-data snapshot of one engine (checkpoint payload)."""
    return {
        "memsys": engine.memsys.state_dict(),
        "stats": engine.stats.state_dict(),
        "faults": engine.faults.state_dict(),
        "gsched": engine.gsched.state_dict(),
        "comm": engine.comm.state_dict(),
        "locks": engine.locks.state_dict(),
        "barriers": engine.barriers.state_dict(),
        "procsched": engine.procsched.state_dict(),
        "intctl": engine.intctl.state_dict(),
        "timer": engine.timer.state_dict(),
        "disk": engine.disk.state_dict(),
        "nic": engine.nic.state_dict(),
        "os_server": engine.os_server.state_dict(),
        # replay stands the sampling controller down, so its window
        # schedule position is install-only state, like the memory system
        "sampler": (engine._sampler.state_dict()
                    if engine._sampler is not None else None),
        "events_processed": engine.events_processed,
        "batch_stats": dict(engine.batch_stats),
        "mmap_cursor": dict(engine._mmap_cursor),
        "live": engine._live,
        "last_progress": engine._last_progress,
        "recent_events": list(engine._recent_events),
    }


def _masked_stats(state: Dict[str, Any]) -> Dict[str, Any]:
    """Stats comparison mask: wall-clock time can never match, and the
    injector's counters are bookkept only on the recording side."""
    out = dict(state)
    out["host_seconds"] = 0.0
    counters = dict(out["counters"])
    counters.pop("faults_injected", None)
    counters.pop("worker_restarts", None)
    out["counters"] = counters
    return out


def verify_snapshot(engine, snapshot: Dict[str, Any]) -> None:
    """Raise :class:`ReplayDivergence` if the replay-rebuilt live state
    disagrees with ``snapshot`` on any compared component."""
    rebuilt = collect_snapshot(engine)
    for key, have in rebuilt.items():
        if key in _INSTALL_ONLY:
            continue
        want = snapshot[key]
        if key == "stats":
            have, want = _masked_stats(have), _masked_stats(want)
        if have != want:
            raise ReplayDivergence(
                f"replay fast-forward diverged from the recorded run in "
                f"{key!r} (rebuilt state != checkpoint snapshot)")


def install_snapshot(engine, snapshot: Dict[str, Any]) -> None:
    """Install the authoritative snapshot for the replay-skipped
    components (memory hierarchy, stats, fault injector, sampler, host
    counters)."""
    engine.memsys.load_state(snapshot["memsys"])
    engine.stats.load_state(snapshot["stats"])
    engine.faults.load_state(snapshot["faults"])
    if engine._sampler is not None:     # sampling is in the config identity
        engine._sampler.load_state(snapshot["sampler"])
    engine.batch_stats.update(snapshot["batch_stats"])
    engine._recent_events.clear()
    engine._recent_events.extend(snapshot["recent_events"])
