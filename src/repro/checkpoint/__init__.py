"""Deterministic checkpoint/restore for long commercial runs.

COMPASS frontends are generator coroutines — unpicklable by design — so a
checkpoint cannot serialise the simulation directly. Instead it stores:

* a config/workload fingerprint (to refuse resuming a different setup),
* a versioned plain-data snapshot of every backend component
  (``state_dict()`` on caches, coherence protocol, page tables, devices,
  OS state, stats, fault injector),
* the per-site outcomes of every fault-injection check, and a pointer
  (name + committed byte length) into the per-process **reply log**: the
  latency the backend answered to every memory reference since cycle 0,
  kept in one append-only framed file beside the checkpoints so each
  reply is written once.

Restore rebuilds the workload coroutines by re-running the builder, then
**fast-forwards** by replaying the run segments with every memory access
answered from the log — no cache walks, no coherence traffic, no RNG
draws — which regrows all unpicklable structure (generator frames, wait
tokens, scheduled closures) bit-identically. The rebuilt state is verified
against the snapshot before the authoritative snapshot is installed and
recording resumes, so a resumed run continues exactly where the saved run
left off.
"""

from .log import RecordingMemory, ReplayMemory, reply_log_path
from .manager import (CheckpointManager, checkpoint_exists, config_identity,
                      generation_paths, load_checkpoint, quarantine_checkpoint,
                      resume, write_checkpoint_file)
from .snapshot import collect_snapshot, install_snapshot, verify_snapshot

__all__ = [
    "CheckpointManager",
    "checkpoint_exists",
    "config_identity",
    "generation_paths",
    "quarantine_checkpoint",
    "write_checkpoint_file",
    "RecordingMemory",
    "ReplayMemory",
    "reply_log_path",
    "collect_snapshot",
    "install_snapshot",
    "verify_snapshot",
    "load_checkpoint",
    "resume",
]
