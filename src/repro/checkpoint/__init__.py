"""Deterministic checkpoint/restore for long commercial runs.

COMPASS frontends are generator coroutines — unpicklable by design — so a
checkpoint cannot serialise the simulation directly. Instead it stores:

* a config/workload fingerprint (to refuse resuming a different setup),
* a versioned plain-data snapshot of every backend component but the
  memory system (``state_dict()`` on devices, OS state, stats, fault
  injector, schedulers),
* the history that grows with run length or footprint, in one segmented
  **log** per checkpoint path, appended once: the latency the backend
  answered to every memory reference since cycle 0, the per-site outcome
  of every fault-injection check, and the memory system (caches,
  coherence protocol, page tables) as a base plus the deltas of what
  changed between saves. A checkpoint is the newest snapshot frame of
  that log; a save that writes a new base compacts it, so the disk holds
  the streams, one base and its chain.

Restore rebuilds the workload coroutines by re-running the builder, then
**fast-forwards** by replaying the run segments with every memory access
answered from the log — no cache walks, no coherence traffic, no RNG
draws — which regrows all unpicklable structure (generator frames, wait
tokens, scheduled closures) bit-identically. The rebuilt state is verified
against the snapshot before the authoritative snapshot is installed and
recording resumes, so a resumed run continues exactly where the saved run
left off.
"""

from .log import RecordingMemory, ReplayMemory
from .manager import (CheckpointManager, checkpoint_exists, config_identity,
                      generation_paths, load_checkpoint, resume)
from .snapshot import collect_snapshot, install_snapshot, verify_snapshot

__all__ = [
    "CheckpointManager",
    "checkpoint_exists",
    "config_identity",
    "generation_paths",
    "RecordingMemory",
    "ReplayMemory",
    "collect_snapshot",
    "install_snapshot",
    "verify_snapshot",
    "load_checkpoint",
    "resume",
]
