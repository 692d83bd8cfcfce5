"""User-vs-OS time decomposition (the paper's Table 1).

The paper reports "user and OS times as a percentage of the total CPU time
which excludes wait time due to disk IO", with OS time split into interrupt
handlers and kernel (syscall) time. :func:`profile_row` produces that row
from a finished run's statistics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Tuple

from ..checkpoint import generation_paths
from ..core.stats import StatsRegistry


@dataclass(frozen=True)
class ProfileRow:
    """One Table 1 row."""

    benchmark: str
    user_pct: float
    os_pct: float
    interrupt_pct: float
    kernel_pct: float
    busy_cycles: int
    idle_cycles: int

    def as_tuple(self) -> Tuple[str, str, str, str, str]:
        return (self.benchmark,
                f"{self.user_pct:.1f}%",
                f"{self.os_pct:.1f}%",
                f"{self.interrupt_pct:.1f}%",
                f"{self.kernel_pct:.1f}%")


def profile_row(name: str, stats: StatsRegistry) -> ProfileRow:
    """Build the Table 1 row for a finished run.

    Context-switch cycles are folded into kernel time (the dispatcher is
    kernel code); idle (I/O wait) is excluded, as in the paper.
    """
    agg = stats.total_cpu()
    busy = agg.busy
    if busy == 0:
        return ProfileRow(name, 0.0, 0.0, 0.0, 0.0, 0, agg.idle)
    kernel = agg.kernel + agg.ctx_switch
    return ProfileRow(
        benchmark=name,
        user_pct=100.0 * agg.user / busy,
        os_pct=100.0 * (kernel + agg.interrupt) / busy,
        interrupt_pct=100.0 * agg.interrupt / busy,
        kernel_pct=100.0 * kernel / busy,
        busy_cycles=busy,
        idle_cycles=agg.idle,
    )


def top_oscall_table(stats: StatsRegistry, n: int = 8) -> List[Tuple[str, float, int]]:
    """The "significant OS calls" list: (name, % of kernel cycles, count)."""
    total_kernel = stats.total_cpu().kernel
    if total_kernel == 0:
        return []
    return [(name, 100.0 * cyc / total_kernel, cnt)
            for name, cyc, cnt in stats.top_syscalls(n)]


def fastpath_summary(engine) -> dict:
    """Observability row for the batched pipeline + L1 fast-path filter.

    Reports how many references the L1 probe retired vs did not (private
    L2 hits and the miss kernel's), plus the engine's batch consumption
    counters (batches consumed, references per batch, and why each consume
    loop stopped — see DESIGN.md "Performance notes").
    """
    ms = engine.memsys
    total = ms.fast_hits + ms.fast_fallbacks
    out = {
        "fast_hits": ms.fast_hits,
        "fast_fallbacks": ms.fast_fallbacks,
        "fast_hit_rate": (ms.fast_hits / total) if total else 0.0,
        "events_processed": engine.events_processed,
    }
    bs = engine.batch_stats
    out.update({f"batch_{k}": v for k, v in bs.items()})
    out["refs_per_batch"] = (bs["refs"] / bs["batches"]) if bs["batches"] else 0.0
    return out


def vec_summary(engine) -> dict:
    """Observability row for the batch all-hit prefix (``mem/vec.py``).

    Reports how many batch runs retired a prefix in bulk vs fell back to
    the scalar loop, how many prefixes were classified, and the per-reason
    decline counters — ``short`` (run below ``MIN_RUN``), ``stale`` (the
    CPU's L1 version moved since its previous run) and ``first_miss``
    (first reference not an L1 hit) for runs, ``frontier_short`` /
    ``frontier_stale`` for rivals' window bounds left to the scalar walk;
    see DESIGN.md "The batch classification cache".
    """
    ms = engine.memsys
    return {
        "vec_batches": ms.vec_batches,
        "vec_refs": ms.vec_refs,
        "vec_fallbacks": ms.vec_fallbacks,
        "classifications": ms._vec.classifications,
        "declines": dict(ms._vec.declines),
    }


def sampling_summary(engine) -> dict:
    """Observability row for checkpoint-based sampled simulation.

    Reports how many references retired through the functional
    fast-forward path vs the detailed model, plus the window counts and
    calibrated ff latencies from the controller. ``enabled: False`` (and
    no other keys) when sampling is off.
    """
    ctl = getattr(engine, "_sampler", None)
    if ctl is None:
        return {"enabled": False}
    out = {"enabled": True}
    out.update(ctl.summary())
    return out


def checkpoint_summary(engine) -> dict:
    """Observability row for checkpoint autosaves: what durability cost.

    ``saves`` / ``bytes`` / ``host_seconds`` are this process's autosaves
    (``CheckpointManager.session_saves`` and ``CheckpointManager.cost`` of
    ``bytes`` / ``seconds``; ``bytes`` counts every frame written and the
    streams a base save copies into its fresh segment), ``log_bytes`` is
    the committed length of the segment autosaves append to,
    ``disk_bytes`` the files the log leaves on disk now
    (``generation_paths``), ``ms_per_save`` splits the mean save into
    collecting the snapshot, pickling it, and writing (appends, copies,
    fsyncs), ``base`` / ``delta`` report the same for the
    saves that wrote the whole memory system and for those that wrote its
    changes (``saves``, and per save ``ms`` with its ``collect_ms`` /
    ``pickle_ms`` / ``write_ms`` split, and ``bytes``), and
    ``share_of_run`` is ``host_seconds`` over ``stats.host_seconds`` (the
    wall time spent inside ``run()``, which includes the saves). Host
    measurements only: none of this is in a snapshot or a fingerprint.
    ``enabled: False`` (and no other keys) when the engine has no
    checkpoint manager.
    """
    mgr = getattr(engine, "_ckpt", None)
    if mgr is None:
        return {"enabled": False}
    run_seconds = engine.stats.host_seconds

    def split(k) -> dict:
        per = 1000.0 / max(k["saves"], 1)
        return {"collect": k["collect_seconds"] * per,
                "pickle": k["pickle_seconds"] * per,
                "write": (k["seconds"] - k["collect_seconds"]
                          - k["pickle_seconds"]) * per}

    seconds = mgr.cost("seconds")
    out = {
        "enabled": True,
        "saves": mgr.session_saves,
        "bytes": mgr.cost("bytes"),
        "log_bytes": mgr.log_bytes,
        "disk_bytes": sum(os.path.getsize(f)
                          for f in generation_paths(mgr.path)),
        "host_seconds": seconds,
        "ms_per_save": split({key: mgr.cost(key) for key in
                              ("saves", "seconds", "collect_seconds",
                               "pickle_seconds")}),
        "share_of_run": seconds / run_seconds if run_seconds else 0.0,
    }
    for kind, k in mgr.by_kind.items():
        ms = split(k)
        out[kind] = {"saves": k["saves"],
                     "ms": 1000.0 * k["seconds"] / max(k["saves"], 1),
                     "collect_ms": ms["collect"], "pickle_ms": ms["pickle"],
                     "write_ms": ms["write"],
                     "bytes": k["bytes"] // max(k["saves"], 1)}
    return out


def translate_summary(engine) -> dict:
    """Observability row for the basic-block translation cache.

    The counters are the process-wide translation-cache stats
    (programs/blocks translated, shared code-cache hit rate) — see
    :mod:`repro.isa.translate`.
    """
    from ..isa.translate import cache_stats
    out = cache_stats()
    compiles = out["code_hits"] + out["code_misses"]
    out["code_hit_rate"] = (out["code_hits"] / compiles) if compiles else 0.0
    return out
