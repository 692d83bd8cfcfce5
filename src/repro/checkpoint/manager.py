"""The checkpoint manager: autosave, crash simulation, and restore.

One manager is attached per engine when ``SimConfig.checkpoint_interval``
is set. In **record** mode it logs every backend reply (via
:class:`~repro.checkpoint.log.RecordingMemory` and the fault injector's
outcome FIFO), has the memory system mark the lines that change, tracks
the ``run()`` segments the caller issues, and every ``interval`` processed
events appends the new replies and fault outcomes and the memory system's
changes (or, when that chain has outgrown its base, a new base) to the
checkpoint log, then autosaves an atomic pickle of everything else. In
**replay** mode (during :meth:`CheckpointManager.restore`) it re-drives
the recorded segments against the reply log and stops each one exactly at
its recorded event count — bypassing ``run()``'s finalisation so the
pending timer tick survives — then verifies and installs the snapshot and
switches back to record mode, live.
"""

from __future__ import annotations

import json
import os
import pickle
import time
import zlib
from array import array
from dataclasses import fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import (CheckpointCorruptError, CheckpointError,
                           ReplayDivergence, SimulatedCrash)
from ..core.framing import (fsync_dir, fsync_file, read_frame,
                            sweep_stale_tmp, write_frame)
from ..core.frontend import SimProcess
from ..core.sampling import NEVER
from ..faults import crashpoints
from .log import (BASE, DELTA, STREAMS, RecordingMemory, ReplayMemory,
                  append_frames, read_log, reply_log_path, tagged)
from .snapshot import collect_snapshot, install_snapshot, verify_snapshot

#: checkpoint file format version (bump on incompatible layout changes);
#: v2 introduced the framing: magic + CRC32-framed JSON header + CRC32-
#: framed pickle payload, written fsync-before-rename. v3 keeps the framing
#: and changes the payload: the directory/COMA/DSM protocols snapshot their
#: global line state as ``line -> int`` dicts (sharer bitmasks, owners).
#: v4 moves the reply streams into the append-only reply log; header and
#: payload record its name and committed length (``log`` / ``log_bytes``).
#: v5 makes ``config_fp`` a field -> ``repr`` map without the host policy
#: (:func:`config_identity`) and verifies a parked frontend by port time.
#: v6 drops the per-CPU ``running_pid`` and the communicator's ``running``
#: list (the scheduler's ``on_cpu`` is the one record of who runs where).
#: v7 moves the memory system and the fault outcomes into the log: a save
#: appends a base or a delta of the memory system, and the header records
#: the offset of the base the chain starts from (``base``)
FORMAT_VERSION = 7

#: 4-byte file magic opening every framed (v2+) checkpoint
MAGIC = b"CMPK"

#: autosave generations rotated under the default path (`.g0`/`.g1`)
GENERATIONS = 2


def config_identity(cfg) -> Dict[str, str]:
    """Field -> ``repr`` of every ``SimConfig`` field but the host policy."""
    return {f.name: repr(getattr(cfg, f.name)) for f in fields(cfg)
            if not f.metadata.get("host_policy")}


def _worker_fingerprint(engine) -> Optional[Dict[int, Tuple[str, int]]]:
    """Parallel-mode workload identity: worker name + program-text CRC."""
    workers = getattr(engine, "_workers", None)
    if not workers:
        return None
    return {pid: (w.spec.name, zlib.crc32(w.spec.program_text.encode()))
            for pid, w in workers.items()}


class CheckpointManager:
    """Record/replay controller for one engine."""

    def __init__(self, engine, path: str, interval: int) -> None:
        if interval <= 0:
            raise CheckpointError("checkpoint interval must be positive")
        self.engine = engine
        self.path = path
        self.interval = int(interval)
        self.mode = "record"
        #: per-pid backend replies not yet in the log (``array('i')``
        #: tails since the last save)
        self.replies: Dict[int, Any] = {}
        #: committed byte length of the log (0: not started)
        self.log_bytes = 0
        #: per-site fault-injection outcomes not yet in the log
        self.fault_log: Dict[str, List[int]] = {}
        #: where the memory chain's base starts in the log (None: no base
        #: yet, the next save writes one), its frame's size, and the bytes
        #: of the delta frames appended after it; a save writes a new base
        #: once the deltas add up to the base
        self.base_at: Optional[int] = None
        self.base_bytes = 0
        self.chain_bytes = 0
        #: every run() call: bounds + event counter at entry; the copy
        #: stored in a checkpoint pins ``stop_events`` on the last segment
        self.segments: List[Dict[str, Any]] = []
        #: SimProcess pid counter before any workload spawns — restored
        #: ahead of the builder on resume so pids reproduce
        self.pid_base = SimProcess.pid_counter()
        #: lifetime autosaves (survives resume); this-process autosaves
        self.saves = 0
        self.session_saves = 0
        #: host cost of this process's autosaves, per kind of save
        #: (``"base"`` / ``"delta"``): saves, wall seconds inside save() (of
        #: which: collecting, pickling) and bytes written (files + log
        #: frames); :meth:`cost` sums a key over both. Measurements, so
        #: never part of a snapshot or fingerprint (see
        #: harness.checkpoint_summary)
        self.by_kind: Dict[str, Dict[str, float]] = {
            kind: {"saves": 0, "seconds": 0.0, "collect_seconds": 0.0,
                   "pickle_seconds": 0.0, "bytes": 0}
            for kind in ("base", "delta")}
        #: testing/CI knob: raise SimulatedCrash after the Nth autosave of
        #: this process — a deterministic stand-in for kill -9
        self.crash_after_saves: Optional[int] = None
        self.workload_fp: Optional[Dict[int, str]] = None
        self.worker_fp: Optional[Dict[int, Tuple[str, int]]] = None
        self._next_save = self._due = self.interval
        self._windows: List[str] = []     # see save_window
        self._replay_idx = -1
        # a writer that died mid-save leaves <target>.tmp behind; sweep
        # our own base name so stale temps never accumulate
        sweep_stale_tmp(os.path.dirname(path) or ".", os.path.basename(path))
        ms = engine.memsys
        ms.access = RecordingMemory(ms, self.replies).access
        ms.track_changes()
        engine.faults.begin_recording(self.fault_log)

    # -- engine hooks ------------------------------------------------------

    def on_run_begin(self, engine, until: Optional[int],
                     max_events: Optional[int]) -> None:
        """Called at every ``run()`` entry."""
        if self.workload_fp is None:
            # the initial process set is the workload identity (mid-run
            # forks are products of the run, not part of the fingerprint)
            self.workload_fp = {p.pid: p.name
                                for p in engine.comm.processes.values()}
            self.worker_fp = _worker_fingerprint(engine)
        if self.mode == "record":
            self.segments.append({"until": until, "max_events": max_events,
                                  "events_at_start": engine.events_processed,
                                  "stop_events": None})

    def on_loop_top(self, engine) -> None:
        """Called at the top of every scheduler round while live processes
        remain: save the windows :meth:`save_window` was asked for, and
        autosave every ``interval`` events (a replay ends below)."""
        n = engine.events_processed
        if n >= self._due:
            while self._windows:
                self.save(path=self._windows.pop(0))
            if n >= self._next_save:
                while self._next_save <= n:
                    self._next_save += self.interval
                self.save()
            self._due = self._next_save

    def save_window(self, path: str) -> None:
        """Save to ``path`` at the next loop top past this event count: a
        replay stops only at the first loop top of a count."""
        self._windows.append(path)
        self._due = self.engine.events_processed + 1

    def at_replay_stop(self, engine) -> bool:
        """Called once per ``run()`` return: True when replay reached the
        checkpoint's event count, where ``run()`` returns *without*
        finalising (the checkpointed run was mid-loop there)."""
        return (self.mode == "replay" and engine.events_processed
                == self.segments[self._replay_idx]["stop_events"])

    # -- saving ------------------------------------------------------------

    def save(self, path: str = None) -> str:
        """Append this save's frames to the log, then write an atomic,
        framed, generation-rotated checkpoint that points at them.

        The frames are the replies and fault outcomes recorded since the
        previous save, and the memory system: the lines that changed since
        the previous save (a delta), or, when there is no base in the log
        yet or the deltas since the last one add up to its size, the whole
        of it (a new base). Everything else is pickled into the file.

        Default autosaves alternate between ``<path>.g0`` and
        ``<path>.g1`` so a save torn by a crash (or a later bit flip in
        the newest file) still leaves the previous generation loadable.
        An explicit ``path`` — the sampling controller's per-window
        ``.w<N>`` snapshots — writes that single file, no rotation; it
        points into the same log at its own offset.

        Durability discipline: the log frames are fsynced *before* the
        checkpoint committing them is written; payload + header are
        CRC32-framed, the tmp file is fsynced *before* ``os.replace``,
        and the directory is fsynced after, so the rename is itself
        durable. Crash points ``ckpt:log-append`` / ``ckpt:base-append`` /
        ``ckpt:log-fsync`` / ``ckpt:base-fsync`` / ``ckpt:pre-rename`` /
        ``ckpt:post-rename`` / ``ckpt:post-fsync`` bracket those steps for
        the recovery test harness. The snapshot borrows the owners'
        tables, so it is pickled before returning."""
        t0 = time.perf_counter()
        engine = self.engine
        segments = [dict(s) for s in self.segments]
        if not segments:
            raise CheckpointError("nothing to save: run() was never entered")
        segments[-1]["stop_events"] = engine.events_processed
        ms = engine.memsys
        snapshot = collect_snapshot(engine)
        memory = snapshot.pop("memsys")
        base = self.base_at is None or self.chain_bytes >= self.base_bytes
        if not base:
            memory = ms.state_delta()
        t1 = time.perf_counter()
        frames = [
            tagged(STREAMS, {
                "replies": {pid: a for pid, a in self.replies.items() if a},
                "faults": {site: array("i", o)
                           for site, o in self.fault_log.items() if o}}),
            tagged(BASE if base else DELTA, memory)]
        t2 = time.perf_counter()
        log = reply_log_path(self.path)
        committed = self.log_bytes
        _streams_at, memory_at, self.log_bytes = append_frames(
            log, committed, frames)
        # the frames are durable: what they hold is no longer pending
        ms.clear_changes()
        self.replies.clear()
        self.fault_log.clear()
        if base:
            self.base_at = memory_at
            self.base_bytes = self.log_bytes - memory_at
            self.chain_bytes = 0
        else:
            self.chain_bytes += self.log_bytes - memory_at
        ckpt = {
            "version": FORMAT_VERSION,
            "config_fp": config_identity(engine.cfg),
            "workload_fp": self.workload_fp,
            "worker_fp": self.worker_fp,
            "pid_base": self.pid_base,
            "events_processed": engine.events_processed,
            "saves": self.saves + 1,
            "log": os.path.basename(log),
            "log_bytes": self.log_bytes,
            "base": self.base_at,
            "base_bytes": self.base_bytes,
            "chain_bytes": self.chain_bytes,
            "segments": segments,
            "snapshot": snapshot,
        }
        t3 = time.perf_counter()
        payload = pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
        t4 = time.perf_counter()
        if path is not None:
            target = path
        else:
            target = f"{self.path}.g{self.saves % GENERATIONS}"
        written = (self.log_bytes - committed
                   + write_checkpoint_file(target, ckpt, payload))
        self.saves += 1
        self.session_saves += 1
        kind = self.by_kind["base" if base else "delta"]
        kind["saves"] += 1
        kind["seconds"] += time.perf_counter() - t0
        kind["collect_seconds"] += t1 - t0
        kind["pickle_seconds"] += t2 - t1 + t4 - t3
        kind["bytes"] += written
        if (self.crash_after_saves is not None
                and self.session_saves >= self.crash_after_saves):
            raise SimulatedCrash(
                f"simulated host crash after autosave #{self.saves} "
                f"(cycle {engine.gsched.now}, "
                f"{engine.events_processed} events)")
        return target

    def cost(self, key: str) -> float:
        """``key`` of :attr:`by_kind` summed over both kinds of save."""
        return sum(k[key] for k in self.by_kind.values())

    # -- restoring ---------------------------------------------------------

    def restore(self, ckpt: Dict[str, Any]) -> None:
        """Fast-forward this (freshly built) engine to the checkpoint."""
        engine = self.engine
        _require_current_format(ckpt.get("version"), self.path)
        want, have = ckpt["config_fp"], config_identity(engine.cfg)
        differ = sorted(k for k in want.keys() | have.keys()
                        if want.get(k) != have.get(k))
        if differ:
            raise CheckpointError(
                f"configuration mismatch: the engine's SimConfig differs "
                f"from the checkpointed run's in: {', '.join(differ)}")
        live_fp = {p.pid: p.name for p in engine.comm.processes.values()}
        if live_fp != ckpt["workload_fp"]:
            raise CheckpointError(
                f"workload fingerprint mismatch: checkpoint recorded "
                f"{ckpt['workload_fp']}, builder spawned {live_fp}")
        live_wfp = _worker_fingerprint(engine)
        if live_wfp != ckpt["worker_fp"]:
            raise CheckpointError(
                "parallel worker fingerprint mismatch: worker specs differ "
                "from the checkpointed run")
        self.workload_fp = ckpt["workload_fp"]
        self.worker_fp = ckpt["worker_fp"]
        # adopt the recorded history: the reply streams and fault outcomes
        # read back from the log only feed the replay — they stay in the
        # log, up to the checkpoint's offset, where the next save cuts it
        # and appends (a delta against the chain the checkpoint ends)
        self.replies.clear()
        self.fault_log.clear()
        self.log_bytes = ckpt["log_bytes"]
        self.base_at = ckpt["base"]
        self.base_bytes = ckpt["base_bytes"]
        self.chain_bytes = ckpt["chain_bytes"]
        if (os.path.abspath(ckpt["log_path"])
                != os.path.abspath(reply_log_path(self.path))):
            # resumed under another checkpoint_path: its log starts over,
            # and the first save writes the whole history and a base
            self.log_bytes = 0
            self.base_at = None
            self.replies.update((pid, a[:])
                                for pid, a in ckpt["replies"].items())
            self.fault_log.update((site, list(a))
                                  for site, a in ckpt["fault_log"].items())
        self.segments = [dict(s) for s in ckpt["segments"]]
        self.saves = ckpt["saves"]
        self._next_save = self._due = ckpt["events_processed"] + self.interval

        # one tap slot, rebound record -> replay -> record (no tap stack)
        ms = engine.memsys
        replay = ReplayMemory(ms, ckpt["replies"])
        ms.access = replay.access
        engine.faults.begin_replay(ckpt["fault_log"])
        if engine._sampler is not None:     # the log holds its latencies
            engine._sampler.boundary = NEVER
        self.mode = "replay"
        try:
            for idx, seg in enumerate(self.segments):
                self._replay_idx = idx
                stop = seg["stop_events"]
                # the loop budget cuts a batch at the recorded stop
                engine.run(seg["until"], seg["max_events"] if stop is None
                           else stop - engine.events_processed)
                if (stop is not None
                        and engine.events_processed != stop):
                    raise ReplayDivergence(
                        f"segment {idx} replayed to event "
                        f"{engine.events_processed}, checkpoint stopped "
                        f"at {stop}")
            if engine.events_processed != ckpt["events_processed"]:
                raise ReplayDivergence(
                    f"replay processed {engine.events_processed} events, "
                    f"checkpoint recorded {ckpt['events_processed']}")
            replay.check_exhausted()
            verify_snapshot(engine, ckpt["snapshot"])
        finally:
            self._replay_idx = -1
        install_snapshot(engine, ckpt["snapshot"])
        # switch live: record the tail from here on, and the changes
        # against the state just installed
        ms.clear_changes()
        ms.access = RecordingMemory(ms, self.replies).access
        engine.faults.begin_recording(self.fault_log)
        self.mode = "record"

    def finish(self, engine=None):
        """Run the remainder of the interrupted segment (the portion the
        crash cut off) with its original bounds; returns the stats."""
        engine = engine if engine is not None else self.engine
        seg = self.segments[-1]
        stop = seg["stop_events"]
        if stop is None:
            raise CheckpointError("last segment has no recorded stop point")
        remaining = None
        if seg["max_events"] is not None:
            remaining = seg["max_events"] - (stop - seg["events_at_start"])
        return engine.run(seg["until"], remaining)


def _require_current_format(found, path: str) -> None:
    """Refuse a checkpoint written in another format version. It is intact,
    just not ours to read: not corruption, so nothing is quarantined."""
    if found != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format {found!r} != {FORMAT_VERSION} "
            f"(written by an incompatible build; delete it to start over)")


def write_checkpoint_file(target: str, ckpt: Dict[str, Any],
                          payload: Optional[bytes] = None) -> int:
    """Atomically write one framed checkpoint file; returns its size.

    Layout: ``MAGIC`` + CRC32-framed JSON header (format version, save
    counter, the log's name, committed length and the offset of the memory
    base the checkpoint's chain starts from — readable without unpickling)
    + CRC32-framed pickle payload (``payload``, when the caller already
    pickled ``ckpt``).
    """
    if payload is None:
        payload = pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps({"format": FORMAT_VERSION,
                         "saves": ckpt.get("saves", 0),
                         "events": ckpt.get("events_processed", 0),
                         "log": ckpt.get("log"),
                         "log_bytes": ckpt.get("log_bytes", 0),
                         "base": ckpt.get("base")}).encode()
    tmp = target + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        write_frame(f, header)
        write_frame(f, payload)
        size = f.tell()
        fsync_file(f)
    crashpoints.hit("ckpt:pre-rename")
    os.replace(tmp, target)
    crashpoints.hit("ckpt:post-rename")
    fsync_dir(os.path.dirname(target) or ".")
    crashpoints.hit("ckpt:post-fsync")
    return size


def _read_checkpoint_file(path: str) -> Dict[str, Any]:
    """Read + fully verify one framed checkpoint file.

    Every corruption mode — bad magic, torn/flipped frames, garbage
    pickle — raises :class:`CheckpointCorruptError` with the byte
    offset; a raw ``EOFError``/``UnpicklingError`` never escapes. An
    intact file of another format version is refused from its header,
    before anything is unpickled, with a plain :class:`CheckpointError`.
    """
    with open(path, "rb") as f:
        header = _read_header(f, path)
        _require_current_format(header.get("format"), path)
        offset = f.tell()
        payload = read_frame(f, path, CheckpointCorruptError)
        if payload is None:
            raise CheckpointCorruptError(path, offset,
                                         "missing payload frame")
        try:
            ckpt = pickle.loads(payload)
        except Exception as exc:     # CRC passed but pickle refuses:
            raise CheckpointCorruptError(    # writer bug, still structured
                path, offset, f"unpicklable payload: {exc!r}")
    if not isinstance(ckpt, dict) or "version" not in ckpt:
        raise CheckpointCorruptError(path, offset,
                                     "payload is not a checkpoint dict")
    if header.get("format") != ckpt.get("version"):
        raise CheckpointCorruptError(
            path, len(MAGIC),
            f"header format {header.get('format')!r} disagrees with "
            f"payload version {ckpt.get('version')!r}")
    if header.get("log") is not None:
        ckpt["log_path"] = os.path.join(os.path.dirname(path), header["log"])
        (ckpt["replies"], ckpt["fault_log"],
         ckpt["snapshot"]["memsys"]) = read_log(
            ckpt["log_path"], header["log_bytes"], header["base"])
    return ckpt


def _read_header(f, path: str) -> Dict[str, Any]:
    """Magic + the JSON header frame of the checkpoint open at ``f``."""
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointCorruptError(
            path, 0, f"bad magic {magic!r} (want {MAGIC!r}): not a "
            f"framed checkpoint file")
    header_raw = read_frame(f, path, CheckpointCorruptError)
    if header_raw is None:
        raise CheckpointCorruptError(path, len(MAGIC), "missing header frame")
    try:
        return json.loads(header_raw)
    except ValueError as exc:
        raise CheckpointCorruptError(
            path, len(MAGIC), f"unreadable header frame: {exc}")


def _header_saves(path: str) -> int:
    """The save counter from a file's header frame; -1 when unreadable
    (the file then sorts oldest and is tried last)."""
    try:
        with open(path, "rb") as f:
            return int(_read_header(f, path).get("saves", -1))
    except (OSError, ValueError, CheckpointCorruptError):
        return -1


def generation_paths(path: str) -> List[str]:
    """The rotation targets autosaves alternate between."""
    return [f"{path}.g{i}" for i in range(GENERATIONS)]


def checkpoint_exists(path: str) -> bool:
    """True when ``path`` (explicit file) or any of its autosave
    generations exists. The log alone (``reply_log_path(path)``) is not a
    checkpoint: nothing points into it."""
    return (os.path.exists(path)
            or any(os.path.exists(g) for g in generation_paths(path)))


def quarantine_checkpoint(path: str, err: CheckpointCorruptError,
                          fallback: Optional[str] = None) -> Dict[str, Any]:
    """Move a corrupt checkpoint aside and drop a JSON forensic record.

    The bytes move to ``<path>.corrupt`` (never deleted — they are the
    evidence) and ``<path>.quarantine.json`` records what was wrong and
    which generation recovery fell back to. Returns the record."""
    record = {
        "quarantined": path,
        "moved_to": path + ".corrupt",
        "error": err.to_record(),
        "fallback": fallback,
    }
    try:
        os.replace(path, path + ".corrupt")
    except OSError as exc:
        record["moved_to"] = None
        record["move_error"] = repr(exc)
    with open(path + ".quarantine.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read + verify a checkpoint (with generation fallback).

    An existing ``path`` is read as an explicit single file — strict,
    no fallback (the sampling controller's ``.w<N>`` windows). Otherwise
    the autosave generations ``<path>.g0`` / ``<path>.g1`` are tried
    newest-first (by the save counter in the framed header): a corrupt
    newer generation is quarantined (:func:`quarantine_checkpoint`) and
    the previous one is used instead of restarting from cycle zero.
    The result carries ``"replies"`` and ``"fault_log"``, the reply streams
    and fault outcomes read from the log (``"log_path"``) up to the length
    the file committed, and the memory system's base and chain folded into
    its snapshot's ``"memsys"``; a log short or damaged inside that length
    is corruption of the generation needing it.
    Raises :class:`CheckpointCorruptError` when every candidate is
    corrupt, ``FileNotFoundError`` when none exists.
    """
    if os.path.exists(path):
        return _read_checkpoint_file(path)
    gens = [g for g in generation_paths(path) if os.path.exists(g)]
    if not gens:
        raise FileNotFoundError(
            f"no checkpoint at {path!r} (and no .g* generations)")
    gens.sort(key=_header_saves, reverse=True)
    last_err: Optional[CheckpointCorruptError] = None
    for idx, gen in enumerate(gens):
        try:
            return _read_checkpoint_file(gen)
        except CheckpointCorruptError as exc:
            fallback = gens[idx + 1] if idx + 1 < len(gens) else None
            quarantine_checkpoint(gen, exc, fallback)
            last_err = exc
    raise last_err


def resume(path: str, build: Callable[[], Any], finish: bool = True):
    """Resume a killed/crashed run from its autosave.

    ``build`` must reconstruct the engine exactly as the original driver
    did — same SimConfig (with checkpointing enabled), same workload
    spawns — and return it without calling ``run()``. Returns
    ``(engine, stats)``; with ``finish=True`` the interrupted segment is
    run to its original bounds first.
    """
    ckpt = load_checkpoint(path)
    SimProcess.set_pid_counter(ckpt["pid_base"])
    engine = build()
    mgr = getattr(engine, "_ckpt", None)
    if mgr is None:
        raise CheckpointError(
            "the rebuilt engine has checkpointing disabled: set "
            "checkpoint_path/checkpoint_interval in its SimConfig")
    mgr.restore(ckpt)
    stats = engine.stats
    if finish:
        stats = mgr.finish(engine)
    return engine, stats
