"""The checkpoint manager: autosave, crash simulation, and restore.

One manager is attached per engine when ``SimConfig.checkpoint_interval``
is set. In **record** mode it logs every backend reply (via
:class:`~repro.checkpoint.log.RecordingMemory` and the fault injector's
outcome FIFO), has the memory system mark the lines that change, tracks
the ``run()`` segments the caller issues, and every ``interval`` processed
events appends a save to the checkpoint log. In **replay** mode (during
:meth:`CheckpointManager.restore`) it re-drives the recorded segments
against the reply streams and stops each one exactly at its recorded
event count — bypassing ``run()``'s finalisation so the pending timer tick
survives — then verifies and installs the snapshot and switches back to
record mode, live.

A checkpoint path owns one :class:`~repro.core.framing.SegmentLog`
(``<path>.00000001.seg``, ...; each segment holds one memory base), and a
checkpoint is the newest snapshot frame in it (:meth:`CheckpointManager.
save`, :func:`load_checkpoint`).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from array import array
from dataclasses import fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import (CheckpointCorruptError, CheckpointError,
                           ReplayDivergence, SimulatedCrash)
from ..core.framing import (HEADER_SIZE, Scan, SegmentLog, fsync_file,
                            quarantine, scan, write_frame)
from ..core.frontend import SimProcess
from ..core.sampling import NEVER
from ..faults import crashpoints
from ..mem.hierarchy import MemorySystem
from .log import (BASE, DELTA, SNAPSHOT, STREAMS, RecordingMemory,
                  ReplayMemory, tagged, untagged)
from .snapshot import collect_snapshot, install_snapshot, verify_snapshot

#: checkpoint format version (bump on incompatible layout changes); v2-v7
#: wrote a checkpoint file per save (``<path>.g0`` / ``.g1``)
FORMAT_VERSION = 8

#: 4-byte magic opening every checkpoint segment
MAGIC = b"CMPL"

#: the header frame opening every checkpoint segment
HEADER = json.dumps({"format": FORMAT_VERSION}).encode()

#: bytes a compaction copies per read: the streams grow with the run, and
#: a save holds no more than this of them in memory
COPY_CHUNK = 1 << 18


def _log(path: str) -> SegmentLog:
    """The segmented log of checkpoint path ``path``."""
    return SegmentLog(os.path.dirname(path) or ".",
                      os.path.basename(path) + ".", ".seg", MAGIC, HEADER)


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
        #: per-site fault-injection outcomes not yet in the log
        self.fault_log: Dict[str, List[int]] = {}
        self.log = _log(path)
        #: the segment autosaves append to (None: the next save starts
        #: one), its committed length, and the bytes of its memory base
        #: frame and of the delta frames after it; a save writes a new base
        #: when its delta would grow a chain of at least one delta past the
        #: base
        self.active: Optional[int] = None
        self.log_bytes = 0
        self.base_bytes = 0
        self.chain_bytes = 0
        #: where the committed streams frames are: a file and its byte
        #: spans, which the next base save copies into its fresh segment
        self.streams: Tuple[Optional[str], List[Tuple[int, int]]] = (None, [])
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
        #: which: collecting, pickling) and bytes written (frames, and
        #: the streams a base save copies); :meth:`cost` sums a key over
        #: both. Measurements, so
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
        """Append this save to the log; returns the file it is in.

        Three frames: the replies and fault outcomes recorded since the
        previous save (streams), the memory system — what changed since
        the previous save (a delta), or all of it (a base) when the log has
        no segment yet or the delta would grow a chain of at least one
        delta past its base — and the snapshot of everything else. A delta
        save appends them to the newest segment behind one fsync
        (:meth:`_append`); a base save compacts (:meth:`_compact`).

        An explicit ``path`` — the sampling controller's per-window
        ``.w<N>`` files — gets a self-contained segment of its own (the
        committed streams, this save's frames with a base) and leaves the
        autosave chain's pending streams and change marks as they were.
        The snapshot borrows the owners' tables, so it is pickled before
        returning."""
        t0 = time.perf_counter()
        engine = self.engine
        segments = [dict(s) for s in self.segments]
        if not segments:
            raise CheckpointError("nothing to save: run() was never entered")
        segments[-1]["stop_events"] = engine.events_processed
        ms = engine.memsys
        snapshot = collect_snapshot(engine)
        memory = snapshot.pop("memsys")
        base = path is not None or self.active is None
        changes = None if base else ms.state_delta()
        t1 = time.perf_counter()
        streams = tagged(STREAMS, {
            "replies": {pid: a for pid, a in self.replies.items() if a},
            "faults": {site: array("i", o)
                       for site, o in self.fault_log.items() if o}})
        snap = tagged(SNAPSHOT, {
            "version": FORMAT_VERSION,
            "config_fp": config_identity(engine.cfg),
            "workload_fp": self.workload_fp,
            "worker_fp": self.worker_fp,
            "pid_base": self.pid_base,
            "events_processed": engine.events_processed,
            "saves": self.saves + 1,
            "segments": segments,
            "snapshot": snapshot,
        })
        if not base:
            delta = tagged(DELTA, changes)
            base = 0 < self.chain_bytes and (
                self.chain_bytes + HEADER_SIZE + len(delta) > self.base_bytes)
        frames = [streams, tagged(BASE, memory) if base else delta, snap]
        t2 = time.perf_counter()
        if path is not None:
            with open(path, "wb") as f:
                f.write(MAGIC)
                write_frame(f, HEADER)
                self._write_segment(f, frames)
                written = f.tell()
                fsync_file(f)
            target = path
        else:
            committed = self.log_bytes
            target = self._compact(frames) if base else self._append(frames)
            written = self.log_bytes - (0 if base else committed)
            # the frames are durable: what they hold is no longer pending
            ms.clear_changes()
            self.replies.clear()
            self.fault_log.clear()
        self.saves += 1
        self.session_saves += 1
        kind = self.by_kind["base" if base else "delta"]
        kind["saves"] += 1
        kind["seconds"] += time.perf_counter() - t0
        kind["collect_seconds"] += t1 - t0
        kind["pickle_seconds"] += t2 - t1
        kind["bytes"] += written
        if (self.crash_after_saves is not None
                and self.session_saves >= self.crash_after_saves):
            raise SimulatedCrash(
                f"simulated host crash after autosave #{self.saves} "
                f"(cycle {engine.gsched.now}, "
                f"{engine.events_processed} events)")
        return target

    def _append(self, frames) -> str:
        """A delta save: three frames onto the newest segment, one fsync."""
        log = self.log
        crashpoints.hit("ckpt:log-append")
        f = log.reopen(self.active, self.log_bytes)
        at = f.tell()
        for payload in frames:
            log.append(payload)
        f.flush()
        crashpoints.hit("ckpt:log-fsync")
        fsync_file(f)
        self.log_bytes = f.tell()
        log.close()
        self.streams[1].append((at, at + HEADER_SIZE + len(frames[0])))
        self.chain_bytes += HEADER_SIZE + len(frames[1])
        return log.path(self.active)

    def _compact(self, frames) -> str:
        """A base save: a fresh segment of the committed streams and this
        save's frames, sealed (file and directory) before every older
        segment is unlinked; see ``faults/crashpoints.py`` for its sites."""
        log = self.log
        crashpoints.hit("ckpt:log-append")
        f = log.open_next()
        start = f.tell()
        end = self._write_segment(f, frames)
        crashpoints.hit("ckpt:base-fsync")
        log.seal()
        self.log_bytes = f.tell()
        log.close()
        crashpoints.hit("ckpt:compact")
        log.drop_older()
        self.active = log.index
        self.streams = (log.path(log.index), [(start, end)])
        self.base_bytes = HEADER_SIZE + len(frames[1])
        self.chain_bytes = 0
        return log.path(log.index)

    def _write_segment(self, f, frames) -> int:
        """Write the committed streams frames, copied byte for byte, then
        ``frames`` (streams, base, snapshot) to the new segment open at
        ``f``; returns where the streams end."""
        src, spans = self.streams
        if spans:
            with open(src, "rb") as g:
                for a, b in spans:
                    g.seek(a)
                    while a < b:
                        chunk = g.read(min(COPY_CHUNK, b - a))
                        if not chunk:
                            raise CheckpointCorruptError(
                                src, a, "streams frame ends early")
                        f.write(chunk)
                        a += len(chunk)
        write_frame(f, frames[0])
        end = f.tell()
        f.flush()
        crashpoints.hit("ckpt:base-append")
        for payload in frames[1:]:
            write_frame(f, payload)
        f.flush()
        return end

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
        # read back from the log only feed the replay. A checkpoint in one
        # of this path's segments is appended to (the next save cuts what
        # follows it); one read from a window file or another path's log
        # is copied into a fresh segment of this path's log by the next
        # save, which writes a base
        self.replies.clear()
        self.fault_log.clear()
        self.active = self.log.index_of(ckpt["log_path"])
        self.log_bytes = ckpt["log_bytes"]
        self.streams = (ckpt["log_path"], list(ckpt["streams"]))
        self.base_bytes = ckpt["base_bytes"]
        self.chain_bytes = ckpt["chain_bytes"]
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


def _header_format(s: Scan):
    """The format version the header frame of a scanned segment names
    (None: no readable header)."""
    try:
        return json.loads(bytes(s.frames[0][1]))["format"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None


def _newest(path: str) -> Tuple[Scan, int]:
    """The segment holding ``path``'s checkpoint and the index of its
    snapshot frame among the intact frames. Nothing is moved.

    An existing ``path`` is one self-contained segment (a ``.w<N>`` window):
    strict, its last frame must be an intact snapshot. Otherwise the
    segments of ``path``'s log are tried newest first; one with no snapshot
    before its first bad frame (a compaction torn before its snapshot was
    durable) gives way to the one before it. A segment whose header names
    another format, or a generation file an earlier build left, is refused
    with :class:`CheckpointError`."""
    if os.path.exists(path):
        candidates, strict = [path], True
    else:
        for gen in (f"{path}.g0", f"{path}.g1"):
            if os.path.exists(gen):
                _require_current_format(
                    _header_format(scan(gen, b"CMPK")), gen)
        log = _log(path)
        candidates = [log.path(i) for i in reversed(log.indices())]
        strict = False
    err: Optional[CheckpointCorruptError] = None
    for seg in candidates:
        s = scan(seg, MAGIC)
        if s.frames:
            _require_current_format(_header_format(s), seg)
        k = max((i for i, (_off, p) in enumerate(s.frames)
                 if i and p[:1] == SNAPSHOT), default=None)
        if strict and (s.bad is not None or k != len(s.frames) - 1):
            raise CheckpointCorruptError(
                seg, s.size if s.bad is None else s.bad,
                s.reason or "no snapshot frame ends the file")
        if k is not None:
            return s, k
        if err is None and s.bad is not None:
            err = CheckpointCorruptError(seg, s.bad, s.reason)
    if err is not None:
        raise err
    raise FileNotFoundError(f"no checkpoint at {path!r}")


def _decode(s: Scan, k: int) -> Dict[str, Any]:
    """The checkpoint in snapshot frame ``k`` of ``s``: the snapshot, the
    reply streams and fault outcomes of every streams frame before it, and
    the memory system — the segment's base with the deltas up to ``k``
    folded in. Frames after ``k`` are never looked at."""
    replies: Dict[int, array] = {}
    faults: Dict[str, array] = {}
    spans: List[Tuple[int, int]] = []
    memory, base_bytes, chain_bytes = None, 0, 0
    for off, payload in s.frames[1:k + 1]:
        tag = payload[:1]
        if tag == SNAPSHOT and off != s.frames[k][0]:
            continue
        try:
            tag, obj = untagged(payload)
            if tag == STREAMS:
                spans.append((off, off + HEADER_SIZE + len(payload)))
                for pid, a in obj["replies"].items():
                    replies.setdefault(pid, array("i")).extend(a)
                for site, a in obj["faults"].items():
                    faults.setdefault(site, array("i")).extend(a)
            elif tag == BASE and memory is None:
                memory, base_bytes = obj, HEADER_SIZE + len(payload)
            elif tag == DELTA and memory is not None:
                MemorySystem.apply_delta(memory, obj)
                chain_bytes += HEADER_SIZE + len(payload)
            elif tag == SNAPSHOT:
                if memory is None:
                    raise ValueError("no memory base before the snapshot")
                ckpt = obj
            else:
                raise ValueError(f"unexpected frame tag {tag!r}")
        except Exception as exc:    # CRC passed but the frame is not
            raise CheckpointCorruptError(    # ours: still structured
                s.path, off, f"undecodable log frame: {exc!r}")
    ckpt["snapshot"]["memsys"] = memory
    off, payload = s.frames[k]
    ckpt.update(replies=replies, fault_log=faults, log_path=s.path,
                log_bytes=off + HEADER_SIZE + len(payload), streams=spans,
                base_bytes=base_bytes, chain_bytes=chain_bytes)
    return ckpt


def generation_paths(path: str) -> List[str]:
    """The files that now hold ``path``'s checkpoints, listed at call time:
    the log's segments, oldest first, and what a load quarantined beside
    them."""
    return _log(path).files()


def checkpoint_exists(path: str) -> bool:
    """True when :func:`load_checkpoint` would find something at ``path``
    (a checkpoint, or one it refuses). A log with no snapshot frame is
    not a checkpoint."""
    try:
        _newest(path)
    except FileNotFoundError:
        return False
    except CheckpointError:
        pass
    return True


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read + verify ``path``'s checkpoint: the newest snapshot frame before
    the first bad or torn frame of the newest segment holding one (see
    :func:`_newest`). A flip inside the newest save's frames falls back to
    the previous save in the same segment. Bytes after the chosen snapshot
    are moved aside (``<segment>.quarantine`` and
    ``<segment>.quarantine.json``); the next append cuts them.

    The result carries ``"replies"`` and ``"fault_log"``, the reply
    streams and fault outcomes, the memory system in its snapshot's
    ``"memsys"``, and where it was read (``"log_path"``, ``"log_bytes"``,
    the streams frames' ``"streams"`` spans, the sizes of the base frame
    and of the deltas after it, ``"base_bytes"`` / ``"chain_bytes"``). Raises
    :class:`CheckpointCorruptError` (path, offset, reason) when damage
    leaves no snapshot to load, ``FileNotFoundError`` when there is none.
    """
    s, k = _newest(path)
    ckpt = _decode(s, k)
    if ckpt["log_bytes"] < s.size:
        quarantine(s.path, ckpt["log_bytes"], None if s.bad is None else
                   CheckpointCorruptError(s.path, s.bad, s.reason).to_record(),
                   truncate=False)
    return ckpt


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
