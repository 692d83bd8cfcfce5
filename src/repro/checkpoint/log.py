"""The checkpoint log, and the memory-system taps that record or replay.

Every reference reaches the memory system through ``MemorySystem.access``
(batched runs too, once it is rebound on the instance: the tapped arm of
``access_run`` — proven bit-identical to the inlined hot loop by the
fast-path equivalence tests), so an ``access`` interposer the manager binds
on the live instance, exactly as ``MemTraceRecorder.attach`` binds its own,
captures (or substitutes) the full reply stream and changes no timing.

What grows with run length or footprint lives in one append-only framed
file beside the checkpoint generations (``<path>.log``). Every save
appends two frames, fsynced together, and the checkpoint files stay flat:

* a **streams** frame: the replies and the fault-check outcomes recorded
  since the previous save, so each is written once;
* a **memory** frame: either a **base**, the whole
  ``MemorySystem.state_dict()``, or a **delta**, the
  ``MemorySystem.state_delta()`` of the lines that changed since the
  previous save.

Each frame's payload opens with a one-byte tag naming its kind. Each
checkpoint records the log's committed byte length at its save and the
offset of the base its chain starts from; restore reads the streams up to
that length, folds the chain into one full ``state_dict()`` and ignores
whatever follows.
"""

from __future__ import annotations

import io
import os
import pickle
from array import array
from typing import Any, Dict, List, Sequence, Tuple

from ..core.errors import CheckpointCorruptError, ReplayDivergence
from ..core.framing import fsync_file, read_frame, write_frame
from ..faults import crashpoints
from ..mem.hierarchy import MemorySystem

#: reply-log sentinel for "this access raised a major fault"
MAJOR_FAULT = -1

#: 4-byte file magic opening the checkpoint log
LOG_MAGIC = b"CMPL"

#: frame tags: the streams since the previous save, a full memory system,
#: the memory system's changes since the previous save
STREAMS, BASE, DELTA = b"S", b"B", b"D"


def reply_log_path(path: str) -> str:
    """The log shared by every checkpoint saved under ``path``
    (``.g0``/``.g1`` generations and the sampler's ``.w<N>`` files)."""
    return path + ".log"


def tagged(tag: bytes, obj: Any) -> memoryview:
    """A log frame payload: ``tag`` and the pickle of ``obj``, pickled
    behind the tag (a base is never held twice)."""
    buf = io.BytesIO()
    buf.write(tag)
    pickle.dump(obj, buf, protocol=pickle.HIGHEST_PROTOCOL)
    return buf.getbuffer()


def append_frames(log: str, committed: int,
                  payloads: Sequence[memoryview]) -> List[int]:
    """Append ``payloads`` (one save's tagged frames) to ``log`` at byte
    ``committed`` with one fsync; returns where each frame starts, then the
    new committed length. ``committed == 0`` starts the file over;
    otherwise anything past ``committed`` — a torn frame, or frames of a
    future a crash erased — is cut off first. Crash points
    ``ckpt:log-append`` (nothing of this save written), ``ckpt:base-append``
    (a base is next: the streams frame is written, not yet durable),
    ``ckpt:log-fsync`` (all written, not yet durable) and
    ``ckpt:base-fsync`` (a new base is durable, no checkpoint commits it)
    bracket the append."""
    base = False
    with open(log, "r+b" if committed else "wb") as f:
        if committed:
            f.truncate(committed)
            f.seek(committed)
        else:
            committed = f.write(LOG_MAGIC)
        crashpoints.hit("ckpt:log-append")
        offsets = []
        for payload in payloads:
            if payload[:1] == BASE:
                base = True
                f.flush()
                crashpoints.hit("ckpt:base-append")
            offsets.append(committed)
            committed += write_frame(f, payload)
        offsets.append(committed)
        f.flush()
        crashpoints.hit("ckpt:log-fsync")
        fsync_file(f)
    if base:
        crashpoints.hit("ckpt:base-fsync")
    return offsets


def read_log(log: str, committed: int,
             base: int) -> Tuple[Dict[int, array], Dict[str, array], dict]:
    """The per-pid reply streams, the per-site fault outcomes and the
    memory system's full ``state_dict()`` in the first ``committed`` bytes
    of ``log``: the base at byte ``base`` with every delta after it folded
    in. Memory frames before ``base`` are CRC-checked, never decoded; bytes
    past ``committed`` are never looked at. A log shorter than that, a bad
    frame inside it, a frame straddling it, or a chain that does not start
    with a base at ``base`` raises :class:`CheckpointCorruptError` (path,
    offset, reason)."""
    replies: Dict[int, array] = {}
    faults: Dict[str, array] = {}
    memory = None
    if not os.path.exists(log):
        raise CheckpointCorruptError(log, 0, "checkpoint log is missing")
    with open(log, "rb") as f:
        magic = f.read(len(LOG_MAGIC))
        if magic != LOG_MAGIC:
            raise CheckpointCorruptError(
                log, 0, f"bad magic {magic!r}: not a checkpoint log")
        while f.tell() < committed:
            offset = f.tell()
            payload = read_frame(f, log, CheckpointCorruptError)
            if payload is None or f.tell() > committed:
                raise CheckpointCorruptError(
                    log, offset, f"checkpoint log ends inside the "
                    f"{committed} bytes its checkpoint committed")
            tag = payload[:1]
            if tag in (BASE, DELTA) and offset < base:
                continue
            if offset == base and tag != BASE:
                raise CheckpointCorruptError(
                    log, offset, f"no memory base at byte {base}")
            try:
                obj = pickle.loads(memoryview(payload)[1:])
                if tag == STREAMS:
                    for pid, a in obj["replies"].items():
                        replies.setdefault(pid, array("i")).extend(a)
                    for site, a in obj["faults"].items():
                        faults.setdefault(site, array("i")).extend(a)
                elif tag == BASE:
                    memory = obj
                elif tag == DELTA and memory is not None:
                    MemorySystem.apply_delta(memory, obj)
                else:
                    raise ValueError(f"unexpected frame tag {tag!r}")
            except Exception as exc:    # CRC passed but the frame is not
                raise CheckpointCorruptError(    # ours: still structured
                    log, offset, f"undecodable log frame: {exc!r}")
    if memory is None:
        raise CheckpointCorruptError(
            log, base, f"no memory base at byte {base}")
    return replies, faults, memory


class RecordingMemory:
    """``access`` interposer: pass every access through and append its
    reply to the per-pid tail (``array('i')``; the manager moves it to the
    reply log at each save). The class's ``access`` is looked up per call:
    a function patched onto ``MemorySystem`` later sees every reference."""

    def __init__(self, ms, replies: Dict[int, Sequence[int]]) -> None:
        self.ms = ms
        self.replies = replies

    def access(self, pid, vaddr, size, write, cpu, now, atomic=False):
        ms = self.ms
        lat, major = type(ms).access(ms, pid, vaddr, size, write, cpu, now,
                                     atomic=atomic)
        log = self.replies.get(pid)
        if log is None:
            log = self.replies[pid] = array("i")
        log.append(MAJOR_FAULT if major is not None else lat)
        return lat, major


class ReplayMemory:
    """``access`` interposer: answer every access from the log; the
    hierarchy is never touched.

    A :data:`MAJOR_FAULT` entry reconstructs the fault by asking the live
    VMM to translate the access's own address — valid because ``access``
    translates exactly once per reference, and the file-backed mapping
    state the decision depends on is maintained live by the replayed
    mmap/page-install path.
    """

    def __init__(self, ms, replies: Dict[int, Sequence[int]]) -> None:
        self.ms = ms
        self.replies = replies
        self.cursors: Dict[int, int] = {}

    def access(self, pid, vaddr, size, write, cpu, now, atomic=False):
        log = self.replies.get(pid)
        c = self.cursors.get(pid, 0)
        if log is None or c >= len(log):
            raise ReplayDivergence(
                f"pid {pid} issued more memory accesses than recorded "
                f"({c} replies in the log)")
        self.cursors[pid] = c + 1
        lat = log[c]
        if lat == MAJOR_FAULT:
            _, major, _ = self.ms.vmm.translate(pid, vaddr, write, cpu)
            if major is None:
                raise ReplayDivergence(
                    f"recorded major fault for pid {pid} at {vaddr:#x} "
                    "did not reproduce during replay")
            return 0, major
        return lat, None

    def check_exhausted(self) -> None:
        """Every recorded reply must have been consumed at the stop point."""
        for pid, log in self.replies.items():
            c = self.cursors.get(pid, 0)
            if c != len(log):
                raise ReplayDivergence(
                    f"pid {pid} consumed {c} of {len(log)} recorded "
                    "replies: replay stopped short of the checkpoint")
