"""Memory-system taps: record backend replies, or replay them.

Every reference reaches the memory system through ``MemorySystem.access``
(batched runs too, once it is rebound on the instance: the tapped arm of
``access_run`` — proven bit-identical to the inlined hot loop by the
fast-path equivalence tests), so an ``access`` interposer the manager binds
on the live instance, exactly as ``MemTraceRecorder.attach`` binds its own,
captures (or substitutes) the full reply stream and changes no timing.

The reply streams themselves live in one append-only framed file beside
the checkpoint generations (``<path>.log``): every save appends the replies
recorded since the previous one as a single frame, so a reply is written
once and the checkpoint files stay flat in run length. Each checkpoint
records the log's committed byte length at its save; restore reads the
frames up to that length and ignores whatever follows.
"""

from __future__ import annotations

import os
import pickle
from array import array
from typing import Dict, Sequence

from ..core.errors import CheckpointCorruptError, ReplayDivergence
from ..core.framing import fsync_file, read_frame, write_frame
from ..faults import crashpoints

#: reply-log sentinel for "this access raised a major fault"
MAJOR_FAULT = -1

#: 4-byte file magic opening the reply log
LOG_MAGIC = b"CMPL"


def reply_log_path(path: str) -> str:
    """The reply log shared by every checkpoint saved under ``path``
    (``.g0``/``.g1`` generations and the sampler's ``.w<N>`` files)."""
    return path + ".log"


def append_replies(log: str, committed: int,
                   tail: Dict[int, array]) -> int:
    """Append ``tail`` (the per-pid replies recorded since the previous
    save) to ``log`` as one frame at byte ``committed`` and fsync it;
    returns the new committed length. ``committed == 0`` starts the file
    over; otherwise anything past ``committed`` — a torn frame, or frames
    of a future a crash erased — is cut off first. Crash points
    ``ckpt:log-append`` (frame not yet written) and ``ckpt:log-fsync``
    (written, not yet durable) bracket the append."""
    payload = pickle.dumps({pid: a for pid, a in tail.items() if a},
                           protocol=pickle.HIGHEST_PROTOCOL)
    with open(log, "r+b" if committed else "wb") as f:
        if committed:
            f.truncate(committed)
            f.seek(committed)
        else:
            committed = f.write(LOG_MAGIC)
        crashpoints.hit("ckpt:log-append")
        committed += write_frame(f, payload)
        f.flush()
        crashpoints.hit("ckpt:log-fsync")
        fsync_file(f)
    return committed


def read_replies(log: str, committed: int) -> Dict[int, array]:
    """The per-pid reply streams in the first ``committed`` bytes of
    ``log``. Bytes past ``committed`` are never looked at; a log shorter
    than that, a bad frame inside it, or a frame straddling it raises
    :class:`CheckpointCorruptError` (path, offset, reason)."""
    replies: Dict[int, array] = {}
    if not os.path.exists(log):
        raise CheckpointCorruptError(log, 0, "reply log is missing")
    with open(log, "rb") as f:
        magic = f.read(len(LOG_MAGIC))
        if magic != LOG_MAGIC:
            raise CheckpointCorruptError(
                log, 0, f"bad magic {magic!r}: not a reply log")
        while f.tell() < committed:
            offset = f.tell()
            payload = read_frame(f, log, CheckpointCorruptError)
            if payload is None or f.tell() > committed:
                raise CheckpointCorruptError(
                    log, offset, f"reply log ends inside the {committed} "
                    f"bytes its checkpoint committed")
            try:
                for pid, a in pickle.loads(payload).items():
                    replies.setdefault(pid, array("i")).extend(a)
            except Exception as exc:    # CRC passed but the frame is not
                raise CheckpointCorruptError(    # ours: still structured
                    log, offset, f"undecodable reply frame: {exc!r}")
    return replies


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
