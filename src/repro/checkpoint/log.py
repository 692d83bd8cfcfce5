"""The tagged-frame codec, and the memory-system taps that record or replay.

Every reference reaches the memory system through ``MemorySystem.access``
(batched runs too, once it is rebound on the instance: the tapped arm of
``access_run`` — proven bit-identical to the inlined hot loop by the
fast-path equivalence tests), so an ``access`` interposer the manager binds
on the live instance, exactly as ``MemTraceRecorder.attach`` binds its own,
captures (or substitutes) the full reply stream and changes no timing.

A checkpoint log's frames (after each segment's header frame) open with a
one-byte tag naming their kind, and the rest is a pickle:

* a **streams** frame: the replies and the fault-check outcomes recorded
  since the previous save, so each is written once;
* a **base** frame, the whole ``MemorySystem.state_dict()``, or a
  **delta** frame, the ``MemorySystem.state_delta()`` of the lines that
  changed since the previous save;
* a **snapshot** frame: everything else a checkpoint holds (see
  :mod:`repro.checkpoint.manager`).
"""

from __future__ import annotations

import io
import pickle
from array import array
from typing import Any, Dict, Sequence, Tuple

from ..core.errors import ReplayDivergence

#: reply-log sentinel for "this access raised a major fault"
MAJOR_FAULT = -1

#: frame tags: the streams since the previous save, a full memory system,
#: the memory system's changes since the previous save, a checkpoint
STREAMS, BASE, DELTA, SNAPSHOT = b"S", b"B", b"D", b"C"


def tagged(tag: bytes, obj: Any) -> memoryview:
    """A log frame payload: ``tag`` and the pickle of ``obj``, pickled
    behind the tag (a base is never held twice)."""
    buf = io.BytesIO()
    buf.write(tag)
    pickle.dump(obj, buf, protocol=pickle.HIGHEST_PROTOCOL)
    return buf.getbuffer()


def untagged(payload: memoryview) -> Tuple[bytes, Any]:
    """The tag and the object of a :func:`tagged` payload."""
    return bytes(payload[:1]), pickle.loads(payload[1:])


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
