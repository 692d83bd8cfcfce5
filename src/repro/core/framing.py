"""The durable log: numbered CRC32-framed segment files.

Both durable logs in the repo are a :class:`SegmentLog` — the control
plane's job spool (``spool-%08d.wal``) and a checkpoint path's log
(``<path>.%08d.seg``):

* a segment starts with a 4-byte **magic** naming its format, then, when
  the log has one, a header frame (the checkpoint log names its format
  version there);
* every record is a frame ``[u32 length][u32 crc32(payload)][payload]``
  (little-endian), so a reader finds exactly where a torn write or a bit
  flip is and reports the byte offset;
* writers append to the newest segment and fsync it. **Compaction** opens
  a fresh segment, writes the live state into it, fsyncs it and the
  directory (:meth:`SegmentLog.seal`), and only then unlinks the older
  segments (:meth:`SegmentLog.drop_older`): a crash at any instant leaves
  a complete segment on disk.

:func:`scan` is the one reader. It never raises on a file's contents: it
reports the intact frames of one segment, the offset of the first bad
frame and whether an intact frame follows it, and each client decides
from that (the spool cuts a torn tail and refuses damage with valid
frames after it; a checkpoint is the newest snapshot frame before the
first bad frame). :func:`quarantine` moves the bytes a client discards to
``<segment>.quarantine`` beside a JSON forensic record.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

_HEADER = struct.Struct("<II")          # payload length, payload crc32
HEADER_SIZE = _HEADER.size
MAGIC_SIZE = 4

#: hard ceiling on a single frame; a declared length past this is
#: corruption, not data (keeps a flipped length bit from allocating GBs)
MAX_FRAME = 256 * 1024 * 1024

#: header strides probed past a bad frame for an intact one: the damaged
#: frame's length may itself be garbage, so the next frame's position is
#: unknowable; a bounded probe catches the common single-record flip
PROBE_STRIDES = 64


def write_frame(f: BinaryIO, payload: bytes) -> int:
    """Append one framed record; returns the bytes written."""
    f.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
    f.write(payload)
    return HEADER_SIZE + len(payload)


def _frame_at(blob: memoryview, off: int) -> Tuple[Optional[memoryview], str]:
    """The payload of the frame at ``off``, or ``None`` and why not."""
    size = len(blob)
    if size - off < HEADER_SIZE:
        return None, f"torn frame header ({size - off} of {HEADER_SIZE} bytes)"
    length, crc = _HEADER.unpack_from(blob, off)
    if length > MAX_FRAME:
        return None, f"implausible frame length {length} (corrupt header)"
    payload = blob[off + HEADER_SIZE:off + HEADER_SIZE + length]
    if len(payload) < length:
        return None, f"torn frame payload ({len(payload)} of {length} bytes)"
    if zlib.crc32(payload) != crc:
        return None, "frame CRC32 mismatch"
    return payload, ""


@dataclass
class Scan:
    """One segment as :func:`scan` read it."""

    path: str
    size: int
    #: ``(offset, payload)`` of every intact frame before the first bad one
    frames: List[Tuple[int, memoryview]] = field(default_factory=list)
    #: offset of the first bad frame (0: bad magic); None: intact to the end
    bad: Optional[int] = None
    reason: str = ""
    #: an intact frame follows the bad one (damage, not a torn tail)
    follows: bool = False


def scan(path: str, magic: bytes) -> Scan:
    """Read the segment at ``path`` (see the module docstring)."""
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    s = Scan(path, len(blob))
    if bytes(blob[:MAGIC_SIZE]) != magic:
        s.bad, s.reason = 0, f"bad magic {bytes(blob[:MAGIC_SIZE])!r}"
        return s
    off = MAGIC_SIZE
    while off < s.size:
        payload, reason = _frame_at(blob, off)
        if payload is None:
            s.bad, s.reason = off, reason
            s.follows = any(
                _frame_at(blob, probe)[0] is not None
                for probe in range(off + HEADER_SIZE,
                                   min(s.size - HEADER_SIZE,
                                       off + PROBE_STRIDES * HEADER_SIZE) + 1,
                                   HEADER_SIZE))
            return s
        s.frames.append((off, payload))
        off += HEADER_SIZE + len(payload)
    return s


def quarantine(path: str, offset: int, error: Optional[Dict[str, Any]],
               truncate: bool) -> Dict[str, Any]:
    """Move the bytes of ``path`` from ``offset`` on to
    ``<path>.quarantine`` beside a JSON forensic record
    (``<path>.quarantine.json``); returns the record. ``truncate`` also cuts
    them from the segment — the whole segment when even its magic is torn:
    such a file holds no records and would re-tear on every scan."""
    with open(path, "rb") as f:
        f.seek(offset)
        tail = f.read()
    record = {"segment": path, "offset": offset,
              "discarded_bytes": len(tail),
              "moved_to": path + ".quarantine", "error": error}
    with open(path + ".quarantine", "wb") as f:
        f.write(tail)
    with open(path + ".quarantine.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
    if truncate:
        if offset < MAGIC_SIZE:
            os.unlink(path)
        else:
            with open(path, "rb+") as f:
                f.truncate(offset)
                fsync_file(f)
        fsync_dir(os.path.dirname(path) or ".")
    return record


class SegmentLog:
    """Numbered segments ``<dir>/<prefix><index:08d><suffix>``; one writer.

    :attr:`index` is the newest segment index seen or created, so
    :meth:`open_next` never reuses a name. The open segment (:attr:`f`) is
    the one appends go to: a fresh one, or an existing one reopened at its
    committed length."""

    def __init__(self, dirpath: str, prefix: str, suffix: str, magic: bytes,
                 header: Optional[bytes] = None) -> None:
        self.dir = dirpath
        self.prefix = prefix
        self.suffix = suffix
        self.magic = magic
        self.header = header
        self._name = re.compile(
            rf"{re.escape(prefix)}(\d+){re.escape(suffix)}"
            rf"(\.quarantine(?:\.json)?)?")
        self.index = max(self.indices(), default=0)
        self.f: Optional[BinaryIO] = None

    # -- names -------------------------------------------------------------

    def path(self, index: int) -> str:
        return os.path.join(self.dir, f"{self.prefix}{index:08d}{self.suffix}")

    def _matches(self) -> List[Tuple[int, str, bool]]:
        try:
            names = os.listdir(self.dir)
        except OSError:
            return []
        out = []
        for name in names:
            m = self._name.fullmatch(name)
            if m:
                out.append((int(m.group(1)), name, m.group(2) is None))
        return sorted(out)

    def indices(self) -> List[int]:
        """Segment indices on disk, oldest first."""
        return [i for i, _name, seg in self._matches() if seg]

    def files(self) -> List[str]:
        """Every file of the log on disk: the segments and what was
        quarantined beside them."""
        return [os.path.join(self.dir, name) for _i, name, _seg
                in self._matches()]

    def index_of(self, path: str) -> Optional[int]:
        """The index of ``path`` when it is a segment of this log."""
        if (os.path.abspath(os.path.dirname(path))
                != os.path.abspath(self.dir)):
            return None
        m = self._name.fullmatch(os.path.basename(path))
        return int(m.group(1)) if m and m.group(2) is None else None

    # -- writing -----------------------------------------------------------

    def open_next(self, sync: bool = False) -> BinaryIO:
        """Start a fresh segment (magic, header frame); ``sync`` makes its
        creation durable at once."""
        self.close()
        self.index += 1
        self.f = open(self.path(self.index), "xb")
        self.f.write(self.magic)
        if self.header is not None:
            write_frame(self.f, self.header)
        if sync:
            self.seal()
        return self.f

    def reopen(self, index: int, committed: int) -> BinaryIO:
        """Append to segment ``index`` at byte ``committed``, cutting
        whatever follows (a torn frame, frames no checkpoint commits)."""
        self.close()
        self.f = open(self.path(index), "r+b")
        self.f.truncate(committed)
        self.f.seek(committed)
        return self.f

    def append(self, payload: bytes) -> None:
        """Append one frame to the open segment."""
        write_frame(self.f, payload)

    def seal(self) -> None:
        """The open segment and its directory entry are durable."""
        fsync_file(self.f)
        fsync_dir(self.dir)

    def drop_older(self) -> None:
        """Unlink every segment older than :attr:`index` (compaction's last
        step, once the newest segment is sealed)."""
        for i in self.indices():
            if i < self.index:
                try:
                    os.unlink(self.path(i))
                except OSError:
                    pass
        fsync_dir(self.dir)

    def close(self) -> None:
        if self.f is not None:
            self.f.close()
            self.f = None


def fsync_file(f: BinaryIO) -> None:
    """Flush user-space buffers and force the file to stable storage."""
    f.flush()
    os.fsync(f.fileno())


def fsync_dir(path: str) -> None:
    """fsync a directory so creates/unlinks inside it are durable.

    Best-effort: some filesystems refuse O_RDONLY fsync on directories;
    a failure here degrades durability, not correctness.
    """
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def sweep_stale_tmp(dirpath: str, prefix: str = "") -> List[str]:
    """Remove ``<prefix>*.tmp`` leftovers from writers that died mid-write.

    Returns the paths removed (for forensic logging). Missing directory
    is not an error — there is then nothing stale to sweep.
    """
    removed: List[str] = []
    try:
        names = os.listdir(dirpath)
    except OSError:
        return removed
    for name in names:
        if name.endswith(".tmp") and name.startswith(prefix):
            path = os.path.join(dirpath, name)
            try:
                os.unlink(path)
                removed.append(path)
            except OSError:
                pass
    return removed
