"""The job spool: an append-only, CRC32-framed write-ahead journal.

The control plane's durability substrate. Every job/attempt state
transition the :class:`~repro.service.runner.JobRunner` makes is
appended to the spool *as it happens*, so a supervisor SIGKILL loses
nothing that was journaled: :meth:`JobRunner.recover` replays the
records, reconstructs the queue (completed results included), reaps
orphaned RUNNING attempts, and the reaped jobs resume from their
checkpoint autosaves.

On-disk layout (``spool_dir/``), a :class:`~repro.core.framing.SegmentLog`
of JSON records::

    spool-00000001.wal      CRC32-framed JSON records (magic b"CSPL")
    spool-00000002.wal      ... appended on rotation/compaction
    spool-00000002.wal.quarantine       bytes cut from a torn tail
    spool-00000002.wal.quarantine.json  forensic record for the cut

Appends follow WAL discipline — frame write, flush, fsync (``fsync=True``,
the default) — with the ``spool:append`` / ``spool:fsync`` crash points
bracketing the two durability windows.

**Recovery scan.** Segments are read oldest-first with the shared
:func:`~repro.core.framing.scan`. A bad frame in the *last* written
position — a torn tail from a crash between append and fsync — is normal:
the segment is cut at the tear and the cut bytes are quarantined. A bad
frame with intact frames *after* it (or in any non-final segment) is real
corruption — a bit flip inside synced history — and raises
:class:`~repro.core.errors.SpoolCorruptError` with path + byte offset
instead of silently dropping durable state.

**Rotation + compaction.** The active segment rotates at
``segment_bytes``. Compaction writes a snapshot of live state into a
fresh segment and unlinks everything older, bounding replay time; the
runner triggers it by record count (``compact_every``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from ..core.errors import SpoolCorruptError
from ..core.framing import (HEADER_SIZE, MAGIC_SIZE, SegmentLog,
                            quarantine, scan, sweep_stale_tmp)
from ..faults import crashpoints

#: 4-byte magic opening every spool segment
MAGIC = b"CSPL"


def segment_log(spool_dir: str) -> SegmentLog:
    """The spool's segments in ``spool_dir`` (``spool-%08d.wal``)."""
    return SegmentLog(spool_dir, "spool-", ".wal", MAGIC)


def _encode(record: Dict[str, Any]) -> bytes:
    return json.dumps(record, separators=(",", ":"), sort_keys=True).encode()


class JobSpool:
    """One directory of WAL segments; one writer at a time.

    A fresh instance never appends to a pre-existing segment: it claims
    the next segment index and writes there, so recovery (which may
    truncate the old tail) and writing never race on one file.
    """

    def __init__(self, spool_dir: str, *, segment_bytes: int = 256 * 1024,
                 fsync: bool = True, compact_every: int = 256) -> None:
        self.dir = spool_dir
        self.segment_bytes = int(segment_bytes)
        self.fsync = fsync
        self.compact_every = int(compact_every)
        os.makedirs(self.dir, exist_ok=True)
        self._log = segment_log(spool_dir)
        self.appended = 0
        self.records_since_compact = 0
        #: quarantine forensic records produced by the last recover()
        self.quarantines: List[Dict[str, Any]] = []

    @property
    def _seg_index(self) -> int:
        return self._log.index

    def segment_indices(self) -> List[int]:
        return self._log.indices()

    def segment_path(self, index: int) -> str:
        return self._log.path(index)

    def close(self) -> None:
        self._log.close()

    # -- the write path ----------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Durably journal one record (WAL discipline; see module doc)."""
        crashpoints.hit("spool:append")
        log = self._log
        if log.f is None or log.f.tell() >= self.segment_bytes:
            log.open_next(sync=self.fsync)
        log.append(_encode(record))
        log.f.flush()
        crashpoints.hit("spool:fsync")
        if self.fsync:
            os.fsync(log.f.fileno())
        self.appended += 1
        self.records_since_compact += 1

    def compact(self, snapshot: List[Dict[str, Any]]) -> None:
        """Collapse history: write ``snapshot`` into a fresh segment and
        unlink every older segment (their records are now dead)."""
        log = self._log
        log.open_next()
        for record in snapshot:
            log.append(_encode(record))
        log.seal()
        log.drop_older()
        self.records_since_compact = 0

    def maybe_compact(self, snapshot_fn) -> bool:
        if self.records_since_compact < self.compact_every:
            return False
        self.compact(snapshot_fn())
        return True

    # -- the recovery scan -------------------------------------------------

    def recover(self) -> List[Dict[str, Any]]:
        """Scan every segment, truncate a torn tail, return the records.

        Also sweeps stale ``*.tmp`` files in the spool directory.
        Raises :class:`SpoolCorruptError` on interior corruption (see
        module docstring for the torn-tail vs interior distinction).
        """
        sweep_stale_tmp(self.dir)
        self.quarantines = []
        records: List[Dict[str, Any]] = []
        log = self._log
        indices = [i for i in log.indices() if i <= log.index
                   and (log.f is None or i < log.index)]
        for pos, idx in enumerate(indices):
            s = scan(log.path(idx), MAGIC)
            if s.bad is not None:
                err = SpoolCorruptError(s.path, s.bad, s.reason)
                if pos < len(indices) - 1:
                    raise err   # synced history is damaged mid-stream
                if s.bad == 0 and s.size >= MAGIC_SIZE + HEADER_SIZE:
                    raise err   # a whole segment that is not ours
                if s.follows:
                    raise SpoolCorruptError(
                        s.path, s.bad, f"interior corruption ({s.reason}); "
                        f"valid records follow the damaged one")
            for off, payload in s.frames:
                try:
                    records.append(json.loads(bytes(payload)))
                except ValueError as exc:
                    # CRC-valid frame holding garbage JSON: writer bug,
                    # not a torn write — surface it structurally
                    raise SpoolCorruptError(
                        s.path, off + HEADER_SIZE + len(payload),
                        f"frame payload is not JSON: {exc}")
            if s.bad is not None:
                self.quarantines.append(
                    quarantine(s.path, s.bad, err.to_record(), truncate=True))
        return records

