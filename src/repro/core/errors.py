"""Exception hierarchy for the COMPASS reproduction.

All simulator-raised errors derive from :class:`CompassError` so callers can
catch simulator failures without masking programming errors.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class CompassError(Exception):
    """Base class for all simulator errors."""


class ConfigError(CompassError):
    """Raised for invalid or inconsistent configuration values."""


class SchedulerError(CompassError):
    """Raised by the global event scheduler on protocol violations
    (e.g. scheduling a task in the past)."""


class CommunicatorError(CompassError):
    """Raised by the communicator on event-port protocol violations."""


class FrontendError(CompassError):
    """Raised when a frontend coroutine misbehaves (bad yield, double exit)."""


class MemoryError_(CompassError):
    """Raised by the memory system (bad address, unmapped page without a
    fault handler, misaligned descriptor)."""


class PageFault(CompassError):
    """Internal signal: a virtual address has no valid translation.

    Caught by the engine, which invokes the VM trap path (category-2
    handling); it is an error only if it escapes to user code.
    """

    def __init__(self, pid: int, vaddr: int, write: bool) -> None:
        super().__init__(f"page fault pid={pid} vaddr={vaddr:#x} write={write}")
        self.pid = pid
        self.vaddr = vaddr
        self.write = write


class ProtectionFault(MemoryError_):
    """A reference violated segment permissions."""


class OSError_(CompassError):
    """Base for simulated-OS failures (as opposed to errno returns, which are
    normal results)."""


class DeadlockError(CompassError):
    """Raised when the communicator detects that no frontend can make
    progress (all blocked and no pending backend work), or when the
    engine watchdog sees global time frozen across too many rounds.

    ``report`` carries the structured diagnostic built by the engine:
    per-process states with blocked-on wait tokens, CPU states, lock and
    barrier owners, and the most recent events.
    """

    def __init__(self, message: str,
                 report: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.report = report


class CheckpointError(CompassError):
    """Raised for unusable checkpoints: version mismatch, corrupt file, or
    a config/workload fingerprint that does not match the resuming engine."""


class _CorruptFileMixin:
    """Structured file-corruption identity: path + byte offset + reason.

    The durability layer quarantines corrupt files and embeds
    :meth:`to_record` output in JSON forensic records, so the payload
    must stay JSON-plain.
    """

    def __init__(self, path: str, offset: int, reason: str) -> None:
        super().__init__(f"{path}: corrupt at byte {offset}: {reason}")
        self.path = path
        self.offset = offset
        self.reason = reason

    def to_record(self) -> Dict[str, Any]:
        return {"type": type(self).__name__, "path": str(self.path),
                "offset": int(self.offset), "reason": self.reason}


class CheckpointCorruptError(_CorruptFileMixin, CheckpointError):
    """A checkpoint file failed verification (bad magic, torn frame,
    CRC mismatch, unpicklable payload). Carries the byte offset of the
    first bad frame; never surfaces as a raw ``EOFError`` or
    ``UnpicklingError``."""


class SpoolCorruptError(_CorruptFileMixin, CompassError):
    """A job-spool segment is corrupt *in the interior* — valid records
    follow the damaged one, so truncating at the tear would silently
    drop durable history. Torn tails are not errors: the recovery scan
    truncates and quarantines them."""


class ReplayDivergence(CheckpointError):
    """Raised when the restore fast-forward diverges from the recorded run.

    During restore the frontends re-execute against the recorded reply log;
    any step that needs a reply the log does not hold (or rebuilds backend
    state that fails verification against the snapshot) means the workload,
    config or code changed since the checkpoint was written.
    """


class SimulatedCrash(CompassError):
    """Deterministic stand-in for a host crash (chaos/CI kill tests).

    Raised by the checkpoint manager when ``crash_after_saves`` is armed:
    the run dies mid-flight exactly as a SIGKILL would leave it — autosave
    on disk, engine state abandoned.
    """


class InstrumentationError(CompassError):
    """Raised by the instrumentor for malformed programs."""


class TranslationError(InstrumentationError):
    """A program has no basic-block translation (an operand with no literal
    form, an unknown opcode). Raised when the program is translated: by
    ``Interpreter.run`` / ``run_raw``, so at spawn time for a frontend.
    Translation is the one ISA execution path: nothing falls back."""


class DeviceError(CompassError):
    """Raised by physical device models for invalid requests."""


class HostError(CompassError):
    """Raised by the host-parallel runtime (worker death, protocol drift).

    When a supervised worker exhausts its restart budget, ``report``
    carries the forensic record (host pid, exit code, message counters,
    last messages seen) assembled by the supervisor.
    """

    def __init__(self, message: str,
                 report: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.report = report
