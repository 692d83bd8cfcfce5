"""Signal delivery with the §4.1 non-augmented wrapper.

"For signal handlers, we manage the control flag by using a non-augmented
wrapper function that is installed as a signal handler for all signal
events in DB2. Signals invoke the wrapper function that manages the control
flag before and after the function calls the signal handler that DB2
provides."

A simulated process installs Python-coroutine handlers per signal number;
delivery happens at the target's next event boundary (the same poll point
as interrupts). The wrapper clears the process's event-generation flag, so
the handler executes *functionally* but contributes no memory events and no
simulated time — exactly the paper's porting strategy for code regions
COMPASS cannot simulate.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..core.frontend import Proc, SimProcess

SIGHUP = 1
SIGINT = 2
SIGKILL = 9
SIGUSR1 = 30
SIGUSR2 = 31


class SignalManager:
    """Per-machine signal state: handlers + pending queues."""

    def __init__(self) -> None:
        #: pid -> {signo -> handler(proc_api, signo)}
        self._handlers: Dict[int, Dict[int, Callable]] = {}
        #: pid -> queued signal numbers; only non-empty queues have a key,
        #: so ``pid in pending`` is the whole "signal due" test (the engine
        #: asks it after every event)
        self.pending: Dict[int, Deque[int]] = {}
        self.delivered = 0
        self.dropped = 0

    def install(self, pid: int, signo: int, handler: Callable) -> None:
        """sigaction: install ``handler`` for ``signo``."""
        self._handlers.setdefault(pid, {})[signo] = handler

    def uninstall(self, pid: int, signo: int) -> None:
        self._handlers.get(pid, {}).pop(signo, None)

    def post(self, pid: int, signo: int) -> bool:
        """kill(): queue a signal; returns False when the target has no
        handler (the signal is dropped — default actions are not modeled)."""
        if signo not in self._handlers.get(pid, {}):
            self.dropped += 1
            return False
        self.pending.setdefault(pid, deque()).append(signo)
        return True

    def pending_for(self, pid: int) -> Optional[int]:
        """Take the oldest queued signal of ``pid`` (None when none is)."""
        q = self.pending.get(pid)
        if q is None:
            return None
        signo = q.popleft()
        if not q:
            del self.pending[pid]
        return signo

    def has_pending(self, pid: int) -> bool:
        return pid in self.pending

    def wrapper_frame(self, proc: SimProcess, signo: int):
        """Build the non-augmented wrapper: flag off → handler → flag on.

        The handler uses the normal Proc API; with the flag cleared every
        macro is a functional no-op, so no events and no time are generated
        no matter what the handler does.
        """
        handler = self._handlers.get(proc.pid, {}).get(signo)
        mgr = self

        def wrapper():
            saved = proc.events_enabled
            proc.events_enabled = False
            try:
                if handler is not None:
                    result = handler(Proc(proc), signo)
                    if result is not None and hasattr(result, "send"):
                        yield from result
                    mgr.delivered += 1
            finally:
                proc.events_enabled = saved
            return None

        return wrapper()

    def clear(self, pid: int) -> None:
        """Process exit: drop its handlers and pending signals."""
        self._handlers.pop(pid, None)
        self.pending.pop(pid, None)
