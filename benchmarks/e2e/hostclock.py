"""Host-speed calibration for the timed runs.

The sandbox this benchmark runs in is a small VM whose speed moves by
20-50 % from one second to the next (measured: a fixed pure-Python loop,
pinned or not, on an otherwise idle box). The movement is multiplicative
and hits all Python code alike, so it cannot be averaged away inside the
run-time budget, but it can be measured while it happens: a background
thread times a small fixed kernel every ``PERIOD_S`` during the run, and a
host time is divided by the (harmonic) mean of those samples relative to
``HOST_REF_S``. On sixteen back-to-back ``oltp`` runs that took the
quartile spread of events per CPU-second from 17.8 % to 2.2 % (the log of
the kernel time and of the run time correlate at 0.99).

So every host time the end-to-end metrics report is in *reference-host
seconds*: what the run would have taken with the host at the speed at
which the kernel takes ``HOST_REF_S``. The raw readings are kept beside
them in the detail record. The kernel costs the measured thread about 2 %
of the interpreter (two 0.3 ms passes every 25 ms), the same on every
commit. It is part of the benchmark and must not change with the code it
measures: a change here re-bases every number.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

#: the kernel's time on the reference box (2.1 GHz Xeon VM) when quiet:
#: the 5th percentile of 4000 samples
HOST_REF_S = 0.000276
#: sampling period while a run is measured
PERIOD_S = 0.025
#: a window with fewer background samples is topped up inline
MIN_SAMPLES = 5
#: an idle poll loop wakes on a cold core: its samples read 10-20 % slow
#: and scatter; a few extra untimed passes first take a third of that off
TICK_WARM_PASSES = 3


def kernel(n: int = 2000) -> int:
    """Dict probes, integer arithmetic and branches: the simulator's own
    instruction mix in miniature."""
    d = {}
    s = 0
    for i in range(n):
        k = (i * 2654435761) & 255
        st = d.get(k)
        if st is None:
            d[k] = i
        else:
            d[k] = st + 1
        s += k
    return s


def _sample() -> float:
    kernel()                     # warm: the sampler wakes on a cold core
    c = time.thread_time()
    kernel()
    return time.thread_time() - c


class HostClock(threading.Thread):
    """Samples host speed: in the background from ``start()`` to
    ``stop()``, or whenever the measuring thread calls :meth:`tick`."""

    def __init__(self) -> None:
        super().__init__(daemon=True, name="hostclock")
        #: (perf_counter timestamp, kernel seconds)
        self.samples: List[Tuple[float, float]] = []
        #: CPU seconds the caller's own thread spent in :meth:`tick`
        self.tick_cpu_s = 0.0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PERIOD_S):
            self.samples.append((time.perf_counter(), _sample()))

    def stop(self) -> None:
        self._halt.set()
        if self.is_alive():
            self.join()

    def __enter__(self) -> "HostClock":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def tick(self) -> None:
        """One sample on the calling thread, for a measurer that idles in
        a poll loop anyway (a job supervisor: it forks, and a process
        should not fork while another of its threads runs)."""
        c = time.thread_time()
        for _ in range(TICK_WARM_PASSES):
            kernel()
        self.samples.append((time.perf_counter(), _sample()))
        self.tick_cpu_s += time.thread_time() - c

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than the reference the host ran over the
        ``perf_counter`` interval [t0, t1], which has just ended: divide a
        host time measured over it by this. Intervals too short for the
        background thread to have sampled are topped up here and now."""
        window = [d for t, d in list(self.samples) if t0 <= t <= t1]
        while len(window) < MIN_SAMPLES:
            window.append(_sample())
        # the samples are uniform in time and the measured code advanced
        # at 1/slowness, so its time per unit of work is the harmonic mean
        return statistics.harmonic_mean(window) / HOST_REF_S
