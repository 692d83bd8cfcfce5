"""Host-parallelism model for the Table 3 experiment.

The paper's §1 explains where the SMP win comes from: on a uniprocessor
host every simulated memory operation forces a process context switch
between the frontend and the backend, while "on an SMP system the backend
process and a frontend process can run on two different processors, and
sending an event from the frontend to the backend will not cause a context
switch".

When the measurement host has several cores, :class:`~repro.host.parallel.
ParallelEngine` demonstrates this directly. When it does not (this
container exposes a single CPU), Table 3 is reproduced through this model,
with every parameter *measured on the host*:

* ``t_fe`` — frontend cost per event: raw execution time between events
  (measured by timing ``Interpreter.run_raw``, the frontends' own
  translated blocks without the hooks);
* ``t_be`` — backend cost per event (the inline simulated run's time per
  event, less ``t_fe``);
* ``t_cs`` — one context switch + event hand-off on a shared CPU (measured
  with a pipe ping-pong between two processes pinned to one core);
* ``t_spin`` — shared-memory event hand-off without a context switch.

Predicted wall time for E events::

    T_uni = E * (t_fe + t_be + 2 * t_cs)              # time-shared CPU
    T_smp = E * (max(t_be, t_fe / min(N-1, F)) + t_spin)

with N host CPUs and F frontend processes: on the SMP the backend pipeline
rate is bounded by its own per-event work or by the (parallelised)
frontends, whichever is slower.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class HostCosts:
    """Per-event host-cost parameters (seconds)."""

    t_fe: float
    t_be: float
    t_cs: float
    t_spin: float = 1e-6


@dataclass(frozen=True)
class HostPrediction:
    """Predicted wall times and slowdowns for one backend configuration."""

    label: str
    events: int
    raw_seconds: float
    uni_seconds: float
    smp_seconds: float

    @property
    def uni_slowdown(self) -> float:
        return self.uni_seconds / self.raw_seconds if self.raw_seconds else 0.0

    @property
    def smp_slowdown(self) -> float:
        return self.smp_seconds / self.raw_seconds if self.raw_seconds else 0.0

    @property
    def smp_speedup(self) -> float:
        return self.uni_seconds / self.smp_seconds if self.smp_seconds else 0.0


def measure_context_switch(iterations: int = 2000) -> float:
    """One context switch + hand-off cost: pipe ping-pong between two
    processes pinned to a single core (every message forces a switch)."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    a_parent, a_child = ctx.Pipe()

    def child(conn) -> None:
        try:
            os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
        except OSError:
            pass
        while True:
            m = conn.recv()
            if m is None:
                return
            conn.send(m)

    p = ctx.Process(target=child, args=(a_child,), daemon=True)
    p.start()
    a_child.close()
    old = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {sorted(old)[0]})
    except OSError:
        pass
    try:
        a_parent.send(1)   # warm up
        a_parent.recv()
        t0 = time.perf_counter()
        for _ in range(iterations):
            a_parent.send(1)
            a_parent.recv()
        dt = time.perf_counter() - t0
        a_parent.send(None)
    finally:
        try:
            os.sched_setaffinity(0, old)
        except OSError:
            pass
        p.join(timeout=2)
        if p.is_alive():
            p.terminate()
    # one round trip = two hand-offs = two context switches
    return dt / iterations / 2


def predict(label: str, events: int, raw_seconds: float, costs: HostCosts,
            host_cpus: int = 4, frontends: int = 4) -> HostPrediction:
    """Apply the overlap model to one configuration."""
    uni = events * (costs.t_fe + costs.t_be + 2 * costs.t_cs)
    fe_rate = costs.t_fe / max(1, min(host_cpus - 1, frontends))
    smp = events * (max(costs.t_be, fe_rate) + costs.t_spin)
    return HostPrediction(label, events, raw_seconds, uni, smp)
