"""Process scheduling onto virtual processors (category 2, paper §3.3.2).

The scheduler "keeps a mapping of processes and their associated processors";
surplus processes wait on a ready queue and get a CPU when one frees up
(blocking OS calls release processors, §3.3.3). Three policies from the
paper:

* **FCFS** (default): "a process will be assigned the first available
  processor";
* **affinity** (optimized): prefer a processor the process used before —
  ideally the one it ran on last — otherwise a processor on the same *node*
  as one it used before;
* **pre-emptive**: a timer interrupts processes at a configurable interval
  and hands their processors to waiters; composes with either policy above
  (the engine drives the interval, this module only picks CPUs).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from ..core.errors import SchedulerError
from ..core.frontend import ProcState, SimProcess


class ProcessScheduler:
    """Maps simulated processes to simulated CPUs."""

    def __init__(self, num_cpus: int, policy: str = "fcfs",
                 cpu_node: Optional[Sequence[int]] = None) -> None:
        if policy not in ("fcfs", "affinity"):
            raise SchedulerError(f"unknown scheduling policy {policy!r}")
        self.policy = policy
        self.num_cpus = num_cpus
        self.cpu_node = list(cpu_node) if cpu_node else [0] * num_cpus
        #: cpu -> the process bound there (None when idle): the one record
        #: of who runs where. Only this class writes it, together with its
        #: inverse ``proc.cpu``; the communicator scans this very list
        self.on_cpu: List[Optional[SimProcess]] = [None] * num_cpus
        self.ready: Deque[SimProcess] = deque()
        self.dispatch_count = 0
        self.preemptions = 0
        self.affinity_hits = 0

    # -- queries --------------------------------------------------------------

    def free_cpus(self) -> List[int]:
        return [c for c, p in enumerate(self.on_cpu) if p is None]

    # -- checkpoint/restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-data snapshot (ready queue as pids, FIFO order)."""
        return {"on_cpu": [-1 if p is None else p.pid for p in self.on_cpu],
                "ready": [p.pid for p in self.ready],
                "dispatch_count": self.dispatch_count,
                "preemptions": self.preemptions,
                "affinity_hits": self.affinity_hits}

    def ready_count(self) -> int:
        return len(self.ready)

    # -- policy ---------------------------------------------------------------

    def _choose_cpu(self, proc: SimProcess, free: List[int]) -> int:
        if self.policy == "fcfs" or not proc.cpu_history:
            return free[0]
        # affinity: last-used first, then any previously-used, then same-node
        last = proc.cpu_history[-1]
        if last in free:
            self.affinity_hits += 1
            return last
        used = set(proc.cpu_history)
        for c in free:
            if c in used:
                self.affinity_hits += 1
                return c
        used_nodes = {self.cpu_node[c] for c in used}
        for c in free:
            if self.cpu_node[c] in used_nodes:
                self.affinity_hits += 1
                return c
        return free[0]

    # -- transitions (engine calls these) ---------------------------------

    def admit(self, proc: SimProcess) -> Optional[Tuple[SimProcess, int]]:
        """A process became runnable. Returns a (process, cpu) dispatch when
        a processor is free, else queues it."""
        free = self.free_cpus()
        if free:
            cpu = self._choose_cpu(proc, free)
            self._bind(proc, cpu)
            return proc, cpu
        proc.state = ProcState.READY
        self.ready.append(proc)
        return None

    def release_cpu(self, proc: SimProcess) -> Optional[Tuple[SimProcess, int]]:
        """``proc`` leaves its CPU (blocked or exited). Returns the next
        dispatch for that CPU from the ready queue, if any."""
        cpu = proc.cpu
        if cpu < 0 or self.on_cpu[cpu] is not proc:
            raise SchedulerError(
                f"{proc.name} (pid {proc.pid}) does not hold cpu {cpu}"
            )
        self.on_cpu[cpu] = None
        proc.cpu = -1
        if self.ready:
            nxt = self.ready.popleft()
            # honour affinity even on handoff: the freed CPU might not be the
            # best for the head waiter if another CPU is also free
            free = self.free_cpus()
            tgt = self._choose_cpu(nxt, free)
            self._bind(nxt, tgt)
            return nxt, tgt
        return None

    def preempt(self, proc: SimProcess) -> Optional[Tuple[SimProcess, int]]:
        """Timer-driven preemption of ``proc``: it goes to the tail of the
        ready queue and the head waiter takes its CPU. Returns the dispatch
        (None when nobody is waiting — the process keeps its CPU)."""
        if not self.ready:
            return None
        self.preemptions += 1
        cpu = proc.cpu
        self.on_cpu[cpu] = None
        proc.cpu = -1
        proc.state = ProcState.READY
        nxt = self.ready.popleft()
        self.ready.append(proc)
        self._bind(nxt, cpu)
        return nxt, cpu

    def _bind(self, proc: SimProcess, cpu: int) -> None:
        if self.on_cpu[cpu] is not None:
            raise SchedulerError(
                f"cpu {cpu} already runs pid {self.on_cpu[cpu].pid}"
            )
        self.on_cpu[cpu] = proc
        proc.cpu = cpu
        proc.state = ProcState.RUNNING
        if not proc.cpu_history or proc.cpu_history[-1] != cpu:
            proc.cpu_history.append(cpu)
        self.dispatch_count += 1

    def remove(self, proc: SimProcess) -> None:
        """Forget a process entirely (exit while queued)."""
        try:
            self.ready.remove(proc)
        except ValueError:
            pass
