"""Span tracer for the traced benchmark run.

Spans are recorded from here only, by wrapping the layer seams listed in
:data:`SEAMS` with ``perf_counter`` and a parent stack. A span is (name,
start, end, parent); a layer's self time is its spans' duration minus the
part their child spans cover. Every closed span is folded into a
``(parent name, name) -> [count, total_s, self_s]`` table; the first
:data:`RAW_SPANS` are also kept verbatim so a trace file shows real
intervals without growing with the run (a run closes millions of spans).

Seams are patched **on the class, never on the instance**. An
instance-level ``memsys.access`` is the simulator's memory-tap signal
(``"access" in ms.__dict__``): speculation, lookahead, the vec path and
worker leases all stand down when they see it, so an instance patch would
trace a different program. A class patch keeps ``ms.__class__ is
MemorySystem`` and ``ms.__dict__`` untouched, which is why the traced run
ends with the same fingerprint and ``batch_stats`` as the untraced ones.

A seam whose class or method no longer exists is listed in
``Tracer.missing`` and simply yields no spans: the tracer never raises
over a refactor of the code it observes.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: how many closed spans are kept verbatim in the trace file
RAW_SPANS = 200


def _step_name(_engine, proc, *_a, **_kw) -> str:
    """``Engine._step`` runs the frontend generator stack: user-mode
    application code, or simulated OS code when it is entered in kernel
    or interrupt mode."""
    return "frontend.user_step" if proc.mode == "user" else "osim.kernel_step"


#: (module, class, method, span name or naming function). Protocol seams
#: are added per concrete protocol class by :func:`_protocol_seams`.
SEAMS: List[Tuple[str, str, str, object]] = [
    ("repro.service.adapter", "SimulatorAdapter", "prepare", "adapter.prepare"),
    ("repro.service.adapter", "SimulatorAdapter", "run", "adapter.run"),
    ("repro.service.adapter", "SimulatorAdapter", "collect", "adapter.collect"),
    ("repro.core.engine", "Engine", "run", "engine.run"),
    ("repro.core.engine", "Engine", "_handle_event", "engine.handle_event"),
    ("repro.core.engine", "Engine", "_handle_batch", "engine.handle_batch"),
    ("repro.core.engine", "Engine", "_step", _step_name),
    ("repro.core.communicator", "Communicator", "select",
     "communicator.select"),
    ("repro.core.communicator", "Communicator", "batch_horizon",
     "communicator.horizon"),
    ("repro.core.communicator", "Communicator", "lookahead_horizon",
     "communicator.horizon"),
    ("repro.core.communicator", "Communicator", "speculation_bound",
     "communicator.horizon"),
    ("repro.mem.hierarchy", "MemorySystem", "access", "mem.access"),
    ("repro.mem.hierarchy", "MemorySystem", "access_run", "mem.access_run"),
    ("repro.core.scheduler", "GlobalScheduler", "run_task", "devices.task"),
    ("repro.checkpoint.manager", "CheckpointManager", "save",
     "checkpoint.save"),
    ("repro.service.spool", "JobSpool", "append", "spool.append"),
]

def _protocol_seams() -> List[Tuple[str, str, str, object]]:
    """``read_miss``/``write_miss``/``writeback`` of every concrete
    coherence protocol, patched where each class defines them."""
    try:
        base = importlib.import_module("repro.mem.coherence.base")
        importlib.import_module("repro.mem.coherence")
        classes = base.CoherenceProtocol.__subclasses__()
    except (ImportError, AttributeError):
        return []
    return [(cls.__module__, cls.__name__, meth, "mem.coherence")
            for cls in classes
            for meth in ("read_miss", "write_miss", "writeback")
            if meth in cls.__dict__]


class Tracer:
    """Install the seams, collect spans in memory, report per-name sums."""

    def __init__(self) -> None:
        #: open spans, innermost last: [name, seconds covered by children]
        self.stack: List[list] = []
        #: (parent name, name) -> [count, total seconds, self seconds]
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        #: first RAW_SPANS closed spans: (name, start, end, parent name)
        self.raw: List[Tuple[str, float, float, Optional[str]]] = []
        #: "module.Class.method" of every seam that could not be patched
        self.missing: List[str] = []
        self._patched_names: set = set()
        self._undo: List[Tuple[type, str, Callable]] = []

    # -- installing --------------------------------------------------------

    def install(self) -> "Tracer":
        for modname, clsname, meth, name in SEAMS + _protocol_seams():
            try:
                cls = getattr(importlib.import_module(modname), clsname)
                orig = cls.__dict__[meth]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{clsname}.{meth}")
                continue
            setattr(cls, meth, self._wrap(orig, name))
            self._undo.append((cls, meth, orig))
            self._patched_names.update(
                [name] if isinstance(name, str)
                else ["frontend.user_step", "osim.kernel_step"])
        return self

    def uninstall(self) -> None:
        while self._undo:
            cls, meth, orig = self._undo.pop()
            setattr(cls, meth, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    def _wrap(self, orig: Callable, name) -> Callable:
        stack, edges, raw = self.stack, self.edges, self.raw
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            span_name = fixed if fixed is not None else name(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [span_name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                pname = None
                if parent is not None:
                    parent[1] += dur
                    pname = parent[0]
                edge = edges.get((pname, span_name))
                if edge is None:
                    edge = edges[(pname, span_name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]
                if len(raw) < RAW_SPANS:
                    raw.append((span_name, start, end, pname))

        return traced

    # -- reporting ---------------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s}, summed over parents. A span
        name none of whose seams could be patched is absent."""
        out: Dict[str, Dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for n in self._patched_names}
        for (_parent, name), (count, total, self_s) in self.edges.items():
            row = out[name]
            row["calls"] += count
            row["total_s"] += total
            row["self_s"] += self_s
        return out

    def attributed_s(self) -> float:
        """Sum of every span's self time: what the trace accounts for."""
        return sum(e[2] for e in self.edges.values())

    def to_json(self) -> dict:
        t0 = self.raw[0][1] if self.raw else 0.0
        return {
            "edges": [
                {"parent": parent, "name": name, "calls": count,
                 "total_s": total, "self_s": self_s}
                for (parent, name), (count, total, self_s)
                in sorted(self.edges.items(),
                          key=lambda kv: -kv[1][2])],
            # [name, start_s, end_s, parent] in closing order, from the
            # first span's start
            "first_spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                            for n, s, e, p in self.raw],
            "seams_missing": list(self.missing),
        }
