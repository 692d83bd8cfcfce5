"""The ``prepare / run / collect`` simulator adapter.

The bsb ``SimulatorAdapter`` idiom: one object owns the full lifecycle of
a simulation — build the engine from a plain-data description
(:meth:`~SimulatorAdapter.prepare`), drive it in bounded segments
(:meth:`~SimulatorAdapter.run`), and extract a JSON-plain result payload
(:meth:`~SimulatorAdapter.collect`). Everything a caller passes in is
plain data (a workload name + kwargs, a config dict of architecture
knobs), so the same description can be submitted to the in-process
:class:`~repro.service.runner.JobRunner`, shipped to a job subprocess,
or replayed by the golden regression fleet.
"""

from __future__ import annotations

from dataclasses import fields
from inspect import signature
from typing import Any, Dict, Optional

from ..core.config import (SamplingConfig, SimConfig, complex_backend,
                           simple_backend)
from ..core.errors import ConfigError
from ..core.frontend import SimProcess
from ..core.jsonable import to_jsonable
from ..faults import FaultPlan
from .workloads import WORKLOADS, full_fingerprint


def make_config_factory(config: Optional[Dict[str, Any]] = None):
    """Turn a plain config dict into a workload-builder config factory.

    ``config`` holds :class:`SimConfig` keyword knobs plus two
    conveniences: ``backend`` ("complex", the default, or "simple")
    selects the constructor, and ``faults`` / ``sampling`` accept the
    dict forms (:meth:`FaultPlan.to_dict`, ``SamplingConfig`` kwargs) so
    job specs stay JSON-plain. Builder-supplied kwargs (``num_cpus``,
    ``coherence``…) win over the config dict: workloads pin their own
    architecture where it is part of the workload's identity. Keys, the
    ``sampling`` dict's too, are checked when the factory is built: a
    misspelt or removed knob is a :class:`ConfigError` naming it, not a
    ``TypeError`` out of the first workload that calls the factory.
    """
    config = dict(config or {})
    backend = config.pop("backend", "complex")
    if backend not in ("complex", "simple"):
        raise ConfigError(f"unknown backend constructor {backend!r}")
    base = complex_backend if backend == "complex" else simple_backend
    known = {f.name for f in fields(SimConfig)}
    known.update(name for name, prm in signature(base).parameters.items()
                 if prm.kind is not prm.VAR_KEYWORD)
    unknown = sorted(set(config) - known)
    if unknown:
        raise ConfigError(
            f"unknown config key {unknown[0]!r} for the {backend} backend; "
            f"known keys: {sorted(known)}")
    faults = config.get("faults")
    if isinstance(faults, dict):
        config["faults"] = FaultPlan.from_dict(faults)
    sampling = config.get("sampling")
    if isinstance(sampling, dict):
        known = sorted(f.name for f in fields(SamplingConfig))
        unknown = sorted(set(sampling) - set(known))
        if unknown:
            raise ConfigError(f"unknown config key 'sampling.{unknown[0]}'; "
                              f"known keys: {known}")
        config["sampling"] = SamplingConfig(**sampling)

    def cfg(**kw):
        return base(**{**config, **kw})

    return cfg


class SimulatorAdapter:
    """Own one simulation end to end: ``prepare``, ``run``, ``collect``."""

    def __init__(self) -> None:
        self.engine = None
        self.stats = None
        self.workload: Optional[str] = None
        self.config: Dict[str, Any] = {}
        self.workload_kwargs: Dict[str, Any] = {}

    # -- lifecycle ---------------------------------------------------------

    def prepare(self, config: Optional[Dict[str, Any]] = None,
                workload: str = "oltp",
                workload_kwargs: Optional[Dict[str, Any]] = None,
                reset_pids: bool = True):
        """Build the engine and spawn the workload; no events run yet.

        ``reset_pids`` pins the global pid sequence to 1 first so the
        same description always produces the same simulation — exactly
        what the determinism harness does by hand. The return contract
        (a built, never-run engine) is what :func:`repro.checkpoint.resume`
        needs, so ``lambda: adapter.prepare(...)`` is a valid rebuild
        callable for checkpoint restores.
        """
        if workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {workload!r}; registry has "
                f"{sorted(WORKLOADS)}")
        if reset_pids:
            SimProcess.set_pid_counter(1)
        self.workload = workload
        self.config = dict(config or {})
        self.workload_kwargs = dict(workload_kwargs or {})
        factory = make_config_factory(self.config)
        self.engine = WORKLOADS[workload](factory, **self.workload_kwargs)
        return self.engine

    def run(self, budget: Optional[int] = None):
        """Advance the simulation by at most ``budget`` events (None =
        run to completion). Bounded calls may be repeated — segment cuts
        are bit-identical to one uninterrupted run — which is how the
        job runner interleaves heartbeats with simulation."""
        if self.engine is None:
            raise ConfigError("run() before prepare()")
        self.stats = self.engine.run(max_events=budget)
        return self.stats

    def run_to_completion(self, segment: Optional[int] = None):
        """Drive the engine until no live processes remain, optionally in
        ``segment``-event slices; returns the final stats."""
        if segment is None:
            return self.run()
        while self.running:
            self.run(budget=segment)
        return self.stats

    @property
    def running(self) -> bool:
        """True while live simulated processes remain."""
        return self.engine is not None and self.engine._live > 0

    # -- results -----------------------------------------------------------

    def fingerprint(self) -> tuple:
        """The bit-identity tuple of the run so far (see
        :func:`repro.service.workloads.full_fingerprint`)."""
        if self.engine is None:
            raise ConfigError("fingerprint() before prepare()")
        stats = self.stats if self.stats is not None else self.engine.stats
        return full_fingerprint(self.engine, stats)

    def collect(self) -> Dict[str, Any]:
        """JSON-plain result payload: identity of the description plus
        the outcome fingerprint and headline counters. Two runs of the
        same description are bit-identical iff their ``fingerprint``
        fields are equal."""
        if self.engine is None:
            raise ConfigError("collect() before prepare()")
        stats = self.stats if self.stats is not None else self.engine.stats
        return to_jsonable({
            "workload": self.workload,
            "workload_kwargs": self.workload_kwargs,
            "config": self.config,
            "events_processed": self.engine.events_processed,
            "end_cycle": stats.end_cycle,
            "running": self.running,
            "fingerprint": self.fingerprint(),
        })
