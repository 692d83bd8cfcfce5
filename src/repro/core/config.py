"""Configuration dataclasses for the simulated machine.

A :class:`SimConfig` fully describes one simulation: the target multiprocessor
(CPUs, caches, memory organisation, coherence protocol), the modeled OS
(process scheduler, page placement, costs), and the physical devices. The
paper's two reference backends are provided as constructors:

* :func:`simple_backend` — one level of cache per processor over flat memory
  (the "Simple Backend" of Table 2);
* :func:`complex_backend` — two cache levels, buses/interconnect, memory and
  coherence controllers for a CC-NUMA system (the "Complex Backend").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .clock import ClockDomain
from .errors import ConfigError

#: field metadata of :class:`SimConfig`'s host policy: how it runs, not what
#: it simulates, so not part of a checkpoint's identity (config_identity)
HOST_POLICY = {"host_policy": True}


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and timing of one cache level (every level is
    write-back)."""

    size: int = 32 * 1024
    line_size: int = 32
    assoc: int = 4
    #: access latency in cycles (hit time)
    latency: int = 1

    def validate(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigError(f"line_size must be a power of two, got {self.line_size}")
        if self.size <= 0 or self.size % self.line_size:
            raise ConfigError("cache size must be a positive multiple of line_size")
        n_lines = self.size // self.line_size
        if self.assoc <= 0 or n_lines % self.assoc:
            raise ConfigError(
                f"associativity {self.assoc} does not divide {n_lines} lines"
            )
        if self.latency < 0:
            raise ConfigError("cache latency must be non-negative")

    @property
    def n_sets(self) -> int:
        return self.size // self.line_size // self.assoc


@dataclass(frozen=True, slots=True)
class MemoryConfig:
    """Main-memory organisation and NUMA parameters."""

    #: DRAM access latency (cycles) at the local memory controller
    dram_latency: int = 60
    #: number of NUMA nodes (1 = centralised UMA memory)
    num_nodes: int = 1
    #: extra cycles for each network hop on remote access
    hop_latency: int = 20
    #: directory / coherence-controller occupancy per request (cycles)
    dir_latency: int = 10
    #: bus arbitration+transfer time per bus transaction (cycles)
    bus_latency: int = 8
    #: page size in bytes (AIX uses 4 KiB)
    page_size: int = 4096
    #: physical memory per node (bytes)
    node_mem_bytes: int = 1 << 30
    #: page placement policy: "round_robin" | "block" | "first_touch"
    placement: str = "first_touch"

    def validate(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigError(f"page_size must be a power of two, got {self.page_size}")
        if self.num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if self.placement not in ("round_robin", "block", "first_touch"):
            raise ConfigError(f"unknown placement policy {self.placement!r}")
        for name in ("dram_latency", "hop_latency", "dir_latency", "bus_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True, slots=True)
class BackendConfig:
    """Architecture-model selection: how much detail the backend simulates."""

    #: "simple" = 1-level cache over flat memory; "complex" = full hierarchy
    detail: str = "complex"
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(size=32 * 1024,
                                                                line_size=32,
                                                                assoc=4,
                                                                latency=1))
    l2: Optional[CacheConfig] = field(default_factory=lambda: CacheConfig(
        size=512 * 1024, line_size=32, assoc=8, latency=8))
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: coherence protocol: "mesi" (bus snooping), "directory" (CC-NUMA),
    #: "coma" (attraction memory), "dsm" (page-based software DSM),
    #: "none" (private caches, no sharing cost model — simple backend)
    coherence: str = "directory"

    def validate(self) -> None:
        if self.detail not in ("simple", "complex"):
            raise ConfigError(f"unknown backend detail {self.detail!r}")
        self.l1.validate()
        if self.detail == "complex":
            if self.l2 is None:
                raise ConfigError("complex backend requires an L2 cache")
            self.l2.validate()
            if self.l2.line_size != self.l1.line_size:
                raise ConfigError("L1/L2 line sizes must match")
        if self.coherence not in ("mesi", "directory", "coma", "dsm", "none"):
            raise ConfigError(f"unknown coherence protocol {self.coherence!r}")
        self.memory.validate()


@dataclass(frozen=True, slots=True)
class OSConfig:
    """Category-2 OS modeling knobs (scheduler, VM, costs)."""

    #: process scheduler: "fcfs" | "affinity"
    scheduler: str = "fcfs"
    #: enable pre-emption (composes with either scheduler, per §3.3.2)
    preemptive: bool = False
    #: pre-emption interval in cycles (the paper's changeable interval)
    quantum: int = 1_000_000
    #: context-switch cost in cycles (direct cost charged to the CPU)
    ctx_switch_cycles: int = 2_000
    #: interval-timer tick period in cycles (AIX 100 Hz at 133 MHz ≈ 1.33 M)
    timer_interval: int = 1_330_000
    #: cycles of kernel work per timer tick (decrementer handler)
    timer_handler_cycles: int = 400
    #: maximum open file descriptors per process
    max_fds: int = 256

    def validate(self) -> None:
        if self.scheduler not in ("fcfs", "affinity"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if self.quantum <= 0:
            raise ConfigError("quantum must be positive")
        if self.ctx_switch_cycles < 0:
            raise ConfigError("ctx_switch_cycles must be non-negative")
        if self.timer_interval <= 0:
            raise ConfigError("timer_interval must be positive")


@dataclass(frozen=True, slots=True)
class DiskConfig:
    """Hard-disk model parameters (1990s SCSI disk defaults)."""

    avg_seek_ms: float = 8.0
    rpm: int = 7200
    transfer_mb_s: float = 10.0
    #: fixed controller overhead per request (µs)
    controller_us: float = 100.0
    #: cycles of kernel work in the disk interrupt handler
    intr_handler_cycles: int = 3_000

    def validate(self) -> None:
        if self.rpm <= 0 or self.transfer_mb_s <= 0 or self.avg_seek_ms < 0:
            raise ConfigError("invalid disk parameters")


@dataclass(frozen=True, slots=True)
class EthernetConfig:
    """Ethernet NIC model parameters (100 Mb/s era)."""

    bandwidth_mb_s: float = 12.5  # 100 Mbit/s
    #: per-frame fixed latency (µs)
    frame_us: float = 50.0
    mtu: int = 1500
    #: cycles of kernel work in the ethernet interrupt handler per frame
    intr_handler_cycles: int = 4_000

    def validate(self) -> None:
        if self.bandwidth_mb_s <= 0 or self.mtu <= 0:
            raise ConfigError("invalid ethernet parameters")


@dataclass(frozen=True, slots=True)
class SamplingConfig:
    """Checkpoint-based sampled simulation (SMARTS/gem5-style windows).

    The run alternates *detail* windows (full timing, every model engaged)
    with *fast-forward* windows (functional cache warming only: references
    update translation and cache contents but are charged a constant
    calibrated latency, with no protocol/interconnect/occupancy modeling).
    Windows are simulated cycles on a fixed grid, so the sampled result is
    the strict schedule's on every host path. Sampled runs are explicitly
    *approximate*: gated by the error-bound tests in tests/test_sampling.py
    and the measured error table in EXPERIMENTS.md, not by bit-identity.
    """

    #: simulated cycles of each window in full detail
    detail_cycles: int = 1_000_000
    #: simulated cycles fast-forwarded between detail windows (0 = never)
    ff_cycles: int = 4_000_000
    #: constant per-reference latency charged while fast-forwarding; 0.0 =
    #: auto-calibrate from the mean reference latency of the preceding
    #: detail window (fractional parts are spread deterministically)
    ff_latency: float = 0.0
    #: with checkpointing enabled, save a snapshot at each fast-forward ->
    #: detail transition (path suffix ``.w<N>``) so any detail window can
    #: be re-run or inspected from its exact start state
    checkpoint_windows: bool = False

    def validate(self) -> None:
        if self.detail_cycles <= 0:
            raise ConfigError("sampling.detail_cycles must be positive")
        if self.ff_cycles < 0:
            raise ConfigError("sampling.ff_cycles must be >= 0")
        if self.ff_latency < 0:
            raise ConfigError("sampling.ff_latency must be >= 0")


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Complete simulation configuration."""

    #: number of simulated processors
    num_cpus: int = 4
    clock: ClockDomain = field(default_factory=ClockDomain)
    backend: BackendConfig = field(default_factory=BackendConfig)
    os: OSConfig = field(default_factory=OSConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    ethernet: EthernetConfig = field(default_factory=EthernetConfig)
    #: deadlock-detection: max events with no progress before aborting
    max_cycles: int = 1 << 62
    #: the one host switch. On, frontends publish EventBatches, on which
    #: lookahead windows and the bulk all-hit prefix (mem/vec.py) select
    #: themselves from what the run observes. Off, every reference is one
    #: event: the strict reference schedule, e.g. for equivalence testing
    #: or interleaving ablations. Bit-identical timing either way; the L1
    #: probe is the memory model and runs either way.
    fastpath: bool = field(default=True, metadata=HOST_POLICY)
    #: optional deterministic fault-injection plan (a repro.faults.FaultPlan;
    #: kept untyped here to avoid a config -> faults import cycle). None or
    #: an empty plan disables the subsystem entirely: no hooks are bound and
    #: runs are bit-identical to a build without it.
    faults: Optional[object] = None
    #: engine watchdog: consecutive scheduler rounds with global time frozen
    #: before the run is declared livelocked and aborted with a structured
    #: DeadlockError. The default is far above anything a legitimate
    #: workload produces at one cycle.
    watchdog_rounds: int = field(default=1_000_000, metadata=HOST_POLICY)
    #: checkpoint/restore: autosave an engine checkpoint to this path every
    #: ``checkpoint_interval`` processed events. 0 disables the subsystem
    #: entirely — no manager is created, no tap is installed, and runs
    #: are bit-identical to a build without it.
    checkpoint_path: Optional[str] = field(default=None, metadata=HOST_POLICY)
    checkpoint_interval: int = field(default=0, metadata=HOST_POLICY)
    #: sampled-simulation schedule (a SamplingConfig) alternating detailed
    #: windows with functional fast-forward. None = full detail (default);
    #: sampled runs are approximate — see SamplingConfig.
    sampling: Optional[SamplingConfig] = None

    def validate(self) -> "SimConfig":
        if self.num_cpus <= 0:
            raise ConfigError("num_cpus must be positive")
        self.backend.validate()
        self.os.validate()
        self.disk.validate()
        self.ethernet.validate()
        if self.watchdog_rounds <= 0:
            raise ConfigError("watchdog_rounds must be positive")
        if self.faults is not None:
            self.faults.validate()
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be >= 0")
        if self.checkpoint_interval > 0 and not self.checkpoint_path:
            raise ConfigError(
                "checkpoint_interval requires a checkpoint_path")
        if self.checkpoint_path and self.checkpoint_interval <= 0:
            raise ConfigError(
                "checkpoint_path requires checkpoint_interval > 0")
        if self.sampling is not None:
            self.sampling.validate()
            if self.sampling.checkpoint_windows and not self.checkpoint_path:
                raise ConfigError(
                    "sampling.checkpoint_windows requires checkpointing "
                    "(checkpoint_path + checkpoint_interval)")
        if self.backend.coherence == "mesi" and self.backend.memory.num_nodes > 1:
            raise ConfigError("MESI bus snooping models a single-node SMP")
        return self


def simple_backend(num_cpus: int = 1, **kw) -> SimConfig:
    """Paper's *Simple Backend*: one cache level per CPU over flat memory."""
    be = BackendConfig(
        detail="simple",
        l1=CacheConfig(size=32 * 1024, line_size=32, assoc=4, latency=1),
        l2=None,
        coherence="none",
        memory=MemoryConfig(num_nodes=1),
    )
    return SimConfig(num_cpus=num_cpus, backend=be, **kw).validate()


def complex_backend(num_cpus: int = 4, num_nodes: int = 0,
                    coherence: str = "directory", **kw) -> SimConfig:
    """Paper's *Complex Backend*: two cache levels + full CC-NUMA system.

    ``num_nodes`` defaults to one node per CPU pair (at least 1).
    """
    if num_nodes <= 0:
        num_nodes = max(1, num_cpus // 2)
    if coherence == "mesi":
        num_nodes = 1
    be = BackendConfig(
        detail="complex",
        coherence=coherence,
        memory=MemoryConfig(num_nodes=num_nodes),
    )
    return SimConfig(num_cpus=num_cpus, backend=be, **kw).validate()


def with_os(cfg: SimConfig, **os_kw) -> SimConfig:
    """Return a copy of ``cfg`` with OS knobs replaced."""
    return replace(cfg, os=replace(cfg.os, **os_kw)).validate()
