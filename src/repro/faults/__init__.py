"""Deterministic fault injection.

A :class:`FaultPlan` (loadable from config or JSON) names injection
*sites* in the simulator — syscall entry, the buffer cache, the disk,
the TCP stack, memory controllers and interconnect links — and attaches
probability-or-schedule triggers to each.  The :class:`FaultInjector`
evaluates every trigger on the backend, in global event order, from one
dedicated ``random.Random(seed)`` stream, so a faulty run is exactly as
reproducible as a fault-free one.  With no plan (or an empty plan) the
subsystem binds no hooks and draws no random numbers: runs are
bit-identical to a build without it.

``crashpoints`` is the host-side sibling: a seeded
:class:`CrashPointPlan` kills (or raises inside) the *simulator
process itself* at named durability sites — spool append/fsync,
checkpoint log append/fsync and compaction — to prove the WAL spool and
checkpoint layers recover from any torn write.
"""

from .crashpoints import (CrashPointInjector, CrashPointPlan, CrashRule,
                          KNOWN_CRASH_SITES)
from .injector import FaultInjector, FaultStats
from .plan import FaultPlan, FaultRule, KNOWN_SITE_PREFIXES

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultStats",
    "KNOWN_SITE_PREFIXES",
    "CrashPointInjector",
    "CrashPointPlan",
    "CrashRule",
    "KNOWN_CRASH_SITES",
]
