#!/usr/bin/env python
"""The host-switch lattice: one simulated program per (workload, plan).

``fastpath``, ``lookahead`` and ``vectorized`` each select a host mechanism
(published batches, windows, the numpy mirror) and nothing else, so
all eight on/off arms must land one ``full_fingerprint`` on every registry
workload — clean, and under the golden fleet's ``TIMING_PLAN``, whose
``mem:degraded`` site draws once per miss-kernel call and therefore tells
a probe that is part of the model from one that is a switch. Usage::

    python benchmarks/knob_lattice.py                 # 4 workloads x 2 plans
    python benchmarks/knob_lattice.py oltp splash     # a subset

Prints one row per (workload, plan): distinct fingerprints, end cycles and
fault draws over the arms. Exits 1 if any row has more than one.
``tests/test_knob_lattice.py`` is the tier-1 cut (plan only, oltp + splash).
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.jsonable import to_jsonable                     # noqa: E402
from repro.service import WORKLOADS, SimulatorAdapter           # noqa: E402

SWITCHES = ("fastpath", "lookahead", "vectorized")
ARMS = [dict(zip(SWITCHES, bits))
        for bits in itertools.product((True, False), repeat=len(SWITCHES))]

#: tests/test_golden.py's TIMING_PLAN, in its JSON-plain form
TIMING_PLAN = {"seed": 1998, "rules": [
    {"site": "disk:latency", "prob": 0.2, "extra_cycles": 40_000},
    {"site": "mem:degraded", "prob": 0.001, "extra_cycles": 300},
    {"site": "link:degraded", "prob": 0.001, "extra_cycles": 50},
]}
PLANS = {"clean": None, "timing": TIMING_PLAN}


def run_arm(workload: str, arm: dict, plan) -> tuple:
    """``(full_fingerprint as text, end_cycle, fault_draws)`` of one arm."""
    config = dict(arm)
    if plan is not None:
        config["faults"] = plan
    adapter = SimulatorAdapter()
    adapter.prepare(config, workload)
    stats = adapter.run()
    return (json.dumps(to_jsonable(adapter.fingerprint()), sort_keys=True),
            stats.end_cycle, adapter.engine.faults.stats.draws)


def sweep(workloads, plans=PLANS) -> list:
    """One row per (workload, plan): the sets the eight arms landed."""
    rows = []
    for workload in workloads:
        for plan_name, plan in plans.items():
            runs = [run_arm(workload, arm, plan) for arm in ARMS]
            rows.append({
                "workload": workload, "plan": plan_name,
                "fingerprints": len({r[0] for r in runs}),
                "end_cycles": sorted({r[1] for r in runs}),
                "fault_draws": sorted({r[2] for r in runs}),
            })
    return rows


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:])
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workloads {unknown}; registry has "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    rows = sweep(names or ["oltp", "dss", "webserver", "splash"])
    for r in rows:
        print(f"{r['workload']:10s} {r['plan']:7s} "
              f"fingerprints={r['fingerprints']} "
              f"end_cycles={r['end_cycles']} draws={r['fault_draws']}")
    bad = [r for r in rows if r["fingerprints"] != 1]
    print(f"{len(rows) - len(bad)}/{len(rows)} rows land one fingerprint "
          f"over {len(ARMS)} arms")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
