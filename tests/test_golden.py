"""Golden-output regression fleet (Nyuzi ``test_harness.py`` style).

Every scenario — workload x protocol x engine knobs x fault plan — runs
through the :class:`SimulatorAdapter` and its stats fingerprint is diffed
against the committed golden under ``tests/golden/``. A mismatch means a
change altered *simulated results*, not just speed; that is a regression
unless the goldens are deliberately regenerated::

    COMPASS_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

Scenarios with a ``golden`` alias share another scenario's file: the
strict arms (``fastpath`` off, the one host switch) must be
*bit-identical* to the default arms, so pointing them at the same golden
re-proves the equivalence contracts on every CI run.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.jsonable import to_jsonable
from repro.service import SimulatorAdapter

from tests.equivalence import ERRNO_PLAN, STRICT, TIMING_PLAN

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
UPDATE = os.environ.get("COMPASS_UPDATE_GOLDEN") == "1"

#: the sampled scenarios' schedule, ``dss``'s 1 000 / 2 000 events in cycles
SAMPLED_DSS = {"detail_cycles": 700_000, "ff_cycles": 1_400_000}

#: the fleet: name, workload, config dict, optional golden alias
SCENARIOS = [
    # OLTP (TPC-C): default knobs, strict knobs, both fault plans
    {"name": "oltp-directory", "workload": "oltp", "config": {}},
    {"name": "oltp-directory-strict", "workload": "oltp",
     "config": dict(STRICT), "golden": "oltp-directory"},
    {"name": "oltp-timing-faults", "workload": "oltp",
     "config": {"faults": TIMING_PLAN.to_dict()}},
    {"name": "oltp-timing-faults-strict", "workload": "oltp",
     "config": {"faults": TIMING_PLAN.to_dict(), **STRICT},
     "golden": "oltp-timing-faults"},
    {"name": "oltp-errno-faults", "workload": "oltp",
     "config": {"faults": ERRNO_PLAN.to_dict()}},
    # DSS (TPC-D Q1): directory and COMA protocols, strict arm
    {"name": "dss-directory", "workload": "dss", "config": {}},
    {"name": "dss-directory-strict", "workload": "dss",
     "config": dict(STRICT), "golden": "dss-directory"},
    {"name": "dss-coma", "workload": "dss",
     "config": {"coherence": "coma"}},
    # webserver: MESI bus snooping (its pinned protocol), with faults
    {"name": "webserver-mesi", "workload": "webserver", "config": {}},
    {"name": "webserver-mesi-faults", "workload": "webserver",
     "config": {"faults": TIMING_PLAN.to_dict()}},
    {"name": "webserver-mesi-faults-strict", "workload": "webserver",
     "config": {"faults": TIMING_PLAN.to_dict(), **STRICT},
     "golden": "webserver-mesi-faults"},
    # SPLASH radix: directory and page-based DSM, strict arm
    {"name": "splash-directory", "workload": "splash", "config": {}},
    {"name": "splash-directory-strict", "workload": "splash",
     "config": dict(STRICT), "golden": "splash-directory"},
    {"name": "splash-dsm", "workload": "splash",
     "config": {"coherence": "dsm"}},
    # sampled simulation: approximate vs full detail, but deterministic —
    # it gets its own golden, which the strict arm lands too (phases
    # switch at simulated cycles)
    {"name": "dss-sampling", "workload": "dss",
     "config": {"sampling": SAMPLED_DSS}},
    {"name": "dss-sampling-strict", "workload": "dss",
     "config": {"sampling": SAMPLED_DSS, **STRICT}, "golden": "dss-sampling"},
]

#: component names for fingerprint-diff messages, in tuple order
FP_FIELDS = ("end_cycle", "events_processed", "cpu_times", "syscall_cycles",
             "syscall_counts", "interrupt_counts", "faults_fired",
             "fault_draws", "l1_caches", "protocol", "minor_faults",
             "major_faults")


def _golden_path(scenario) -> Path:
    return GOLDEN_DIR / f"{scenario.get('golden', scenario['name'])}.json"


def _run_scenario(scenario) -> list:
    adapter = SimulatorAdapter()
    adapter.prepare(config=dict(scenario["config"]),
                    workload=scenario["workload"])
    adapter.run()
    return to_jsonable(adapter.fingerprint())


def _diff(expected, actual) -> str:
    lines = []
    for field, want, got in zip(FP_FIELDS, expected, actual):
        if want != got:
            lines.append(f"  {field}: golden={want!r} actual={got!r}")
    return "\n".join(lines) or "  (fingerprint lengths differ)"


@pytest.mark.parametrize("scenario", SCENARIOS,
                         ids=[s["name"] for s in SCENARIOS])
def test_golden(scenario):
    path = _golden_path(scenario)
    actual = _run_scenario(scenario)
    if UPDATE:
        if "golden" in scenario:
            # alias arms never write; they must agree with their source
            expected = json.loads(path.read_text())["fingerprint"]
            assert actual == expected, (
                f"{scenario['name']} diverged from its bit-identity "
                f"source {scenario['golden']}:\n{_diff(expected, actual)}")
            return
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(to_jsonable({
            "scenario": scenario["name"],
            "workload": scenario["workload"],
            "config": scenario["config"],
            "fingerprint": actual,
        }), indent=2, sort_keys=True) + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"no golden for {scenario['name']} ({path.name}); generate "
            f"with COMPASS_UPDATE_GOLDEN=1")
    expected = json.loads(path.read_text())["fingerprint"]
    assert actual == expected, (
        f"{scenario['name']} no longer matches {path.name} — simulated "
        f"results changed:\n{_diff(expected, actual)}")


def test_no_stale_goldens():
    """Every committed golden file belongs to a live scenario (or to
    ``tests/test_protocol_ops.py`` / ``tests/test_event_path.py``, which
    each keep their one file here)."""
    live = {_golden_path(s).name for s in SCENARIOS} | {
        "protocol_ops.json", "event_path.json"}
    on_disk = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk <= live, f"stale goldens: {sorted(on_disk - live)}"


def test_alias_arms_share_golden_files():
    """The strict arms point at the default arms' files — the bit-identity
    contract is part of the fleet's shape, not an accident."""
    aliased = [s for s in SCENARIOS if "golden" in s]
    assert aliased, "fleet lost its bit-identity arms"
    names = {s["name"] for s in SCENARIOS}
    for s in aliased:
        assert s["golden"] in names
