"""The one host switch selects host mechanisms, never the model.

``fastpath`` publishes batches or not; where batches exist, windows and
the bulk all-hit prefix select themselves, as block translation does in every ISA
frontend. Either arm, and each self-selecting layer's reference
implementation (``SUBS``), is one simulated program, fault plan armed or
not — the L1 probe is the memory model, so nothing here moves a
``mem:degraded`` draw. And wherever a
window is *not* opened, the batch round says why once
(``Engine._handle_batch``), counted by reason in ``Engine.stand_downs``,
which no fingerprint ever sees.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro import Engine, SimConfig, complex_backend, load_checkpoint

from tests.equivalence import (ARMS, DEFAULT, LATTICE, LATTICE_IDS, STRICT,
                               TIMING_PLAN, check, run, simulate)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: every reason a window can be denied for, in the code's order
STAND_DOWNS = tuple(Engine(complex_backend(num_cpus=1)).stand_downs)


# ---------------------------------------------------------------------------
# the switch
# ---------------------------------------------------------------------------

def test_lattice_script_sweeps_the_golden_timing_plan():
    """The oracle's arms are the one switch's two settings — no other
    speed knob is left in ``SimConfig`` — and its plan draws at
    ``mem:degraded``, once per miss-kernel call: the site that tells a
    probe that is part of the model from one that is a switch."""
    assert ARMS == [DEFAULT, STRICT] == [{"fastpath": True},
                                         {"fastpath": False}]
    assert LATTICE[0] == DEFAULT and LATTICE[4] == STRICT
    names = {f.name for f in fields(SimConfig)}
    assert "fastpath" in names
    assert not names & {"lookahead", "vectorized", "translate"}
    assert "mem:degraded" in {r.site for r in TIMING_PLAN.rules}


@pytest.mark.parametrize("other", LATTICE[1:], ids=LATTICE_IDS[1:])
@pytest.mark.parametrize("workload", ["oltp", "splash"])
def test_every_arm_lands_the_default_fingerprint_under_faults(workload, other):
    """``TIMING_PLAN``: the strict arm and the reference implementations
    of the batched layers, alone and together, land one result with one
    count of fault draws (``splash`` publishes no batch, so only the
    switch differs)."""
    default, _ = check(workload, [DEFAULT, other], "plan")
    assert default.counters["draws"] > 0     # the plan is armed and draws


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

def test_stand_downs_on_a_tapped_run_and_invisible_to_fingerprints(tmp_path):
    """A tap denies every window as ``"tapped"`` — a memtrace recorder
    alone, or chained on the checkpoint recorder, where it sees the same
    stream. The tally is in no snapshot, ``batch_stats`` or checkpoint.
    (``private_heavy``: since the owner's cursor probe, no registry
    workload opens a window at its test size.)"""
    plain, = check("private_heavy", [DEFAULT])
    assert plain.counters["batch_stats"]["la_windows"] > 0
    assert plain.counters["stand_downs"]["tapped"] == 0
    traced, = check("private_heavy", [DEFAULT], "tapped")
    path = str(tmp_path / "ck.pkl")
    both, eng = simulate("private_heavy", {**DEFAULT, "checkpoint_path": path,
                                           "checkpoint_interval": 2_000},
                         "tapped")
    assert both.snap == traced.snap           # the recorder sees the stream
    assert eng._ckpt.saves > 0
    assert traced.snap["trace"][0] == plain.counters["accesses"]
    for c in (traced.counters, both.counters):
        assert c["stand_downs"]["tapped"] > 0
        assert c["batch_stats"]["la_windows"] == 0
        assert set(c["stand_downs"]) == set(STAND_DOWNS)
        assert not set(STAND_DOWNS) & set(c["batch_stats"])
    ck = load_checkpoint(path)
    assert "stand_downs" not in ck and "stand_downs" not in ck["snapshot"]


def test_stand_downs_on_a_sampled_run():
    """Windows are denied, by name, inside fast-forward phases (the run
    lands the strict sampled result: the table's ``dss-sampled`` cell)."""
    on = run("dss", DEFAULT, "sampled")
    assert on.counters["stand_downs"]["fast_forward"] > 0
    assert on.counters["stand_downs"]["tapped"] == 0


def _spy_scans(eng, scans):
    """Append the strict cut of each ``lookahead_horizon`` scan to
    ``scans``."""
    scan = eng.comm.lookahead_horizon
    eng.comm.lookahead_horizon = lambda *a: scans.append(a[1]) or scan(*a)
    return scans


@pytest.mark.parametrize("workload", ["oltp", "dss", "webserver",
                                      "private_heavy",
                                      "tpcc-checkpoint-bench"])
def test_a_round_asks_for_one_verdict(workload):
    """A batch round answers "how far past the rival cut" at most once:
    the owner's tallied stand-down reason or one lookahead scan — never
    both, and a rival's qualification tallies nothing."""
    scans = []
    res, _ = simulate(workload, DEFAULT,
                      spy=lambda eng: _spy_scans(eng, scans))
    c = res.counters
    assert sum(c["stand_downs"].values()) + len(scans) <= \
        c["batch_stats"]["batches"]
    if workload == "private_heavy":
        assert c["stand_downs"]["miss"] == 4 * 256     # the cold pass


def _parked_touches():
    """An engine whose two frontends have each parked a cold ``touch``
    batch, one per CPU."""
    eng = Engine(complex_backend(num_cpus=2))

    def app(base):
        def body(p):
            yield from p.touch(base, 4096, write=True, stride=32)
            yield from p.exit(0)
        return body

    procs = [eng.spawn(f"t{j}", app(0x2_0000 + j * 0x1_0000))
             for j in range(2)]
    assert all(p.port_event.kind == 9 for p in procs)
    return eng, procs


def _warm(eng, proc, batch):
    for addr, size in zip(batch.addrs, batch.sizes):
        eng.memsys.access(proc.pid, addr, size, True, proc.cpu, 0)


def _round(eng, proc):
    """One batch round of ``proc``, entered as the run loop enters it,
    with a rival parked (no task or run bound)."""
    batch = proc.port_event
    proc.port_event = None
    return eng._handle_batch(proc, batch, 1 << 40, 1 << 62)


def _tallied(why):
    return {**dict.fromkeys(STAND_DOWNS, 0), why: 1}


def test_no_window_for_a_frontend_with_a_delivery_due():
    """The verdict's first clause. Warm and with nothing due, the owner's
    round scans its rival once and tallies nothing; with a pre-emption
    pending, the round tallies ``"delivery"`` once and scans nothing, and
    as a rival the frontend bounds a window at its own parked event,
    untallied."""
    eng, (proc, rival) = _parked_touches()
    _warm(eng, proc, proc.port_event)
    batch = rival.port_event
    _warm(eng, rival, batch)
    scans = _spy_scans(eng, [])
    assert eng._invisible_bound(rival, batch, 1 << 40) > batch.time
    rival.preempt_pending = True
    assert eng._invisible_bound(rival, batch, 1 << 40) == batch.time
    assert not any(eng.stand_downs.values())
    proc.preempt_pending = True
    assert _round(eng, proc) == 1
    assert eng.stand_downs == _tallied("delivery") and not scans
    eng, (proc, _) = _parked_touches()
    _warm(eng, proc, proc.port_event)
    scans = _spy_scans(eng, [])
    _round(eng, proc)
    assert len(scans) == 1 and not any(eng.stand_downs.values())


def test_no_window_for_a_frontend_about_to_miss():
    """The verdict's last clause: the reference at the cursor would leave
    the L1 probe. The owner's round tallies ``"miss"`` once and scans
    nothing. A rival bounds at its own parked time for one read-only
    probe — no classification, no walk, no tally — and is asked again
    each round: once the line is resident the same batch qualifies."""
    eng, (proc, rival) = _parked_touches()
    batch = rival.port_event
    ms = eng.memsys
    probes = []
    ms.ref_invisible_latency = lambda *a: probes.append(a) or \
        type(ms).ref_invisible_latency(ms, *a)
    assert eng._invisible_bound(rival, batch, 1 << 40) == batch.time
    assert len(probes) == 1 and batch.prefix is None
    assert not any(eng.stand_downs.values())
    _warm(eng, rival, batch)
    assert eng._invisible_bound(rival, batch, 1 << 40) > batch.time
    scans = _spy_scans(eng, [])
    _round(eng, proc)
    assert eng.stand_downs == _tallied("miss") and not scans


def test_design_table_lists_the_codes_own_reasons():
    """DESIGN.md's "Where the window stands down" table has one row per
    reason string the code can give, in the code's order."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("**Where the window stands down.**", 1)[1]
    section = section.split("\n**", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert tuple(rows) == STAND_DOWNS
