"""The one host switch selects host mechanisms, never the model.

``fastpath`` publishes batches or not; where batches exist, windows and
the vec mirror select themselves, as block translation does in every ISA
frontend. Either arm, and each self-selecting layer's reference
implementation (``SUBS``), is one simulated program, fault plan armed or
not — the L1 probe is the memory model, so nothing here moves a
``mem:degraded`` draw. And wherever a
window is *not* opened, one gate says why (``Engine._stand_down``),
counted by reason in ``Engine.stand_downs``, which no fingerprint ever
sees.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro import (Engine, SamplingConfig, SimConfig, complex_backend,
                   load_checkpoint)

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
    """Windows are denied, by name, inside fast-forward phases. (Where a
    window opens can move a sampled result: the sampler switches at the
    first loop top past an event count — DESIGN.md "Sampled
    simulation".)"""
    sc = SamplingConfig(detail_events=1_000, ff_events=2_000)
    on = run("dss", {**DEFAULT, "sampling": sc})
    assert on.counters["stand_downs"]["fast_forward"] > 0
    assert on.counters["stand_downs"]["tapped"] == 0


def _parked_touch():
    """An engine whose one frontend has parked a cold ``touch`` batch."""
    eng = Engine(complex_backend(num_cpus=2))

    def app(p):
        yield from p.touch(0x2_0000, 4096, write=True, stride=32)
        yield from p.exit(0)

    proc = eng.spawn("a", app)
    assert proc.port_event.kind == 9
    return eng, proc, proc.port_event


def _warm(eng, proc, batch):
    for addr, size in zip(batch.addrs, batch.sizes):
        eng.memsys.access(proc.pid, addr, size, True, proc.cpu, 0)


def test_no_window_for_a_frontend_with_a_delivery_due():
    """The gate's first clause: with a pre-emption pending, ``proc`` gets
    no window and bounds a rival's at its own parked event."""
    eng, proc, batch = _parked_touch()
    _warm(eng, proc, batch)
    assert eng._stand_down(proc, batch) is None
    assert eng._invisible_bound(proc, batch, 1 << 40) > batch.time
    assert not any(eng.stand_downs.values())
    proc.preempt_pending = True
    assert eng._stand_down(proc, batch) == "delivery"
    assert eng._invisible_bound(proc, batch, 1 << 40) == batch.time
    assert eng.stand_downs["delivery"] == 2


def test_no_window_for_a_frontend_about_to_miss():
    """The gate's last clause, for the owner and for a rival alike: the
    reference at the cursor would leave the L1 probe. One read-only probe
    answers — no classification, no walk — and it is asked again each
    round: once the line is resident the same batch qualifies."""
    eng, proc, batch = _parked_touch()
    ms = eng.memsys
    probes = []
    ms.ref_invisible_latency = lambda *a: probes.append(a) or \
        type(ms).ref_invisible_latency(ms, *a)
    assert eng._stand_down(proc, batch) == "miss"
    assert eng._invisible_bound(proc, batch, 1 << 40) == batch.time
    assert len(probes) == 2 and not ms._vec._cache
    assert eng.stand_downs == {"delivery": 0, "tapped": 0,
                               "fast_forward": 0, "miss": 2}
    # warm but for one line: only the cursor that stands on it stands down
    _warm(eng, proc, batch)
    ms.l1s[proc.cpu].invalidate(next(iter(ms._l1_states[proc.cpu])))
    verdicts = []
    for cursor in range(batch.n):
        batch.cursor = cursor
        verdicts.append(eng._stand_down(proc, batch))
    assert verdicts.count("miss") == 1
    assert verdicts.count(None) == batch.n - 1


def test_design_table_lists_the_codes_own_reasons():
    """DESIGN.md's "Where the window stands down" table has one row per
    reason string the code can give, in the code's order."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("**Where the window stands down.**", 1)[1]
    section = section.split("\n**", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert tuple(rows) == STAND_DOWNS
