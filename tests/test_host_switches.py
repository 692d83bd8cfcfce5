"""The three host switches select host mechanisms, never the model.

``fastpath`` (published batches), ``lookahead`` (windows) and
``vectorized`` (the numpy mirror) may each be on or off: every arm is one
simulated program, fault plan armed or not — the L1 probe is the memory
model, so no arm moves a ``mem:degraded`` draw. And wherever a window is
*not* opened, one gate says why (``Engine._stand_down``), counted by
reason in ``Engine.stand_downs``, which no fingerprint ever sees.
"""

from __future__ import annotations

import functools
import importlib.util
import re
from pathlib import Path

import pytest

from repro import Engine, SamplingConfig, complex_backend, load_checkpoint
from repro.core.frontend import SimProcess
from repro.service.workloads import WORKLOADS, full_fingerprint
from repro.traces.memtrace import MemTraceRecorder

from tests.test_golden import TIMING_PLAN
from tests.test_lookahead_equivalence import _private_heavy

REPO_ROOT = Path(__file__).resolve().parent.parent

#: every reason a window can be denied for, in the code's order
STAND_DOWNS = tuple(Engine(complex_backend(num_cpus=1)).stand_downs)


def _load_lattice():
    path = REPO_ROOT / "benchmarks" / "knob_lattice.py"
    spec = importlib.util.spec_from_file_location("_knob_lattice", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


lattice = _load_lattice()


# ---------------------------------------------------------------------------
# the lattice
# ---------------------------------------------------------------------------

def test_lattice_script_sweeps_the_golden_timing_plan():
    assert lattice.TIMING_PLAN == TIMING_PLAN.to_dict()
    assert len(lattice.ARMS) == 8
    assert lattice.ARMS[0] == dict.fromkeys(lattice.SWITCHES, True)
    assert lattice.ARMS[-1] == dict.fromkeys(lattice.SWITCHES, False)


@functools.lru_cache(maxsize=None)
def _default_arm(workload):
    return lattice.run_arm(workload, lattice.ARMS[0], lattice.TIMING_PLAN)


@pytest.mark.parametrize("arm", lattice.ARMS[1:], ids=lambda a: "-".join(
    f"{k[:4]}{int(v)}" for k, v in a.items()))
@pytest.mark.parametrize("workload", ["oltp", "splash"])
def test_every_arm_lands_the_default_fingerprint_under_faults(workload, arm):
    """All 8 arms x ``TIMING_PLAN``: one ``full_fingerprint``, one end
    cycle, one count of fault draws (two of each before PR 18, split on
    ``fastpath``: with it off every L1 hit drew from ``mem:degraded``)."""
    want = _default_arm(workload)
    assert want[2] > 0                       # the plan is armed and draws
    assert lattice.run_arm(workload, arm, lattice.TIMING_PLAN) == want


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

def _build(build=_private_heavy, **cfg):
    """``_private_heavy``: since the owner's cursor probe, no registry
    workload opens a window at its test size."""
    SimProcess._next_pid[0] = 1
    return build(lambda **kw: complex_backend(**cfg, **kw))


def test_stand_downs_on_a_tapped_run_and_invisible_to_fingerprints(tmp_path):
    """A tap denies every window as ``"tapped"`` — a memtrace recorder
    alone, or chained on the checkpoint recorder, where it sees the same
    stream. The tally is in no fingerprint, ``batch_stats`` or checkpoint."""
    plain = _build()
    fp = full_fingerprint(plain, plain.run())
    assert plain.batch_stats["la_windows"] > 0
    assert plain.stand_downs["tapped"] == 0

    traced = _build()
    rec = MemTraceRecorder.attach(traced)
    path = str(tmp_path / "ck.pkl")
    both = _build(checkpoint_path=path, checkpoint_interval=2_000)
    rec_both = MemTraceRecorder.attach(both)
    for eng in (traced, both):
        assert full_fingerprint(eng, eng.run()) == fp
        assert eng.stand_downs["tapped"] > 0
        assert eng.batch_stats["la_windows"] == 0
        assert set(eng.stand_downs) == set(STAND_DOWNS)
        assert not set(STAND_DOWNS) & set(eng.batch_stats)
    assert both._ckpt.saves > 0
    assert rec.records == rec_both.records and len(rec) == plain.memsys.accesses
    ck = load_checkpoint(path)
    assert "stand_downs" not in ck and "stand_downs" not in ck["snapshot"]


def test_stand_downs_on_a_sampled_run():
    """Windows open in detail phases and are denied, by name, inside
    fast-forward ones; the sampled result does not depend on asking."""
    sc = SamplingConfig(detail_events=1_000, ff_events=2_000)
    eng = _build(WORKLOADS["dss"], sampling=sc)
    fp = full_fingerprint(eng, eng.run())
    assert eng.stand_downs["fast_forward"] > 0
    assert eng.stand_downs["tapped"] == 0
    strict = _build(WORKLOADS["dss"], sampling=sc, lookahead=False)
    assert full_fingerprint(strict, strict.run()) == fp
    assert not any(strict.stand_downs.values())


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
