"""Checkpoint-based sampled simulation: determinism, error bounds, windows.

Sampling (``SimConfig.sampling``) is the one speed layer that is *not*
bit-identical: fast-forward windows charge a calibrated constant latency
instead of walking the timing models. The contract tested here is the one
EXPERIMENTS.md documents:

  * a sampled run is exactly as deterministic as a full one (same config
    -> same cycle count, same stats, every time), tapped or not;
  * on the streaming workload class the error vs full detail stays inside
    the documented bounds (cycle count <= 2% relative, L1 miss rate
    <= 2 percentage points absolute);
  * with ``checkpoint_windows`` on, each fast-forward -> detail
    transition leaves a loadable ``.w<N>`` snapshot.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro import (ConfigError, Engine, SamplingConfig, complex_backend,
                   load_checkpoint)
from repro.core.frontend import SimProcess
from repro.harness import sampling_summary
from repro.service.workloads import WORKLOADS, full_fingerprint
from repro.traces.memtrace import MemTraceRecorder

BASE = 0x0001_0000


def _stream_app(nbytes, passes):
    def app(proc):
        for p in range(passes):
            yield from proc.touch(BASE, nbytes, write=(p % 2 == 1),
                                  stride=32)
        return 0
    return app


def _run_stream(sampling, nbytes=1 << 20, passes=4, **cfg_kw):
    SimProcess._next_pid[0] = 1
    eng = Engine(complex_backend(num_cpus=1, num_nodes=2, fastpath=True,
                                 sampling=sampling, **cfg_kw))
    eng.spawn("stream", _stream_app(nbytes, passes))
    stats = eng.run()
    return eng, stats


def _l1_miss_rate(eng):
    cs = eng.memsys.cache_summary()
    hits = sum(v[0] for v in cs["l1"].values())
    misses = sum(v[1] for v in cs["l1"].values())
    return misses / max(1, hits + misses)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_sampling_config_validation():
    SamplingConfig().validate()  # defaults are legal
    with pytest.raises(ConfigError):
        SamplingConfig(detail_events=0).validate()
    with pytest.raises(ConfigError):
        SamplingConfig(ff_events=-1).validate()
    with pytest.raises(ConfigError):
        SamplingConfig(ff_latency=-0.5).validate()


def test_checkpoint_windows_requires_checkpointing():
    with pytest.raises(ConfigError):
        complex_backend(sampling=SamplingConfig(checkpoint_windows=True))


# ---------------------------------------------------------------------------
# determinism and window accounting
# ---------------------------------------------------------------------------

def test_sampled_run_is_deterministic():
    sc = SamplingConfig(detail_events=2_000, ff_events=18_000)
    eng1, st1 = _run_stream(sc)
    eng2, st2 = _run_stream(sc)
    assert st1.end_cycle == st2.end_cycle
    assert eng1.events_processed == eng2.events_processed
    assert eng1.memsys.cache_summary() == eng2.memsys.cache_summary()
    assert sampling_summary(eng1) == sampling_summary(eng2)


def test_sampling_summary_accounting():
    sc = SamplingConfig(detail_events=2_000, ff_events=18_000)
    eng, _ = _run_stream(sc)
    s = sampling_summary(eng)
    assert s["enabled"]
    assert s["ff_windows"] >= 1
    assert s["detail_windows"] == s["ff_windows"] + 1 or \
        s["detail_windows"] == s["ff_windows"]
    assert s["ff_refs"] > 0
    assert s["detail_refs"] > 0
    # calibrated latencies come from real detail windows, so they are
    # positive once the stream is miss-dominated
    assert all(lat > 0 for lat in s["ff_latencies"])
    # sampling off: no controller, no ff refs
    eng_off, _ = _run_stream(None)
    assert sampling_summary(eng_off) == {"enabled": False}
    assert eng_off.memsys.ff_refs == 0


def test_sampled_result_does_not_depend_on_a_tap(tmp_path):
    """Fast-forward has one model: a fast-forward window's batches go
    through the per-reference loop whether or not a tap is attached, so a
    sampled run lands one result plain, under a memtrace recorder, and
    with checkpointing on (whose recorder is a tap too)."""
    sc = SamplingConfig(detail_events=1_000, ff_events=2_000)

    def run(tap):
        SimProcess._next_pid[0] = 1
        ck = ({"checkpoint_path": str(tmp_path / "ck.pkl"),
               "checkpoint_interval": 10_000}
              if tap == "checkpoint" else {})
        eng = WORKLOADS["dss"](
            lambda **kw: complex_backend(sampling=sc, **ck, **kw),
            scale=0.001, nagents=2, pool_frames=64)
        if tap == "memtrace":
            MemTraceRecorder.attach(eng)
        return full_fingerprint(eng, eng.run()), sampling_summary(eng)

    plain = run(None)
    assert plain[1]["ff_refs"] > 0
    assert run("memtrace") == plain
    assert run("checkpoint") == plain


def test_ff_events_zero_never_fast_forwards():
    sc = SamplingConfig(detail_events=2_000, ff_events=0)
    eng, st = _run_stream(sc)
    eng_full, st_full = _run_stream(None)
    # degenerate schedule: all detail — must be *identical* to unsampled
    assert st.end_cycle == st_full.end_cycle
    assert eng.memsys.ff_refs == 0
    assert eng.memsys.cache_summary() == eng_full.memsys.cache_summary()


# ---------------------------------------------------------------------------
# error bounds (the documented contract; see EXPERIMENTS.md)
# ---------------------------------------------------------------------------

def test_sampling_error_within_documented_bounds():
    sc = SamplingConfig(detail_events=2_000, ff_events=18_000)
    eng_s, st_s = _run_stream(sc)
    eng_f, st_f = _run_stream(None)
    cyc_err = abs(st_s.end_cycle - st_f.end_cycle) / st_f.end_cycle
    miss_err = abs(_l1_miss_rate(eng_s) - _l1_miss_rate(eng_f))
    assert cyc_err <= 0.02, f"cycle error {cyc_err:.4f} > 2%"
    assert miss_err <= 0.02, f"miss-rate error {miss_err:.4f} > 2pp"
    # the sampled run must actually have fast-forwarded most references
    assert eng_s.memsys.ff_refs > eng_s.memsys.accesses // 2


def test_explicit_ff_latency_skips_calibration():
    # with a user-pinned latency the controller never needs a preceding
    # detail window mean; the schedule still alternates
    sc = SamplingConfig(detail_events=2_000, ff_events=18_000,
                        ff_latency=9.0)
    eng, _ = _run_stream(sc)
    s = sampling_summary(eng)
    assert s["ff_refs"] > 0
    assert all(lat == 9.0 for lat in s["ff_latencies"])


# ---------------------------------------------------------------------------
# checkpoint windows
# ---------------------------------------------------------------------------

def test_checkpoint_windows_snapshots(tmp_path):
    path = str(tmp_path / "run.ckpt")
    sc = SamplingConfig(detail_events=2_000, ff_events=18_000,
                        checkpoint_windows=True)
    eng, _ = _run_stream(sc, checkpoint_path=path,
                         checkpoint_interval=1 << 60)
    s = sampling_summary(eng)
    snaps = sorted(glob.glob(path + ".w*"))
    # one snapshot per completed ff -> detail transition
    assert len(snaps) == s["detail_windows"] - 1 >= 1
    for p in snaps:
        ckpt = load_checkpoint(p)
        assert ckpt["version"]
        assert os.path.getsize(p) > 0
