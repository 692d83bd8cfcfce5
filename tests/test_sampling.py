"""Checkpoint-based sampled simulation: determinism, error bounds, windows.

Sampling (``SimConfig.sampling``) is the one speed layer that is *not*
bit-identical: fast-forward windows charge a calibrated constant latency
instead of walking the timing models. The contract tested here is the one
EXPERIMENTS.md documents:

  * a sampled run is exactly as deterministic as a full one (same config
    -> same cycle count, same stats, every time), on every host path: its
    phases switch at simulated cycles, so ``max_events`` segments move
    nothing (the equivalence table's ``sampled`` cells hold the arms, taps,
    resumes and ``ParallelEngine`` to the strict sampled run);
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
                   load_checkpoint, resume)
from repro.core.frontend import SimProcess
from repro.harness import sampling_summary
from repro.service.workloads import full_fingerprint

from tests.equivalence import ARMS, SAMPLED, build, reference, snapshot

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
        SamplingConfig(detail_cycles=0).validate()
    with pytest.raises(ConfigError):
        SamplingConfig(ff_cycles=-1).validate()
    with pytest.raises(ConfigError):
        SamplingConfig(ff_latency=-0.5).validate()


def test_checkpoint_windows_requires_checkpointing():
    with pytest.raises(ConfigError):
        complex_backend(sampling=SamplingConfig(checkpoint_windows=True))


# ---------------------------------------------------------------------------
# determinism and window accounting
# ---------------------------------------------------------------------------

#: the stream's old 2 000 / 18 000-event split, at its 80 cycles an event
STREAM = SamplingConfig(detail_cycles=160_000, ff_cycles=1_440_000)


def test_sampled_run_is_deterministic():
    eng1, st1 = _run_stream(STREAM)
    eng2, st2 = _run_stream(STREAM)
    assert st1.end_cycle == st2.end_cycle
    assert eng1.events_processed == eng2.events_processed
    assert eng1.memsys.cache_summary() == eng2.memsys.cache_summary()
    assert sampling_summary(eng1) == sampling_summary(eng2)


def test_sampling_summary_accounting():
    eng, _ = _run_stream(STREAM)
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


@pytest.mark.parametrize("segment", [1, 997, 2_000])
def test_sampled_result_does_not_depend_on_segments(segment):
    """``run(max_events=...)`` segments of any size land the unsegmented
    strict sampled run, on both arms: a phase switches before the first
    winner at or past its cycle, wherever the loop was cut."""
    for arm in ARMS:
        eng = build("oltp", {**arm, "sampling": SAMPLED})
        while eng._live > 0:
            stats = eng.run(max_events=segment)
        assert snapshot(eng, stats) == reference("oltp", "sampled")


def test_ff_events_zero_never_fast_forwards():
    """``ff_cycles=0``: the run never leaves its first detail window."""
    sc = SamplingConfig(detail_cycles=160_000, ff_cycles=0)
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
    eng_s, st_s = _run_stream(STREAM)
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
    sc = SamplingConfig(detail_cycles=160_000, ff_cycles=1_440_000,
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
    sc = SamplingConfig(detail_cycles=160_000, ff_cycles=1_440_000,
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


def test_window_files_resume_where_tasks_preceded_the_switch(tmp_path):
    """On ``dss`` a phase often switches after backend tasks, which count
    no event, so a window file is saved at the next loop top past the
    switch's event count, where a replay can stop. Resuming from window
    files (latest first: a resume cuts the log at its file's offset) lands
    the uninterrupted run."""
    path = str(tmp_path / "ck")
    cfg = {"sampling": SamplingConfig(detail_cycles=30_000, ff_cycles=20_000,
                                      checkpoint_windows=True),
           "checkpoint_path": path, "checkpoint_interval": 1 << 40}
    eng = build("dss", cfg)
    ref = full_fingerprint(eng, eng.run())
    snaps = sorted(glob.glob(path + ".w*"),
                   key=lambda p: int(p[len(path) + 2:]))
    assert len(snaps) > 20
    for snap in snaps[::-8]:
        eng, stats = resume(snap, lambda: build("dss", cfg))
        assert full_fingerprint(eng, stats) == ref
