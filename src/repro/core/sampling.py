"""Checkpoint-based sampled simulation (SimConfig.sampling).

SMARTS/gem5-style windowing for the engine: run ``detail_events`` in full
detail, then ``ff_events`` in functional fast-forward (the ff arm of
``MemorySystem.access``: translation + cache warming, constant calibrated
latency, no protocol/interconnect modeling), and repeat. A fast-forward
window's batches go through the memory system's per-reference loop, as a
tapped run's do, so attaching a memtrace recorder or setting
``checkpoint_path`` leaves the sampled result unchanged. Window boundaries
are counted in processed events, so the schedule — and therefore the whole
sampled run — is deterministic for a given workload.

Calibration: unless ``ff_latency`` pins a constant, each fast-forward window
charges the mean reference latency measured over the preceding detail
window (slow-path latency from ``lat_slow`` plus one L1 hit time per
fast-path hit), with the fractional part spread by a deterministic error
accumulator. Commercial workloads' phase behaviour makes this a good local
predictor; the error-bound tests in tests/test_sampling.py and the
EXPERIMENTS.md table quantify it.

Checkpoint composition: with ``checkpoint_windows`` on (requires the
checkpoint subsystem), a snapshot is saved at every fast-forward -> detail
transition under ``<checkpoint_path>.w<N>``, so any detail window can be
re-run or inspected from its exact start state with
``repro.checkpoint.resume``. During checkpoint *replay* the controller
stands down — the reply log already encodes every latency the recorded run
saw, ff windows included.
"""

from __future__ import annotations

from typing import List


class SamplingController:
    """Flips the memory system between detail and fast-forward windows."""

    def __init__(self, engine, cfg) -> None:
        self.engine = engine
        self.cfg = cfg
        #: per-window log: kind, start event/cycle, calibrated latency
        self.windows: List[dict] = []
        self.in_ff = False
        self._next_switch = cfg.detail_events
        self._win_idx = 0
        self._mark = (0, 0, 0)      # (accesses, lat_slow, fast_hits)
        self.windows.append({"window": 0, "kind": "detail",
                             "start_events": 0, "start_cycle": 0})

    # -- calibration -------------------------------------------------------

    def _calibrate(self, ms) -> float:
        if self.cfg.ff_latency > 0:
            return float(self.cfg.ff_latency)
        a0, s0, f0 = self._mark
        refs = ms.accesses - a0
        if refs <= 0:
            return float(ms._l1_latency)
        lat = (ms.lat_slow - s0) + (ms.fast_hits - f0) * ms._l1_latency
        return lat / refs

    # -- the engine hook ---------------------------------------------------

    def on_loop_top(self, engine) -> None:
        if engine.events_processed < self._next_switch:
            return
        ck = engine._ckpt
        if ck is not None and ck.mode != "record":
            # replaying: recorded replies already carry the sampled timing
            return
        ms = engine.memsys
        if not self.in_ff:
            if self.cfg.ff_events <= 0:
                self._next_switch = 1 << 62
                return
            mean = self._calibrate(ms)
            ms.ff_begin(mean)
            self.in_ff = True
            self.windows.append({
                "window": self._win_idx, "kind": "ff",
                "start_events": engine.events_processed,
                "start_cycle": engine.gsched.now,
                "ff_latency": mean,
            })
            self._next_switch = (engine.events_processed
                                 + self.cfg.ff_events)
        else:
            ms.ff_end()
            self.in_ff = False
            self._win_idx += 1
            self._mark = (ms.accesses, ms.lat_slow, ms.fast_hits)
            self.windows.append({
                "window": self._win_idx, "kind": "detail",
                "start_events": engine.events_processed,
                "start_cycle": engine.gsched.now,
            })
            self._next_switch = (engine.events_processed
                                 + self.cfg.detail_events)
            # saved last: the snapshot must carry the new window's schedule
            # for a resume from this file to continue bit-identically
            if self.cfg.checkpoint_windows and ck is not None:
                ck.save(path=f"{ck.path}.w{self._win_idx}")

    # -- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> dict:
        """The window schedule position (replay stands down, so a resumed
        run must restore this rather than re-deriving it)."""
        return {
            "windows": [dict(w) for w in self.windows],
            "in_ff": self.in_ff,
            "next_switch": self._next_switch,
            "win_idx": self._win_idx,
            "mark": tuple(self._mark),
        }

    def load_state(self, state: dict) -> None:
        self.windows = [dict(w) for w in state["windows"]]
        self.in_ff = state["in_ff"]
        self._next_switch = state["next_switch"]
        self._win_idx = state["win_idx"]
        self._mark = tuple(state["mark"])

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        ms = self.engine.memsys
        detail = sum(1 for w in self.windows if w["kind"] == "detail")
        ff = sum(1 for w in self.windows if w["kind"] == "ff")
        return {
            "detail_windows": detail,
            "ff_windows": ff,
            "ff_refs": ms.ff_refs,
            "detail_refs": ms.accesses - ms.ff_refs,
            "ff_latencies": [w["ff_latency"] for w in self.windows
                             if w["kind"] == "ff"],
        }
