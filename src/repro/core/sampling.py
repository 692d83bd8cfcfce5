"""Checkpoint-based sampled simulation (SimConfig.sampling).

SMARTS/gem5-style windowing: ``detail_cycles`` in full detail, then
``ff_cycles`` in functional fast-forward (the ff arm of
``MemorySystem.access``: translation + cache warming, constant calibrated
latency, no protocol/interconnect modeling), and repeat. Windows sit on a
fixed grid of simulated cycles from 0, and a phase switches at a boundary,
as gem5 ends a phase at a simulated tick: ``Engine.run`` calls
:meth:`SamplingController.cross` before a round whose winner (event or
task) is at or past :attr:`~SamplingController.boundary`, and no batch
reference of a round is consumed at or past it. Every host path serves the
strict schedule's references in its order, so a sampled result is the
strict schedule's on every host path (DESIGN.md "Sampled simulation").

Calibration: unless ``ff_latency`` pins a constant, each fast-forward window
charges the mean reference latency of the preceding detail window
(slow-path latency from ``lat_slow`` plus one L1 hit time per fast-path
hit), the fractional part spread by a deterministic error accumulator.

With ``checkpoint_windows`` on, each fast-forward -> detail transition
saves a snapshot under ``<checkpoint_path>.w<N>``, so any detail window
can be re-run from its start with ``repro.checkpoint.resume``. A replay
puts the boundary out of reach (the reply log holds every latency the
recorded run saw); installing the snapshot restores the schedule.
"""

from __future__ import annotations

from typing import List

#: a boundary no run reaches: ``ff_cycles=0``, and a checkpoint replay
NEVER = 1 << 62


class SamplingController:
    """Flips the memory system between detail and fast-forward windows."""

    def __init__(self, engine, cfg) -> None:
        self.engine = engine
        self.cfg = cfg
        #: per-window log: kind, start event/cycle, calibrated latency
        self.windows: List[dict] = [{"window": 0, "kind": "detail",
                                     "start_events": 0, "start_cycle": 0}]
        self.in_ff = False
        #: the cycle the current window ends at
        self.boundary = cfg.detail_cycles if cfg.ff_cycles > 0 else NEVER
        self._win_idx = 0
        self._mark = (0, 0, 0)      # (accesses, lat_slow, fast_hits)

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

    def cross(self, when: int) -> None:
        """The round's winner is at cycle ``when``, at or past
        :attr:`boundary`: switch phase at every boundary up to ``when``."""
        engine, cfg = self.engine, self.cfg
        ms = engine.memsys
        while when >= self.boundary:
            at = self.boundary
            window = {"window": self._win_idx, "kind": "ff",
                      "start_events": engine.events_processed,
                      "start_cycle": at}
            if self.in_ff:
                ms.ff_end()
                self._win_idx += 1
                self._mark = (ms.accesses, ms.lat_slow, ms.fast_hits)
                window.update(window=self._win_idx, kind="detail")
                self.boundary = at + cfg.detail_cycles
                ck = engine._ckpt
                if cfg.checkpoint_windows and ck is not None:
                    ck.save_window(f"{ck.path}.w{self._win_idx}")
            else:
                window["ff_latency"] = mean = self._calibrate(ms)
                ms.ff_begin(mean)
                self.boundary = at + cfg.ff_cycles
            self.in_ff = not self.in_ff
            self.windows.append(window)

    # -- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> dict:
        """The window schedule position (replay stands the sampler down,
        so a resumed run must restore this rather than re-deriving it)."""
        return {
            "windows": [dict(w) for w in self.windows],
            "in_ff": self.in_ff,
            "boundary": self.boundary,
            "win_idx": self._win_idx,
            "mark": tuple(self._mark),
        }

    def load_state(self, state: dict) -> None:
        self.windows = [dict(w) for w in state["windows"]]
        self.in_ff = state["in_ff"]
        self.boundary = state["boundary"]
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
