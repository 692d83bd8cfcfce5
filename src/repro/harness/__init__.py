"""Experiment harness: profile decomposition (Table 1), slowdown
measurement (Tables 2–3), and ASCII table rendering for the benches."""

from .profile import (ProfileRow, checkpoint_summary, fastpath_summary,
                      profile_row, sampling_summary, top_oscall_table,
                      translate_summary, vec_summary)
from .slowdown import SlowdownResult, measure_slowdown
from .tables import render_table
from .hostmodel import (HostCosts, HostPrediction, measure_context_switch,
                        predict)

__all__ = [
    "ProfileRow",
    "fastpath_summary",
    "translate_summary",
    "vec_summary",
    "sampling_summary",
    "checkpoint_summary",
    "profile_row",
    "top_oscall_table",
    "SlowdownResult",
    "measure_slowdown",
    "render_table",
    "HostCosts",
    "HostPrediction",
    "measure_context_switch",
    "predict",
]
