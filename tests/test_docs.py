"""The docs describe the tree: checks that hold README.md to the code."""

from __future__ import annotations

import os
import re
from dataclasses import fields
from itertools import takewhile

from repro.core.config import SimConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _table_after(text: str, header: str) -> list:
    """First-column names of the markdown table whose header row is
    ``header``."""
    rows = text.split(header, 1)[1].strip().splitlines()[1:]
    return [re.match(r"\| `(\w+)`", row).group(1)
            for row in takewhile(lambda r: r.startswith("|"), rows)]


def test_knob_table_is_the_host_policy():
    """README's knob table lists exactly the ``SimConfig`` fields marked
    host policy, in declaration order: what is not part of a checkpoint's
    identity."""
    with open(README, encoding="utf-8") as fh:
        table = _table_after(fh.read(), "| knob | default | governs |")
    marked = [f.name for f in fields(SimConfig)
              if f.metadata.get("host_policy")]
    assert table == marked == ["fastpath", "watchdog_rounds",
                               "checkpoint_path", "checkpoint_interval"]
