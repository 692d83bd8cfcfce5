"""The docs describe the tree: checks that hold README.md and DESIGN.md to
the code."""

from __future__ import annotations

import importlib
import inspect
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


#: the classes whose ``Class.member`` mentions the docs are held to
_CLASSES = {
    "Engine": ("repro.core.engine", "Engine"),
    "Communicator": ("repro.core.communicator", "Communicator"),
    "CpuState": ("repro.core.communicator", "CpuState"),
    "ProcessScheduler": ("repro.osim.schedulers", "ProcessScheduler"),
    "MemorySystem": ("repro.mem.hierarchy", "MemorySystem"),
    "VecState": ("repro.mem.vec", "VecState"),
    "ParallelEngine": ("repro.host.parallel", "ParallelEngine"),
}


def _has_member(cls, name: str) -> bool:
    """``name`` is a class attribute (method, property, slot) or an
    instance attribute some class in the MRO assigns as ``self.name``."""
    if hasattr(cls, name):
        return True
    assign = re.compile(rf"\bself\.{re.escape(name)}\s*(:[^=]*)?=[^=]")
    return any(assign.search(inspect.getsource(k))
               for k in cls.__mro__ if k.__module__.startswith("repro"))


def test_class_members_named_in_the_docs_exist():
    """Every backticked ``Class.member`` in DESIGN.md and README.md names a
    member the class has, for the engine's core classes: a deleted or
    renamed member fails here until the sentence is rewritten."""
    pattern = re.compile(r"`(%s)\.(\w+)" % "|".join(_CLASSES))
    missing = []
    for doc in ("DESIGN.md", "README.md"):
        path = os.path.join(os.path.dirname(__file__), os.pardir, doc)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for clsname, member in pattern.findall(line):
                    modname, attr = _CLASSES[clsname]
                    cls = getattr(importlib.import_module(modname), attr)
                    if not _has_member(cls, member):
                        missing.append(f"{doc}:{lineno}: {clsname}.{member}")
    assert not missing, "\n".join(missing)
