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

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")


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
    "CheckpointManager": ("repro.checkpoint.manager", "CheckpointManager"),
    "SegmentLog": ("repro.core.framing", "SegmentLog"),
    "JobSpool": ("repro.service.spool", "JobSpool"),
    "JobRunner": ("repro.service.runner", "JobRunner"),
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
        with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for clsname, member in pattern.findall(line):
                    modname, attr = _CLASSES[clsname]
                    cls = getattr(importlib.import_module(modname), attr)
                    if not _has_member(cls, member):
                        missing.append(f"{doc}:{lineno}: {clsname}.{member}")
    assert not missing, "\n".join(missing)


def _sections(path: str, heading: str):
    """``(lineno, line)`` of every section of ``path`` whose heading matches
    ``heading``, up to the next heading of its level or above."""
    level = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            m = re.match(r"(#+) ", line)
            if m and (level is None or len(m.group(1)) <= level):
                level = (len(m.group(1)) if re.search(heading, line, re.I)
                         else None)
            if level is not None:
                yield lineno, line


#: the modules whose module-level names the docs call qualified
_MODULES = {"repro.checkpoint": "repro.checkpoint",
            "repro.core.framing": "repro.core.framing",
            "framing": "repro.core.framing"}


def _unknown_names(heading: str) -> list:
    """``doc:line: name`` for every backticked snake_case name (``name`` or
    ``name(...)``) in the sections of DESIGN.md and README.md whose heading
    matches ``heading`` that occurs nowhere in the tree's code (src, tests,
    benchmarks)."""
    code = set()
    for top in ("src", "tests", "benchmarks"):
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8") as fh:
                        code.update(re.findall(r"\w+", fh.read()))
    bare = re.compile(r"`(\w+)(?:\([^`]*\))?`")
    missing = []
    for doc in ("DESIGN.md", "README.md"):
        for lineno, line in _sections(os.path.join(ROOT, doc), heading):
            for name in bare.findall(line):
                if "_" in name.strip("_") and name not in code:
                    missing.append(f"{doc}:{lineno}: {name}")
    return missing


def test_durable_log_names_in_the_docs_exist():
    """In the checkpoint, durability and spool sections of DESIGN.md and
    README.md, every backticked snake_case name (``name`` or
    ``name(...)``) occurs in the tree's code, and every
    ``repro.checkpoint.name`` / ``framing.name`` is a module-level name of
    ``repro.checkpoint`` / ``repro.core.framing``: a deleted function of
    the durable log fails here until the sentence is rewritten."""
    missing = _unknown_names(r"checkpoint|durab|spool")
    qualified = re.compile(r"`(%s)\.(\w+)" % "|".join(
        re.escape(m) for m in sorted(_MODULES, key=len, reverse=True)))
    for doc in ("DESIGN.md", "README.md"):
        with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for mod, name in qualified.findall(line):
                    if not hasattr(importlib.import_module(_MODULES[mod]),
                                   name):
                        missing.append(f"{doc}:{lineno}: {mod}.{name}")
    assert not missing, "\n".join(missing)


def test_memory_system_names_in_the_docs_exist():
    """The same for the memory-system sections of DESIGN.md (the L1 probe
    and the miss kernel, the batch classification cache): a deleted
    function, counter or field of the memory path fails here until the
    sentence is rewritten."""
    missing = _unknown_names(r"fast-path filter|classification cache")
    assert not missing, "\n".join(missing)
