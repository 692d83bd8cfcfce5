"""SPECWeb96-style file set and workload generation.

SPECWeb96's file set has four file classes — roughly 0.1–0.9 KB, 1–9 KB,
10–90 KB and 100–900 KB — hit with weights 35 %, 50 %, 14 % and 1 %, nine
files per class per directory. We reproduce that structure (scaled by
``ndirs`` and an optional ``size_scale`` so simulations stay tractable) and
generate the weighted random request stream the workload generator would
send.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...osim.filesystem import FileSystem, RepeatedBytes
from ...traces.http import HttpRequest

#: SPECWeb96 class access weights
CLASS_WEIGHTS = (0.35, 0.50, 0.14, 0.01)
#: base size (bytes) of class c file i (i in 1..9): i * CLASS_BASE[c]
CLASS_BASE = (102, 1024, 10240, 102400)
FILES_PER_CLASS = 9


@dataclass
class FileSet:
    """Generated file set: path -> size, plus class membership."""

    root: str
    ndirs: int
    size_scale: float
    paths: List[str] = field(default_factory=list)
    sizes: Dict[str, int] = field(default_factory=dict)
    by_class: List[List[str]] = field(default_factory=lambda: [[] for _ in range(4)])

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes.values())


def generate_fileset(fs: FileSystem, ndirs: int = 2, root: str = "/htdocs",
                     size_scale: float = 1.0) -> FileSet:
    """Populate the simulated file system (the SPECWeb file set generator
    run on the server before the test, §4.2)."""
    if ndirs <= 0:
        raise ValueError("ndirs must be positive")
    out = FileSet(root=root, ndirs=ndirs, size_scale=size_scale)
    for d in range(ndirs):
        for cls in range(4):
            for i in range(1, FILES_PER_CLASS + 1):
                size = max(64, int(i * CLASS_BASE[cls] * size_scale))
                path = f"{root}/dir{d}/class{cls}_{i}"
                # deterministic content derived from the path
                fs.create(path, RepeatedBytes(path.encode(), size))
                out.paths.append(path)
                out.sizes[path] = size
                out.by_class[cls].append(path)
    return out


def make_trace(fileset: FileSet, nrequests: int, seed: int = 1,
               think_mean_cycles: int = 200_000) -> List[HttpRequest]:
    """The workload-generator side of SPECWeb96: a weighted random request
    stream with exponential think times, recorded as a trace (§4.2)."""
    rng = random.Random(seed)
    reqs: List[HttpRequest] = []
    classes = list(range(4))
    for _ in range(nrequests):
        cls = rng.choices(classes, weights=CLASS_WEIGHTS)[0]
        path = rng.choice(fileset.by_class[cls])
        think = int(rng.expovariate(1.0 / max(1, think_mean_cycles)))
        reqs.append(HttpRequest(think, path))
    return reqs
