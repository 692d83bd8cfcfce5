"""Cost guard: capturing a protocol's state is copies, not a per-line loop.

An autosave calls ``state_dict()`` on every state owner; the rule (DESIGN.md,
"Checkpoint/restore") is that owners hold plain ints/containers so the
capture is a handful of C-level container copies whose *count* does not
depend on how much state there is. Counted here with ``sys.setprofile``
(Python ``call`` + C ``c_call`` events): the same number of events with
2 000 and with 20 000 tracked lines, for ``state_dict`` and ``load_state``
of each NUMA protocol. A per-entry ``sorted()`` / constructor / method call
shows up as tens of thousands of extra events.
"""

import sys

import pytest

from tests.test_protocol_ops import LINE_SIZE, NCPUS, PAGE_SIZE, build

PROTOCOLS = ("directory", "coma", "dsm")


def _events(fn):
    """Profiler events (function calls, Python and C) made by ``fn()``."""
    count = [0]

    def hook(_frame, event, _arg):
        if event in ("call", "c_call"):
            count[0] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count[0]


def _tracking(proto, nlines):
    """A protocol tracking ``nlines`` lines (DSM: pages), a third of them
    dirty, shared by varying CPU sets."""
    p, _caches = build(proto, 2)
    stride = PAGE_SIZE // LINE_SIZE if proto == "dsm" else 1
    for i in range(nlines):
        line = i * stride
        p.read_miss(i % NCPUS, line, i)
        if i % 2:
            p.read_miss((i + 3) % NCPUS, line, i)
        if i % 3 == 0:
            p.write_miss((i + 5) % NCPUS, line, i)
    return p


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_state_dict_cost_independent_of_tracked_lines(proto):
    small, large = _tracking(proto, 2_000), _tracking(proto, 20_000)
    tables = [v for v in large.state_dict().values()
              if isinstance(v, dict) and len(v) >= 6_000]
    assert tables, "the large protocol does not track 10x the state"
    assert _events(small.state_dict) == _events(large.state_dict)


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_load_state_cost_independent_of_tracked_lines(proto):
    small, large = _tracking(proto, 2_000), _tracking(proto, 20_000)
    snap_small, snap_large = small.state_dict(), large.state_dict()
    fresh_small, _ = build(proto, 2)
    fresh_large, _ = build(proto, 2)
    # same network links exist on both sides before loading
    fresh_small.load_state(snap_small)
    fresh_large.load_state(snap_small)
    assert (_events(lambda: fresh_small.load_state(snap_small))
            == _events(lambda: fresh_large.load_state(snap_large)))
    assert fresh_large.state_dict() == snap_large
