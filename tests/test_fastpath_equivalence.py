"""Bit-identity of the batched pipeline and of the L1 probe.

Batching (SimConfig.fastpath) is a pure host-side optimisation and the L1
probe is the memory model itself: batched delivery must produce *exactly*
the result of the one-event-per-reference path, memory trace included, and
both that of a run whose every reference is serviced by the miss kernel
(the ``probe_off`` mode), on every workload class the paper studies (OLTP,
DSS, webserver, SPLASH kernel). The comparisons are
:func:`tests.equivalence.check`'s; this module adds what the mechanism
must have done to get there.
"""

from __future__ import annotations

import pytest

from repro.harness import fastpath_summary

from tests.equivalence import (BATCHING, DEFAULT, STRICT, WORKLOADS, check,
                               simulate)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fastpath_bit_identical(name):
    """Tapped, no window opens and the vec path stands down: ``STRICT``
    is ``DEFAULT`` with batches unpublished."""
    on, off = (r.counters for r in check(name, [DEFAULT, STRICT], "tapped"))
    # the fast run actually exercised the mechanisms...
    assert on["fast_hits"] > 0
    if name in BATCHING:
        assert on["batch_stats"]["refs"] > 0
        assert on["batch_stats"]["batches"] > 0
    # ...and the reference run stayed on the per-event path, where the
    # probe answers what the miss kernel alone would have
    assert off["batch_stats"]["refs"] == off["batch_stats"]["batches"] == 0
    miss, = check(name, [STRICT], "probe_off")
    assert off["fast_hits"] > 0 == miss.counters["fast_hits"]


@pytest.mark.parametrize("name", sorted(BATCHING))
def test_fastpath_untapped_inline_loop_identical(name):
    """Without a memtrace tap, access_run inlines the L1 filter (the
    hottest loop); that branch must be bit-identical too."""
    on, _ = check(name, [DEFAULT, STRICT])
    assert on.counters["fast_hits"] > 0
    assert on.counters["batch_stats"]["refs"] > 0


def test_fastpath_summary_shape():
    _, eng = simulate("dss")
    s = fastpath_summary(eng)
    assert s["fast_hits"] > 0
    assert 0.0 < s["fast_hit_rate"] <= 1.0
    assert s["batch_refs"] == eng.batch_stats["refs"]
    assert s["refs_per_batch"] > 1.0
    assert s["events_processed"] == eng.events_processed
