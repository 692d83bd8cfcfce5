"""The worker-side undo log of a speculative lease tail
(:class:`~repro.checkpoint.SpecOverlay`): mutations land in the overlay,
never in the committed lease mirror, and the commit payload is
deterministic."""

from __future__ import annotations

from repro.checkpoint import SpecOverlay


def test_overlay_copy_on_touch():
    base = [[10, 11], [20], []]
    ov = SpecOverlay()
    s = ov.set_list(0, base)
    assert s == [10, 11] and s is not base[0]
    s.append(12)
    assert base[0] == [10, 11]          # committed mirror never written
    assert ov.set_list(0, base) is s    # stable private copy


def test_overlay_payload_shape():
    ov = SpecOverlay()
    ov.states[5] = 3
    ov.states[2] = 3
    ov.set_list(1, [[9], [5, 2]])
    ov.n_mem, ov.n_adv, ov.n_lines, ov.last_issue = 4, 1, 2, 777
    n_mem, n_adv, n_lines, advance, last_issue, sets, flips = ov.payload(42)
    assert (n_mem, n_adv, n_lines, advance, last_issue) == (4, 1, 2, 42, 777)
    assert flips == [2, 5]              # sorted for deterministic folds
    assert sets == {1: [5, 2]}
