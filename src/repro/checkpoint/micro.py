"""The worker-side undo log of a speculative lease tail.

``host/parallel._drain_lease`` times a worker's references against a
throwaway copy of its CPU's L1 slice (the lease mirror). A speculative tail
past the granted window must be undoable, so instead of snapshotting the
mirror :class:`SpecOverlay` *redirects* the tail's mutations (copy-on-touch
LRU lists, an E->M flip overlay) and buffers the tail's raw references.
Rollback is then simply dropping the overlay and re-streaming the buffered
references as ordinary fire-and-forget events; commit ships the overlay as
the second half of the ``"pr"`` fold.

A fast-path hit mutates only the issuing CPU's L1 line states (EXCLUSIVE ->
MODIFIED flips, mirrored into its inclusive L2), its per-set LRU orders and
commutative hit/access counters — which is all the overlay has to carry.
"""

from __future__ import annotations

__all__ = ["SpecOverlay"]


class SpecOverlay:
    """Worker-side undo log for a speculative lease tail.

    Reads go through the overlay (falling back to the committed mirror);
    writes land only in the overlay. ``refs`` buffers each speculated
    reference ``(kind, addr, size, delta)`` so a rollback can re-stream
    them for authoritative timing.
    """

    __slots__ = ("states", "sets", "refs", "n_mem", "n_adv", "n_lines",
                 "last_issue")

    def __init__(self) -> None:
        #: line -> speculated state (E->M flips only; lines never move)
        self.states: dict = {}
        #: set index -> private copy of the LRU list (copy-on-touch)
        self.sets: dict = {}
        #: buffered tail references, in stream order
        self.refs: list = []
        self.n_mem = 0
        self.n_adv = 0
        self.n_lines = 0
        self.last_issue = 0

    def set_list(self, idx: int, base_sets: list) -> list:
        """The private LRU list for ``idx``, copied from the committed
        mirror on first touch."""
        s = self.sets.get(idx)
        if s is None:
            s = list(base_sets[idx])
            self.sets[idx] = s
        return s

    def payload(self, advance: int) -> tuple:
        """The speculative half of the ``"pr"`` message."""
        return (self.n_mem, self.n_adv, self.n_lines, advance,
                self.last_issue, self.sets, sorted(self.states))
