"""Space-Saving top-k (Metwally et al.) — an alternative fast path.

Not part of the paper, but the third classic counter-based top-k next
to Misra-Gries [33] and lossy counting [15]; implemented to ablate the
paper's fast-path choice.  On a miss with a full table, Space-Saving
*replaces* the minimum entry, crediting the newcomer with the evictee's
counter — one O(k) scan for the minimum per takeover, and a per-flow
overestimation error equal to the inherited counter.

The table is :class:`~repro.fastpath.topk.TopKTable`'s columns: ``r``
is the estimated count and ``e`` the inherited error (``d`` stays 0).
"""

from __future__ import annotations

from repro.common.flow import FlowKey
from repro.fastpath.topk import TopKTable, UpdateKind


class SpaceSavingTopK(TopKTable):
    """Space-Saving tracker over flows, byte-weighted.

    Parameters
    ----------
    memory_bytes:
        Budget; entries cost the same 40 bytes as the other trackers.
    """

    def miss(self, flow: FlowKey, value: int) -> UpdateKind:
        if self.free:
            self._append(flow, 0.0, float(value), 0.0)
            self.num_inserts += 1
            return UpdateKind.INSERT

        # Take over the first minimum entry in insertion order (the
        # Space-Saving step); the newcomer goes to the end of the order.
        self.num_kickouts += 1
        order = self._ordered()
        victim = int(order[self.r[order].argmin()])
        inherited = float(self.r[victim])
        self._release([victim])
        self._append(flow, inherited, inherited + value, 0.0)
        return UpdateKind.KICKOUT

    # ------------------------------------------------------------------
    def bounds(self) -> dict[FlowKey, tuple[float, float]]:
        """Per-flow bounds: ``count - error <= v <= count``.

        Space-Saving overestimates: the inherited counter may contain
        other flows' bytes.
        """
        return {flow: (r - e, r) for flow, e, r, _d in self.rows()}

    def estimates(self) -> dict[FlowKey, float]:
        return {flow: r for flow, _e, r, _d in self.rows()}

    def error_bound(self) -> float:
        """Classic Space-Saving guarantee: error <= V / k."""
        return self.total_bytes / self.capacity
