"""Misra-Gries top-k [33], weighted variant — the fast-path baseline.

This is ``MGFastPath`` in the paper's evaluation: when the table is full
and a new flow arrives, the *minimum* residual is subtracted from every
entry — enough to evict exactly the smallest flow(s) — so nearly every
new small flow triggers a full O(k) pass (Figure 16a shows an order of
magnitude more kick-outs than SketchVisor's fast path).

Error characteristics: every flow shares the worst-case bound
``V / (k+1)``; per-flow bounds are ``r <= v <= r + D`` with ``D`` the
global decrement sum, which is much looser than the three-counter
per-flow bounds of Algorithm 1 (Figure 16b).

The table is :class:`~repro.fastpath.topk.TopKTable`'s columns; only
``r`` is used (``e`` and ``d`` stay 0), and ``D`` is the table's
``total_decremented``.
"""

from __future__ import annotations

from repro.common.flow import FlowKey
from repro.fastpath.topk import TopKTable, UpdateKind


class MisraGriesTopK(TopKTable):
    """Weighted Misra-Gries tracker over the shared top-k columns.

    Parameters
    ----------
    memory_bytes:
        Memory budget; sized with the same 40-byte entries as FastPath
        for an apples-to-apples comparison (the extra two counters of
        Algorithm 1 are charged to it, not to Misra-Gries).
    """

    def miss(self, flow: FlowKey, value: int) -> UpdateKind:
        if self.free:
            self._append(flow, 0.0, float(value), 0.0)
            self.num_inserts += 1
            return UpdateKind.INSERT

        # Full: subtract the minimum counter from every entry and evict
        # exactly ONE flow — the textbook Misra-Gries step the paper
        # contrasts with: "it performs O(k) operations to update k
        # counters ... for kicking out each flow" (§4.1).  Flows tied at
        # the minimum leave one at a time over subsequent passes, in
        # insertion order, which is precisely the per-flow O(k) cost
        # SketchVisor amortizes.
        self.num_kickouts += 1
        r = self.r
        decrement = min(float(r.min()), float(value))
        r -= decrement
        order = self._ordered()
        dead = order[r[order] <= 0.0]
        if dead.size:
            self._release([int(dead[0])])
            remaining = float(value) - decrement
            if remaining > 0:
                self._append(flow, 0.0, remaining, 0.0)
        self.total_decremented += decrement
        return UpdateKind.KICKOUT

    # ------------------------------------------------------------------
    def bounds(self) -> dict[FlowKey, tuple[float, float]]:
        """Per-flow bounds: ``r <= v <= r + D`` (shared upper slack)."""
        slack = self.total_decremented
        return {flow: (r, r + slack) for flow, _e, r, _d in self.rows()}

    def estimates(self) -> dict[FlowKey, float]:
        return {flow: r for flow, _e, r, _d in self.rows()}
