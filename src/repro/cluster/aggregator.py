"""The aggregator tier: each aggregator folds its group before recovery.

Sketches are *linear* — counter matrices that merge by addition — so
per-host reports need not all reach the controller before merging can
start.  Each :class:`Aggregator` runs the controller's own
:class:`~repro.controlplane.merge.MergeFold` over its group's reports
the moment they arrive.  A report arrives as its frame, and the fold
lands the frame's sparse sections straight in the running merge, so
the merge is the one dense sketch an aggregator holds.  The
controller then folds the A partial aggregates and runs LENS recovery
*once*, exactly as it would over raw reports.

This is what makes a 500–1000-host epoch complete in bounded memory:
the tier keeps O(A) dense sketches where collecting every report
first would keep O(N) — the "recovery-aware hierarchical merging"
shape of Distributed Recoverable Sketches (see PAPERS.md), with
SketchVisor's single network-wide recovery at the root.  Because the
fold is the same at both tiers and orders its fast-path entries by
flow key, the root's merged state is the in-process controller's, bit
for bit, whatever the socket arrival order.

Hosts are placed on aggregators by rendezvous hashing (below).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.controlplane.merge import MergeFold, PartialAggregate
from repro.controlplane.transport import SparseSection
from repro.dataplane.host import LocalReport
from repro.sketches.base import Sketch


class Aggregator(MergeFold):
    """One aggregator: folds its group's reports as they arrive."""

    def __init__(self, aggregator_id: int):
        super().__init__()
        self.aggregator_id = aggregator_id
        #: Most dense sketches this aggregator built and held at once:
        #: the running merge, plus a report's own when its frame had to
        #: be decoded whole — the bounded-memory invariant the cluster
        #: tests gate on.
        self.peak_resident = 0

    def _sketch_of(self, report: LocalReport) -> Sketch:
        sketch = super()._sketch_of(report)
        decoded_whole = report.frame is not None and not any(
            isinstance(source, SparseSection)
            for source, _op in sketch.fold_buffers()
        )
        self.peak_resident = max(self.peak_resident, 1 + decoded_whole)
        return sketch

    def finish(self) -> PartialAggregate | None:
        """Hand over the group's partial, or ``None`` when no report
        arrived (or it was already handed over).  The aggregator keeps
        nothing of it: the partial is then the only holder."""
        return super().finish() if self.host_ids else None


_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def _mix64(value: int) -> int:
    """64-bit finalizer (murmur3's) — full avalanche, so per-pair
    weights behave like independent uniform draws."""
    value &= _MASK64
    value ^= value >> 33
    value = (value * 0xFF51_AFD7_ED55_8CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CE_B9FE_1A85_EC53) & _MASK64
    value ^= value >> 33
    return value


def rendezvous_weight(host_id: int, aggregator_id: int) -> int:
    """The seeded 64-bit weight of placing ``host_id`` on
    ``aggregator_id`` — a pure function of the pair."""
    return _mix64(
        ((host_id & 0xFFFF_FFFF) << 32) | (aggregator_id & 0xFFFF_FFFF)
    )


def rendezvous_aggregator(
    host_id: int, candidates: Iterable[int]
) -> int | None:
    """Highest-random-weight (rendezvous) choice among ``candidates``.

    The property fail-over rests on: removing an aggregator from the
    candidate set only re-homes the hosts that were *on* it — every
    other host keeps its placement, because each (host, aggregator)
    weight is independent of the set.  Modulo placement has no such
    stability: shrinking the divisor reshuffles nearly everyone.

    Ties (already ~2^-64) break toward the lowest aggregator id.
    Returns ``None`` when no candidate survives.
    """
    best: int | None = None
    best_weight = -1
    for aggregator_id in sorted(candidates):
        weight = rendezvous_weight(host_id, aggregator_id)
        if weight > best_weight:
            best = aggregator_id
            best_weight = weight
    return best


def assign_aggregator(host_id: int, num_aggregators: int) -> int:
    """Deterministic host → aggregator placement over a full tier of
    ``num_aggregators`` (rendezvous hashing; degenerate tiers of zero
    or one aggregator always place on 0)."""
    if num_aggregators <= 1:
        return 0
    choice = rendezvous_aggregator(host_id, range(num_aggregators))
    return 0 if choice is None else choice
