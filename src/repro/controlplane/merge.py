"""Merging local results into global views (§5.1).

Sketches merge by counter-wise (matrix) addition; fast-path hash tables
merge by union.  Hosts monitor disjoint flow sets (§3.1), so a flow
normally appears in at most one table; if partitioning ever double-sees
a flow, its counters add (``e`` bounds add conservatively).

That merge is written once, as :class:`MergeFold`, and every tier runs
it: a multi-core host over its cores, each cluster aggregator over its
group's reports, and the controller over host reports or aggregator
partials.  Sketch cells, ``V`` and the operation counters are integer
sums, exact in any grouping.  ``E`` sums fractional kick-out
thresholds, so a partial carries its inputs' ``E`` summands and the
fold takes their correctly rounded sum (``math.fsum``), which no
grouping moves.  Fast-path tables are columns in 104-bit key order,
and the fold unions two by :meth:`FastPathSnapshot.from_columns` over
their concatenation.  So recovery sees the same inputs in the same
order whichever tiers folded them and in whatever order reports
arrived.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.common.errors import MergeError
from repro.dataplane.host import LocalReport
from repro.fastpath.topk import FastPathSnapshot
from repro.sketches.base import Sketch

#: The snapshot's integer scalars (``V`` and the operation counters);
#: each merges by addition.  ``E`` merges by :func:`math.fsum`.
_SNAPSHOT_SUMS = tuple(
    f.name
    for f in fields(FastPathSnapshot)
    if f.name not in (*FastPathSnapshot.COLUMNS, "total_decremented")
)


@dataclass
class PartialAggregate:
    """What a :class:`MergeFold` folded: the merged sketch, the merged
    fast-path snapshot (``None`` when no input carried one), the sorted
    ids of the hosts behind them and the ``E`` of each snapshot folded
    in (``decrements``), whose ``fsum`` is the snapshot's ``E``.  It
    folds again like a report (``sketch`` / ``fastpath`` /
    ``host_ids``)."""

    sketch: Sketch | None
    fastpath: FastPathSnapshot | None
    host_ids: tuple[int, ...]
    decrements: tuple[float, ...]


class MergeFold:
    """The one merge: fold reports in, one at a time, then
    :meth:`finish`.

    An input is a host report or a :class:`PartialAggregate` — anything
    with ``sketch``, ``fastpath`` and ``host_ids``.  Inputs are not
    modified: the first sketch is cloned empty and every input is added
    into that clone, and each fast-path table folded in makes a new
    running one.  A frame-backed report (``LocalReport.frame``) folds
    from its frame's sparse sections, so its sketch is never built
    dense: the running merge is then the one dense sketch resident.
    """

    def __init__(self) -> None:
        self.sketch: Sketch | None = None
        self.fastpath: FastPathSnapshot | None = None
        self.host_ids: list[int] = []
        self.decrements: list[float] = []

    def add(self, report) -> None:
        """Fold one report (or partial) in."""
        self.add_sketch(self._sketch_of(report))
        self.add_snapshot(
            report.fastpath,
            report.decrements
            if isinstance(report, PartialAggregate)
            else None,
        )
        self.host_ids.extend(report.host_ids)

    @staticmethod
    def _sketch_of(report) -> Sketch:
        """What :meth:`add` folds: a host report's
        :meth:`~repro.dataplane.host.LocalReport.fold_sketch` — for a
        frame-backed one, its sketch with the sparse fold buffers left
        in the frame, which the merge lands at their indices — and a
        partial's sketch as it is."""
        if isinstance(report, LocalReport):
            return report.fold_sketch()
        return report.sketch

    def add_sketch(self, sketch: Sketch) -> None:
        """Matrix-add ``sketch`` (same type, shape and seed as the
        others — enforced by the sketch's ``merge``).  The merge starts
        from ``clone_empty()`` zeros, so it never holds ``-0.0``: what
        landing a frame's sections relies on."""
        if self.sketch is None:
            self.sketch = sketch.clone_empty()
        self.sketch.merge(sketch)

    def add_snapshot(
        self,
        snapshot: FastPathSnapshot | None,
        decrements: tuple[float, ...] | None = None,
    ) -> None:
        """Union ``snapshot``'s table in; ``V`` and the counters add,
        and ``E``'s summands — ``decrements`` for a partial's snapshot,
        else its own ``E`` — join the fold's.  ``None`` (a host without
        a fast path) adds nothing."""
        if snapshot is None:
            return
        merged = self.fastpath
        if merged is None:
            merged = FastPathSnapshot()
        if decrements is None:
            decrements = (snapshot.total_decremented,)
        self.decrements.extend(decrements)
        # Both tables are key-ordered with distinct headers, so a flow
        # has at most two rows here, the running one first.
        self.fastpath = FastPathSnapshot.from_columns(
            *(
                np.append(getattr(merged, name), getattr(snapshot, name))
                for name in FastPathSnapshot.COLUMNS
            ),
            **{
                name: getattr(merged, name) + getattr(snapshot, name)
                for name in _SNAPSHOT_SUMS
            },
        )

    def finish(self) -> PartialAggregate:
        """Hand over what was folded and start empty again: the fold
        keeps nothing of it."""
        fastpath = self.fastpath
        if fastpath is not None:
            fastpath.total_decremented = math.fsum(self.decrements)
        partial = PartialAggregate(
            self.sketch,
            fastpath,
            tuple(sorted(self.host_ids)),
            tuple(self.decrements),
        )
        self.sketch = self.fastpath = None
        self.host_ids = []
        self.decrements = []
        return partial


def merge_sketches(sketches: Sequence[Sketch]) -> Sketch:
    """Matrix-add per-host sketches into the global sketch ``N``.

    The inputs are not modified.  All sketches must share type, shape,
    and seed (enforced by each sketch's ``merge``).
    """
    if not sketches:
        raise MergeError("no sketches to merge")
    fold = MergeFold()
    for sketch in sketches:
        fold.add_sketch(sketch)
    return fold.finish().sketch


def merge_fastpath_snapshots(
    snapshots: Sequence[FastPathSnapshot | None],
) -> FastPathSnapshot:
    """Union per-host fast-path tables into the global table ``H``,
    rows in flow-key order.

    ``V`` and ``E`` add across hosts (``E`` correctly rounded, by
    ``math.fsum``).  Missing snapshots (hosts that ran
    without a fast path) contribute nothing; with none at all the table
    is empty.
    """
    fold = MergeFold()
    for snapshot in snapshots:
        fold.add_snapshot(snapshot)
    merged = fold.finish().fastpath
    return FastPathSnapshot() if merged is None else merged


def rescale_sketch(sketch: Sketch, factor: float) -> Sketch:
    """A copy of ``sketch`` with its volume counters scaled by ``factor``.

    This is the degraded-mode correction: when only ``k`` of ``n``
    hosts reported, the merged sketch under-counts every aggregate by
    roughly ``k/n`` (hosts see disjoint flow shares, §3.1), so scaling
    by ``n/k`` restores network-wide volume in expectation.  Only the
    *linear* counters (``to_matrix``/``load_matrix``) scale; non-linear
    side state (FlowRadar's XOR fields, UnivMon's trackers, Bloom bits)
    is copied as the reporting hosts left it — those structures track
    flow *identities*, which missing hosts genuinely lost.
    """
    if factor < 0:
        raise MergeError(f"rescale factor must be >= 0, got {factor}")
    scaled = sketch.clone_empty()
    scaled.merge(sketch)
    if factor != 1.0:
        scaled.load_matrix(scaled.to_matrix() * factor)
    return scaled


def rescale_snapshot(
    snapshot: FastPathSnapshot, factor: float
) -> FastPathSnapshot:
    """``snapshot`` with its *volume-level* fields scaled (the table's
    columns are shared, not copied).

    ``V`` (total_bytes) and ``E`` (total_decremented) scale by
    ``factor`` so the recovery's volume constraint (Eq. 2) covers the
    missing hosts' share; per-flow entries do **not** scale — they are
    real observations of real flows, and the missing hosts' flows are
    realized by recovery as additional untracked small-flow mass
    instead (see ``docs/robustness.md``).
    """
    if factor < 0:
        raise MergeError(f"rescale factor must be >= 0, got {factor}")
    return replace(
        snapshot,
        total_bytes=snapshot.total_bytes * factor,
        total_decremented=snapshot.total_decremented * factor,
    )


