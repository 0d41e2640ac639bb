"""The hierarchical aggregator tier: pairwise merge before recovery.

Sketches are *linear* — counter matrices that merge by addition — so
per-host reports need not all reach the controller before merging can
start.  Each :class:`Aggregator` owns a group of hosts and folds their
reports into one running partial the moment they arrive (eager
pairwise merge), holding at most the accumulator plus the report in
flight.  The controller then merges the A partial aggregates and runs
LENS recovery *once*, exactly as it would over raw reports.

This is what makes a 500–1000-host epoch complete in bounded memory:
the flat path keeps all N decoded reports resident until the merge
(O(N) sketches), the hierarchical path keeps O(A + 1) — the "recovery-
aware hierarchical merging" shape of Distributed Recoverable Sketches
(see PAPERS.md), with SketchVisor's single network-wide recovery at
the root.

Merging is exact: sketch counters and fast-path ``(e, r, d)`` entries
are integer-valued, so pairwise-then-root addition is bit-identical to
the flat all-at-once merge regardless of arrival order.  Fast-path
entries are canonicalized (sorted by flow key) in :meth:`finish` so a
partial's downstream iteration order is independent of socket timing.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from repro.controlplane.merge import merge_fastpath_snapshots
from repro.dataplane.host import LocalReport
from repro.fastpath.topk import FastPathSnapshot
from repro.sketches.base import Sketch


@dataclass
class PartialAggregate:
    """One aggregator group's merged epoch state.

    Duck-compatible with :class:`~repro.dataplane.host.LocalReport`
    where the controller cares (``sketch`` / ``fastpath``), so the
    root merge treats partials exactly like reports; ``host_ids``
    carries the provenance the flat path would have had one report per
    entry for.
    """

    aggregator_id: int
    #: ``None`` once the epoch is retired (:meth:`retire`).
    sketch: Sketch | None
    fastpath: FastPathSnapshot | None
    host_ids: tuple[int, ...]

    def retire(self) -> None:
        """Drop the merged sketch, as :meth:`LocalReport.retire` does."""
        self.sketch = None

    @property
    def host_id(self) -> int:
        """Aggregator id, in the report slot (labels, debugging)."""
        return self.aggregator_id

    @property
    def num_hosts(self) -> int:
        return len(self.host_ids)


class Aggregator:
    """Eagerly merge one group's reports into a single partial."""

    def __init__(self, aggregator_id: int):
        self.aggregator_id = aggregator_id
        self._sketch: Sketch | None = None
        self._fastpath: FastPathSnapshot | None = None
        self._any_fastpath = False
        self._host_ids: list[int] = []
        #: Most dense sketches resident at once (the accumulator plus
        #: the in-flight report's) — the bounded-memory invariant the
        #: cluster bench gates on.
        self.peak_resident = 0

    @property
    def num_hosts(self) -> int:
        return len(self._host_ids)

    def add(self, report: LocalReport) -> None:
        """Fold one host report into the running partial and drop it."""
        self.peak_resident = max(
            self.peak_resident, (1 if self._sketch is not None else 0) + 1
        )
        if self._sketch is None:
            self._sketch = report.sketch.clone_empty()
        self._sketch.merge(report.sketch)
        if report.fastpath is not None:
            self._any_fastpath = True
            self._fastpath = merge_fastpath_snapshots(
                [self._fastpath, report.fastpath]
            )
        self._host_ids.append(report.host_id)

    def finish(self) -> PartialAggregate | None:
        """Hand over the group's partial, or ``None`` when no report
        arrived (or it was already handed over).

        The aggregator lets go of the merged state: the partial it
        hands over is then the only holder of it.
        """
        if self._sketch is None:
            return None
        sketch = self._sketch
        fastpath = self._fastpath if self._any_fastpath else None
        self._sketch = self._fastpath = None
        if fastpath is not None and fastpath.entries:
            # Canonical entry order: socket arrival order must not
            # leak into downstream float-summation order.
            entries = dict(
                sorted(
                    fastpath.entries.items(),
                    key=lambda item: item[0].key64,
                )
            )
            fastpath = replace(fastpath, entries=entries)
        return PartialAggregate(
            aggregator_id=self.aggregator_id,
            sketch=sketch,
            fastpath=fastpath,
            host_ids=tuple(sorted(self._host_ids)),
        )


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
