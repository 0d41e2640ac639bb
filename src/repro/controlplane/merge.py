"""Merging local results into global views (§5.1).

Sketches merge by counter-wise (matrix) addition; fast-path hash tables
merge by union.  Hosts monitor disjoint flow sets (§3.1), so a flow
normally appears in at most one table; if partitioning ever double-sees
a flow, its counters add (``e`` bounds add conservatively).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.common.errors import MergeError
from repro.fastpath.topk import FastPathSnapshot, FlowEntry
from repro.sketches.base import Sketch


def merge_sketches(sketches: Sequence[Sketch]) -> Sketch:
    """Matrix-add per-host sketches into the global sketch ``N``.

    The inputs are not modified.  All sketches must share type, shape,
    and seed (enforced by each sketch's ``merge``).
    """
    if not sketches:
        raise MergeError("no sketches to merge")
    merged = sketches[0].clone_empty()
    for sketch in sketches:
        merged.merge(sketch)
    return merged


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
    """A copy of ``snapshot`` with its *volume-level* fields scaled.

    ``V`` (total_bytes) and ``E`` (total_decremented) scale by
    ``factor`` so the recovery's volume constraint (Eq. 2) covers the
    missing hosts' share; per-flow entries do **not** scale — they are
    real observations of real flows, and the missing hosts' flows are
    realized by recovery as additional untracked small-flow mass
    instead (see ``docs/robustness.md``).
    """
    if factor < 0:
        raise MergeError(f"rescale factor must be >= 0, got {factor}")
    entries = {
        flow: FlowEntry(entry.e, entry.r, entry.d)
        for flow, entry in snapshot.entries.items()
    }
    return replace(
        snapshot,
        entries=entries,
        total_bytes=snapshot.total_bytes * factor,
        total_decremented=snapshot.total_decremented * factor,
    )


def merge_fastpath_snapshots(
    snapshots: Sequence[FastPathSnapshot | None],
) -> FastPathSnapshot:
    """Union per-host fast-path tables into the global table ``H``.

    ``V`` and ``E`` add across hosts.  Missing snapshots (hosts that ran
    without a fast path) contribute nothing.
    """
    entries: dict = {}
    total_bytes = 0.0
    total_decremented = 0.0
    insert_count = 0
    evict_count = 0
    update_count = 0
    hit_count = 0
    kickout_count = 0
    reject_count = 0
    for snapshot in snapshots:
        if snapshot is None:
            continue
        total_bytes += snapshot.total_bytes
        total_decremented += snapshot.total_decremented
        insert_count += snapshot.insert_count
        evict_count += snapshot.evict_count
        update_count += snapshot.update_count
        hit_count += snapshot.hit_count
        kickout_count += snapshot.kickout_count
        reject_count += snapshot.reject_count
        for flow, entry in snapshot.entries.items():
            existing = entries.get(flow)
            if existing is None:
                entries[flow] = FlowEntry(entry.e, entry.r, entry.d)
            else:
                existing.e += entry.e
                existing.r += entry.r
                existing.d += entry.d
    return FastPathSnapshot(
        entries=entries,
        total_bytes=total_bytes,
        total_decremented=total_decremented,
        insert_count=insert_count,
        evict_count=evict_count,
        update_count=update_count,
        hit_count=hit_count,
        kickout_count=kickout_count,
        reject_count=reject_count,
    )
