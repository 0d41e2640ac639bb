"""The fast-path merge over per-flow dicts: the oracle for the column fold.

This is the union of fast-path tables as it was first written: each
table a ``{flow: [e, r, d]}`` dict, folded in one input at a time — a
flow's first row copied, a later row's counters added to the running
ones — and the result sorted by the full 104-bit key.  The degraded
rescale copied every row and scaled only ``V`` and ``E``.
:meth:`FastPathSnapshot.from_columns` does the same union on header-word
columns and must give the same rows, in the same order, to the bit.
"""

from __future__ import annotations

import math

#: The snapshot's integer scalars, which add.
SUMS = (
    "total_bytes",
    "insert_count",
    "evict_count",
    "update_count",
    "hit_count",
    "kickout_count",
    "reject_count",
)


class Folded:
    """A folded table, read like a snapshot: ``rows()`` and the
    scalars as attributes."""

    def __init__(self, rows, **scalars):
        self._rows = rows
        self.__dict__.update(scalars)

    def rows(self) -> list[tuple]:
        return list(self._rows)

    def scalars(self) -> dict:
        names = (*SUMS, "total_decremented")
        return {name: getattr(self, name) for name in names}


def fold(snapshots, decrements=None) -> Folded | None:
    """The merged table and scalars of ``snapshots`` (``None`` entries
    skipped; ``None`` if nothing is left), folded in order, rows in
    key104 order; ``E`` is the correctly rounded sum of ``decrements``
    (default: each snapshot's own ``E``)."""
    entries: dict = {}
    scalars = dict.fromkeys(SUMS, 0)
    summands = []
    folded = 0
    for snapshot in snapshots:
        if snapshot is None:
            continue
        folded += 1
        for name in SUMS:
            scalars[name] = scalars[name] + getattr(snapshot, name)
        summands.append(snapshot.total_decremented)
        for flow, e, r, d in snapshot.rows():
            existing = entries.get(flow)
            if existing is None:
                entries[flow] = [e, r, d]
            else:
                existing[0] += e
                existing[1] += r
                existing[2] += d
    if not folded:
        return None
    rows = [
        (flow, *counters)
        for flow, counters in sorted(
            entries.items(), key=lambda item: item[0].key104
        )
    ]
    scalars["total_decremented"] = math.fsum(
        summands if decrements is None else decrements
    )
    return Folded(rows, **scalars)


def rescale(snapshot, factor: float) -> dict:
    """``snapshot``'s rows, copied, with ``V`` and ``E`` scaled."""
    return {
        "rows": [
            (flow, e, r, d) for flow, e, r, d in snapshot.rows()
        ],
        "total_bytes": snapshot.total_bytes * factor,
        "total_decremented": snapshot.total_decremented * factor,
    }


def bits(rows) -> list[tuple]:
    """Rows with every counter as ``float.hex``, for exact comparison."""
    return [
        (flow.key104, *(float(value).hex() for value in counters))
        for flow, *counters in rows
    ]
