"""Algorithm 1: the fast path's top-k tracker.

The table ``H`` holds at most ``k`` flows, each with three counters:

* ``e`` — the maximum byte count possibly missed before insertion,
* ``r`` — the residual byte count,
* ``d`` — bytes decremented since insertion.

Two globals support control-plane recovery: ``V`` (total bytes seen by
the fast path) and ``E`` (sum of all decrements).  When the table is
full and a new flow arrives, ``compute_thresh`` fits the current values
to a power law (probabilistic lossy counting [15]) and picks a decrement
``e`` slightly above the smallest tracked value, so *several* small
flows are evicted per O(k) pass — the amortization that makes this
algorithm an order of magnitude cheaper than Misra-Gries (Figure 16a).

Lemma 4.1 invariants (property-tested in ``tests/test_fastpath.py``):

1. any flow with true size ``> E`` is tracked;
2. for tracked flows, ``r + d <= v_true <= r + d + e``;
3. every flow's error is at most ``(1 - delta)^(1/theta) * V / (k+1)``.

``H`` is a :class:`TopKTable`: flat columns — ``keys`` plus float64
``e``/``r``/``d`` arrays of ``k`` slots — with a ``slots`` dict from
flow to slot.  The Misra-Gries and Space-Saving baselines are the same
table with another :meth:`~TopKTable.miss` rule, so everything below
but the kick-out pass holds for them too.  A flow keeps the slot it
was inserted into until it is evicted; an evicted slot goes on the
``free`` list the next insertion pops from.  A hit is
one dict probe and one add; a kick-out pass is one partition and two
vector updates over ``k`` doubles plus one ``del`` per evicted flow —
it costs what it evicts, which is the paper's amortization argument.
Slot position is an input to none of the arithmetic, so nothing keeps
the columns in order: ``slots`` is the insertion stamp (a dict iterates
in insertion order and a re-admitted flow goes to its end), and
:meth:`TopKTable.rows` reads the columns through it.  Two fast paths
that saw the same stream therefore agree on ``rows()``, ``V``, ``E``
and the counters, while one restored by :meth:`TopKTable.load_rows`
may lay the same logical table out in different slots.

A :class:`FlowKey` hashes in Python code, so the data plane does not
probe with flows: for the length of one engine run,
:meth:`TopKTable.bind` keys the index on *ordinals* into the trace's
flow table (the ``flow`` column's values), and :meth:`TopKTable.unbind`
turns them back into flows.  Each translates once, and only a non-empty
table; in between, ``rows()``, :meth:`~FastPath.snapshot` and the
``slots`` / ``keys`` views read flows through the bound table.

The epoch's report, :class:`FastPathSnapshot`, holds no flow objects:
its rows are header-word and counter columns in header order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import ClassVar

import numpy as np

from repro.common.errors import ConfigError
from repro.common.flow import FlowKey, header_flows, header_words

#: Bytes per hash-table entry: 13-byte 5-tuple key + three 8-byte
#: counters + pointer/bookkeeping overhead.  8 KB of fast-path memory
#: therefore holds ~204 flows, matching the paper's observation that the
#: default fast path tracks ~0.7% of flows (§7.5).
ENTRY_BYTES = 40

_DEFAULT_DELTA = 0.05


class UpdateKind(Enum):
    """What one fast-path update did — the data plane charges CPU by it."""

    HIT = "hit"  # existing flow: one counter update
    INSERT = "insert"  # new flow into a non-full table
    KICKOUT = "kickout"  # full table: threshold pass over all k entries


def compute_thresh(values: list[float], delta: float = _DEFAULT_DELTA) -> float:
    """``ComputeThresh`` of Algorithm 1 (power-law eviction threshold).

    Fits the ``k+1`` input values to ``Pr{Y > y} = eps * y^theta`` using
    the two largest values, then returns the threshold ``e`` such that a
    flow larger than the smallest input is evicted with probability at
    most ``delta``:

        theta = log_b(1/2),  b = (a1 - 1) / (a2 - 1)
        e = (1 - delta)^(1/theta) * a_{k+1}

    Degenerate fits (fewer than two values above 1, or ``a1 == a2``)
    fall back to the Misra-Gries decrement ``e = a_{k+1}``, which keeps
    every Lemma 4.1 guarantee.
    """
    if not values:
        raise ConfigError("compute_thresh needs at least one value")
    ordered = sorted(values, reverse=True)
    a2 = ordered[1] if len(ordered) > 1 else ordered[0]
    return _power_law_thresh(ordered[0], a2, ordered[-1], delta)


def _power_law_thresh(
    a1: float, a2: float, a_min: float, delta: float
) -> float:
    """:func:`compute_thresh` given the only three values it reads: the
    largest, the second largest and the smallest."""
    if a1 <= 1.0 or a2 <= 1.0 or a1 == a2:
        return max(a_min, 1.0)
    b = (a1 - 1.0) / (a2 - 1.0)
    theta = math.log(0.5) / math.log(b)  # log_b(1/2) < 0
    scale = (1.0 - delta) ** (1.0 / theta)  # > 1 since 1/theta < 0
    return max(scale * a_min, a_min, 1.0)


class TopKTable:
    """A counter-based top-k table: the machinery every tracker shares.

    Holds at most ``capacity = memory_bytes // 40`` flows as flat
    columns: ``keys`` plus float64 ``e``/``r``/``d`` arrays, indexed by
    ``slots``.  A hit adds the packet's bytes to ``r``; what a *miss*
    does — insert, or make room when the table is full — is the one
    thing the trackers differ in (§4.1), so each subclass defines
    :meth:`miss` and reads its own bounds off the columns.

    Parameters
    ----------
    memory_bytes:
        Memory budget; every tracker is charged the same 40-byte
        entries, so equal budgets give equal capacities.
    """

    def __init__(self, memory_bytes: int = 8192):
        capacity = memory_bytes // ENTRY_BYTES
        if capacity < 1:
            raise ConfigError(
                f"memory_bytes={memory_bytes} holds no entries "
                f"(need >= {ENTRY_BYTES})"
            )
        self.capacity = capacity
        self.memory_bytes = memory_bytes
        #: Slot ``i`` of the counter columns belongs to ``_keys[i]``
        #: (``None`` when free) and ``_slots[_keys[i]] == i``; ``_slots``
        #: iterates in insertion order.  ``free`` holds the rest.  Both
        #: hold flows, or ordinals into ``_table`` while it is bound.
        self._keys: list = [None] * capacity
        self._slots: dict = {}
        self._table = None
        self.free: list[int] = list(range(capacity - 1, -1, -1))
        #: Counter columns, three separately owned arrays; a free
        #: slot's values are stale and never read.  They are only ever
        #: changed in place, so a caller may hold ``slots``/``r``
        #: across :meth:`miss` calls.
        self.e = np.zeros(capacity)
        self.r = np.zeros(capacity)
        self.d = np.zeros(capacity)
        self.total_bytes = 0.0  # V
        self.total_decremented = 0.0  # E (Misra-Gries: D)
        # Operation statistics (Figures 15 and 16a).
        self.num_updates = 0
        self.num_hits = 0
        self.num_inserts = 0
        self.num_kickouts = 0
        self.num_evicted = 0

    @property
    def slots(self) -> dict[FlowKey, int]:
        """Flow -> slot, in insertion order: the live index, or a copy
        read through the table while one is bound."""
        table = self._table
        if table is None:
            return self._slots
        return {table[key]: slot for key, slot in self._slots.items()}

    @property
    def keys(self) -> list[FlowKey | None]:
        """Each slot's flow (``None`` when free): the live column, or a
        copy read through the table while one is bound."""
        table = self._table
        if table is None:
            return self._keys
        return [None if key is None else table[key] for key in self._keys]

    def bind(self, table):
        """Key the index on ordinals into ``table`` (distinct flows)
        until :meth:`unbind`; returns the ordinal probe (``dict.get``).

        Meanwhile :meth:`miss` takes an ordinal where it took a flow.
        A tracked flow ``table`` lacks is given an ordinal past its end.
        """
        if self._table is not None:
            raise ConfigError("fast path is already bound to a table")
        slots, keys = self._slots, self._keys
        if slots:
            ordinals = {}  # slot -> ordinal
            for ordinal, flow in enumerate(table):
                slot = slots.get(flow)
                if slot is not None:
                    ordinals[slot] = ordinal
            extra = []
            for slot in slots.values():
                if slot not in ordinals:
                    ordinals[slot] = len(table) + len(extra)
                    extra.append(keys[slot])
            if extra:
                table = (*table, *extra)
            for slot in slots.values():
                keys[slot] = ordinals[slot]
            self._slots = {keys[slot]: slot for slot in slots.values()}
        self._table = table
        return self._slots.get

    def unbind(self) -> None:
        """Key the index on flows again (see :meth:`bind`)."""
        table, self._table = self._table, None
        if table is None or not self._slots:
            return
        keys = self._keys
        for slot in self._slots.values():
            keys[slot] = table[keys[slot]]
        self._slots = {keys[slot]: slot for slot in self._slots.values()}

    # ------------------------------------------------------------------
    def update(self, flow: FlowKey, value: int) -> UpdateKind:
        """Record one packet ``(flow, value)``; returns the work done."""
        self.num_updates += 1
        self.total_bytes += value
        slot = self._slots.get(flow)
        if slot is not None:
            self.r[slot] += value
            self.num_hits += 1
            return UpdateKind.HIT
        return self.miss(flow, value)

    def miss(self, flow: FlowKey, value: int) -> UpdateKind:
        """Record a packet of a flow that is *not* tracked: insert it,
        or apply the tracker's kick-out rule when the table is full.

        The half of :meth:`update` a caller that probes ``slots``
        itself still needs (with an ordinal while :meth:`bind` holds);
        such a caller owes :meth:`account` for the packets it did not
        send through :meth:`update`.
        """
        raise NotImplementedError

    def account(self, updates: int, hits: int, nbytes: int) -> None:
        """Credit ``updates`` packets (``hits`` of them applied straight
        to ``r``, ``nbytes`` in all) that bypassed :meth:`update`.

        ``V`` is a sum of integers, exact in float64 in any order.
        """
        self.num_updates += updates
        self.num_hits += hits
        self.total_bytes += nbytes

    # ------------------------------------------------------------------
    def _append(self, flow: FlowKey, e: float, r: float, d: float) -> None:
        slot = self.free.pop()
        self._keys[slot] = flow
        self._slots[flow] = slot
        self.e[slot] = e
        self.r[slot] = r
        self.d[slot] = d

    def _release(self, dead: list[int]) -> None:
        """Let go of the flows in slots ``dead``: one ``del`` each, and
        the slots go on ``free``."""
        keys, slots = self._keys, self._slots
        for slot in dead:
            del slots[keys[slot]]
            keys[slot] = None
        self.free.extend(dead)
        self.num_evicted += len(dead)

    def _ordered(self) -> np.ndarray:
        """The tracked slots, in insertion order."""
        slots = self._slots
        return np.fromiter(slots.values(), np.intp, len(slots))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def rows(self) -> list[tuple[FlowKey, float, float, float]]:
        """``(flow, e, r, d)`` per tracked flow, in insertion order."""
        flows, order = self._tracked()
        counters = (self.e[order], self.r[order], self.d[order])
        return list(zip(flows, *(column.tolist() for column in counters)))

    def _tracked(self) -> tuple[list[FlowKey], np.ndarray]:
        """The tracked flows and their slots, in insertion order."""
        slots, table = self._slots, self._table
        flows = list(slots if table is None else map(table.__getitem__, slots))
        return flows, self._ordered()

    def load_rows(self, rows) -> None:
        """Replace the table with ``rows`` (as :meth:`rows` emits them);
        rows that do not fit, or that repeat a flow, are refused before
        anything is replaced."""
        rows = list(rows)
        if len(rows) > self.capacity:
            raise ConfigError(
                f"{len(rows)} rows do not fit a {self.capacity}-entry table"
            )
        if len({flow for flow, *_ in rows}) < len(rows):
            raise ConfigError("rows repeat a flow")
        self._clear_table()
        for flow, e, r, d in rows:
            self._append(flow, e, r, d)

    def _clear_table(self) -> None:
        self._keys[:] = [None] * self.capacity
        self._slots.clear()
        self.free[:] = range(self.capacity - 1, -1, -1)

    def reset(self) -> None:
        """Clear all state for the next epoch."""
        self._clear_table()
        self.total_bytes = 0.0
        self.total_decremented = 0.0

    def error_bound(self) -> float:
        """The worst-case error of any flow: ``~ V / (k+1)``."""
        return self.total_bytes / (self.capacity + 1)


class FastPath(TopKTable):
    """The fast path of one SketchVisor data plane (Algorithm 1).

    Parameters
    ----------
    memory_bytes:
        Fast-path memory budget; capacity is ``memory_bytes // 40``
        flows (paper default: 8 KB ≈ 204 flows).
    delta:
        Eviction-probability parameter of ``ComputeThresh``.
    """

    def __init__(
        self, memory_bytes: int = 8192, delta: float = _DEFAULT_DELTA
    ):
        super().__init__(memory_bytes)
        if not 0.0 < delta < 1.0:
            raise ConfigError("delta must be in (0, 1)")
        self.delta = delta
        self.num_rejected = 0  # kick-out passes that admitted nobody

    def miss(self, flow: FlowKey, value: int) -> UpdateKind:
        """Lines 7-19 for a flow that is *not* tracked: insert it, or
        run the amortized kick-out pass when the table is full."""
        if self.free:
            self._append(flow, self.total_decremented, float(value), 0.0)
            self.num_inserts += 1
            return UpdateKind.INSERT

        self.num_kickouts += 1
        r = self.r
        threshold = self._threshold(float(value))
        r -= threshold
        self.d += threshold
        dead = (r <= 0.0).nonzero()[0].tolist()
        self._release(dead)
        if value > threshold and dead:
            self._append(
                flow,
                self.total_decremented,
                float(value) - threshold,
                threshold,
            )
            self.num_inserts += 1
        else:
            self.num_rejected += 1
        self.total_decremented += threshold
        return UpdateKind.KICKOUT

    def _threshold(self, value: float) -> float:
        """``compute_thresh`` over the (full) table's residuals plus
        the arriving packet; only max, second max and min are read, and
        one two-pivot partition puts all three in place."""
        top = self.r.copy()
        if top.size > 1:
            top.partition((0, top.size - 2))
            m1, m2 = float(top[-1]), float(top[-2])
        else:
            m1, m2 = float(top[0]), -math.inf
        if value >= m1:
            a1, a2 = value, m1
        elif value > m2:
            a1, a2 = m1, value
        else:
            a1, a2 = m1, m2
        return _power_law_thresh(
            a1, a2, min(float(top[0]), value), self.delta
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def bounds(self) -> dict[FlowKey, tuple[float, float]]:
        """Per-flow (lower, upper) byte-count bounds (Lemma 4.1):
        ``r + d <= v_true <= r + d + e``."""
        return {
            flow: (r + d, r + d + e) for flow, e, r, d in self.rows()
        }

    def estimates(self) -> dict[FlowKey, float]:
        """Midpoint per-flow estimates."""
        return {flow: r + d + e / 2.0 for flow, e, r, d in self.rows()}

    def snapshot(self) -> "FastPathSnapshot":
        """Freeze the current state for the control-plane report.

        Mirrors the prototype, where the user-space daemon snapshots the
        shared-memory fast path each epoch while the kernel module keeps
        updating it (§6).
        """
        flows, order = self._tracked()
        return FastPathSnapshot.from_columns(
            *header_words(flows),
            *(column[order] for column in (self.e, self.r, self.d)),
            total_bytes=self.total_bytes,
            total_decremented=self.total_decremented,
            insert_count=self.num_inserts,
            evict_count=self.num_evicted,
            update_count=self.num_updates,
            hit_count=self.num_hits,
            kickout_count=self.num_kickouts,
            reject_count=self.num_rejected,
        )


_WORDS = partial(np.zeros, 0, dtype=np.uint64)
_COUNTERS = partial(np.zeros, 0, dtype=np.float64)


@dataclass
class FastPathSnapshot:
    """Immutable epoch report of one host's fast path.

    ``H`` is five columns, a row per tracked flow: its header as
    ``hi``/``lo`` words (:func:`~repro.common.flow.pack_headers`;
    ``key64`` is ``mix64_array(hi ^ lo)``) and float64 ``e``/``r``/
    ``d``, rows in strict ``(hi, lo)`` (key104) order.  Only
    :meth:`from_columns` orders and sums rows, and nothing writes a
    column in place, so snapshots may share them.

    Beyond the paper's ``V`` and ``E`` globals this carries two more
    O(1) counters, insertions and evictions.  Without them the number
    of *missed* small flows is unidentifiable from the snapshot (any
    volume can be few large or many tiny flows), and cardinality-style
    recovery has no anchor; with them it becomes well-posed.  See
    DESIGN.md ("small-flow component y").
    """

    #: The column fields, in constructor order.
    COLUMNS: ClassVar[tuple[str, ...]] = ("hi", "lo", "e", "r", "d")

    hi: np.ndarray = field(default_factory=_WORDS)
    lo: np.ndarray = field(default_factory=_WORDS)
    e: np.ndarray = field(default_factory=_COUNTERS)
    r: np.ndarray = field(default_factory=_COUNTERS)
    d: np.ndarray = field(default_factory=_COUNTERS)
    total_bytes: float = 0.0
    total_decremented: float = 0.0
    insert_count: int = 0
    evict_count: int = 0
    # Remaining O(1) operation counters (Figures 15/16a): per-host
    # fast-path telemetry is published from the report's snapshot.
    update_count: int = 0
    hit_count: int = 0
    kickout_count: int = 0
    reject_count: int = 0

    @classmethod
    def from_columns(cls, hi, lo, e, r, d, **scalars) -> "FastPathSnapshot":
        """A snapshot of the rows ``(hi, lo, e, r, d)``, in key order.

        Rows are stable-sorted on ``(hi, lo)``; the rows of one header
        become one, their counters added in input order (the first
        row's value, plus the second's, and so on).  The inputs are
        not modified.
        """
        hi = np.asarray(hi, dtype=np.uint64)
        lo = np.asarray(lo, dtype=np.uint64)
        order = np.lexsort((lo, hi))
        hi, lo = hi[order], lo[order]
        counters = [
            np.asarray(column, dtype=np.float64)[order]
            for column in (e, r, d)
        ]
        lead = np.ones(hi.size, dtype=bool)
        lead[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        if not lead.all():
            run = np.cumsum(lead) - 1
            rank = np.arange(hi.size) - np.flatnonzero(lead)[run]
            summed = [column[lead] for column in counters]
            for k in range(1, int(rank.max()) + 1):
                at = rank == k
                for total, column in zip(summed, counters):
                    total[run[at]] += column[at]
            hi, lo, counters = hi[lead], lo[lead], summed
        return cls(hi, lo, *counters, **scalars)

    @property
    def tracked(self) -> int:
        """Rows (tracked flows) in the table."""
        return self.hi.size

    def rows(self) -> list[tuple[FlowKey, float, float, float]]:
        """``(flow, e, r, d)`` per row, in key order."""
        counters = (self.e, self.r, self.d)
        return list(
            zip(
                header_flows(self.hi, self.lo),
                *(column.tolist() for column in counters),
            )
        )

    @property
    def distinct_flow_hint(self) -> float:
        """Estimated distinct flows the fast path ever inserted.

        Evicted flows that later return re-insert and double count;
        splitting the difference (half of evictions assumed returns)
        keeps the hint between the two extremes.
        """
        return max(
            self.tracked,
            self.insert_count - 0.5 * self.evict_count,
        )

    def __setstate__(self, state) -> None:
        """Unpickle, refusing what no fast path or fold builds: columns
        not 1-D of one length and their dtypes, a header past 104 bits
        (it would alias another), rows not in strict key order (they
        would split a flow), or a negative or non-finite counter."""
        self.__dict__.update(state)
        columns = [getattr(self, name) for name in self.COLUMNS]
        dtypes = (np.uint64, np.uint64, np.float64, np.float64, np.float64)
        if not all(
            isinstance(column, np.ndarray) and column.dtype == dtype
            for column, dtype in zip(columns, dtypes)
        ) or {column.shape for column in columns} != {(columns[0].size,)}:
            raise ValueError("snapshot columns are malformed")
        hi, lo, *counters = columns
        if (hi >> np.uint64(40)).any() or not (
            (hi[1:] > hi[:-1]) | ((hi[1:] == hi[:-1]) & (lo[1:] > lo[:-1]))
        ).all():
            raise ValueError("snapshot rows are not 104-bit, in key order")
        if not all((np.isfinite(c) & (c >= 0.0)).all() for c in counters):
            raise ValueError("snapshot counters must be finite, >= 0")
