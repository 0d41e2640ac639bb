"""Trace container: an ordered packet stream stored as columns.

A :class:`Trace` *is* four read-only columns: ``timestamps`` (float64),
``sizes`` (int64), ``flow`` (intp) and ``table``, a tuple of distinct
:class:`FlowKey` s that ``flow`` indexes.  Identity is the table entry,
never a hash of it: two packets belong to one flow exactly when their
``flow`` indices are equal.  ``key64`` (the pre-folded flow keys the
sketches hash) is derived — a gather through the table's folds —
and cached per trace, as is the last :meth:`partition`.

There are two constructors.  :meth:`Trace.from_columns` takes the
columns (the generator and the sources build them directly);
``Trace(packets)`` takes packets.  :attr:`Trace.packets` is a lazy
:class:`PacketView` that builds :class:`Packet` objects on demand for
the code that wants them; a view (or a slice of one) handed back to
``Trace(...)`` adopts its source's columns without a per-packet pass.
Any other iterable of packets is numbered once, flow by flow, in
first-seen order.

The paper partitions traffic across hosts and reports per-epoch
results; both views are provided here.  Partitioning is
flow-consistent (all packets of one flow land on one host) to mirror
the paper's hash-based traffic assignment [47], which avoids double
counting across the distributed data plane.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.common.flow import (
    FlowKey,
    Packet,
    header_flows,
    header_groups,
    key64_column,
    pack_headers,
)
from repro.common.hashing import mix64_array

_PARTITION_SEED = 0x5EED_0F_CAFE


def number_flows(flows: Iterable[FlowKey]) -> tuple[np.ndarray, tuple]:
    """``(index, table)``: each flow's index into ``table``, the
    distinct flows in first-seen order."""
    index: dict[FlowKey, int] = {}
    number = index.setdefault
    column = np.array(
        [number(flow, len(index)) for flow in flows], dtype=np.intp
    )
    return column, tuple(index)


#: Header columns as :class:`FlowKey` takes them, with their widths
#: and what the constructor says when a value does not fit.
_HEADER_COLUMNS = (
    (32, "IP addresses must fit in 32 bits"),
    (32, "IP addresses must fit in 32 bits"),
    (16, "ports must fit in 16 bits"),
    (16, "ports must fit in 16 bits"),
    (8, "protocol must fit in 8 bits"),
)


def number_headers(src, dst, sport, dport, proto) -> tuple[np.ndarray, tuple]:
    """:func:`number_flows` for packets given as five header columns:
    the same ``(index, table)``, with one :class:`FlowKey` built per
    distinct flow rather than per packet."""
    columns = []
    for column, (bits, message) in zip(
        (src, dst, sport, dport, proto), _HEADER_COLUMNS
    ):
        column = np.asarray(column, dtype=np.int64)
        if column.size and (column.min() < 0 or column.max() >> bits):
            raise ValueError(message)
        columns.append(column)
    hi, lo = pack_headers(*columns)
    first, flow = header_groups(hi, lo)
    return flow, tuple(header_flows(hi[first], lo[first]))


def used_flows(flow: np.ndarray, table_size: int) -> np.ndarray:
    """The distinct indices of a flow-index column, ascending."""
    return np.flatnonzero(np.bincount(flow, minlength=table_size))


def first_seen(flow: np.ndarray, table_size: int):
    """Group a flow-index column by flow, in order of first occurrence.

    Returns ``(distinct, first, group)``: the distinct indices in order
    of first occurrence, the position of each one's first occurrence,
    and every element's index into ``distinct``.  The work is linear in
    the column and in ``table_size`` (indices are ``< table_size``).
    """
    first = np.full(table_size, len(flow), dtype=np.intp)
    np.minimum.at(first, flow, np.arange(len(flow)))
    present = np.flatnonzero(first < len(flow))
    distinct = present[np.argsort(first[present])]
    rank = np.empty(table_size, dtype=np.intp)
    rank[distinct] = np.arange(distinct.size)
    return distinct, first[distinct], rank[flow]


def _compact(flow: np.ndarray, table_size: int):
    """``(used, renumbered)``: the flows ``flow`` uses, ascending, and
    the column renumbered to index them."""
    used = used_flows(flow, table_size)
    rank = np.empty(table_size, dtype=np.intp)
    rank[used] = np.arange(used.size)
    return used, rank[flow]


def _frozen(column: np.ndarray) -> np.ndarray:
    column = column.view()
    column.flags.writeable = False
    return column


class Trace:
    """An ordered, immutable stream of packets, held as columns.

    Parameters
    ----------
    packets:
        Packets in arrival order.  Timestamps must be non-decreasing;
        this is validated (vectorized, on the timestamp column) because
        the data-plane simulation derives inter-arrival gaps from them.
    """

    __slots__ = (
        "_timestamps",
        "_sizes",
        "_flow",
        "_table",
        "_key64",
        "_partition",
    )

    def __init__(self, packets: Iterable[Packet] = ()):
        if isinstance(packets, PacketView):
            timestamps, sizes, flow, table = packets.columns()
        else:
            packets = list(packets)
            flow, table = number_flows(
                [packet.flow for packet in packets]
            )
            timestamps = np.array(
                [packet.timestamp for packet in packets], dtype=np.float64
            )
            sizes = np.array(
                [packet.size for packet in packets], dtype=np.int64
            )
        _check_order(timestamps)
        self._set(timestamps, sizes, flow, table)

    def _set(self, timestamps, sizes, flow, table, key64=None) -> None:
        self._timestamps = _frozen(timestamps)
        self._sizes = _frozen(sizes)
        self._flow = _frozen(flow)
        self._table = table
        self._key64 = None if key64 is None else _frozen(key64)
        self._partition: tuple[Trace, ...] | None = None

    @classmethod
    def _wrap(cls, timestamps, sizes, flow, table, key64=None) -> "Trace":
        """Internal: a trace over already-validated columns."""
        trace = cls.__new__(cls)
        trace._set(timestamps, sizes, flow, table, key64)
        return trace

    @classmethod
    def from_columns(
        cls,
        timestamps,
        sizes,
        flow,
        table: Sequence[FlowKey],
    ) -> "Trace":
        """A trace from its columns.

        ``flow[i]`` indexes packet ``i``'s flow in ``table``, whose
        entries must be distinct.  Timestamps must be non-decreasing
        and sizes positive.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.int64)
        flow = np.asarray(flow, dtype=np.intp)
        table = tuple(table)
        if not timestamps.ndim == sizes.ndim == flow.ndim == 1:
            raise ValueError("trace columns must be one-dimensional")
        if not len(timestamps) == len(sizes) == len(flow):
            raise ValueError("trace columns must have equal lengths")
        if len(set(table)) != len(table):
            raise ValueError("flow table entries must be distinct")
        if flow.size:
            if flow.min() < 0 or flow.max() >= len(table):
                raise ValueError("flow index outside the flow table")
            if sizes.min() <= 0:
                raise ValueError("packet sizes must be positive")
        _check_order(timestamps)
        return cls._wrap(timestamps, sizes, flow, table)

    def __len__(self) -> int:
        return len(self._flow)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, index):
        """A packet at an integer index; a sub-trace for a slice."""
        if isinstance(index, slice):
            return Trace(self.packets[index])
        return self.packets[index]

    @property
    def packets(self) -> "PacketView":
        """The packets, built on demand (see :class:`PacketView`)."""
        return PacketView(self, range(len(self)))

    # ------------------------------------------------------------------
    # Columns (read-only arrays)
    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        """Packet timestamps as a read-only float64 column."""
        return self._timestamps

    @property
    def sizes(self) -> np.ndarray:
        """Packet byte sizes as a read-only int64 column."""
        return self._sizes

    @property
    def flow(self) -> np.ndarray:
        """Each packet's index into :attr:`table` (read-only intp)."""
        return self._flow

    @property
    def table(self) -> tuple[FlowKey, ...]:
        """Distinct flows; :attr:`flow` indexes it.  Shards and slices
        share their source's table, so it may hold flows they lack."""
        return self._table

    @property
    def key64(self) -> np.ndarray:
        """Pre-folded 64-bit flow keys as a read-only uint64 column."""
        if self._key64 is None:
            self._key64 = _frozen(key64_column(self._table)[self._flow])
        return self._key64

    def _take(self, indices) -> "Trace":
        """A sub-trace at ``indices`` (non-decreasing), sharing the
        table and any ``key64`` column already built."""
        return Trace._wrap(
            self._timestamps[indices],
            self._sizes[indices],
            self._flow[indices],
            self._table,
            None if self._key64 is None else self._key64[indices],
        )

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Time span covered by the trace (0 for an empty trace)."""
        if not len(self):
            return 0.0
        return float(self._timestamps[-1] - self._timestamps[0])

    @property
    def total_bytes(self) -> int:
        return int(self._sizes.sum())

    def flow_totals(self) -> tuple[list[FlowKey], np.ndarray, np.ndarray]:
        """``(flows, bytes, packets)``: the distinct flows in first-seen
        order and their exact byte and packet counts (int64)."""
        distinct, _, group = first_seen(self._flow, len(self._table))
        volumes = np.bincount(
            group, weights=self._sizes, minlength=distinct.size
        ).astype(np.int64)
        counts = np.bincount(group, minlength=distinct.size)
        flows = list(map(self._table.__getitem__, distinct.tolist()))
        return flows, volumes, counts

    def flow_sizes(self) -> dict[FlowKey, int]:
        """Exact per-flow byte counts (the measurement ground truth)."""
        flows, volumes, _ = self.flow_totals()
        return dict(zip(flows, volumes.tolist()))

    def flow_packet_counts(self) -> dict[FlowKey, int]:
        """Exact per-flow packet counts."""
        flows, _, counts = self.flow_totals()
        return dict(zip(flows, counts.tolist()))

    def flows(self) -> set[FlowKey]:
        used = used_flows(self._flow, len(self._table))
        return set(map(self._table.__getitem__, used.tolist()))

    def starting_at(self, start: float) -> "Trace":
        """The trace moved later so that it starts at ``start`` (itself
        if it starts there or later already).

        Every timestamp gains ``start - first``; where rounding would
        put a packet before ``start``, it arrives at ``start``.
        """
        if not len(self) or self._timestamps[0] >= start:
            return self
        shift = start - float(self._timestamps[0])
        return Trace._wrap(
            np.maximum(self._timestamps + shift, start),
            self._sizes,
            self._flow,
            self._table,
        )

    def split_epochs(self, epoch_length: float) -> list["Trace"]:
        """Split into consecutive epochs of ``epoch_length`` seconds.

        Epoch boundaries are relative to the first packet's timestamp.
        Every packet belongs to exactly one epoch; empty epochs are not
        emitted.  Epoch numbers never decrease along the trace, so each
        epoch is one contiguous run of it.
        """
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        if not len(self):
            return []
        epochs = (
            (self._timestamps - self._timestamps[0]) / epoch_length
        ).astype(np.int64)
        starts = (np.flatnonzero(np.diff(epochs)) + 1).tolist()
        bounds = [0, *starts, len(self)]
        return [
            self._take(slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])
        ]

    def partition(self, num_hosts: int) -> list["Trace"]:
        """Flow-consistent partition across ``num_hosts`` monitoring hosts.

        Each flow is assigned to ``hash(flow) % num_hosts`` so that no
        flow is observed (and counted) by two hosts — the paper's
        disjoint-monitoring assumption (§3.1).  The assignment hash runs
        vectorized over the ``key64`` column.

        The last result is remembered on the (immutable) trace, like
        ``key64``: every pipeline of a monitoring window partitions the
        same trace the same way, and gets the same shard objects — so
        the shards' own derived state is built once too.  ``key64`` is
        materialised first so that the shards inherit slices of it.
        """
        if num_hosts < 1:
            raise ValueError("num_hosts must be >= 1")
        if num_hosts == 1:
            return [self]
        cached = self._partition
        if cached is not None and len(cached) == num_hosts:
            return list(cached)
        shards = (
            mix64_array(self.key64, seed=_PARTITION_SEED)
            % np.uint64(num_hosts)
        ).astype(np.int64)
        self._partition = tuple(
            self._take(np.flatnonzero(shards == host))
            for host in range(num_hosts)
        )
        return list(self._partition)

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces; ``other`` is shifted to start after self.

        Used to build multi-epoch workloads from per-epoch generators.
        """
        if not len(self):
            return other
        return Trace.join(
            [self, other.starting_at(float(self._timestamps[-1]))]
        )

    @staticmethod
    def join(traces: Sequence["Trace"]) -> "Trace":
        """Traces one after another, as one trace (timestamps must stay
        non-decreasing across the seams)."""
        joined = _stack(traces)
        _check_order(joined.timestamps)
        return joined

    @staticmethod
    def merge(traces: Sequence["Trace"]) -> "Trace":
        """Merge traces by timestamp order (e.g., re-join host shards).

        Packets with equal timestamps keep the order of ``traces``."""
        joined = _stack(traces)
        return joined._take(np.argsort(joined.timestamps, kind="stable"))


def _check_order(timestamps: np.ndarray) -> None:
    if timestamps.size > 1 and np.any(np.diff(timestamps) < 0):
        raise ValueError("packet timestamps must be non-decreasing")


def _stack(traces: Sequence[Trace]) -> Trace:
    """``traces`` end to end, unchecked — or, when at most one of them
    has packets, that trace itself.

    Traces that share a table keep it; otherwise the flows they use
    are renumbered into a new table, in order of appearance.
    """
    traces = [trace for trace in traces if len(trace)]
    if len(traces) <= 1:
        return traces[0] if traces else Trace()
    table = traces[0].table
    if all(trace.table is table for trace in traces):
        flow = np.concatenate([trace.flow for trace in traces])
    else:
        index: dict[FlowKey, int] = {}
        number = index.setdefault
        parts = []
        for trace in traces:
            used, renumbered = _compact(trace.flow, len(trace.table))
            remap = np.array(
                [number(trace.table[i], len(index)) for i in used.tolist()],
                dtype=np.intp,
            )
            parts.append(remap[renumbered])
        flow = np.concatenate(parts)
        table = tuple(index)
    return Trace._wrap(
        np.concatenate([trace.timestamps for trace in traces]),
        np.concatenate([trace.sizes for trace in traces]),
        flow,
        table,
    )


class PacketView(Sequence):
    """A trace's packets as a read-only ``Sequence[Packet]``.

    Nothing is stored per packet: indexing and iteration build
    :class:`Packet` objects from the columns on demand, and slicing
    gives another view of the same columns.  ``Trace(view)`` adopts the
    selected column rows directly.  A view equals another view, a tuple
    or a list holding equal packets in the same order.
    """

    __slots__ = ("_trace", "_rows")

    def __init__(self, trace: Trace, rows: range):
        self._trace = trace
        self._rows = rows

    def _selection(self):
        rows = self._rows
        if rows.step == 1:
            return slice(rows.start, rows.stop)
        return np.arange(rows.start, rows.stop, rows.step)

    def columns(self) -> tuple:
        """``(timestamps, sizes, flow, table)`` of the selected rows."""
        trace, selection = self._trace, self._selection()
        return (
            trace.timestamps[selection],
            trace.sizes[selection],
            trace.flow[selection],
            trace.table,
        )

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PacketView(self._trace, self._rows[index])
        row = self._rows[index]
        trace = self._trace
        return Packet(
            trace.table[trace.flow[row]],
            int(trace.sizes[row]),
            float(trace.timestamps[row]),
        )

    def __iter__(self) -> Iterator[Packet]:
        timestamps, sizes, flow, table = self.columns()
        return map(
            Packet,
            map(table.__getitem__, flow.tolist()),
            sizes.tolist(),
            timestamps.tolist(),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PacketView, tuple, list)):
            return NotImplemented
        if len(self) != len(other):
            return False
        if isinstance(other, PacketView):
            mine, theirs = self.columns(), other.columns()
            if not (
                np.array_equal(mine[0], theirs[0])
                and np.array_equal(mine[1], theirs[1])
            ):
                return False
            if mine[3] is theirs[3]:
                return bool(np.array_equal(mine[2], theirs[2]))
            return list(map(mine[3].__getitem__, mine[2].tolist())) == list(
                map(theirs[3].__getitem__, theirs[2].tolist())
            )
        return all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PacketView({len(self)} packets)"
