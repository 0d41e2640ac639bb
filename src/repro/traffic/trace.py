"""Trace container: an ordered packet stream with epoch and host views.

A :class:`Trace` is an immutable ordered sequence of packets.  The paper
partitions traffic across hosts and reports per-epoch results; both views
are provided here.  Partitioning is flow-consistent (all packets of one
flow land on one host) to mirror the paper's hash-based traffic
assignment [47], which avoids double counting across the distributed data
plane.

Besides the packet tuple, every trace carries cached *columnar* views —
``key64`` (pre-folded flow keys, uint64), ``sizes`` (int64) and
``timestamps`` (float64) — computed once per trace.  The data-plane
engine (:mod:`repro.dataplane.engine`) and the vectorized sketch updates
consume these columns instead of walking packet objects.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.common.flow import FlowKey, Packet
from repro.common.hashing import mix64_array

_PARTITION_SEED = 0x5EED_0F_CAFE


class Trace:
    """An ordered, immutable stream of packets.

    Parameters
    ----------
    packets:
        Packets in arrival order.  Timestamps must be non-decreasing;
        this is validated (vectorized, via the timestamp column) because
        the data-plane simulation derives inter-arrival gaps from them.
    """

    __slots__ = (
        "_packets",
        "_timestamps",
        "_key64",
        "_sizes",
        "_partition",
    )

    def __init__(self, packets: Iterable[Packet]):
        self._packets: tuple[Packet, ...] = tuple(packets)
        timestamps = np.fromiter(
            (packet.timestamp for packet in self._packets),
            dtype=np.float64,
            count=len(self._packets),
        )
        if timestamps.size > 1 and np.any(np.diff(timestamps) < 0):
            raise ValueError("packet timestamps must be non-decreasing")
        timestamps.flags.writeable = False
        self._timestamps = timestamps
        self._key64: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        self._partition: tuple[Trace, ...] | None = None

    @classmethod
    def _from_columns(
        cls,
        packets: tuple[Packet, ...],
        timestamps: np.ndarray,
        key64: np.ndarray | None,
        sizes: np.ndarray | None,
    ) -> "Trace":
        """Internal: build a trace from already-validated columns.

        Used by :meth:`partition` / :meth:`split_epochs`, whose shards
        inherit slices of the parent's columns (order-preserving subsets
        of a non-decreasing sequence stay non-decreasing).
        """
        trace = cls.__new__(cls)
        trace._packets = packets
        for column in (timestamps, key64, sizes):
            if column is not None:
                column.flags.writeable = False
        trace._timestamps = timestamps
        trace._key64 = key64
        trace._sizes = sizes
        trace._partition = None
        return trace

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def __getitem__(self, index: int) -> Packet:
        return self._packets[index]

    @property
    def packets(self) -> tuple[Packet, ...]:
        return self._packets

    # ------------------------------------------------------------------
    # Columnar views (computed once, then cached; arrays are read-only)
    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        """Packet timestamps as a read-only float64 column."""
        return self._timestamps

    @property
    def key64(self) -> np.ndarray:
        """Pre-folded 64-bit flow keys as a read-only uint64 column."""
        if self._key64 is None:
            column = np.fromiter(
                (packet.flow.key64 for packet in self._packets),
                dtype=np.uint64,
                count=len(self._packets),
            )
            column.flags.writeable = False
            self._key64 = column
        return self._key64

    @property
    def sizes(self) -> np.ndarray:
        """Packet byte sizes as a read-only int64 column."""
        if self._sizes is None:
            column = np.fromiter(
                (packet.size for packet in self._packets),
                dtype=np.int64,
                count=len(self._packets),
            )
            column.flags.writeable = False
            self._sizes = column
        return self._sizes

    def _take(self, indices: np.ndarray) -> "Trace":
        """A sub-trace at ``indices`` (non-decreasing), sharing columns."""
        packets = tuple(self._packets[i] for i in indices.tolist())
        return Trace._from_columns(
            packets,
            self._timestamps[indices],
            None if self._key64 is None else self._key64[indices],
            None if self._sizes is None else self._sizes[indices],
        )

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Time span covered by the trace (0 for an empty trace)."""
        if not self._packets:
            return 0.0
        return self._packets[-1].timestamp - self._packets[0].timestamp

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def flow_sizes(self) -> dict[FlowKey, int]:
        """Exact per-flow byte counts (the measurement ground truth)."""
        sizes: Counter[FlowKey] = Counter()
        for packet in self._packets:
            sizes[packet.flow] += packet.size
        return dict(sizes)

    def flow_packet_counts(self) -> dict[FlowKey, int]:
        """Exact per-flow packet counts."""
        counts: Counter[FlowKey] = Counter()
        for packet in self._packets:
            counts[packet.flow] += 1
        return dict(counts)

    def flows(self) -> set[FlowKey]:
        return {packet.flow for packet in self._packets}

    def split_epochs(self, epoch_length: float) -> list["Trace"]:
        """Split into consecutive epochs of ``epoch_length`` seconds.

        Epoch boundaries are relative to the first packet's timestamp.
        Every packet belongs to exactly one epoch; empty trailing epochs
        are not emitted.
        """
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        if not self._packets:
            return []
        start = self._timestamps[0]
        indices = (
            (self._timestamps - start) / epoch_length
        ).astype(np.int64)
        return [
            self._take(np.nonzero(indices == epoch)[0])
            for epoch in range(int(indices[-1]) + 1)
            if np.any(indices == epoch)
        ]

    def partition(self, num_hosts: int) -> list["Trace"]:
        """Flow-consistent partition across ``num_hosts`` monitoring hosts.

        Each flow is assigned to ``hash(flow) % num_hosts`` so that no
        flow is observed (and counted) by two hosts — the paper's
        disjoint-monitoring assumption (§3.1).  The assignment hash runs
        vectorized over the ``key64`` column.

        The last result is remembered on the (immutable) trace, like
        the columns: every pipeline of a monitoring window partitions
        the same trace the same way, and gets the same shard objects —
        so the shards' own columns are built once too.  ``sizes`` is
        materialised first so that the shards inherit slices of it.
        """
        if num_hosts < 1:
            raise ValueError("num_hosts must be >= 1")
        if num_hosts == 1:
            return [self]
        cached = self._partition
        if cached is not None and len(cached) == num_hosts:
            return list(cached)
        # Both columns exist before slicing, so the shards inherit them.
        key64, _sizes = self.key64, self.sizes
        shards = (
            mix64_array(key64, seed=_PARTITION_SEED)
            % np.uint64(num_hosts)
        ).astype(np.int64)
        self._partition = tuple(
            self._take(np.nonzero(shards == host)[0])
            for host in range(num_hosts)
        )
        return list(self._partition)

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces; ``other`` is shifted to start after self.

        Used to build multi-epoch workloads from per-epoch generators.
        """
        if not self._packets:
            return other
        if not other._packets:
            return self
        shift = self._packets[-1].timestamp - other._packets[0].timestamp
        if shift < 0:
            shift = 0.0
        shifted = [
            Packet(packet.flow, packet.size, packet.timestamp + shift)
            for packet in other._packets
        ]
        return Trace(list(self._packets) + shifted)

    @staticmethod
    def merge(traces: Sequence["Trace"]) -> "Trace":
        """Merge traces by timestamp order (e.g., re-join host shards)."""
        merged = sorted(
            (packet for trace in traces for packet in trace),
            key=lambda packet: packet.timestamp,
        )
        return Trace(merged)
