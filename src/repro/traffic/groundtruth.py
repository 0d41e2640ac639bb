"""Exact ground truth for every measurement task in §2.1.

The paper generates ground truth "by tracking the whole trace with a very
large hash table" (§7.3); here the trace is in memory, so ground truth is
exact by construction.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.common.flow import FlowKey
from repro.traffic.trace import Trace


@dataclass
class GroundTruth:
    """Exact traffic statistics for one epoch of one trace.

    Attributes
    ----------
    flow_bytes:
        Exact byte count per 5-tuple flow.
    flow_packets:
        Exact packet count per 5-tuple flow.
    fanin:
        Per destination IP: the set of distinct source IPs sending to it.
    fanout:
        Per source IP: the set of distinct destination IPs it sends to.
    """

    flow_bytes: dict[FlowKey, int] = field(default_factory=dict)
    flow_packets: dict[FlowKey, int] = field(default_factory=dict)
    fanin: dict[int, set[int]] = field(default_factory=dict)
    fanout: dict[int, set[int]] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, trace: Trace) -> "GroundTruth":
        # Identity is the FlowKey itself (``key64`` folds 104 bits):
        # the trace sums per flow-table entry, in first-seen order.
        flows, volumes, counts = trace.flow_totals()
        # A (dst, src) pair first appears with its first flow, so
        # walking distinct flows fills every set in packet order.
        fanin: dict[int, set[int]] = defaultdict(set)
        fanout: dict[int, set[int]] = defaultdict(set)
        for flow in flows:
            fanin[flow.dst_ip].add(flow.src_ip)
            fanout[flow.src_ip].add(flow.dst_ip)
        return cls(
            flow_bytes=dict(zip(flows, volumes.tolist())),
            flow_packets=dict(zip(flows, counts.tolist())),
            fanin=dict(fanin),
            fanout=dict(fanout),
        )

    # ------------------------------------------------------------------
    # Task-level answers
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(self.flow_bytes.values())

    @property
    def cardinality(self) -> int:
        """Number of distinct 5-tuple flows (§2.1 'Cardinality')."""
        return len(self.flow_bytes)

    def heavy_hitters(self, threshold: int) -> dict[FlowKey, int]:
        """Flows whose byte count exceeds ``threshold`` in this epoch."""
        return {
            flow: size
            for flow, size in self.flow_bytes.items()
            if size > threshold
        }

    def heavy_changers(
        self, other: "GroundTruth", threshold: int
    ) -> dict[FlowKey, int]:
        """Flows whose |byte-count change| vs ``other`` exceeds threshold."""
        changes: dict[FlowKey, int] = {}
        for flow in set(self.flow_bytes) | set(other.flow_bytes):
            delta = abs(
                self.flow_bytes.get(flow, 0) - other.flow_bytes.get(flow, 0)
            )
            if delta > threshold:
                changes[flow] = delta
        return changes

    def ddos_victims(self, threshold: int) -> dict[int, int]:
        """Destination IPs receiving from more than ``threshold`` sources."""
        return {
            dst: len(srcs)
            for dst, srcs in self.fanin.items()
            if len(srcs) > threshold
        }

    def superspreaders(self, threshold: int) -> dict[int, int]:
        """Source IPs sending to more than ``threshold`` destinations."""
        return {
            src: len(dsts)
            for src, dsts in self.fanout.items()
            if len(dsts) > threshold
        }

    def flow_size_distribution(
        self, bucket_edges: list[int] | None = None
    ) -> dict[int, int]:
        """Histogram of flow *packet counts* per size value.

        Returns ``{size: number of flows with exactly that packet count}``
        when ``bucket_edges`` is None; otherwise counts per bucket, where
        bucket ``i`` covers ``[edges[i], edges[i+1])``.
        """
        counts = Counter(self.flow_packets.values())
        if bucket_edges is None:
            return dict(counts)
        histogram: dict[int, int] = {i: 0 for i in range(len(bucket_edges))}
        for size, num_flows in counts.items():
            for i in reversed(range(len(bucket_edges))):
                if size >= bucket_edges[i]:
                    histogram[i] += num_flows
                    break
        return histogram

    @property
    def entropy(self) -> float:
        """Shannon entropy of the flow byte-count distribution (bits).

        Normalised per the common definition used by UnivMon:
        ``H = -sum_f (v_f / V) log2(v_f / V)``.
        """
        total = self.total_bytes
        if total == 0:
            return 0.0
        entropy = 0.0
        for size in self.flow_bytes.values():
            p = size / total
            entropy -= p * math.log2(p)
        return entropy

    def merge(self, other: "GroundTruth") -> "GroundTruth":
        """Network-wide ground truth from two host-local ground truths."""
        flow_bytes = Counter(self.flow_bytes)
        flow_bytes.update(other.flow_bytes)
        flow_packets = Counter(self.flow_packets)
        flow_packets.update(other.flow_packets)
        fanin = {dst: set(srcs) for dst, srcs in self.fanin.items()}
        for dst, srcs in other.fanin.items():
            fanin.setdefault(dst, set()).update(srcs)
        fanout = {src: set(dsts) for src, dsts in self.fanout.items()}
        for src, dsts in other.fanout.items():
            fanout.setdefault(src, set()).update(dsts)
        return GroundTruth(
            flow_bytes=dict(flow_bytes),
            flow_packets=dict(flow_packets),
            fanin=fanin,
            fanout=fanout,
        )
