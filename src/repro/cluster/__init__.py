"""Real-socket control plane: hosts → aggregators → controller.

The in-process pipeline hands each epoch's reports straight to the
controller; this package ships them over actual TCP connections
instead — same wire frames, same defensive decode, same collection
stats — and inserts a hierarchical aggregator tier that merges the
(linear) sketches pairwise on arrival, so 500–1000 simulated hosts
complete an epoch in bounded controller memory with a single LENS
recovery at the root.

Opt in with ``PipelineConfig(cluster=ClusterConfig(...))`` or
``repro run --cluster``; see ``docs/robustness.md`` ("Cluster transport").
"""

from repro.cluster.aggregator import (
    Aggregator,
    PartialAggregate,
    assign_aggregator,
    rendezvous_aggregator,
    rendezvous_weight,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.framing import DEFAULT_MAX_FRAME_BYTES, FrameAssembler
from repro.cluster.runner import ClusterCollector, FailoverRecord
from repro.cluster.transport import AggregatorListener, HostChannel
from repro.controlplane.transport import (
    ACK,
    ACK_DUP,
    NAK_CORRUPT,
    NAK_STALE,
)

__all__ = [
    "ACK",
    "ACK_DUP",
    "NAK_CORRUPT",
    "NAK_STALE",
    "Aggregator",
    "AggregatorListener",
    "ClusterCollector",
    "ClusterConfig",
    "DEFAULT_MAX_FRAME_BYTES",
    "FailoverRecord",
    "FrameAssembler",
    "HostChannel",
    "PartialAggregate",
    "assign_aggregator",
    "rendezvous_aggregator",
    "rendezvous_weight",
]
