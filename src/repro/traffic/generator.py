"""Synthetic heavy-tailed trace generation.

Flow sizes follow a bounded Zipf (power-law) distribution — the
"heavy-tailed patterns dominated by a few large flows" [54, 59] that the
fast path's design assumes.  Per-epoch scale knobs default to a scaled
version of the paper's CAIDA workload (§7.1: 30-70K flows, 370-480K
packets, 260-330MB per host-epoch; mean packet size 769 bytes).

Generation is fully deterministic for a given :class:`TraceConfig` seed.
Traces are built as columns (:meth:`Trace.from_columns`): the drawn
flows are the flow table, and no packet objects are made.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.common.flow import PROTO_TCP, PROTO_UDP, FlowKey
from repro.traffic.trace import Trace

MEAN_PACKET_SIZE = 769  # bytes; the paper's dataset mean (§7.1)
MAX_PACKET_SIZE = 1500
MIN_PACKET_SIZE = 64


@dataclass(frozen=True)
class TraceConfig:
    """Parameters for synthetic trace generation.

    Attributes
    ----------
    num_flows:
        Number of distinct 5-tuple flows in the epoch.
    zipf_alpha:
        Power-law exponent of flow sizes.  1.0-1.3 matches wide-area
        measurements; larger means more skew.
    duration:
        Epoch length in seconds (packet timestamps span ``[0, duration)``).
    mean_packet_size:
        Mean packet size in bytes.
    num_hosts_space:
        Size of the IP space to draw endpoints from.  Smaller values
        create more host-level aggregation (useful for DDoS/SS tasks).
    seed:
        RNG seed; equal configs generate identical traces.
    """

    num_flows: int = 5_000
    zipf_alpha: float = 1.2
    duration: float = 1.0
    mean_packet_size: int = MEAN_PACKET_SIZE
    num_hosts_space: int = 4_096
    seed: int = 1
    #: Fraction of packets concentrated into short bursts (0 = smooth
    #: arrivals).  Bursts are what overflow the FIFO in practice —
    #: "achieving line-rate measurement remains critical, especially in
    #: the face of traffic bursts" (§1).
    burstiness: float = 0.0
    #: Length of each burst as a fraction of the epoch.
    burst_width: float = 0.02

    def with_seed(self, seed: int) -> "TraceConfig":
        """A copy of this config with a different seed (for new epochs)."""
        return replace(self, seed=seed)


def zipf_flow_sizes(
    num_flows: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``num_flows`` packet counts from a bounded Zipf distribution.

    Returns packet counts per flow (>= 1), heavy-tailed with exponent
    ``alpha``: rank ``i`` gets weight ``1 / i**alpha``, scaled so the
    largest flows have hundreds of packets at the default scale.
    """
    if num_flows < 1:
        raise ValueError("num_flows must be >= 1")
    ranks = np.arange(1, num_flows + 1, dtype=np.float64)
    weights = ranks**-alpha
    # Scale so a mid-size trace lands near the paper's packets/flows ratio
    # (~8-12 packets per flow on average) while keeping min 1 packet.
    target_mean = 9.0
    counts = weights * (target_mean * num_flows / weights.sum())
    counts = np.maximum(1, np.round(counts)).astype(np.int64)
    # Random jitter so sizes aren't perfectly rank-ordered deterministic.
    jitter = rng.uniform(0.8, 1.25, size=num_flows)
    counts = np.maximum(1, np.round(counts * jitter)).astype(np.int64)
    return counts


def _random_flow_keys(
    num_flows: int, host_space: int, rng: np.random.Generator
) -> list[FlowKey]:
    """Draw distinct random 5-tuples from a bounded host space."""
    keys: set[FlowKey] = set()
    result: list[FlowKey] = []
    while len(result) < num_flows:
        need = num_flows - len(result)
        src = rng.integers(1, host_space + 1, size=need, dtype=np.int64)
        dst = rng.integers(1, host_space + 1, size=need, dtype=np.int64)
        sport = rng.integers(1024, 65536, size=need, dtype=np.int64)
        dport = rng.integers(1, 1024, size=need, dtype=np.int64)
        proto = rng.choice([PROTO_TCP, PROTO_UDP], size=need, p=[0.85, 0.15])
        for i in range(need):
            key = FlowKey(
                src_ip=int(src[i]),
                dst_ip=int(dst[i]),
                src_port=int(sport[i]),
                dst_port=int(dport[i]),
                proto=int(proto[i]),
            )
            if key not in keys:
                keys.add(key)
                result.append(key)
    return result


#: Real traffic clusters at a handful of exact packet sizes (ACKs at the
#: minimum, MTU-sized data, and path-MTU remnants).  The mixture below
#: has mean ~769 bytes, the paper's dataset mean.  The exact clustering
#: matters for fast-path dynamics: flows inserted at identical sizes are
#: whittled to zero together, so one kick-out pass evicts many of them —
#: the amortization Figure 16(a) measures.
_PACKET_SIZE_VALUES = np.array([64, 576, 1500], dtype=np.int64)
_PACKET_SIZE_PROBS = np.array([0.38, 0.20, 0.42])


def _packet_sizes(
    count: int, mean_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw packet sizes from the discrete empirical mixture.

    When ``mean_size`` differs from the default 769, the large-packet
    probability is shifted to match it while keeping the discrete
    support (sizes stay clustered at exact values).
    """
    probs = _PACKET_SIZE_PROBS
    default_mean = float(_PACKET_SIZE_VALUES @ probs)
    if abs(mean_size - default_mean) > 1.0:
        # Move mass between the smallest and largest size to hit the
        # requested mean; clamp to keep a valid distribution.
        small, mid, large = _PACKET_SIZE_VALUES.astype(np.float64)
        mid_p = probs[1]
        large_p = (mean_size - mid_p * mid - small * (1 - mid_p)) / (
            large - small
        )
        large_p = min(max(large_p, 0.01), 1.0 - mid_p - 0.01)
        probs = np.array([1.0 - mid_p - large_p, mid_p, large_p])
    return rng.choice(_PACKET_SIZE_VALUES, size=count, p=probs)


def _arrival_times(
    config: TraceConfig, total_packets: int, rng: np.random.Generator
) -> np.ndarray:
    """Packet arrival times: smooth, or with concentrated bursts.

    With ``burstiness = b``, a ``b`` fraction of packets lands inside
    a handful of ``burst_width``-long windows — the transient spikes
    the FIFO must absorb and the fast path must survive (§1, §3.1).
    """
    if not 0.0 <= config.burstiness <= 1.0:
        raise ValueError("burstiness must be in [0, 1]")
    smooth = rng.uniform(0.0, config.duration, size=total_packets)
    if config.burstiness <= 0.0:
        return smooth
    in_burst = rng.random(total_packets) < config.burstiness
    num_bursts = max(1, int(round(0.05 / config.burst_width)))
    starts = rng.uniform(
        0.0,
        config.duration * (1.0 - config.burst_width),
        size=num_bursts,
    )
    chosen = rng.integers(0, num_bursts, size=total_packets)
    burst_times = starts[chosen] + rng.uniform(
        0.0, config.duration * config.burst_width, size=total_packets
    )
    return np.where(in_burst, burst_times, smooth)


_SYN_PROBABILITY = 0.85


def _syn_first_packets(
    sizes: np.ndarray, flow_index: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Force most flows to open with a minimum-size packet (TCP SYN).

    Real connections start with a handshake packet at the minimum size;
    this detail matters downstream because fast-path insertions then
    cluster at identical residuals and are evicted in batches (§4.1's
    amortization, Figure 16a).
    """
    sizes = sizes.copy()
    # Each flow's first position, in ascending flow order.
    _, firsts = np.unique(flow_index, return_index=True)
    is_syn = rng.random(len(firsts)) < _SYN_PROBABILITY
    sizes[firsts[is_syn]] = MIN_PACKET_SIZE
    return sizes


def generate_trace(config: TraceConfig) -> Trace:
    """Generate one epoch of synthetic heavy-tailed traffic.

    Packets of all flows are interleaved uniformly over the epoch, which
    models the paper's replay setup (hosts send "as fast as possible",
    so the offered load is effectively flat within an epoch).
    """
    rng = np.random.default_rng(config.seed)
    packet_counts = zipf_flow_sizes(config.num_flows, config.zipf_alpha, rng)
    flow_keys = _random_flow_keys(
        config.num_flows, config.num_hosts_space, rng
    )

    total_packets = int(packet_counts.sum())
    flow_index = np.repeat(
        np.arange(config.num_flows, dtype=np.int64), packet_counts
    )
    timestamps = _arrival_times(config, total_packets, rng)
    order = np.argsort(timestamps, kind="stable")
    flow_index = flow_index[order]
    timestamps = timestamps[order]
    sizes = _packet_sizes(total_packets, config.mean_packet_size, rng)
    sizes = _syn_first_packets(sizes, flow_index, rng)
    return Trace.from_columns(timestamps, sizes, flow_index, flow_keys)


def generate_epochs(
    config: TraceConfig, num_epochs: int, churn: float = 0.3
) -> list[Trace]:
    """Generate consecutive epochs with persistent flow population.

    Flow keys persist across epochs.  Each epoch, a ``churn`` fraction
    of the rank->flow assignment is re-shuffled: churned flows change
    size dramatically (heavy changers exist) while the rest keep their
    standing (persistent heavy hitters exist).  Epoch ``i`` spans
    ``[i * duration, (i+1) * duration)``.
    """
    if num_epochs < 1:
        raise ValueError("num_epochs must be >= 1")
    if not 0.0 <= churn <= 1.0:
        raise ValueError("churn must be in [0, 1]")
    rng = np.random.default_rng(config.seed)
    table = tuple(
        _random_flow_keys(config.num_flows, config.num_hosts_space, rng)
    )
    assignment = rng.permutation(config.num_flows)
    epochs: list[Trace] = []
    for epoch_index in range(num_epochs):
        epoch_rng = np.random.default_rng(
            (config.seed, epoch_index, 0xE90C)
        )
        packet_counts = zipf_flow_sizes(
            config.num_flows, config.zipf_alpha, epoch_rng
        )
        if epoch_index > 0 and churn > 0:
            # Re-shuffle a churn-fraction of ranks among themselves.
            num_churned = max(1, int(churn * config.num_flows))
            churned = epoch_rng.choice(
                config.num_flows, size=num_churned, replace=False
            )
            assignment = assignment.copy()
            assignment[churned] = assignment[
                epoch_rng.permutation(churned)
            ]
        total_packets = int(packet_counts.sum())
        flow_index = np.repeat(assignment, packet_counts)
        offset = epoch_index * config.duration
        timestamps = offset + epoch_rng.uniform(
            0.0, config.duration, size=total_packets
        )
        order = np.argsort(timestamps, kind="stable")
        flow_index = flow_index[order]
        timestamps = timestamps[order]
        sizes = _packet_sizes(
            total_packets, config.mean_packet_size, epoch_rng
        )
        sizes = _syn_first_packets(sizes, flow_index, epoch_rng)
        epochs.append(
            Trace.from_columns(timestamps, sizes, flow_index, table)
        )
    return epochs
