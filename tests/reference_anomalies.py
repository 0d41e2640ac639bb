"""Packet-object anomaly injection: the oracle for the column splice.

This is ``repro.traffic.anomalies`` as it was written first — every
attack packet a :class:`Packet`, the splice a ``sorted`` over every base
packet plus the extra ones, and the result numbered again from the
packet list.  The functions in ``src/`` build columns and must return
traces equal to these column for column, flow table order included.
"""

from __future__ import annotations

import numpy as np

from repro.common.flow import PROTO_UDP, FlowKey, Packet
from repro.traffic.trace import Trace

_ATTACK_PACKET_SIZE = 120  # small packets, typical of floods


def _splice(trace: Trace, extra: list[Packet]) -> Trace:
    """Merge extra packets into a trace preserving timestamp order."""
    merged = sorted(
        list(trace.packets) + extra, key=lambda packet: packet.timestamp
    )
    return Trace(merged)


def inject_ddos_victims(
    trace: Trace,
    num_victims: int,
    sources_per_victim: int,
    packets_per_source: int = 10,
    seed: int = 7,
) -> tuple[Trace, list[int]]:
    """Inject ``num_victims`` destinations flooded by many distinct sources.

    Each victim receives a flood flow of ``packets_per_source`` small
    packets from each of ``sources_per_victim`` distinct source IPs
    (drawn from a reserved IP range above 2**24, which the base
    generator never uses), spread uniformly over the trace duration —
    real flood sources fire repeatedly, which is also what lets a
    partially-observing data plane still see most of them.

    Returns the new trace and the victim destination IPs.
    """
    if num_victims < 1 or sources_per_victim < 1:
        raise ValueError("num_victims and sources_per_victim must be >= 1")
    if packets_per_source < 1:
        raise ValueError("packets_per_source must be >= 1")
    rng = np.random.default_rng(seed)
    start = trace.packets[0].timestamp if len(trace) else 0.0
    duration = trace.duration or 1.0
    victims = [2**24 + 1000 + i for i in range(num_victims)]
    extra: list[Packet] = []
    for victim_index, victim in enumerate(victims):
        for source_index in range(sources_per_victim):
            flow = FlowKey(
                src_ip=2**25 + victim_index * 1_000_000 + source_index,
                dst_ip=victim,
                src_port=int(rng.integers(1024, 65536)),
                dst_port=80,
                proto=PROTO_UDP,
            )
            for _ in range(packets_per_source):
                timestamp = start + float(rng.uniform(0.0, duration))
                extra.append(
                    Packet(flow, _ATTACK_PACKET_SIZE, timestamp)
                )
    return _splice(trace, extra), victims


def inject_superspreaders(
    trace: Trace,
    num_spreaders: int,
    destinations_per_spreader: int,
    packets_per_destination: int = 10,
    seed: int = 11,
) -> tuple[Trace, list[int]]:
    """Inject sources that each contact many distinct destinations.

    The mirror image of :func:`inject_ddos_victims` (§2.1: a
    superspreader is the opposite of a DDoS victim).
    """
    if num_spreaders < 1 or destinations_per_spreader < 1:
        raise ValueError(
            "num_spreaders and destinations_per_spreader must be >= 1"
        )
    if packets_per_destination < 1:
        raise ValueError("packets_per_destination must be >= 1")
    rng = np.random.default_rng(seed)
    start = trace.packets[0].timestamp if len(trace) else 0.0
    duration = trace.duration or 1.0
    spreaders = [2**24 + 2000 + i for i in range(num_spreaders)]
    extra: list[Packet] = []
    for spreader_index, spreader in enumerate(spreaders):
        for dest_index in range(destinations_per_spreader):
            flow = FlowKey(
                src_ip=spreader,
                dst_ip=2**26 + spreader_index * 1_000_000 + dest_index,
                src_port=int(rng.integers(1024, 65536)),
                dst_port=443,
                proto=PROTO_UDP,
            )
            for _ in range(packets_per_destination):
                timestamp = start + float(rng.uniform(0.0, duration))
                extra.append(
                    Packet(flow, _ATTACK_PACKET_SIZE, timestamp)
                )
    return _splice(trace, extra), spreaders


def inject_heavy_changes(
    epoch_a: Trace,
    epoch_b: Trace,
    num_changers: int,
    change_bytes: int,
    seed: int = 13,
) -> tuple[Trace, Trace, list[FlowKey]]:
    """Create flows whose volume changes by ``change_bytes`` across epochs.

    Each injected flow sends ``change_bytes`` in epoch B but nothing in
    epoch A (the maximal change), as a burst of MTU-sized packets.

    Returns the (unchanged) epoch A, the modified epoch B, and the
    injected changer flows.
    """
    if num_changers < 1 or change_bytes < 1:
        raise ValueError("num_changers and change_bytes must be >= 1")
    rng = np.random.default_rng(seed)
    start = epoch_b.packets[0].timestamp if len(epoch_b) else 0.0
    duration = epoch_b.duration or 1.0
    changers: list[FlowKey] = []
    extra: list[Packet] = []
    packet_size = 1500
    packets_needed = max(1, change_bytes // packet_size)
    remainder = change_bytes - (packets_needed - 1) * packet_size
    for changer_index in range(num_changers):
        flow = FlowKey(
            src_ip=2**24 + 3000 + changer_index,
            dst_ip=2**24 + 900_000 + changer_index,
            src_port=40_000 + changer_index % 20_000,
            dst_port=8080,
        )
        changers.append(flow)
        for packet_index in range(packets_needed):
            size = packet_size if packet_index else remainder
            timestamp = start + float(rng.uniform(0.0, duration))
            extra.append(Packet(flow, max(64, size), timestamp))
    return epoch_a, _splice(epoch_b, extra), changers
