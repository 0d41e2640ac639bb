"""Anomaly injection: DDoS victims, superspreaders, heavy changes.

Synthetic base traffic rarely contains hosts with fan-in/fan-out far
above the crowd, so the DDoS and superspreader tasks would have nothing
to detect.  These helpers splice anomalous flows into an existing trace
while keeping timestamps ordered, and return both the new trace and the
injected entities so tests can assert detection against a known answer.

Attack traffic is built as columns (:func:`number_headers`) and merged
with the base trace's columns by one stable timestamp sort; no packet
object is built on either side.
"""

from __future__ import annotations

import numpy as np

from repro.common.flow import PROTO_TCP, PROTO_UDP, FlowKey
from repro.traffic.trace import Trace, first_seen, number_headers

_ATTACK_PACKET_SIZE = 120  # small packets, typical of floods


def _splice(trace: Trace, timestamps, sizes, flow, table) -> Trace:
    """Merge extra packets, given as columns over their own flow
    ``table``, into ``trace`` preserving timestamp order.

    Packets with equal timestamps keep the trace's first, then the
    extra ones in their order.  An extra flow equal to one of the
    trace's is that flow, and the result's table lists the flows in
    order of first appearance in the merged stream.
    """
    known = {entry: index for index, entry in enumerate(trace.table)}
    offset = len(trace.table)
    remap = np.array(
        [known.get(entry, offset + i) for i, entry in enumerate(table)],
        dtype=np.intp,
    )
    candidates = trace.table + tuple(table)
    merged = np.concatenate([trace.timestamps, timestamps])
    order = np.argsort(merged, kind="stable")
    merged_flow = np.concatenate([trace.flow, remap[flow]])[order]
    distinct, _first, renumbered = first_seen(merged_flow, len(candidates))
    return Trace.from_columns(
        merged[order],
        np.concatenate([trace.sizes, sizes])[order],
        renumbered,
        map(candidates.__getitem__, distinct.tolist()),
    )


def _span(trace: Trace) -> tuple[float, float]:
    """Where injected packets go: the trace's first timestamp and its
    duration (0.0 and 1.0 for a trace with nothing to span)."""
    start = float(trace.timestamps[0]) if len(trace) else 0.0
    return start, trace.duration or 1.0


def _flood(trace, rng, src, dst, dst_port, packets_per_flow) -> Trace:
    """UDP flows ``src[i] -> dst[i]:dst_port``, each from a drawn source
    port and of ``packets_per_flow`` small packets at uniform times over
    the trace, spliced into it.

    Per flow, the port and then its packets' times are drawn, in flow
    order: the order the generator stream has always been read in.
    """
    start, duration = _span(trace)
    flows = len(src)
    ports = np.empty(flows, dtype=np.int64)
    offsets = np.empty((flows, packets_per_flow))
    for index in range(flows):
        ports[index] = rng.integers(1024, 65536)
        offsets[index] = rng.uniform(0.0, duration, packets_per_flow)
    flow, table = number_headers(
        src,
        dst,
        ports,
        np.full(flows, dst_port),
        np.full(flows, PROTO_UDP),
    )
    return _splice(
        trace,
        (start + offsets).reshape(-1),
        np.full(offsets.size, _ATTACK_PACKET_SIZE),
        np.repeat(flow, packets_per_flow),
        table,
    )


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
    victims = [2**24 + 1000 + i for i in range(num_victims)]
    victim_index, source_index = np.divmod(
        np.arange(num_victims * sources_per_victim), sources_per_victim
    )
    spliced = _flood(
        trace,
        np.random.default_rng(seed),
        2**25 + victim_index * 1_000_000 + source_index,
        2**24 + 1000 + victim_index,
        80,
        packets_per_source,
    )
    return spliced, victims


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
    spreaders = [2**24 + 2000 + i for i in range(num_spreaders)]
    spreader_index, dest_index = np.divmod(
        np.arange(num_spreaders * destinations_per_spreader),
        destinations_per_spreader,
    )
    spliced = _flood(
        trace,
        np.random.default_rng(seed),
        2**24 + 2000 + spreader_index,
        2**26 + spreader_index * 1_000_000 + dest_index,
        443,
        packets_per_destination,
    )
    return spliced, spreaders


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
    start, duration = _span(epoch_b)
    packet_size = 1500
    packets_needed = max(1, change_bytes // packet_size)
    remainder = change_bytes - (packets_needed - 1) * packet_size
    changer_index = np.arange(num_changers)
    flow, table = number_headers(
        2**24 + 3000 + changer_index,
        2**24 + 900_000 + changer_index,
        40_000 + changer_index % 20_000,
        np.full(num_changers, 8080),
        np.full(num_changers, PROTO_TCP),
    )
    # Each changer's first packet carries the remainder.
    sizes = np.full((num_changers, packets_needed), packet_size)
    sizes[:, 0] = max(64, remainder)
    offsets = rng.uniform(0.0, duration, (num_changers, packets_needed))
    spliced = _splice(
        epoch_b,
        (start + offsets).reshape(-1),
        sizes.reshape(-1),
        np.repeat(flow, packets_needed),
        table,
    )
    return epoch_a, spliced, list(map(table.__getitem__, flow.tolist()))
