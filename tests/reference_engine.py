"""The per-packet reference loop: the oracle the engine is tested against.

This is the data plane as the paper states it (§3.1, §6), one packet at
a time through the public per-packet protocols — ``sketch.update``,
``fastpath.update``, :class:`BoundedFIFO` — with every report field
updated where the event happens.  It shares no code with
:class:`repro.dataplane.engine.HostEngine` beyond the arrival-clock
helper and the containers, and it is deliberately not resumable: the
engine's chunking, ``stop_at`` resumption and snapshot/restore are all
checked against this uninterrupted run.
"""

from __future__ import annotations

from repro.dataplane.buffer import BoundedFIFO
from repro.dataplane.cost_model import CostModel
from repro.dataplane.engine import SwitchReport, arrival_cycles_array
from repro.dataplane.host import LocalReport
from repro.fastpath.topk import FastPath


def reference_run(
    trace,
    sketch,
    fastpath=None,
    *,
    cost_model: CostModel | None = None,
    buffer_packets: int = 1024,
    ideal: bool = False,
    offered_gbps: float | None = None,
    end_state: dict | None = None,
) -> SwitchReport:
    """Run ``trace`` through ``sketch``/``fastpath`` packet by packet.

    Mutates ``sketch`` and ``fastpath`` exactly as one epoch of the
    switch must, and returns the finalized :class:`SwitchReport`.
    ``end_state``, if given, receives the ``producer`` and ``consumer``
    clocks, the FIFO's enqueue cycles (``queue``) and its
    ``high_water`` as the last packet leaves them, before the drain,
    ``first_full``: the index of the first packet that found the
    FIFO full (``None`` if none did), and the sets of flows sent to
    each path (``normal_flows``, ``fastpath_flows``), which the
    report's two flow counts count.
    """
    cost_model = cost_model or CostModel.in_memory()
    sketch_cycles = cost_model.sketch_cycles(sketch)
    dispatch = cost_model.dispatch_cycles
    arrivals = arrival_cycles_array(trace, offered_gbps, cost_model)
    fifo = BoundedFIFO(buffer_packets)
    report = SwitchReport()
    normal_flows, fastpath_flows = set(), set()
    producer = 0.0  # next cycle the producer is free
    consumer = 0.0  # next cycle the consumer is free
    first_full = None

    for index, packet in enumerate(trace.packets):
        arrival = 0.0 if arrivals is None else float(arrivals[index])
        now = max(producer, arrival)
        # Let the consumer catch up to `now` in parallel.
        while not fifo.empty:
            start = max(consumer, fifo.peek_enqueue_cycle())
            if start + sketch_cycles > now:
                break
            fifo.pop()
            consumer = start + sketch_cycles

        producer = now + dispatch
        report.total_packets += 1
        report.total_bytes += packet.size

        if ideal:
            sketch.update(packet.flow, packet.size)
            consumer = max(consumer, producer) + sketch_cycles
            report.normal_packets += 1
            report.normal_bytes += packet.size
            normal_flows.add(packet.flow)
            continue

        if fifo.full and first_full is None:
            first_full = index
        if fifo.full and fastpath is None:
            # NoFastPath: block until the daemon frees a slot.
            start = max(consumer, fifo.peek_enqueue_cycle())
            fifo.pop()
            consumer = start + sketch_cycles
            producer = max(producer, consumer)

        if not fifo.full:
            fifo.push(producer)
            # Counter state is order-insensitive within an epoch, so
            # the update is applied now; the *cycles* are charged to
            # the consumer when the packet is drained.
            sketch.update(packet.flow, packet.size)
            report.normal_packets += 1
            report.normal_bytes += packet.size
            normal_flows.add(packet.flow)
        else:
            kind = fastpath.update(packet.flow, packet.size)
            producer += cost_model.fastpath_cycles(kind, fastpath.capacity)
            report.fastpath_packets += 1
            report.fastpath_bytes += packet.size
            fastpath_flows.add(packet.flow)

    if end_state is not None:
        end_state.update(
            producer=producer,
            consumer=consumer,
            queue=list(fifo.queue),
            high_water=fifo.high_water,
            first_full=first_full,
            normal_flows=normal_flows,
            fastpath_flows=fastpath_flows,
        )
    while not fifo.empty:
        consumer = max(consumer, fifo.pop()) + sketch_cycles

    report.flow_count = len(normal_flows | fastpath_flows)
    report.fastpath_flow_count = len(fastpath_flows)
    report.buffer_high_water = fifo.high_water
    report.producer_cycles = producer
    report.consumer_cycles = consumer
    report.makespan_cycles = max(producer, consumer)
    report.throughput_gbps = cost_model.gbps(
        report.total_bytes, report.makespan_cycles
    )
    return report


def reference_reports(task, trace, config) -> list[LocalReport]:
    """What each host of a SketchVisor-mode pipeline built from ``task``
    and ``config`` must report for the epoch ``trace``."""
    reports = []
    for host_id, shard in enumerate(trace.partition(config.num_hosts)):
        sketch = task.create_sketch(seed=config.seed)
        fastpath = FastPath(config.fastpath_bytes)
        switch = reference_run(
            shard,
            sketch,
            fastpath,
            cost_model=config.cost_model,
            buffer_packets=config.buffer_packets,
            offered_gbps=config.offered_gbps,
        )
        reports.append(
            LocalReport(host_id, sketch, fastpath.snapshot(), switch)
        )
    return reports
