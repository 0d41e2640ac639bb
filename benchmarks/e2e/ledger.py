"""The traced pass of a batch workload: the per-layer ledger.

Each iteration runs the epoch three ways on the same packets:

1. ``pipeline.run_epoch`` untraced — the wall time the ledger has to
   explain, and the answer it has to reproduce;
2. call by call from here, the way ``run_epoch`` makes the calls, with a
   span around each call into a layer's public function;
3. probes — one layer's function on this epoch's shard or reports, on a
   fresh object, outside both timings (a sketch kernel, Algorithm 1, the
   wire codec, a snapshot).

Spans are recorded from the harness, around the calls; there are none
inside the program.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

from repro.cluster import ClusterCollector, ClusterConfig
from repro.controlplane.merge import (
    merge_fastpath_snapshots,
    merge_sketches,
)
from repro.controlplane.recovery import recover
from repro.controlplane.transport import decode_report, encode_report
from repro.dataplane.engine import HostEngine
from repro.dataplane.host import Host
from repro.durability import StateCodec, Supervisor
from repro.fastpath.topk import FastPath
from repro.sketches.base import Sketch
from repro.telemetry import Telemetry
from repro.telemetry.exporters import prometheus_text

import batch
from spec import EXACT
from harness import (
    Budget,
    Gate,
    SpanRecorder,
    Speedometer,
    count_series,
    mean_counts,
)

#: Spans whose self time makes a ledger row ``<name>_s``; ``epoch`` is
#: their parent and its self time is what the rows leave unexplained.
LEDGER_SPANS = (
    "traffic.partition",
    "dataplane.build_hosts",
    "dataplane.host_epoch",
    "cluster.collect",
    "merge.sketches",
    "merge.snapshots",
    "recovery.recover",
    "tasks.answer",
    "tasks.score",
)


def timed(call, *args):
    start = time.perf_counter()
    value = call(*args)
    return value, time.perf_counter() - start


def step_epoch(rec, epoch, pipeline, epoch_input, collector, supervisor):
    """One epoch call by call; returns what the probes and the answer
    check need."""
    task, cfg = pipeline.task, pipeline.config
    trace = epoch_input.fresh()
    with rec.span("epoch", epoch):
        with rec.span("traffic.partition", epoch):
            shards = trace.partition(cfg.num_hosts)
        with rec.span("dataplane.build_hosts", epoch):
            hosts = [
                Host(
                    host_id=host_id,
                    sketch=task.create_sketch(seed=cfg.seed),
                    fastpath_bytes=cfg.fastpath_bytes,
                    cost_model=cfg.cost_model,
                    buffer_packets=cfg.buffer_packets,
                    batch=cfg.batch,
                )
                for host_id in range(cfg.num_hosts)
            ]
        reports = []
        for host, shard in zip(hosts, shards):
            with rec.span("dataplane.host_epoch", epoch):
                if supervisor is None:
                    report = host.run_epoch(shard, cfg.offered_gbps)
                else:
                    (outcome,) = supervisor.run_epoch(
                        [host], [shard], cfg.offered_gbps, epoch
                    )
                    report = outcome.report
            reports.append(report)
        collection = None
        merged_from = reports
        if collector is not None:
            with rec.span("cluster.collect", epoch):
                collection = collector.collect(reports, epoch)
            merged_from = collection.reports
        with rec.span("merge.sketches", epoch):
            sketch = merge_sketches([r.sketch for r in merged_from])
        with rec.span("merge.snapshots", epoch):
            snapshot = merge_fastpath_snapshots(
                [r.fastpath for r in merged_from]
            )
        with rec.span("recovery.recover", epoch):
            state = recover(
                normal=sketch,
                snapshot=snapshot,
                mode=pipeline.recovery,
                lens_config=cfg.lens,
            )
        with rec.span("tasks.answer", epoch):
            answer = task.answer(state.sketch)
        with rec.span("tasks.score", epoch):
            task.score(answer, epoch_input.truth)
    return answer, shards, hosts, reports, collection


def apply_normal_path(sketch: Sketch, shard) -> None:
    """Every packet of ``shard`` into ``sketch`` the way the batched
    switch does it: one ``update_batch`` where the sketch has key64
    updates, the per-packet loop where it has not."""
    if sketch.key64_updates:
        sketch.update_batch(shard.key64, shard.sizes)
    else:
        for packet in shard.packets:
            sketch.update(packet.flow, packet.size)


def replay_fastpath(fastpath: FastPath, shard) -> None:
    for packet in shard.packets:
        fastpath.update(packet.flow, packet.size)


def probe(pipeline, epoch, shards, hosts, reports, collect_s) -> dict:
    """Single-layer measurements on this epoch's first shard and reports."""
    task, cfg = pipeline.task, pipeline.config
    shard = shards[0]
    per_packet = 1e9 / max(1, len(shard))
    sketch = task.create_sketch(seed=cfg.seed)
    _, update_s = timed(apply_normal_path, sketch, shard)
    _, fastpath_s = timed(
        replay_fastpath, FastPath(cfg.fastpath_bytes), shard
    )
    frames, encode_s = timed(
        lambda: [encode_report(report, epoch) for report in reports]
    )
    decoded, decode_s = timed(
        lambda: [decode_report(frame) for frame in frames]
    )
    rows = {
        "sketches.update_batch_ns_per_pkt": update_s * per_packet,
        "sketches.batch_kernel": int(
            sketch.key64_updates
            and type(sketch).update_batch is not Sketch.update_batch
        ),
        "sketches.memory_bytes": sketch.memory_bytes(),
        "fastpath.update_ns_per_pkt": fastpath_s * per_packet,
        "transport.encode_s": encode_s,
        "transport.decode_s": decode_s,
        "transport.frame_bytes": sum(len(frame) for frame in frames),
    }
    if collect_s is not None:
        _, merge_s = timed(
            lambda: (
                merge_sketches([r.sketch for r in decoded]),
                merge_fastpath_snapshots([r.fastpath for r in decoded]),
            )
        )
        rows["cluster.vs_inprocess_ratio"] = collect_s / (
            encode_s + decode_s + merge_s
        )
    if pipeline.config.checkpoint_dir is not None:
        host = hosts[0]
        engine = HostEngine(
            sketch=host.sketch,
            fastpath=host.fastpath,
            cost_model=host.switch.cost_model,
            fifo=host.switch.buffer,
        )
        blob, snapshot_s = timed(StateCodec().snapshot_engine, engine)
        rows["durability.snapshot_s"] = snapshot_s
        rows["durability.snapshot_bytes"] = len(blob)
    return rows


def trace_batch(
    name: str,
    setup: batch.Setup,
    gate: Gate,
    budget: Budget,
    workdir: Path,
    trace_path: Path,
) -> dict:
    """Run the traced pass; returns the per-layer metrics ``name`` owes
    (all but the set-up rows, which the caller has)."""
    spec = batch.SPECS[name]
    pipeline = setup.pipeline
    collector = (
        ClusterCollector(ClusterConfig()) if spec.cluster else None
    )
    supervisor = (
        Supervisor(str(workdir / "checkpoints-ledger"))
        if spec.durable
        else None
    )
    # A second pipeline that differs in one setting gives a ratio on the
    # same epochs: durability off, or telemetry on.
    telemetry = Telemetry() if name == "dp_overload" else None
    other = (
        batch.make_pipeline(spec, pipeline.task, None, telemetry)
        if spec.durable or telemetry is not None
        else None
    )

    rec = SpanRecorder()
    #: Per iteration: untraced wall, stepped wall over it, the other
    #: pipeline's wall over it, and the ledger rows of the stepped epoch.
    untraced, step_ratio, other_ratio, rows = [], [], [], []
    probes: dict[str, list[float]] = {}
    retries = backpressure_waits = 0
    per_input: dict[int, dict] = {}
    meter = Speedometer()
    done = 0
    while budget.more(done):
        index = done % len(setup.inputs)
        epoch_input = setup.inputs[index]
        epoch = done
        done += 1
        result, wall, _cpu = batch.timed_epoch(pipeline, epoch_input)
        meter.factor()
        if result is None:
            gate.operation(False, f"{name}[{index}]: exception")
            continue
        counts = gate.epoch(result, index)
        per_input.setdefault(index, counts)
        (answer, shards, hosts, reports, collection), stepped = timed(
            step_epoch,
            rec, epoch, pipeline, epoch_input, collector, supervisor,
        )  # fmt: skip
        gate.operation(
            answer == result.answer,
            f"{name}[{index}]: stepped answer differs from run_epoch's",
        )
        row = rec.self_times()[epoch]
        row["packets"] = len(epoch_input.trace)
        untraced.append(wall)
        step_ratio.append(stepped / wall)
        rows.append(row)
        probed = probe(
            pipeline, epoch, shards, hosts, reports, row.get("cluster.collect")
        )
        if collection is not None:
            probed["cluster.frames"] = collection.hosts_reported
            retries += collection.stats.retries
            backpressure_waits += collection.stats.backpressure_waits
        for key, value in probed.items():
            if key in EXACT:
                # Kept with the input's counts the first time it is seen.
                counts[key] = value
            else:
                probes.setdefault(key, []).append(value)
        if other is not None:
            _, other_wall, _ = batch.timed_epoch(other, epoch_input)
            other_ratio.append(other_wall / wall)
    rec.write_chrome_trace(trace_path)

    metrics = {
        f"{span}_s": median(row[span] for row in rows)
        for span in LEDGER_SPANS
        if span in rows[0]
    }
    metrics["dataplane.ns_per_pkt"] = median(
        row["dataplane.host_epoch"] * 1e9 / row["packets"] for row in rows
    )
    # Both honesty checks pair each untraced epoch with the stepped one
    # that followed it, so a slow spell of the machine hits both sides.
    metrics["pipeline.unattributed_frac"] = median(
        1 - sum(row[span] for span in LEDGER_SPANS if span in row) / wall
        for row, wall in zip(rows, untraced)
    )
    metrics["pipeline.trace_overhead_ratio"] = median(step_ratio)
    # Layer times are as measured; this says how slow the machine was.
    metrics["machine.speed_factor"] = median(meter.factors)
    metrics.update({key: median(values) for key, values in probes.items()})
    metrics.update(mean_counts(list(per_input.values())))
    if spec.cluster:
        metrics["cluster.retries"] = retries
        metrics["cluster.backpressure_waits"] = backpressure_waits
    if spec.durable:
        metrics["durability.overhead_ratio"] = 1 / median(other_ratio)
    if telemetry is not None:
        metrics["telemetry.overhead_ratio"] = median(other_ratio)
        text, render_s = timed(prometheus_text, telemetry.registry)
        metrics["telemetry.prometheus_text_s"] = render_s
        metrics["telemetry.series"] = count_series(text)
    return {
        "samples": len(untraced),
        "epoch_s": untraced,
        "metrics": metrics,
    }
