"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate
    Produce a synthetic heavy-tailed trace and save it (npz or csv).
run
    Run one measurement task over a trace (generated or loaded) through
    the full SketchVisor pipeline and print the score.  ``--trace``
    additionally prints the per-epoch stage-timing tree and dumps a
    ``chrome://tracing``-loadable JSON profile; ``--prom`` / ``--json``
    export the run's metrics (Prometheus text / JSON snapshot).
dash
    Stream a multi-epoch run as a live terminal dashboard (sparkline
    trends, accuracy gauges, SLO breaches) and optionally write a
    self-contained HTML report.
serve
    Run the streaming measurement daemon with its live HTTP plane.
inspect
    Print ground-truth statistics of a trace.
convert
    Convert between trace formats (npz / csv / pcap).
bench-summary
    Digest the experiment tables under benchmarks/results/.
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster import ClusterConfig
from repro.common.errors import ConfigError, QuorumError
from repro.controlplane.recovery import RecoveryMode
from repro.durability import DEFAULT_CHECKPOINT_EVERY
from repro.faults import FaultPlan
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import (
    EpochResult,
    PipelineConfig,
    SketchVisorPipeline,
)
from repro.framework.registry import TASK_REGISTRY, create_task
from repro.reporting import span_tree
from repro.tasks.heavy_changer import HeavyChangerTask
from repro.telemetry import (
    Telemetry,
    write_chrome_trace,
    write_json_snapshot,
    write_prometheus,
)
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.io import export_csv, import_csv, load_trace, save_trace
from repro.traffic.trace import Trace


def _load_any(path: str) -> Trace:
    if path.endswith(".csv"):
        return import_csv(path)
    if path.endswith(".pcap"):
        from repro.traffic.pcap import read_pcap

        trace, _stats = read_pcap(path)
        return trace
    return load_trace(path)


def _save_any(trace: Trace, path: str) -> None:
    if path.endswith(".csv"):
        export_csv(trace, path)
    elif path.endswith(".pcap"):
        from repro.traffic.pcap import write_pcap

        write_pcap(trace, path)
    else:
        save_trace(trace, path)


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = generate_trace(
        TraceConfig(
            num_flows=args.flows,
            zipf_alpha=args.alpha,
            duration=args.duration,
            seed=args.seed,
            burstiness=args.burstiness,
        )
    )
    _save_any(trace, args.output)
    truth = GroundTruth.from_trace(trace)
    print(
        f"wrote {args.output}: {len(trace):,} packets, "
        f"{truth.cardinality:,} flows, "
        f"{truth.total_bytes / 1e6:.1f} MB"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    trace = _load_any(args.trace)
    truth = GroundTruth.from_trace(trace)
    threshold = args.hh_fraction * truth.total_bytes
    print(f"packets        : {len(trace):,}")
    print(f"flows          : {truth.cardinality:,}")
    print(f"bytes          : {truth.total_bytes:,}")
    print(f"duration       : {trace.duration:.3f}s")
    print(f"entropy        : {truth.entropy:.3f} bits")
    print(
        f"heavy hitters  : {len(truth.heavy_hitters(threshold))} "
        f"(>{threshold / 1e3:.0f} KB)"
    )
    return 0


def _dump_telemetry(args: argparse.Namespace, telemetry: Telemetry) -> None:
    """Telemetry tail of ``run``: the span tree and Chrome trace
    (``--trace``), then the metric exports (``--prom``, ``--json``).

    It runs after the last epoch, so every family the run registered
    along the way (durability counters included: they only exist once
    the supervisor has run) is in the registry when it is rendered.
    """
    if args.trace:
        print()
        print(span_tree(telemetry.tracer.tree_rows()))
        if args.trace_out:
            write_chrome_trace(telemetry.tracer, args.trace_out)
            print(f"\nwrote Chrome trace to {args.trace_out} "
                  "(load in chrome://tracing or ui.perfetto.dev)")
    if args.prom:
        write_prometheus(telemetry.registry, args.prom)
        if args.prom != "-":
            print(f"wrote Prometheus metrics to {args.prom}")
    if args.json:
        write_json_snapshot(telemetry.registry, args.json, telemetry.tracer)
        if args.json != "-":
            print(f"wrote JSON snapshot to {args.json}")


def _dump_profile(args: argparse.Namespace, telemetry: Telemetry) -> None:
    """Shared profiling tail of ``run --profile``: table + artifacts."""
    profiler = telemetry.profiler
    if profiler is None:
        return
    from repro.telemetry.profiling import epoch_attribution, write_folded

    table = profiler.stage_table()
    print()
    print("stage profile (sorted by wall time):")
    for name, row in list(table.items())[:14]:
        print(
            f"  {name:28s} {row['wall_seconds']:9.4f}s wall  "
            f"{row['cpu_seconds']:8.4f}s cpu  x{row['count']}"
        )
    attribution = epoch_attribution(telemetry.tracer)
    if attribution:
        print(
            f"epoch attribution : {attribution:.1%} of epoch wall "
            "time attributed to child stages"
        )
    if args.folded_out:
        write_folded(profiler.folded, args.folded_out)
        print(f"wrote folded stacks to {args.folded_out}")
    if args.flame_out:
        from repro.dash import write_flamegraph

        write_flamegraph(
            args.flame_out,
            profiler.folded,
            title="SketchVisor CPU flamegraph",
            subtitle=(
                f"{sum(profiler.folded.values())} samples across "
                f"{len(profiler.folded)} distinct stacks"
            ),
            stage_table=table,
        )
        print(f"wrote flamegraph to {args.flame_out}")


def _trace(args: argparse.Namespace, seed_offset: int = 0) -> Trace:
    """The trace a pipeline command runs: ``--trace-file``, or one
    generated from ``--flows`` and ``--seed`` (plus ``seed_offset``)."""
    if getattr(args, "trace_file", None):
        return _load_any(args.trace_file)
    return generate_trace(
        TraceConfig(num_flows=args.flows, seed=args.seed + seed_offset)
    )


def _task(args: argparse.Namespace, total_bytes: float):
    """The task and solution the flags choose.  Heavy hitters and
    changers take ``--threshold-fraction`` of ``total_bytes``; DDoS
    and superspreader detection take ``--spread-threshold``."""
    kwargs: dict = {}
    if args.task in ("heavy_hitter", "heavy_changer"):
        kwargs["threshold"] = args.threshold_fraction * total_bytes
    elif args.task in ("ddos", "superspreader"):
        kwargs["threshold"] = args.spread_threshold
    return create_task(args.task, args.solution, **kwargs)


def _pipeline_config(
    args: argparse.Namespace, telemetry: Telemetry | None
) -> PipelineConfig:
    """The :class:`PipelineConfig` the :func:`_pipeline_flags` describe."""
    listen_host, _, listen_port = args.listen.partition(":")
    cluster = ClusterConfig(
        aggregators=args.aggregators,
        listen_host=listen_host or "127.0.0.1",
        listen_port=int(listen_port or 0),
    )
    if not args.cluster and cluster != ClusterConfig():
        raise ConfigError("--aggregators and --listen need --cluster N")
    config = PipelineConfig(
        num_hosts=args.cluster or args.hosts,
        cores=args.cores,
        fastpath_bytes=args.fastpath_bytes,
        telemetry=telemetry,
        faults=FaultPlan.load(args.chaos) if args.chaos else None,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=(
            DEFAULT_CHECKPOINT_EVERY
            if args.checkpoint_every is None
            else args.checkpoint_every
        ),
        slo=args.slo,
        shadow_samples=args.shadow_samples,
        recorder_path=args.recorder_out,
        cluster=cluster if args.cluster else None,
    )
    # The directory may also come from REPRO_CHECKPOINT_DIR, which the
    # config has applied by now.
    if args.checkpoint_every is not None and config.checkpoint_dir is None:
        raise ConfigError(
            "--checkpoint-every needs --checkpoint-dir DIR "
            "(or REPRO_CHECKPOINT_DIR)"
        )
    return config


def _pipeline(
    args: argparse.Namespace, task, telemetry: Telemetry | None
) -> SketchVisorPipeline:
    return SketchVisorPipeline(
        task,
        dataplane=DataPlaneMode(args.dataplane),
        recovery=RecoveryMode(args.recovery),
        config=_pipeline_config(args, telemetry),
    )


def _run_epoch(
    pipeline: SketchVisorPipeline, trace: Trace, truth: GroundTruth
) -> EpochResult:
    """One scored epoch; heavy changer runs the trace's two halves as
    consecutive epochs and returns the second (under ``--soak`` the
    first half answers against the previous trace's second half, and
    that answer is dropped)."""
    if isinstance(pipeline.task, HeavyChangerTask):
        half = len(trace) // 2
        pipeline.run_epoch(trace[:half])
        return pipeline.run_epoch(trace[half:])
    return pipeline.run_epoch(trace, truth)


def _cmd_run(args: argparse.Namespace) -> int:
    trace = _trace(args)
    truth = GroundTruth.from_trace(trace)
    # Accuracy observability (SLOs, shadow sampling, flight-recorder
    # dumps) rides on telemetry, so any of those flags turns it on —
    # as do the exports and profiling (stage timers publish through
    # the registry).
    wants_export = bool(args.trace or args.prom or args.json)
    wants_accuracy = bool(
        args.slo or args.shadow_samples or args.recorder_out
    )
    wants_profile = bool(
        args.profile or args.folded_out or args.flame_out
    )
    telemetry = (
        Telemetry()
        if (wants_export or wants_accuracy or wants_profile)
        else None
    )
    if wants_profile:
        from repro.telemetry import ProfileConfig

        telemetry.enable_profiling(
            ProfileConfig(sample_hz=args.profile_hz)
        )
    task = _task(args, truth.total_bytes)
    pipeline = _pipeline(args, task, telemetry)
    if args.soak:
        return _run_soak(args, pipeline, trace, truth)
    try:
        result = _run_epoch(pipeline, trace, truth)
    except QuorumError as exc:
        print(f"QUORUM FAILED: {exc}", file=sys.stderr)
        return 1

    score = result.score
    print(f"task            : {args.task} / {args.solution}")
    print(f"dataplane       : {args.dataplane}   recovery: {args.recovery}")
    print(f"hosts           : {pipeline.config.num_hosts}")
    if args.cores > 1:
        print(f"cores           : {args.cores}")
    if args.cluster:
        collector = pipeline._cluster
        stats = result.collection.stats
        print(
            f"cluster         : {pipeline.config.num_hosts} host(s) -> "
            f"{collector.last_aggregators} aggregator(s), "
            f"{stats.connection_faults} connection fault(s), "
            f"{stats.backpressure_waits} backpressure wait(s), "
            f"{stats.quarantined_hosts} quarantined, "
            f"{stats.failovers} failover(s)"
        )
    if score.recall is not None:
        print(f"recall          : {score.recall:.1%}")
        print(f"precision       : {score.precision:.1%}")
    if score.relative_error is not None:
        print(f"relative error  : {score.relative_error:.2%}")
    if score.mrd is not None:
        print(f"MRD             : {score.mrd:.4f}")
    print(f"throughput      : {result.throughput_gbps:.1f} Gbps")
    print(
        f"fast-path bytes : {result.fastpath_byte_fraction:.0%}"
    )
    if result.collection is not None:
        stats = result.collection.stats
        print(
            f"chaos           : {stats.faults_seen} fault(s), "
            f"{stats.retries} retr{'y' if stats.retries == 1 else 'ies'}, "
            f"{len(result.collection.missing_hosts)} host(s) missing"
        )
        degraded = result.degraded
        if degraded is not None:
            print(
                f"degraded epoch  : hosts {degraded.missing_hosts} "
                f"missing, scale x{degraded.scale:.2f}, "
                f"est. error inflation "
                f"{degraded.error_inflation:.0%}"
            )
    if result.durability is not None:
        outcomes = result.durability
        recovered = sum(1 for o in outcomes if o.recovered)
        print(
            "durability      : "
            f"{sum(o.checkpoint_writes for o in outcomes)} "
            f"checkpoint(s), "
            f"{sum(o.restores for o in outcomes)} restore(s), "
            f"{sum(o.replayed_packets for o in outcomes)} packet(s) "
            f"replayed, {recovered} host(s) recovered, "
            f"{sum(1 for o in outcomes if o.gave_up)} gave up, "
            f"{sum(1 for o in outcomes if o.quarantined)} quarantined"
        )
    if telemetry is not None:
        bound = telemetry.registry.value(
            "sketchvisor_accuracy_sketch_error_bound_bytes",
            sketch=result.network.sketch.name,
        )
        if bound is not None:
            print(f"error bound     : {bound:,.0f} bytes/flow")
        are = telemetry.registry.value(
            "sketchvisor_accuracy_empirical_flow_are"
        )
        if are is not None:
            print(f"empirical ARE   : {are:.2%} (shadow sample)")
    for breach in result.slo_breaches:
        print(f"ACCURACY_SLO_BREACH: {breach.describe()}")
    if (
        telemetry is not None
        and args.recorder_out
        and telemetry.recorder.dumps
    ):
        print(
            f"flight recorder : dumped "
            f"{len(telemetry.recorder.events())} event(s) to "
            f"{telemetry.recorder.dumps[-1]}"
        )
    if telemetry is not None:
        _dump_telemetry(args, telemetry)
        _dump_profile(args, telemetry)
    return 0


def _run_soak(
    args: argparse.Namespace,
    pipeline: SketchVisorPipeline,
    trace: Trace,
    truth: GroundTruth,
) -> int:
    """Multi-epoch soak loop (``run --soak EPOCHS``).

    Drives the same pipeline for EPOCHS consecutive epochs — a fresh
    trace seed per epoch unless one was loaded from disk — so seeded
    fault plans (which key on the epoch counter) exercise a different
    fault mix every epoch.  Prints one summary line per epoch and a
    final aggregate; exits nonzero if any epoch fails quorum.
    """
    quorum_failures = 0
    totals = {
        "faults": 0,
        "failovers": 0,
        "redeliveries": 0,
        "redelivery_dups": 0,
        "missing": 0,
        "unrecovered": 0,
    }
    for epoch in range(args.soak):
        # Epoch 0 runs the trace ``run`` already built (seed + 0).
        if epoch and not args.trace_file:
            trace = _trace(args, seed_offset=epoch)
            truth = GroundTruth.from_trace(trace)
        try:
            result = _run_epoch(pipeline, trace, truth)
        except QuorumError as exc:
            quorum_failures += 1
            print(f"epoch {epoch:3d}: QUORUM FAILED -- {exc}")
            continue
        line = f"epoch {epoch:3d}:"
        collection = result.collection
        if collection is not None:
            stats = collection.stats
            failovers = collection.failovers
            unrecovered = sum(
                len(record.unrecovered_hosts) for record in failovers
            )
            totals["faults"] += stats.faults_seen
            totals["failovers"] += len(failovers)
            totals["redeliveries"] += stats.redeliveries
            totals["redelivery_dups"] += stats.redelivery_dups
            totals["missing"] += len(collection.missing_hosts)
            totals["unrecovered"] += unrecovered
            line += (
                f" {stats.faults_seen} fault(s),"
                f" {len(failovers)} failover(s),"
                f" {stats.redeliveries} redelivered,"
                f" {len(collection.missing_hosts)} missing"
            )
        else:
            line += " ok"
        score = result.score
        if score.recall is not None:
            line += f", recall {score.recall:.1%}"
        print(line)
    print(
        f"soak            : {args.soak} epoch(s), "
        f"{totals['faults']} fault(s), "
        f"{totals['failovers']} failover(s), "
        f"{totals['redeliveries']} redelivered "
        f"({totals['redelivery_dups']} dup), "
        f"{totals['missing']} host-epoch(s) missing, "
        f"{totals['unrecovered']} unrecovered, "
        f"{quorum_failures} quorum failure(s)"
    )
    telemetry = pipeline.config.telemetry
    if args.recorder_out:
        # A clean soak trips no dump trigger; leave the fail-over
        # timeline behind anyway.
        telemetry.recorder.dump(args.recorder_out, reason="soak")
        print(
            f"flight recorder : dumped {len(telemetry.recorder.events())} "
            f"event(s) to {args.recorder_out}"
        )
    if telemetry is not None:
        _dump_telemetry(args, telemetry)
    return 1 if quorum_failures else 0


def _cmd_dash(args: argparse.Namespace) -> int:
    """Stream a multi-epoch run as a live dashboard."""
    from repro.dash import epoch_row, paint_live_frame, write_html_report
    from repro.framework.monitor import AlertKind, ContinuousMonitor
    from repro.traffic.generator import generate_epochs

    task = _task(args, _trace(args).total_bytes)
    telemetry = Telemetry()
    monitor = ContinuousMonitor(
        [task],
        dataplane=DataPlaneMode(args.dataplane),
        recovery=RecoveryMode(args.recovery),
        config=_pipeline_config(args, telemetry),
    )
    rows: list[dict] = []
    repaint = None if not args.plain else False
    for trace in generate_epochs(
        TraceConfig(num_flows=args.flows, seed=args.seed),
        num_epochs=args.epochs,
    ):
        summary = monitor.process_epoch(trace)
        result = summary.results.get(task.name)
        if result is None:
            # Heavy changer's first epoch has no pair yet.
            continue
        rows.append(epoch_row(result))
        paint_live_frame(rows, telemetry.registry, repaint=repaint)
    breaches = monitor.alerts(AlertKind.ACCURACY_SLO_BREACH)
    for alert in breaches:
        print(
            f"ACCURACY_SLO_BREACH: epoch {alert.epoch} rule "
            f"{alert.subject} value {alert.magnitude:g}"
        )
    if args.html:
        write_html_report(
            args.html,
            rows,
            telemetry.registry,
            title=f"SketchVisor dash — {args.task}/{args.solution}",
            subtitle=(
                f"{len(rows)} epoch(s), "
                f"{monitor.config.num_hosts} host(s), "
                f"{len(breaches)} SLO breach(es)"
            ),
        )
        print(f"wrote HTML report to {args.html}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Long-running service mode: stream windows, serve HTTP."""
    import math

    from repro.serve import (
        MeasurementService,
        QUERY_ENDPOINTS,
        ReplaySource,
        ServeConfig,
        SyntheticSource,
    )

    probe = _trace(args)
    if args.trace_file:
        source = ReplaySource(
            probe,
            chunk_packets=args.chunk_packets,
            rate_pps=args.rate,
            loop=args.loop,
        )
    else:
        source = SyntheticSource(
            TraceConfig(num_flows=args.flows, seed=args.seed),
            chunk_packets=args.chunk_packets,
            rate_pps=args.rate,
        )

    window_packets = args.window_packets
    if window_packets is None and args.window_seconds is None:
        if args.trace_file and args.windows:
            # `--windows N` over a replayed trace: split it into N
            # equal windows, so the run is bit-identical to running
            # the same N slices as batch epochs through `repro run`.
            window_packets = max(
                1, math.ceil(len(probe) / args.windows)
            )
        else:
            # One window per trace pass / generated segment.
            window_packets = len(probe)

    truth_bytes = probe.total_bytes
    if window_packets is not None:
        # Scale the heavy-hitter threshold to the expected bytes per
        # *window*, not per probe trace.
        truth_bytes *= min(1.0, window_packets / len(probe))
    tasks = [_task(args, truth_bytes)]
    if not args.no_aux:
        # Fill the remaining query endpoints so /query/cardinality
        # and /query/fsd answer alongside the primary task.
        aux = {
            "cardinality": args.cardinality_solution,
            "flow_size_distribution": args.fsd_solution,
        }
        for name, solution in aux.items():
            if name != args.task:
                tasks.append(create_task(name, solution))

    service = MeasurementService(
        tasks,
        source,
        ServeConfig(
            host=args.host,
            port=args.port,
            window_packets=window_packets,
            window_seconds=args.window_seconds,
            max_windows=args.windows or None,
            ring_windows=args.ring_windows,
            stale_after=args.stale_after,
            recorder_max_dumps=args.recorder_max_dumps,
        ),
        dataplane=DataPlaneMode(args.dataplane),
        recovery=RecoveryMode(args.recovery),
        pipeline_config=_pipeline_config(args, Telemetry()),
    )
    port = service.start_http()
    # Parsed by tests/CI to find the ephemeral port -- keep the shape.
    print(
        f"serving on http://{args.host}:{port} "
        f"({args.task}/{args.solution}, "
        + (
            f"{window_packets}-packet windows"
            if window_packets is not None
            else f"{args.window_seconds:g}s windows"
        )
        + (f", {args.windows} window(s) max" if args.windows else "")
        + ")",
        flush=True,
    )
    print(
        "endpoints: /metrics /dash /healthz /readyz "
        + " ".join(f"/query/{name}" for name in QUERY_ENDPOINTS),
        flush=True,
    )
    code = service.run()
    print(
        f"served {service.windows_processed} window(s), "
        f"{service.quorum_failures} quorum failure(s); "
        f"exit {code}",
        flush=True,
    )
    return code


def _cmd_convert(args: argparse.Namespace) -> int:
    trace = _load_any(args.source)
    _save_any(trace, args.destination)
    print(
        f"converted {args.source} -> {args.destination} "
        f"({len(trace):,} packets)"
    )
    return 0


def _cmd_bench_summary(args: argparse.Namespace) -> int:
    import pathlib

    results = pathlib.Path(args.results_dir)
    if not results.is_dir():
        print(f"no results directory at {results}", file=sys.stderr)
        return 1
    files = sorted(results.glob("*.txt"))
    if not files:
        print("no experiment results found; run "
              "`pytest benchmarks/ --benchmark-only` first")
        return 1
    for path in files:
        lines = path.read_text().splitlines()
        title = lines[0] if lines else path.stem
        print(f"* {path.stem}: {title}")
        if args.full:
            for line in lines[2:]:
                print(f"    {line}")
    print(f"\n{len(files)} experiment tables in {results}")
    return 0


def _pipeline_flags() -> argparse.ArgumentParser:
    """Parent parser of ``run``, ``dash`` and ``serve``: the task, the
    traffic, and every flag that sets a :class:`PipelineConfig` field
    (read by :func:`_pipeline_config`).

    Built fresh for each command: argparse shares a parent's actions
    with its children, so a command's ``set_defaults`` would otherwise
    change the others' defaults too.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--task",
        choices=sorted(TASK_REGISTRY),
        default="heavy_hitter",
    )
    flags.add_argument("--solution", default="deltoid")
    flags.add_argument("--flows", type=int, default=5000)
    flags.add_argument("--seed", type=int, default=1)
    flags.add_argument("--hosts", type=int, default=1)
    flags.add_argument(
        "--dataplane",
        choices=[mode.value for mode in DataPlaneMode],
        default=DataPlaneMode.SKETCHVISOR.value,
    )
    flags.add_argument(
        "--recovery",
        choices=[mode.value for mode in RecoveryMode],
        default=RecoveryMode.SKETCHVISOR.value,
    )
    flags.add_argument("--threshold-fraction", type=float, default=0.005)
    flags.add_argument("--spread-threshold", type=int, default=100)
    flags.add_argument(
        "--chaos",
        metavar="PLAN.json",
        help="inject faults from a FaultPlan JSON file into the "
        "host->controller report path of every epoch (see "
        "docs/robustness.md)",
    )
    flags.add_argument(
        "--slo",
        metavar="POLICY.json",
        help="evaluate an accuracy SLO policy every epoch and print "
        "ACCURACY_SLO_BREACH lines (see docs/observability.md); "
        "implies telemetry",
    )
    flags.add_argument(
        "--shadow-samples",
        type=int,
        default=0,
        metavar="N",
        help="sample N flows per epoch as shadow ground truth for the "
        "empirical error gauges (0 disables); implies telemetry",
    )
    flags.add_argument(
        "--recorder-out",
        metavar="FILE.json",
        help="dump the flight recorder to FILE on crash, quarantine, "
        "or SLO breach (serve rotates the dumps, see "
        "--recorder-max-dumps, and flushes on shutdown); implies "
        "telemetry",
    )
    flags.add_argument(
        "--cores",
        type=int,
        default=1,
        help="worker cores per host (§7.2 parallel mode): each core "
        "runs its own switch over a flow-consistent share of the "
        "host's traffic, and the host folds its cores' results into "
        "its one report",
    )
    flags.add_argument("--fastpath-bytes", type=int, default=8192)
    flags.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="enable durable host state: snapshot every host engine "
        "into DIR and recover crashed/hung hosts by restore + WAL "
        "replay (see docs/robustness.md)",
    )
    flags.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="K",
        help="snapshot interval in packets (default 16384); only "
        "meaningful with --checkpoint-dir",
    )
    flags.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="simulate N hosts and ship their epoch reports over real "
        "TCP sockets through the hierarchical aggregator tier "
        "(overrides --hosts; composes with --chaos, whose plan then "
        "also drives connection-level faults at the socket layer; "
        "see docs/robustness.md)",
    )
    flags.add_argument(
        "--aggregators",
        type=int,
        default=0,
        metavar="A",
        help="aggregator-tier size for --cluster (default 0 = "
        "ceil(sqrt(N)))",
    )
    flags.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST[:PORT]",
        help="bind address for the aggregator listeners of --cluster "
        "(default 127.0.0.1:0 = ephemeral ports)",
    )
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SketchVisor reproduction command-line interface",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic trace"
    )
    generate.add_argument("output", help=".npz or .csv output path")
    generate.add_argument("--flows", type=int, default=5000)
    generate.add_argument("--alpha", type=float, default=1.2)
    generate.add_argument("--duration", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--burstiness", type=float, default=0.0)
    generate.set_defaults(func=_cmd_generate)

    convert = commands.add_parser(
        "convert", help="convert a trace between npz / csv / pcap"
    )
    convert.add_argument("source")
    convert.add_argument("destination")
    convert.set_defaults(func=_cmd_convert)

    bench_summary = commands.add_parser(
        "bench-summary",
        help="digest the experiment tables in benchmarks/results/",
    )
    bench_summary.add_argument(
        "--results-dir", default="benchmarks/results"
    )
    bench_summary.add_argument(
        "--full", action="store_true", help="print full tables"
    )
    bench_summary.set_defaults(func=_cmd_bench_summary)

    inspect = commands.add_parser(
        "inspect", help="print ground-truth statistics of a trace"
    )
    inspect.add_argument("trace", help=".npz or .csv trace path")
    inspect.add_argument("--hh-fraction", type=float, default=0.005)
    inspect.set_defaults(func=_cmd_inspect)

    run = commands.add_parser(
        "run",
        help="run a measurement task over a trace",
        parents=[_pipeline_flags()],
    )
    run.add_argument(
        "--trace-file", help="trace file; omit to generate"
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="enable telemetry: print the stage-timing tree and dump "
        "a chrome://tracing JSON profile (see --trace-out)",
    )
    run.add_argument(
        "--trace-out",
        default="epoch_trace.json",
        help="Chrome-trace output path for --trace",
    )
    run.add_argument(
        "--prom",
        metavar="PATH",
        help="write the run's metrics as Prometheus text to PATH "
        "('-' for stdout); implies telemetry",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        help="write the run's metrics and spans as a JSON snapshot to "
        "PATH ('-' for stdout); implies telemetry",
    )
    run.add_argument(
        "--soak",
        type=int,
        default=0,
        metavar="EPOCHS",
        help="run EPOCHS back-to-back epochs through one pipeline "
        "(fresh trace seed per epoch unless --trace-file is given), "
        "printing a per-epoch summary line and a final aggregate; "
        "exits nonzero if any epoch fails quorum; designed for "
        "sustained-chaos runs with --cluster --chaos "
        "(see docs/robustness.md)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="enable cycle-level profiling: stage wall/CPU timers, "
        "sampling profiler, memory high-water tracking; prints the "
        "stage table after the run (see docs/observability.md)",
    )
    run.add_argument(
        "--profile-hz",
        type=float,
        default=97.0,
        metavar="HZ",
        help="sampling profiler frequency (default 97 Hz; 0 disables "
        "stack sampling but keeps the stage timers)",
    )
    run.add_argument(
        "--folded-out",
        metavar="FILE.folded",
        help="write collapsed stacks in Brendan-Gregg folded format; "
        "implies --profile",
    )
    run.add_argument(
        "--flame-out",
        metavar="FILE.{svg,html}",
        help="write a dependency-free flamegraph (.svg for bare SVG, "
        "anything else for a standalone HTML page); implies --profile",
    )
    run.set_defaults(func=_cmd_run)

    dash = commands.add_parser(
        "dash",
        help="stream a multi-epoch run as a live dashboard "
        "(+ optional HTML report)",
        parents=[_pipeline_flags()],
    )
    dash.set_defaults(
        func=_cmd_dash, flows=2000, hosts=2, shadow_samples=128
    )
    dash.add_argument("--epochs", type=int, default=5)
    dash.add_argument(
        "--html",
        metavar="FILE.html",
        help="write a self-contained HTML report after the run",
    )
    dash.add_argument(
        "--plain",
        action="store_true",
        help="append frames instead of repainting (for logs/pipes)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the streaming measurement daemon with the live "
        "HTTP observability plane (see docs/observability.md)",
        parents=[_pipeline_flags()],
    )
    serve.set_defaults(func=_cmd_serve, flows=2000, hosts=2)
    serve.add_argument(
        "--host", default="127.0.0.1", help="HTTP bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="HTTP port (default 0 = ephemeral; the bound port is "
        "printed on startup)",
    )
    serve.add_argument(
        "--trace-file",
        help="replay this trace instead of generating traffic",
    )
    serve.add_argument(
        "--loop",
        action="store_true",
        help="with --trace-file, restart the trace when it ends "
        "(endless soak from one capture)",
    )
    serve.add_argument(
        "--window-packets",
        type=int,
        metavar="N",
        help="close a window every N packets (deterministic; "
        "default: one window per trace pass / generated segment, or "
        "trace length / --windows when replaying a bounded run)",
    )
    serve.add_argument(
        "--window-seconds",
        type=float,
        metavar="S",
        help="close a window after S wall-clock seconds",
    )
    serve.add_argument(
        "--windows",
        type=int,
        default=0,
        metavar="K",
        help="stop after K windows (default 0 = run until SIGTERM)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        metavar="PPS",
        help="pace the source to this packet rate (default: as fast "
        "as the pipeline drains)",
    )
    serve.add_argument(
        "--chunk-packets",
        type=int,
        default=512,
        metavar="N",
        help="packets per source chunk (pacing/shutdown granularity)",
    )
    serve.add_argument(
        "--ring-windows",
        type=int,
        default=8,
        metavar="K",
        help=(
            "recent windows retained for the query endpoints and /dash "
            "(without --windows, also the window summaries kept)"
        ),
    )
    serve.add_argument(
        "--stale-after",
        type=float,
        metavar="S",
        help="seconds without a window advance before /healthz flips "
        "unhealthy (default: derived from --window-seconds)",
    )
    serve.add_argument(
        "--no-aux",
        action="store_true",
        help="serve only the primary task (skip the cardinality and "
        "flow-size-distribution query endpoints)",
    )
    serve.add_argument(
        "--cardinality-solution",
        default="lc",
        help="solution backing /query/cardinality",
    )
    serve.add_argument(
        "--fsd-solution",
        default="mrac",
        help="solution backing /query/fsd",
    )
    serve.add_argument(
        "--recorder-max-dumps",
        type=int,
        default=8,
        metavar="K",
        help="rotated recorder dumps kept on disk (default 8)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as error:
        parser.error(str(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
