"""The metric catalogue: how pipeline objects map into the registry.

Every component publishes through these helpers so the counter
*semantics* do not depend on who ran the epoch: the pipeline publishes
per-host families from each epoch's reports, supervised (checkpointed)
or not, which is what makes their counter totals comparable (and
testable) bit for bit.

All helpers are duck-typed over the report/snapshot objects (no
dataplane imports) so this module sits below every instrumented layer.
Counter values are per-epoch increments; gauges are end-of-epoch
absolutes.  See ``docs/observability.md`` for the full catalogue.
"""

from __future__ import annotations

from repro.telemetry.registry import MetricsRegistry

#: Bucket bounds for LENS iteration counts (max_iterations default 60).
LENS_ITERATION_BUCKETS = (1, 2, 5, 10, 20, 40, 60, 100, 200)

#: Bucket bounds for epoch wall times in seconds.
EPOCH_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0, 60.0,
)


def publish_switch_epoch(
    registry: MetricsRegistry,
    report,
    *,
    host: str = "0",
    sketch: str = "sketch",
) -> None:
    """Publish one epoch's :class:`SwitchReport` into the registry."""
    packets = registry.counter(
        "sketchvisor_switch_packets_total",
        "Packets routed per path by the software switch",
    )
    packets.inc(report.normal_packets, host=host, path="normal")
    packets.inc(report.fastpath_packets, host=host, path="fastpath")

    volume = registry.counter(
        "sketchvisor_switch_bytes_total",
        "Bytes routed per path by the software switch",
    )
    volume.inc(report.normal_bytes, host=host, path="normal")
    volume.inc(report.fastpath_bytes, host=host, path="fastpath")

    cycles = registry.counter(
        "sketchvisor_switch_cycles_total",
        "Simulated CPU cycles per actor, labelled by normal-path sketch",
    )
    cycles.inc(
        report.producer_cycles, host=host, sketch=sketch, actor="producer"
    )
    cycles.inc(
        report.consumer_cycles, host=host, sketch=sketch, actor="consumer"
    )

    registry.gauge(
        "sketchvisor_switch_buffer_high_water",
        "Peak FIFO occupancy (packets) during the epoch",
    ).set_max(report.buffer_high_water, host=host)
    registry.gauge(
        "sketchvisor_switch_throughput_gbps",
        "Sustained throughput of the last epoch",
    ).set(report.throughput_gbps, host=host)
    registry.counter(
        "sketchvisor_switch_epochs_total",
        "Epochs processed",
    ).inc(1, host=host)


def fastpath_stats(fastpath) -> dict[str, float]:
    """One epoch's operation stats from a host's
    :class:`~repro.fastpath.topk.FastPathSnapshot`."""
    return {
        "updates": fastpath.update_count,
        "hits": fastpath.hit_count,
        "inserts": fastpath.insert_count,
        "kickouts": fastpath.kickout_count,
        "evictions": fastpath.evict_count,
        "rejected": fastpath.reject_count,
        "bytes": fastpath.total_bytes,
        "decremented": fastpath.total_decremented,
        "tracked": fastpath.tracked,
    }


def publish_fastpath_epoch(
    registry: MetricsRegistry,
    stats: dict[str, float],
    *,
    host: str = "0",
) -> None:
    """Publish one epoch's fast-path stats (see :func:`fastpath_stats`)."""
    updates = registry.counter(
        "sketchvisor_fastpath_updates_total",
        "Fast-path updates by outcome (Algorithm 1 work kinds)",
    )
    updates.inc(stats["hits"], host=host, kind="hit")
    updates.inc(stats["inserts"], host=host, kind="insert")
    updates.inc(stats["kickouts"], host=host, kind="kickout")
    registry.counter(
        "sketchvisor_fastpath_evictions_total",
        "Flows evicted by kick-out passes",
    ).inc(stats["evictions"], host=host)
    registry.counter(
        "sketchvisor_fastpath_rejected_total",
        "Kick-out passes that admitted no new flow",
    ).inc(stats["rejected"], host=host)
    registry.counter(
        "sketchvisor_fastpath_bytes_total",
        "Total bytes seen by the fast path (V growth)",
    ).inc(stats["bytes"], host=host)
    registry.counter(
        "sketchvisor_fastpath_decremented_bytes_total",
        "Sum of kick-out decrements (E growth)",
    ).inc(stats["decremented"], host=host)
    registry.gauge(
        "sketchvisor_fastpath_tracked_flows",
        "Flows tracked in the hash table at epoch end",
    ).set(stats["tracked"], host=host)


def publish_host_reports(
    registry: MetricsRegistry, reports, sketch: str
) -> None:
    """Publish per-host switch and fast-path counters from one epoch's
    :class:`~repro.dataplane.host.LocalReport` list.  ``sketch`` names
    the hosts' sketch: a report may hold a frame, not a sketch."""
    for report in reports:
        host = str(report.host_id)
        publish_switch_epoch(
            registry, report.switch, host=host, sketch=sketch
        )
        if report.fastpath is not None:
            publish_fastpath_epoch(
                registry, fastpath_stats(report.fastpath), host=host
            )


def publish_collection_epoch(
    registry: MetricsRegistry, collection
) -> None:
    """Publish one epoch's report-delivery outcome (CollectionResult).

    Every counter is a per-epoch increment from the collector's
    :class:`~repro.controlplane.transport.CollectionStats`, so the
    totals read as "what the report channel survived so far".
    """
    stats = collection.stats
    events = registry.counter(
        "sketchvisor_transport_faults_total",
        "Report-delivery faults survived by the collector, by kind",
    )
    events.inc(stats.drops, kind="drop")
    events.inc(stats.timeouts, kind="timeout")
    events.inc(stats.corrupt_frames, kind="corrupt_frame")
    events.inc(stats.duplicates, kind="duplicate")
    events.inc(stats.stale_frames, kind="stale_frame")
    events.inc(stats.crashes, kind="host_crash")
    # Connection-level and aggregator kinds stay 0 in process.
    events.inc(stats.conn_refused, kind="conn_refused")
    events.inc(stats.conn_resets, kind="conn_reset")
    events.inc(stats.partial_writes, kind="partial_write")
    events.inc(stats.slow_peers, kind="slow_peer")
    events.inc(stats.partitions, kind="partition")
    events.inc(stats.agg_crashes, kind="agg_crash")
    events.inc(stats.agg_hangs, kind="agg_hang")
    registry.counter(
        "sketchvisor_transport_retries_total",
        "Report delivery retries (attempts beyond each host's first)",
    ).inc(stats.retries)
    registry.counter(
        "sketchvisor_transport_backoff_seconds_total",
        "Simulated exponential-backoff delay accumulated by retries",
    ).inc(stats.backoff_seconds)
    registry.counter(
        "sketchvisor_transport_missing_reports_total",
        "Host reports still missing when collection gave up",
    ).inc(len(collection.missing_hosts))


def publish_cluster_epoch(
    registry: MetricsRegistry, collector, collection
) -> None:
    """Publish one socket-transport epoch's cluster-only shape.

    ``collector`` is the :class:`~repro.cluster.ClusterCollector`
    (aggregator-tier geometry), ``collection`` its result; the fault
    counters themselves go through :func:`publish_collection_epoch`
    like every other transport.
    """
    stats = collection.stats
    registry.counter(
        "sketchvisor_cluster_backpressure_waits_total",
        "Sends that waited on the bounded in-flight pool or a full "
        "socket write buffer",
    ).inc(stats.backpressure_waits)
    registry.counter(
        "sketchvisor_cluster_quarantined_host_epochs_total",
        "Host-epochs skipped by the transport circuit breaker",
    ).inc(stats.quarantined_hosts)
    registry.gauge(
        "sketchvisor_cluster_aggregators",
        "Aggregator-tier size used by the latest cluster epoch",
    ).set(collector.last_aggregators)
    registry.gauge(
        "sketchvisor_cluster_peak_resident_reports",
        "Peak dense sketches resident in one aggregator (its running "
        "merge; frames fold from their sections) in the latest epoch",
    ).set(collector.last_peak_resident)
    failovers = registry.counter(
        "sketchvisor_aggregator_failovers_total",
        "Aggregators declared dead by a watchdog verdict and "
        "re-sharded onto survivors, by failure kind",
    )
    for record in collection.failovers:
        failovers.inc(1, kind=record.kind)
    registry.counter(
        "sketchvisor_aggregator_redeliveries_total",
        "Shard host reports re-homed onto a surviving aggregator "
        "after their aggregator died",
    ).inc(stats.redeliveries)
    registry.counter(
        "sketchvisor_aggregator_redelivery_dups_total",
        "Redeliveries collapsed by (host, epoch) dedup because the "
        "report had already landed elsewhere",
    ).inc(stats.redelivery_dups)
    registry.counter(
        "sketchvisor_aggregator_unrecovered_host_epochs_total",
        "Shard hosts whose re-home failed (degraded-merge input)",
    ).inc(
        sum(len(record.unrecovered_hosts) for record in collection.failovers)
    )


def publish_durability_epoch(
    registry: MetricsRegistry, outcomes
) -> None:
    """Publish one supervised epoch's durability outcome per host.

    ``outcomes`` is the supervisor's list of
    :class:`~repro.durability.supervisor.HostOutcome` records; every
    counter is a per-epoch increment, so totals read as "what the
    checkpoint/restart machinery did so far".
    """
    writes = registry.counter(
        "sketchvisor_checkpoint_writes_total",
        "Engine snapshots written by the checkpointer",
    )
    volume = registry.counter(
        "sketchvisor_checkpoint_bytes_total",
        "Snapshot bytes written by the checkpointer",
    )
    restores = registry.counter(
        "sketchvisor_checkpoint_restores_total",
        "Engine restores from a checkpoint after a fault",
    )
    corrupt = registry.counter(
        "sketchvisor_checkpoint_corrupt_snapshots_total",
        "Snapshots skipped during restore (CRC/decode failure)",
    )
    replayed = registry.counter(
        "sketchvisor_replay_packets_total",
        "Packets replayed from the journaled tail after restores",
    )
    host_faults = registry.counter(
        "sketchvisor_host_faults_total",
        "Mid-epoch data-plane faults survived, by kind",
    )
    restarts = registry.counter(
        "sketchvisor_host_restarts_total",
        "Host restart-with-replay attempts",
    )
    gave_up = registry.counter(
        "sketchvisor_host_gave_up_epochs_total",
        "Host epochs forfeited after exhausting restarts",
    )
    quarantines = registry.counter(
        "sketchvisor_host_quarantined_epochs_total",
        "Host epochs sat out under circuit-breaker quarantine",
    )
    watchdog = registry.counter(
        "sketchvisor_watchdog_wait_seconds_total",
        "Simulated seconds the watchdog waited out hung hosts",
    )
    latency = registry.histogram(
        "sketchvisor_recovery_seconds",
        "Wall time of one restore-and-reposition recovery",
        buckets=EPOCH_SECONDS_BUCKETS,
    )
    for outcome in outcomes:
        host = str(outcome.host_id)
        writes.inc(outcome.checkpoint_writes, host=host)
        volume.inc(outcome.checkpoint_bytes, host=host)
        restores.inc(outcome.restores, host=host)
        corrupt.inc(outcome.corrupt_snapshots, host=host)
        replayed.inc(outcome.replayed_packets, host=host)
        host_faults.inc(outcome.crashes, host=host, kind="crash")
        host_faults.inc(outcome.hangs, host=host, kind="hang")
        restarts.inc(outcome.restarts, host=host)
        gave_up.inc(1 if outcome.gave_up else 0, host=host)
        quarantines.inc(1 if outcome.quarantined else 0, host=host)
        watchdog.inc(outcome.watchdog_wait, host=host)
        if outcome.restores:
            latency.observe(
                outcome.recovery_seconds / outcome.restores
            )


def publish_controller_epoch(registry: MetricsRegistry, network) -> None:
    """Publish one epoch's merge + recovery outcome (NetworkResult)."""
    registry.counter(
        "sketchvisor_controller_reports_total",
        "Per-host reports merged by the controller",
    ).inc(network.num_hosts)
    degraded = network.degraded
    registry.counter(
        "sketchvisor_controller_epochs_total",
        "Controller epochs by merge quality",
    ).inc(1, quality="degraded" if degraded is not None else "full")
    if degraded is not None:
        registry.counter(
            "sketchvisor_degraded_missing_hosts_total",
            "Host reports absent from degraded-mode merges",
        ).inc(degraded.expected_hosts - degraded.reported_hosts)
        registry.gauge(
            "sketchvisor_degraded_error_inflation",
            "Estimated relative-error inflation of the last degraded "
            "epoch (f / (1 - f) for missing share f)",
        ).set(degraded.error_inflation)
    if network.snapshot is not None:
        registry.gauge(
            "sketchvisor_controller_merged_table_flows",
            "Flows in the merged fast-path table H",
        ).set(network.snapshot.tracked)
    registry.histogram(
        "sketchvisor_lens_iterations",
        "LENS solver iterations to convergence",
        buckets=LENS_ITERATION_BUCKETS,
    ).observe(network.lens_iterations)
    registry.counter(
        "sketchvisor_lens_solves_total",
        "LENS solves by convergence outcome",
    ).inc(1, converged=str(bool(network.lens_converged)).lower())


def publish_recovery_residual(
    registry: MetricsRegistry, residual: float
) -> None:
    registry.gauge(
        "sketchvisor_recovery_residual",
        "Final LENS constraint residual of the last recovery",
    ).set(residual)


def publish_lens_svd_fallbacks(
    registry: MetricsRegistry, gesvd_retries: int, full: bool, midpoint: bool
) -> None:
    """Count the fall-backs one LENS solve took: ``gesvd`` per
    factorization the retry driver answered, ``full`` when the range
    finder reached its cap and the exact SVD of the whole matrix
    answered, ``midpoint`` when neither driver converged and the box
    midpoint stood in."""
    fallbacks = registry.counter(
        "sketchvisor_lens_svd_fallbacks_total",
        "LENS SVD fall-backs (retry driver, exact SVD, box midpoint), "
        "by rung",
    )
    fallbacks.inc(gesvd_retries, rung="gesvd")
    fallbacks.inc(1 if full else 0, rung="full")
    fallbacks.inc(1 if midpoint else 0, rung="midpoint")


def publish_profile_epoch(
    registry: MetricsRegistry,
    stage_deltas: dict[str, tuple[float, float]],
    rss: dict[str, int],
) -> None:
    """Publish one profiled epoch's stage timings and memory marks.

    ``stage_deltas`` maps stage name to ``(wall_seconds,
    cpu_seconds)`` for the window just closed (the profiler computes
    per-epoch deltas from its cumulative totals); ``rss`` maps
    contributing pid to its resident-set high-water in bytes.
    """
    wall = registry.histogram(
        "sketchvisor_stage_wall_seconds",
        "Wall time attributed to one pipeline stage per epoch",
        buckets=EPOCH_SECONDS_BUCKETS,
    )
    cpu = registry.histogram(
        "sketchvisor_stage_cpu_seconds",
        "CPU time attributed to one pipeline stage per epoch",
        buckets=EPOCH_SECONDS_BUCKETS,
    )
    for stage, (wall_s, cpu_s) in stage_deltas.items():
        wall.observe(wall_s, stage=stage)
        cpu.observe(cpu_s, stage=stage)
    gauge = registry.gauge(
        "sketchvisor_process_rss_bytes",
        "Resident-set high-water of each contributing process",
    )
    for pid, high_water in rss.items():
        gauge.set_max(high_water, pid=pid)


def publish_monitor_epoch(
    registry: MetricsRegistry, summary, seconds: float
) -> None:
    """Publish one monitoring-loop epoch (EpochSummary + wall time)."""
    alerts = registry.counter(
        "sketchvisor_monitor_alerts_total",
        "Alerts raised by the monitoring loop, by kind",
    )
    for alert in summary.alerts:
        alerts.inc(1, kind=alert.kind.value)
    registry.histogram(
        "sketchvisor_monitor_epoch_seconds",
        "Wall time of one monitoring-loop epoch",
        buckets=EPOCH_SECONDS_BUCKETS,
    ).observe(seconds)
    registry.counter(
        "sketchvisor_monitor_epochs_total",
        "Epochs processed by the monitoring loop",
    ).inc(1)


def publish_serve_window(
    registry: MetricsRegistry, record, seconds: float
) -> None:
    """Publish one recovered serve-mode window (WindowRecord)."""
    registry.counter(
        "sketchvisor_serve_windows_total",
        "Windows recovered by the streaming service",
    ).inc(1)
    registry.counter(
        "sketchvisor_serve_packets_total",
        "Packets ingested into recovered windows",
    ).inc(record.packets)
    registry.counter(
        "sketchvisor_serve_bytes_total",
        "Bytes ingested into recovered windows",
    ).inc(record.bytes)
    registry.gauge(
        "sketchvisor_serve_window_id",
        "Id of the latest recovered window",
    ).set(record.window_id)
    registry.gauge(
        "sketchvisor_serve_last_window_unix_seconds",
        "Wall-clock close time of the latest recovered window",
    ).set(record.closed_at)
    registry.histogram(
        "sketchvisor_serve_window_seconds",
        "Pipeline wall time to recover one window",
        buckets=EPOCH_SECONDS_BUCKETS,
    ).observe(seconds)
    if record.degraded:
        registry.counter(
            "sketchvisor_serve_degraded_windows_total",
            "Windows merged in degraded mode by the service",
        ).inc(1)


def publish_serve_quorum_failure(registry: MetricsRegistry) -> None:
    """Count a serve-mode window whose merge failed quorum."""
    registry.counter(
        "sketchvisor_serve_quorum_failures_total",
        "Windows the service could not merge for lack of quorum",
    ).inc(1)


def publish_http_request(
    registry: MetricsRegistry, path: str, code: int
) -> None:
    """Count one observability-plane HTTP request; ``path`` is a route
    name from a fixed set, never a raw client path."""
    registry.counter(
        "sketchvisor_serve_http_requests_total",
        "Observability-plane HTTP requests, by route and status",
    ).inc(1, path=path, code=code)
