"""One cluster epoch, end to end: listeners up, hosts in, partials out.

:class:`ClusterCollector` is the socket-transport drop-in for the
in-process :class:`~repro.controlplane.transport.ReportCollector`: it
takes the epoch's per-host :class:`LocalReport` objects, ships each as
a wire frame over a real TCP connection to its aggregator, and
returns the same :class:`CollectionResult` shape the pipeline already
feeds to quorum-gated aggregation, telemetry, and the flight recorder.

Per epoch it:

1. skips hosts the transport circuit breaker has **quarantined**
   (consecutive failed epochs — same
   :class:`~repro.durability.supervisor.CircuitBreaker` policy the
   supervisor applies to crash-looping data planes);
2. starts one :class:`AggregatorListener` per aggregator-tier member
   (``ceil(sqrt(hosts))`` by default) on an ephemeral localhost port;
3. runs every live host's :class:`HostChannel` delivery loop
   concurrently — bounded by the in-flight semaphore, retried on the
   seeded jittered backoff schedule, cut off by ``epoch_deadline``;
4. drains and closes the listeners, folds each aggregator's partial
   (hierarchical mode) or collects the decoded reports (flat mode),
   and books every host that did not get acked as missing.

Everything downstream — quorum, degraded-merge rescale, recorder —
is reused, not reimplemented: the result's ``hosts_reported`` lets
:meth:`Controller.aggregate` key its quorum math on hosts even when
``reports`` holds A partial aggregates instead of N raw reports.

Aggregator fail-over
--------------------
The aggregator tier itself can fail mid-epoch (``agg_crash`` /
``agg_hang`` faults, or a genuinely wedged listener).  Liveness is
heartbeat-based: every listener beats into a shared table, and a
watchdog declares an aggregator dead once its beats go stale —
crashes and hangs are detected identically, because a dead process
cannot send an error report.  Fail-over then proceeds in three steps:

* **re-shard** — the dead aggregator leaves the rendezvous candidate
  set, so only *its* hosts re-home (modulo placement would reshuffle
  nearly everyone); channels still retrying re-resolve their route on
  every attempt and land on the survivor automatically;
* **forget** — the dead shard's partial aggregate died with it, so
  the hosts it had ACKed are erased from the ``(host, epoch)`` dedup
  set and the delivered set: their redelivered copies must merge as
  first arrivals, not be dropped as duplicates;
* **redeliver** — after the main wave, a sweep re-ships every
  still-undelivered live host's report to the surviving tier (the
  sweep loops, because a redelivery wave can strike *another*
  scheduled aggregator fault).

Because partials are canonicalized and sketches are linear, an epoch
where a crashed aggregator's hosts all redelivered merges
bit-identically to the no-crash epoch.  Hosts that stay unrecovered
(no survivors, suppressed fail-over, epoch deadline) flow into the
existing quorum-gated degraded merge — a lost shard degrades the
epoch, it never silently loses it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.cluster.aggregator import (
    Aggregator,
    assign_aggregator,
    rendezvous_aggregator,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.transport import AggregatorListener, HostChannel
from repro.controlplane.transport import (
    ACK_DUP,
    CollectionResult,
    encode_report,
)
from repro.durability.supervisor import CircuitBreaker


@dataclass
class FailoverRecord:
    """One aggregator the heartbeat watchdog declared dead.

    ``shard_hosts`` is the shard at detection time: hosts the dead
    aggregator had ACKed (their merged state died with it) plus live
    hosts still routed to it.  After the redelivery sweep settles,
    ``redelivered_hosts`` / ``unrecovered_hosts`` split that shard by
    outcome — unrecovered hosts are exactly the ones handed to the
    degraded merge.
    """

    aggregator_id: int
    #: ``"agg_crash"`` / ``"agg_hang"``, or ``"unresponsive"`` when
    #: the watchdog fired without a scheduled fault (a false positive
    #: — safe by design, the shard is simply re-shipped).
    kind: str
    shard_hosts: tuple[int, ...]
    #: Strike → watchdog declaration latency (seconds).
    detect_seconds: float
    redelivered_hosts: tuple[int, ...] = ()
    unrecovered_hosts: tuple[int, ...] = ()
    #: Strike → last shard report re-accepted by a survivor (seconds);
    #: ``None`` when nothing was recovered.
    recovery_seconds: float | None = None

    @property
    def recovered(self) -> bool:
        return not self.unrecovered_hosts


class _Router:
    """Rendezvous routing over the live aggregator set.

    One instance per epoch; the watchdog shrinks :attr:`live` as
    aggregators die, and every :meth:`resolve` call sees the current
    set — which is the whole fail-over re-route mechanism.
    """

    def __init__(self, addresses: list[tuple[str, int]]):
        self.addresses = addresses
        self.live: set[int] = set(range(len(addresses)))

    def remove(self, aggregator_id: int) -> None:
        self.live.discard(aggregator_id)

    def target(self, host_id: int) -> int | None:
        return rendezvous_aggregator(host_id, self.live)

    def resolve(self, host_id: int) -> tuple[str, int] | None:
        target = self.target(host_id)
        return None if target is None else self.addresses[target]


class ClusterCollector:
    """Collect epoch reports over real sockets.

    Parameters
    ----------
    config:
        The :class:`ClusterConfig` deployment knobs.
    injector:
        Optional :class:`~repro.faults.FaultInjector`.  Its plan's
        report-path *and* connection-level schedules both apply — the
        report-path kinds produce byte-identical stats to the
        in-process collector under the same plan, the socket kinds
        (conn_refused, conn_reset, partial_write, slow_peer,
        partition) only exist here — and its aggregator schedule
        arms the heartbeat watchdog with per-``(epoch, aggregator)``
        crash/hang strikes.
    """

    def __init__(self, config: ClusterConfig, injector=None):
        self.config = config
        self.injector = injector
        self._breakers: dict[int, CircuitBreaker] = {}
        #: Shape of the most recent epoch, for telemetry: aggregator
        #: count, peak dense sketches resident per aggregator, mode.
        self.last_aggregators = 0
        self.last_peak_resident = 0

    # ------------------------------------------------------------------
    def collect(self, reports, epoch: int) -> CollectionResult:
        """Deliver one epoch's reports over TCP; block until done."""
        return asyncio.run(self.collect_async(reports, epoch))

    # ------------------------------------------------------------------
    async def collect_async(self, reports, epoch: int) -> CollectionResult:
        cfg = self.config
        loop = asyncio.get_running_loop()
        deadline = loop.time() + cfg.epoch_deadline
        result = CollectionResult(epoch=epoch)
        stats = result.stats

        by_host = {report.host_id: report for report in reports}
        quarantined: list[int] = []
        active: list[int] = []
        for host_id in sorted(by_host):
            breaker = self._breakers.setdefault(
                host_id, CircuitBreaker()
            )
            if breaker.is_open(epoch):
                quarantined.append(host_id)
            else:
                active.append(host_id)
        stats.quarantined_hosts = len(quarantined)

        num_aggregators = cfg.resolve_aggregators(len(by_host))
        self.last_aggregators = num_aggregators

        aggregators: list[Aggregator] = []
        buckets: list[list] = []
        sinks: list = []
        if cfg.hierarchical:
            for agg_id in range(num_aggregators):
                aggregator = Aggregator(agg_id)
                aggregators.append(aggregator)
                sinks.append(aggregator.add)
        else:
            # Flat baseline: every decoded report stays resident until
            # the root merge — but bucketed per listener, so a dead
            # aggregator's resident reports can be discarded exactly
            # like a dead partial.
            for agg_id in range(num_aggregators):
                bucket: list = []
                buckets.append(bucket)
                sinks.append(bucket.append)

        injector = self.injector
        # Seeded aggregator strikes for this epoch.  Group size (how
        # many live hosts rendezvous onto each aggregator) bounds the
        # rate-fired strike offsets; the earliest scheduled fault wins.
        agg_faults = {}
        if injector is not None:
            group_sizes = {agg_id: 0 for agg_id in range(num_aggregators)}
            for host_id in active:
                group_sizes[
                    assign_aggregator(host_id, num_aggregators)
                ] += 1
            for agg_id in range(num_aggregators):
                schedule = injector.aggregator_schedule(
                    epoch, agg_id, group_sizes[agg_id]
                )
                if schedule:
                    agg_faults[agg_id] = schedule[0]

        seen: set[tuple[int, int]] = set()
        delivered: set[int] = set()
        accept_times: dict[int, float] = {}

        def on_accept(host_id: int, frame: bytes) -> None:
            accept_times[host_id] = loop.time()

        listeners = [
            AggregatorListener(
                agg_id,
                epoch,
                sinks[agg_id],
                stats,
                seen,
                delivered,
                idle_timeout=cfg.idle_timeout,
                max_frame_bytes=cfg.max_frame_bytes,
                on_accept=on_accept,
                fault=agg_faults.get(agg_id),
                injector=injector,
            )
            for agg_id in range(num_aggregators)
        ]
        addresses = []
        for index, listener in enumerate(listeners):
            port = (
                0 if cfg.listen_port == 0 else cfg.listen_port + index
            )
            addresses.append(
                await listener.start(cfg.listen_host, port)
            )
        router = _Router(addresses)

        # Liveness: every listener beats into this table; the watchdog
        # (armed only when the plan can actually strike an aggregator,
        # so chaos-free runs cannot flake on a loaded event loop)
        # declares death on staleness.
        last_beat: dict[int, float] = {}

        def beat(agg_id: int) -> None:
            last_beat[agg_id] = loop.time()

        for listener in listeners:
            listener.start_heartbeat(beat, cfg.heartbeat_interval)

        failed: set[int] = set()
        struck_times: dict[int, float] = {}
        failover_records: list[FailoverRecord] = []

        inflight = asyncio.Semaphore(cfg.max_inflight)

        def channel_for(host_id: int, faults) -> HostChannel:
            report = by_host[host_id]
            return HostChannel(
                host_id,
                epoch,
                # Late-bound encode: a report that is not handed off
                # yet has its frame only while it holds an in-flight
                # slot; a handed-off one sends the frame it holds.
                lambda: encode_report(report, epoch),
                # Late-bound route: each attempt re-resolves over the
                # live aggregator set.
                lambda: router.resolve(host_id),
                cfg,
                stats,
                injector=injector,
                faults=faults,
                inflight=inflight,
            )

        channels = [
            channel_for(
                host_id,
                injector.schedule(epoch, host_id)
                + injector.socket_schedule(epoch, host_id)
                if injector is not None
                else (),
            )
            for host_id in active
        ]
        # Hosts down for the whole epoch (crash/partition faults burn
        # their budget before any socket): redelivery cannot help them.
        fatal_hosts = {
            channel.host_id
            for channel in channels
            if channel.delivery.fatal is not None
        }

        async def fail_over(agg_id: int) -> None:
            listener = listeners[agg_id]
            now = loop.time()
            # The shard at detection: lost (ACKed state died with the
            # aggregator) plus live hosts still routed to it.
            lost = list(listener.accepted)
            stranded = [
                host_id
                for host_id in active
                if host_id not in delivered
                and host_id not in fatal_hosts
                and router.target(host_id) == agg_id
            ]
            router.remove(agg_id)
            failed.add(agg_id)
            # Forget the dead shard's attendance: its merged partial
            # is gone, so redelivered copies must count as first
            # arrivals, not duplicates.
            for host_id in lost:
                seen.discard((host_id, epoch))
                delivered.discard(host_id)
                accept_times.pop(host_id, None)
            if not cfg.hierarchical:
                buckets[agg_id].clear()
            await listener.close(0)
            struck_at = (
                listener.struck_at
                if listener.struck_at is not None
                else now
            )
            struck_times[agg_id] = struck_at
            stats.failovers += 1
            failover_records.append(
                FailoverRecord(
                    aggregator_id=agg_id,
                    kind=(
                        listener.struck.value
                        if listener.struck is not None
                        else "unresponsive"
                    ),
                    shard_hosts=tuple(sorted(set(lost) | set(stranded))),
                    detect_seconds=max(0.0, now - struck_at),
                )
            )

        async def watchdog_loop() -> None:
            while True:
                await asyncio.sleep(cfg.heartbeat_interval)
                now = loop.time()
                for agg_id in sorted(router.live):
                    if (
                        now - last_beat[agg_id]
                        >= cfg.aggregator_watchdog
                    ):
                        await fail_over(agg_id)

        watchdog: asyncio.Task | None = None
        if agg_faults:
            watchdog = asyncio.ensure_future(watchdog_loop())

        async def redeliver(host_id: int) -> None:
            # A fresh retry budget, no injected faults: redelivery
            # models the host's fail-over logic, not new chaos — though
            # the surviving *aggregators'* own scheduled strikes still
            # apply on arrival.
            channel = channel_for(host_id, ())
            if await channel.deliver() is not None:
                stats.redeliveries += 1
                if channel.last_ack == ACK_DUP:
                    stats.redelivery_dups += 1

        def remaining() -> float:
            return deadline - loop.time()

        async def settle() -> None:
            """Converge after the main wave: wait out watchdog
            detection of any silent aggregator, then sweep
            still-undelivered hosts onto the survivors — looping,
            because a redelivery wave can strike the next scheduled
            aggregator fault."""
            # Grace so a strike on the wave's very last frame has
            # stale heartbeats by the first staleness check.
            await asyncio.sleep(2 * cfg.heartbeat_interval)
            swept_generation = 0
            while remaining() > 0:
                now = loop.time()
                if any(
                    now - last_beat[agg_id]
                    >= 2 * cfg.heartbeat_interval
                    for agg_id in router.live
                ):
                    # Beats have gone quiet but the watchdog has not
                    # ruled yet; let it.
                    await asyncio.sleep(cfg.heartbeat_interval / 2)
                    continue
                if not failover_records:
                    break
                if len(failover_records) == swept_generation:
                    # No new failover since the last sweep: stable.
                    break
                if not router.live:
                    break
                undelivered = [
                    host_id
                    for host_id in active
                    if host_id not in delivered
                    and host_id not in fatal_hosts
                ]
                if not undelivered:
                    break
                swept_generation = len(failover_records)
                await self._gather_with_deadline(
                    [redeliver(host_id) for host_id in undelivered],
                    timeout=max(0.0, remaining()),
                )

        try:
            await self._gather_with_deadline(
                [channel.deliver() for channel in channels]
            )
            if watchdog is not None:
                await settle()
        finally:
            if watchdog is not None:
                watchdog.cancel()
                try:
                    await watchdog
                except asyncio.CancelledError:
                    pass
            for listener in listeners:
                await listener.close(cfg.drain_timeout)

        # Outcome bookkeeping per failover: which of the dead shard's
        # hosts a survivor re-accepted, and how long recovery took.
        for record in failover_records:
            struck_at = struck_times[record.aggregator_id]
            recovered = tuple(
                host_id
                for host_id in record.shard_hosts
                if host_id in delivered
            )
            record.redelivered_hosts = recovered
            record.unrecovered_hosts = tuple(
                host_id
                for host_id in record.shard_hosts
                if host_id not in delivered
            )
            if recovered:
                record.recovery_seconds = max(
                    0.0,
                    max(
                        accept_times.get(host_id, struck_at)
                        for host_id in recovered
                    )
                    - struck_at,
                )
        result.failovers = failover_records

        # Every host not acked-and-decoded is missing: quarantined
        # hosts, exhausted retriers, and deadline stragglers alike.
        result.missing_hosts = [
            host_id
            for host_id in sorted(by_host)
            if host_id not in delivered
        ]
        for host_id in active:
            breaker = self._breakers[host_id]
            if host_id in delivered:
                breaker.record_success()
            else:
                breaker.record_failure(epoch)

        if cfg.hierarchical:
            partials = [
                partial
                for agg_id, aggregator in enumerate(aggregators)
                if agg_id not in failed
                for partial in (aggregator.finish(),)
                if partial is not None
            ]
            result.reports = partials
            result.aggregated_from = len(delivered)
            self.last_peak_resident = max(
                (agg.peak_resident for agg in aggregators), default=0
            )
        else:
            collected = [
                report for bucket in buckets for report in bucket
            ]
            result.reports = sorted(
                collected, key=lambda report: report.host_id
            )
            self.last_peak_resident = len(collected)
        return result

    # ------------------------------------------------------------------
    async def _gather_with_deadline(self, deliveries, timeout=None):
        """Run channel deliveries under the epoch deadline; stragglers
        are cancelled and land in the missing set."""
        tasks = [asyncio.ensure_future(delivery) for delivery in deliveries]
        if not tasks:
            return
        _, pending = await asyncio.wait(
            tasks,
            timeout=(
                self.config.epoch_deadline if timeout is None else timeout
            ),
        )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for task in tasks:
            # Network failure modes are handled inside the channel;
            # anything escaping it is a real bug and must surface, not
            # masquerade as a missing host.
            if not task.cancelled():
                task.result()
