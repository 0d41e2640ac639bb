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
   concurrently — bounded by :data:`MAX_INFLIGHT`, retried on the
   seeded jittered backoff schedule, cut off by ``epoch_deadline``;
4. drains and closes the listeners, hands over each live
   aggregator's partial, and books every host that did not get acked
   as missing.

Everything downstream — quorum, degraded-merge rescale, recorder —
is reused, not reimplemented: each partial carries its hosts' ids, so
:meth:`Controller.aggregate` keys its quorum math on hosts even though
``reports`` holds A partial aggregates instead of N raw reports.

Aggregator fail-over
--------------------
The aggregator tier itself can fail mid-epoch (``agg_crash`` /
``agg_hang`` faults).  A dead process sends no error report, so the
controller's detection is modelled as a fixed latency: a strike arms
one watchdog verdict, due :data:`AGGREGATOR_WATCHDOG` seconds later,
and crashes and hangs are judged alike.  The verdict is the whole
fail-over:

* **re-shard** — the dead aggregator leaves the rendezvous candidate
  set, so only *its* hosts re-home (modulo placement would reshuffle
  nearly everyone); channels still retrying re-resolve their route on
  every attempt and land on the survivor automatically;
* **forget** — the dead shard's partial aggregate died with it, so
  the hosts it had ACKed are erased from the ``(host, epoch)`` dedup
  set and the delivered set: their re-homed copies must merge as
  first arrivals, not be dropped as duplicates;
* **re-home** — each shard host (ACKed by the dead aggregator, or
  still routed to it) that is neither delivered nor down for the
  epoch gets one fresh delivery to the survivors: at once if the dead
  aggregator had ACKed it or its first delivery has already ended
  without an ACK, else only once that first delivery — re-routing
  onto a survivor by itself — ends without one.  So each report is
  sent once more at most.  A re-home can strike a survivor's own
  scheduled fault, whose verdict re-homes *that* shard in turn.

Hosts outside a dead shard are never sent again.  Because every tier
runs the one order-free merge fold, an epoch where a crashed
aggregator's hosts all re-homed merges bit-identically to the
no-crash epoch.  Hosts that stay unrecovered (no survivors, epoch
deadline) flow into the existing quorum-gated degraded merge — a lost
shard degrades the epoch, it never silently loses it.
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


#: Seconds from an aggregator strike to the watchdog verdict that
#: fails it over (the controller's detection latency).
AGGREGATOR_WATCHDOG = 0.4
#: Bound on concurrently connected hosts — the transport's send queue.
#: Hosts beyond it wait for a slot (counted as backpressure), so a
#: 1000-host epoch never holds 1000 open sockets or frames at once.
MAX_INFLIGHT = 64
#: Grace for in-flight connections when the listeners shut down.
DRAIN_TIMEOUT = 2.0


@dataclass
class FailoverRecord:
    """One aggregator a watchdog verdict declared dead.

    ``shard_hosts`` is the shard at the verdict: hosts the dead
    aggregator had ACKed (their merged state died with it) plus live
    hosts still routed to it.  Each one is re-homed, and lands in
    ``redelivered_hosts`` or ``unrecovered_hosts`` as its re-home ends
    — unrecovered hosts are handed to the degraded merge.
    """

    aggregator_id: int
    #: ``"agg_crash"`` or ``"agg_hang"``.
    kind: str
    shard_hosts: tuple[int, ...]
    #: Strike → verdict latency (seconds).
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

    One instance per epoch; each verdict shrinks :attr:`live` as an
    aggregator dies, and every :meth:`resolve` call sees the current
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
        strikes listeners with per-``(epoch, aggregator)`` crashes and
        hangs, each of which arms a watchdog verdict.
    """

    def __init__(self, config: ClusterConfig, injector=None):
        self.config = config
        self.injector = injector
        self._breakers: dict[int, CircuitBreaker] = {}
        #: Shape of the most recent epoch, for telemetry: aggregator
        #: count and peak dense sketches resident per aggregator.
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

        aggregators = [
            Aggregator(agg_id) for agg_id in range(num_aggregators)
        ]

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
        # Everything the epoch waits on — first deliveries, re-homes
        # and armed verdicts — in one list that grows as it runs.
        tasks: list[asyncio.Task] = []

        def spawn(coroutine) -> None:
            tasks.append(asyncio.ensure_future(coroutine))

        def arm(listener: AggregatorListener) -> None:
            spawn(verdict(listener, loop.time()))

        listeners = [
            AggregatorListener(
                agg_id,
                epoch,
                aggregators[agg_id].add,
                stats,
                seen,
                delivered,
                idle_timeout=cfg.idle_timeout,
                on_strike=arm,
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

        inflight = asyncio.Semaphore(MAX_INFLIGHT)

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
        # their budget before any socket): re-homing cannot help them.
        fatal_hosts = {
            channel.host_id
            for channel in channels
            if channel.delivery.fatal is not None
        }

        async def verdict(
            listener: AggregatorListener, struck_at: float
        ) -> None:
            await asyncio.sleep(AGGREGATOR_WATCHDOG)
            agg_id = listener.aggregator_id
            # The shard: lost (ACKed state died with the aggregator)
            # plus live hosts still routed to it.
            lost = set(listener.accepted)
            stranded = {
                host_id
                for host_id in active
                if host_id not in delivered
                and host_id not in fatal_hosts
                and router.target(host_id) == agg_id
            }
            router.remove(agg_id)
            # Forget the dead shard's attendance: its merged partial
            # is gone, so re-homed copies must count as first
            # arrivals, not duplicates.
            for host_id in lost:
                seen.discard((host_id, epoch))
                delivered.discard(host_id)
            stats.failovers += 1
            record = FailoverRecord(
                aggregator_id=agg_id,
                kind=listener.struck.value,
                shard_hosts=tuple(sorted(lost | stranded)),
                detect_seconds=loop.time() - struck_at,
            )
            result.failovers.append(record)
            for host_id in record.shard_hosts:
                # A stranded host still on its first delivery re-routes
                # onto a survivor by itself: follow that delivery, and
                # re-home only if it ends without an ACK.
                follow = (
                    host_id not in lost
                    and not first_deliveries[host_id][1].done()
                )
                spawn(rehome(record, host_id, struck_at, follow))
            # Hung connections are cut, so their clients retry on the
            # survivors now rather than at their ack timeout.
            await listener.close(0)

        async def rehome(
            record: FailoverRecord,
            host_id: int,
            struck_at: float,
            follow: bool,
        ) -> None:
            channel, first = first_deliveries[host_id]
            landed = None
            try:
                if follow:
                    # Wait without owning: a cancelled re-home must not
                    # cancel the first delivery.
                    await asyncio.wait([first])
                    landed = first.result()
                if landed is None:
                    # A fresh retry budget, no injected faults:
                    # re-homing models the host's fail-over logic, not
                    # new chaos — though the surviving *aggregators'*
                    # own scheduled strikes still apply on arrival.
                    channel = channel_for(host_id, ())
                    landed = await channel.deliver()
            finally:
                if landed is None:
                    record.unrecovered_hosts += (host_id,)
                else:
                    stats.redeliveries += 1
                    if channel.last_ack == ACK_DUP:
                        stats.redelivery_dups += 1
                    record.redelivered_hosts += (host_id,)
                    record.recovery_seconds = loop.time() - struck_at

        # host id -> (channel, task) of its first delivery.
        first_deliveries: dict[int, tuple[HostChannel, asyncio.Task]] = {}
        for channel in channels:
            spawn(channel.deliver())
            first_deliveries[channel.host_id] = (channel, tasks[-1])
        try:
            await _run_until(tasks, deadline)
        finally:
            for listener in listeners:
                await listener.close(DRAIN_TIMEOUT)

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

        # A dead aggregator's partial died with it.
        result.reports = [
            partial
            for agg_id in sorted(router.live)
            if (partial := aggregators[agg_id].finish()) is not None
        ]
        result.hosts_reported = len(delivered)
        self.last_peak_resident = max(
            (agg.peak_resident for agg in aggregators), default=0
        )
        return result


async def _run_until(tasks: list[asyncio.Task], deadline: float) -> None:
    """Wait on ``tasks`` — a list that grows while they run — until
    every one is done; past the loop-clock ``deadline`` the stragglers
    are cancelled and their hosts land in the missing set."""
    loop = asyncio.get_running_loop()
    while pending := [task for task in tasks if not task.done()]:
        timeout = deadline - loop.time()
        if timeout > 0:
            await asyncio.wait(pending, timeout=timeout)
            continue
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
    for task in tasks:
        # Network failure modes are handled inside the channel;
        # anything escaping it is a real bug and must surface, not
        # masquerade as a missing host.
        if not task.cancelled():
            task.result()
