"""The end-to-end SketchVisor pipeline.

One call wires together everything the paper builds: per-host software
switches running the chosen sketch in the normal path (with or without
a fast path), the centralized controller merging their per-epoch
reports, compressive-sensing recovery, and task-level answers scored
against exact ground truth.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.cluster import ClusterCollector, ClusterConfig
from repro.common.errors import ConfigError
from repro.controlplane.controller import Controller, NetworkResult
from repro.controlplane.lens import LensConfig
from repro.controlplane.merge import MergeFold
from repro.controlplane.recovery import RecoveryMode
from repro.controlplane.transport import (
    CollectionResult,
    ReportCollector,
    encode_report,
)
from repro.dataplane.cost_model import CostModel
from repro.dataplane.engine import SwitchReport
from repro.dataplane.host import Host, LocalReport
from repro.durability import (
    DEFAULT_CHECKPOINT_EVERY,
    HostOutcome,
    Supervisor,
)
from repro.faults import FaultInjector, FaultPlan, moderate_plan
from repro.framework.modes import DataPlaneMode
from repro.sketches.base import Sketch
from repro.tasks.base import MeasurementTask, TaskScore
from repro.tasks.heavy_changer import HeavyChangerTask
from repro.telemetry import Telemetry, trace_span
from repro.telemetry.accuracy import (
    AccuracyObserver,
    SLOBreach,
    SLOPolicy,
)
from repro.telemetry.publish import (
    publish_cluster_epoch,
    publish_collection_epoch,
    publish_durability_epoch,
    publish_host_reports,
)
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace


@dataclass
class PipelineConfig:
    """Deployment parameters for one pipeline run."""

    num_hosts: int = 1
    #: Worker cores per host (§7.2): each core runs its own switch over
    #: a flow-consistent share of the host's traffic, and the host
    #: folds its cores' results into its one report.
    cores: int = 1
    fastpath_bytes: int = 8192  # paper default (§7.1)
    buffer_packets: int = 1024
    offered_gbps: float | None = None  # None = send as fast as possible
    seed: int = 1
    cost_model: CostModel = field(default_factory=CostModel.in_memory)
    lens: LensConfig | None = None
    #: Accepted and ignored: it used to choose between two data-plane
    #: loops; every host now runs the one chunked ``HostEngine``.
    batch: bool = False
    #: Optional :class:`~repro.telemetry.Telemetry` receiving metrics
    #: and spans from every stage.  ``None`` (the default) disables all
    #: instrumentation; setting ``REPRO_TELEMETRY=1`` in the
    #: environment injects a fresh instance here instead.
    telemetry: Telemetry | None = None
    #: Optional :class:`~repro.faults.FaultPlan`.  ``None`` (the
    #: default) keeps the whole chaos subsystem inert — reports flow
    #: straight from data plane to controller, bit-identical to a
    #: build without it.  A plan routes every epoch's reports through
    #: the wire codec and :class:`ReportCollector` with the plan's
    #: faults injected; setting ``REPRO_CHAOS=1`` in the environment
    #: injects the moderate default plan here instead.
    faults: FaultPlan | None = None
    #: Minimum fraction of hosts that must report before an epoch is
    #: merged (only consulted on the fault-injected collection path).
    quorum: float = 0.5
    #: Root directory for durable host state.  ``None`` (the default)
    #: disables checkpointing entirely — no supervisor, no snapshots,
    #: bit-identical to a build without ``repro.durability``; setting
    #: ``REPRO_CHECKPOINT_DIR=<dir>`` in the environment injects a
    #: directory here instead (how CI's crash-recovery leg runs).
    checkpoint_dir: str | None = None
    #: Snapshot interval in packets (absolute-offset aligned).
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    #: Accuracy SLO policy: an :class:`SLOPolicy`, a path to a policy
    #: JSON, or ``None`` (no SLO evaluation).  Needs telemetry.
    slo: SLOPolicy | str | None = None
    #: Shadow ground-truth sample size per epoch (0 disables the
    #: empirical error gauges).
    shadow_samples: int = 0
    #: Where the flight recorder dumps on crash, quarantine, or SLO
    #: breach; ``None`` records into the ring without auto-dumping.
    recorder_path: str | None = None
    #: Real-socket control plane: a
    #: :class:`~repro.cluster.ClusterConfig` routes every epoch's
    #: reports over actual TCP connections through the hierarchical
    #: aggregator tier instead of the in-process handoff.  ``None``
    #: (the default) keeps the historical paths bit for bit.
    #: Composes with ``faults``: the plan's report-path *and*
    #: connection-level schedules are injected at the socket layer.
    cluster: "ClusterConfig | None" = None

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise ConfigError(
                f"num_hosts must be >= 1, got {self.num_hosts}"
            )
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")
        _apply_env_switches(self)


def _apply_env_switches(config: PipelineConfig) -> None:
    """Apply the five ``REPRO_*`` switches to ``config``: the one place
    the package reads the environment (how CI runs the whole suite
    instrumented, chaotic, or durable).

    * ``REPRO_TELEMETRY`` gives a config without telemetry a fresh
      :class:`Telemetry`;
    * ``REPRO_PROFILE`` implies telemetry and profiles it, a telemetry
      passed in included;
    * ``REPRO_CHAOS`` gives a config without a plan
      :func:`~repro.faults.moderate_plan`, seeded by a numeric value
      other than ``1``;
    * ``REPRO_CHECKPOINT_DIR`` gives a config without a checkpoint
      directory that one, and ``REPRO_CHECKPOINT_EVERY`` then sets its
      snapshot interval (a positive integer, else :class:`ConfigError`).
    """
    env = os.environ

    def on(name: str) -> bool:
        return env.get(name, "") not in ("", "0")

    profile = on("REPRO_PROFILE")
    if config.telemetry is None:
        if profile or on("REPRO_TELEMETRY"):
            config.telemetry = Telemetry(profile=profile)
    elif profile:
        config.telemetry.enable_profiling()
    if config.faults is None and on("REPRO_CHAOS"):
        try:
            seed = int(env["REPRO_CHAOS"])
        except ValueError:
            seed = 0
        config.faults = moderate_plan(seed=0 if seed == 1 else seed)
    directory = env.get("REPRO_CHECKPOINT_DIR", "")
    if config.checkpoint_dir is None and directory:
        config.checkpoint_dir = directory
        every = env.get("REPRO_CHECKPOINT_EVERY", "")
        if every:
            try:
                packets = int(every)
            except ValueError:
                packets = 0
            if packets < 1:
                raise ConfigError(
                    "REPRO_CHECKPOINT_EVERY must be a positive number "
                    f"of packets, got {every!r}"
                )
            config.checkpoint_every = packets


@dataclass
class EpochResult:
    """Everything one epoch produced."""

    answer: object
    score: TaskScore
    network: NetworkResult
    reports: list[LocalReport]
    #: Delivery bookkeeping from the report collector; ``None`` when
    #: no :class:`FaultPlan` is configured (direct in-memory path).
    collection: CollectionResult | None = None
    #: Per-host :class:`~repro.durability.HostOutcome` records from the
    #: supervised data plane; ``None`` when checkpointing is disabled.
    durability: list[HostOutcome] | None = None
    #: Accuracy-SLO rules this epoch failed (empty without a policy).
    slo_breaches: list[SLOBreach] = field(default_factory=list)

    @property
    def degraded(self):
        """The epoch's :class:`DegradedEpoch` record, if any."""
        return self.network.degraded

    def retire(self) -> None:
        """Keep what the epoch answered and drop every sketch it holds.

        The answer, score, SLO breaches, durability counters, the
        network result's scalars, the collection's counts, and each
        report's switch statistics and fast-path snapshot stay; the
        host sketches (or frames) and the merged state go.  (The
        collection's report list went once the controller folded it.)
        Durability outcomes hold their cores' reports: at one core per
        host, the same objects as :attr:`reports`.
        """
        self.network.retire()
        for report in self.reports:
            report.retire()
        for outcome in self.durability or ():
            if outcome.report is not None:
                outcome.report.retire()

    @property
    def throughput_gbps(self) -> float:
        """Mean per-host throughput for the epoch."""
        if not self.reports:
            return 0.0
        return sum(
            r.switch.throughput_gbps for r in self.reports
        ) / len(self.reports)

    @property
    def fastpath_byte_fraction(self) -> float:
        total = sum(r.switch.total_bytes for r in self.reports)
        if total == 0:
            return 0.0
        return (
            sum(r.switch.fastpath_bytes for r in self.reports) / total
        )


def _fold_cores(
    host_id: int, reports: list[LocalReport], cost_model: CostModel
) -> LocalReport:
    """A host's one report from its cores' (§7.2), by the controller's
    own linear merge; a single core's report is the host's."""
    if len(reports) == 1:
        return reports[0]
    fold = MergeFold()
    for report in reports:
        fold.add(report)
    merged = fold.finish()
    return LocalReport(
        host_id=host_id,
        sketch=merged.sketch,
        fastpath=merged.fastpath,
        switch=SwitchReport.combine(
            [report.switch for report in reports], cost_model
        ),
    )


class SketchVisorPipeline:
    """Task + solution + deployment, runnable on traces.

    Parameters
    ----------
    task:
        A measurement task bound to a solution (e.g.
        ``HeavyHitterTask("deltoid", threshold)``).
    dataplane:
        Data-plane mode (§7.2 arms).
    recovery:
        Control-plane recovery mode (§7.3 arms).  Ignored for IDEAL
        and NO_FASTPATH data planes, which produce no fast-path state.
    """

    def __init__(
        self,
        task: MeasurementTask,
        dataplane: DataPlaneMode = DataPlaneMode.SKETCHVISOR,
        recovery: RecoveryMode = RecoveryMode.SKETCHVISOR,
        config: PipelineConfig | None = None,
    ):
        self.task = task
        self.dataplane = dataplane
        self.recovery = recovery
        self.config = config or PipelineConfig()
        self.controller = Controller(
            mode=recovery,
            lens_config=self.config.lens,
            quorum=self.config.quorum,
            telemetry=self.config.telemetry,
        )
        # The chaos path only exists when a FaultPlan is configured;
        # without one, reports go straight to the controller and the
        # run is bit-identical to a build without fault injection.
        if self.config.faults is not None:
            self._injector = FaultInjector(self.config.faults)
            self._collector = ReportCollector(injector=self._injector)
        else:
            self._injector = None
            self._collector = None
        # The socket transport composes with chaos: the same injector
        # (when present) drives both report-path and connection-level
        # fault schedules at the socket layer.
        if self.config.cluster is not None:
            self._cluster = ClusterCollector(
                self.config.cluster, injector=self._injector
            )
        else:
            self._cluster = None
        # Durable host state is likewise opt-in: with no checkpoint
        # directory the supervisor never exists and the data plane runs
        # the historical (unsupervised) paths bit for bit.
        if self.config.checkpoint_dir is not None:
            self._supervisor = Supervisor(
                self.config.checkpoint_dir,
                plan=self.config.faults,
                injector=self._injector,
                checkpoint_every=self.config.checkpoint_every,
            )
        else:
            self._supervisor = None
        # Accuracy observability rides on telemetry: theoretical-bound
        # gauges are always published when instrumented; the shadow
        # sampler and SLO engine are opt-in on top.
        if self.config.telemetry is not None:
            policy = self.config.slo
            if isinstance(policy, str):
                policy = SLOPolicy.load(policy)
            self._accuracy = AccuracyObserver(
                self.config.telemetry,
                policy=policy,
                shadow_samples=self.config.shadow_samples,
                seed=self.config.seed,
                recorder_path=self.config.recorder_path,
            )
        else:
            self._accuracy = None
        self._epoch_counter = 0
        #: A heavy changer's previous epoch: its recovered sketch and
        #: ground truth (``None`` until the first epoch has run).  The
        #: sketch is held itself, because :meth:`EpochResult.retire`
        #: drops ``network.sketch``.
        self._held_epoch: tuple[Sketch, GroundTruth] | None = None
        #: The one sketch the unsupervised hosts of an epoch take turns
        #: on when their reports leave as frames (built on first use).
        self._warm_sketch = None

    def describe(self) -> str:
        """One-line configuration summary for logs and error messages."""
        cfg = self.config
        return (
            f"SketchVisorPipeline(task={self.task.name!r}, "
            f"dataplane={self.dataplane.value}, "
            f"recovery={self.recovery.value}, "
            f"hosts={cfg.num_hosts}, "
            f"buffer={cfg.buffer_packets}p, "
            f"fastpath={cfg.fastpath_bytes}B, "
            f"telemetry={'on' if cfg.telemetry is not None else 'off'}, "
            f"chaos={'on' if cfg.faults is not None else 'off'}, "
            f"cluster={'on' if cfg.cluster is not None else 'off'}, "
            f"durability="
            f"{'on' if cfg.checkpoint_dir is not None else 'off'})"
        )

    def __repr__(self) -> str:
        return self.describe()

    # ------------------------------------------------------------------
    def _build_hosts(self) -> list[Host]:
        """One :class:`Host` per core cell — cell ``h + hosts * c`` is
        core ``c`` of host ``h`` — each with a fresh sketch.  At one
        core per host, unsupervised hosts whose reports leave as frames
        take turns on one warm sketch instead: a host is done with it
        once its report is encoded, and the next resets it before
        running.  (A host's cores fold their sketches only after they
        have all run, so they cannot take turns.)"""
        cfg = self.config
        shared = None
        if (
            cfg.cores == 1
            and self._supervisor is None
            and self._streams_frames()
        ):
            if self._warm_sketch is None:
                self._warm_sketch = self.task.create_sketch(seed=cfg.seed)
            shared = self._warm_sketch
        hosts = []
        for cell in range(cfg.num_hosts * cfg.cores):
            sketch = (
                shared
                if shared is not None
                else self.task.create_sketch(seed=cfg.seed)
            )
            hosts.append(
                Host(
                    host_id=cell,
                    sketch=sketch,
                    fastpath_bytes=(
                        None
                        if self.dataplane
                        in (
                            DataPlaneMode.NO_FASTPATH,
                            DataPlaneMode.IDEAL,
                        )
                        else cfg.fastpath_bytes
                    ),
                    use_misra_gries=(
                        self.dataplane is DataPlaneMode.MG_FASTPATH
                    ),
                    ideal=self.dataplane is DataPlaneMode.IDEAL,
                    cost_model=cfg.cost_model,
                    buffer_packets=cfg.buffer_packets,
                )
            )
        return hosts

    def _doomed_hosts(self, hosts, shards, epoch: int) -> set[int]:
        """Core cells whose shard has a mid-epoch fault scheduled while
        no supervisor can recover them: the crash/hang loses the epoch
        (their host's report goes missing → degraded merge), exactly
        the pre-durability behavior the checkpoint layer exists to
        fix."""
        cfg = self.config
        if cfg.faults is None:
            return set()
        doomed = set()
        for host, shard in zip(hosts, shards):
            events = cfg.faults.dataplane_schedule_for(
                epoch, host.host_id, len(shard)
            )
            if events:
                doomed.add(host.host_id)
                if self._injector is not None:
                    self._injector.record(events[0].kind)
        return doomed

    def _streams_frames(self) -> bool:
        """Whether this pipeline's reports leave as frames."""
        return self._cluster is not None or self._collector is not None

    def _hand_off(self, report: LocalReport, epoch: int) -> LocalReport:
        """Encode a report the moment its host finishes when it leaves
        as a frame anyway: it then holds its frame (~120 KB sparse for
        ``cp_fanin``'s Deltoid), not its sketch (3.4 MB dense)."""
        if self._streams_frames():
            report.hand_off(encode_report(report, epoch))
        return report

    def _run_dataplane(
        self, trace: Trace
    ) -> tuple[list[LocalReport], list[int], list[HostOutcome] | None]:
        """Run one epoch's data plane, one host (and core) at a time.

        Returns ``(reports, missing_hosts, outcomes)``: one report per
        host that survived, hosts that lost a core's epoch to an
        unrecovered data-plane fault, and the supervisor's per-cell
        outcome records (``None`` when checkpointing is disabled).
        """
        cfg = self.config
        with trace_span(
            cfg.telemetry, "trace.partition", hosts=cfg.num_hosts
        ):
            # Cell h + hosts * c runs shard h + hosts * c.  A flow's
            # shard index modulo ``hosts`` is its shard index among
            # ``hosts`` shards, so a host's cores split exactly its own
            # flows, and at one core the shards are the hosts'.
            shards = trace.partition(cfg.num_hosts * cfg.cores)
        # Hosts are built *without* telemetry: per-host metrics are
        # published centrally from the returned reports.
        cells = self._build_hosts()
        sketch_name = cells[0].sketch.name if cells else ""
        # The epoch the *next* _aggregate call will stamp on these
        # reports — fault schedules must be keyed by the same number.
        epoch = self._epoch_counter
        supervisor = self._supervisor
        # Without a supervisor a scheduled mid-epoch fault is
        # unrecoverable: the host's epoch is simply lost.
        doomed = (
            self._doomed_hosts(cells, shards, epoch)
            if supervisor is None
            else set()
        )
        profiler = (
            cfg.telemetry.profiler if cfg.telemetry is not None else None
        )
        # A core sees its share of the host's traffic over the same
        # span of time: its share of the offered rate.
        rate = (
            None if cfg.offered_gbps is None else cfg.offered_gbps / cfg.cores
        )
        outcomes = None if supervisor is None else []
        reports: list[LocalReport] = []
        missing: list[int] = []
        for host_id in range(cfg.num_hosts):
            cores = cells[host_id::cfg.num_hosts]
            if any(core.host_id in doomed for core in cores):
                missing.append(host_id)
                continue
            core_reports = []
            with trace_span(cfg.telemetry, "dataplane.host", host=host_id):
                for core in cores:
                    # Stage timers run where the cycles are spent;
                    # metrics still publish centrally from the reports.
                    core.switch.profiler = profiler
                    if core.sketch is self._warm_sketch:
                        core.sketch.reset()
                    shard = shards[core.host_id]
                    if supervisor is None:
                        report = core.run_epoch(shard, rate)
                    else:
                        outcome = supervisor.run_host(
                            core, shard, rate, epoch
                        )
                        outcomes.append(outcome)
                        report = outcome.report
                    core_reports.append(report)
            if any(report is None for report in core_reports):
                missing.append(host_id)
            else:
                report = _fold_cores(
                    host_id, core_reports, cells[0].switch.cost_model
                )
                reports.append(self._hand_off(report, epoch))
        if cfg.telemetry is not None:
            if outcomes is not None:
                publish_durability_epoch(
                    cfg.telemetry.registry, outcomes
                )
            publish_host_reports(
                cfg.telemetry.registry, reports, sketch_name
            )
        return reports, missing, outcomes

    # ------------------------------------------------------------------
    def _next_epoch(self) -> int:
        epoch = self._epoch_counter
        self._epoch_counter += 1
        return epoch

    def _aggregate(
        self,
        reports: list[LocalReport],
        extra_missing: list[int] | None = None,
    ) -> tuple[NetworkResult, CollectionResult | None]:
        """Hand one epoch's reports to the controller.

        Without a :class:`FaultPlan` or a cluster the reports go
        straight to the controller.  With a plan they round-trip the
        wire format through the :class:`ReportCollector` (faults
        injected, retries, dedup); with a cluster they cross TCP
        connections to the aggregator tier, and the controller merges
        the partial aggregates that arrived, with quorum still keyed on
        *hosts*.  Either collection's report list is dropped once
        merged.  ``extra_missing`` names hosts whose report never
        reached a collector at all (unrecovered data-plane faults);
        they join the missing set the degraded merge compensates for.
        """
        cfg = self.config
        telemetry = cfg.telemetry
        epoch = self._next_epoch()
        missing = sorted(extra_missing or [])
        if self._cluster is not None:
            with trace_span(telemetry, "controlplane.cluster", epoch=epoch):
                collection = self._cluster.collect(reports, epoch)
        elif self._collector is not None:
            with trace_span(telemetry, "controlplane.collect", epoch=epoch):
                with trace_span(
                    telemetry, "serialize.report", reports=len(reports)
                ):
                    frames = {
                        report.host_id: encode_report(report, epoch)
                        for report in reports
                    }
                collection = self._collector.collect(frames, epoch)
        else:
            collection = None
        if collection is not None:
            collection.missing_hosts.extend(
                host_id
                for host_id in missing
                if host_id not in collection.missing_hosts
            )
            reports, missing = collection.reports, collection.missing_hosts
            if telemetry is not None:
                publish_collection_epoch(telemetry.registry, collection)
                if self._cluster is not None:
                    publish_cluster_epoch(
                        telemetry.registry, self._cluster, collection
                    )
        network = self.controller.aggregate(
            reports,
            expected_hosts=cfg.num_hosts,
            missing_hosts=missing,
            epoch=epoch,
        )
        if collection is not None:
            # Folded: the received reports or aggregator partials are
            # garbage from here on, not state the epoch holds.
            collection.reports = []
        return network, collection

    def _finish_epoch(
        self, result: EpochResult, dp_missing: list[int]
    ) -> EpochResult:
        """Accuracy observability tail of every epoch.

        Records the epoch's notable events into the flight recorder,
        publishes the error-bound and shadow-sample gauges, evaluates
        the SLO policy (attaching breaches to the result), and
        auto-dumps the recorder on unrecovered crash or quarantine.
        """
        observer = self._accuracy
        if observer is None:
            return result
        epoch = self._epoch_counter - 1
        recorder = self.config.telemetry.recorder
        recorder.record_epoch_events(
            epoch,
            reports=result.reports,
            buffer_capacity=self.config.buffer_packets,
            collection=result.collection,
            outcomes=result.durability,
            network=result.network,
            dp_missing=dp_missing,
        )
        with trace_span(self.config.telemetry, "accuracy.observe"):
            result.slo_breaches = observer.observe_epoch(
                result, self.task, epoch
            )
        outcomes = result.durability or []
        collection = result.collection
        transport_quarantined = (
            collection is not None and collection.stats.quarantined_hosts
        )
        transport_missing = (
            collection is not None and collection.missing_hosts
        )
        unrecovered_shard = collection is not None and any(
            failover.unrecovered_hosts
            for failover in collection.failovers
        )
        if any(o.quarantined for o in outcomes):
            observer.maybe_dump("quarantine")
        elif dp_missing or any(o.gave_up for o in outcomes):
            observer.maybe_dump("crash")
        elif result.slo_breaches:
            # An SLO breach already dumped with its own reason; don't
            # overwrite it with the transport-trigger dump below.
            pass
        elif transport_quarantined:
            observer.maybe_dump("quarantine")
        elif unrecovered_shard:
            # An aggregator died and redelivery could not rescue every
            # host on its shard — the epoch merged degraded (or failed
            # quorum upstream); capture the fail-over timeline.
            observer.maybe_dump("aggregator_failover")
        elif transport_missing:
            observer.maybe_dump("crash")
        return result

    # ------------------------------------------------------------------
    def run_epoch(
        self, trace: Trace, truth: GroundTruth | None = None
    ) -> EpochResult | None:
        """Run one epoch end to end and score the answer.

        A heavy changer compares each epoch with the one before it
        (§2.1): the pipeline holds the previous epoch's recovered
        sketch and ground truth, so its first epoch answers nothing and
        returns ``None``.  An epoch that fails quorum leaves the held
        epoch in place.
        """
        task = self.task
        telemetry = self.config.telemetry
        changer = isinstance(task, HeavyChangerTask)
        held = self._held_epoch
        answers = not changer or held is not None
        with trace_span(telemetry, "epoch", task=task.name):
            if self._accuracy is not None and answers:
                with trace_span(telemetry, "accuracy.shadow_sample"):
                    self._accuracy.observe_trace(trace)
            with trace_span(telemetry, "dataplane"):
                reports, dp_missing, outcomes = self._run_dataplane(
                    trace
                )
            network, collection = self._aggregate(reports, dp_missing)
            if truth is None:
                with trace_span(telemetry, "groundtruth"):
                    truth = GroundTruth.from_trace(trace)
            if changer:
                self._held_epoch = (network.sketch, truth)
            if not answers:
                return None
            with trace_span(telemetry, "task.answer"):
                answer = (
                    task.answer_pair(held[0], network.sketch)
                    if changer
                    else task.answer(network.sketch)
                )
            with trace_span(telemetry, "task.score"):
                score = (
                    task.score_pair(answer, held[1], truth)
                    if changer
                    else task.score(answer, truth)
                )
            result = EpochResult(
                answer=answer,
                score=score,
                network=network,
                reports=reports,
                collection=collection,
                durability=outcomes,
            )
            return self._finish_epoch(result, dp_missing)
