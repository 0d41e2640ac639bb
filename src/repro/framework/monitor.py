"""Continuous multi-epoch monitoring: the operator-facing loop.

The paper's deployment story (§3) is a long-running service: every
epoch, hosts report, the controller recovers, tasks answer, and
heavy-changer detection compares consecutive epochs.  This module wires
that loop around the per-epoch pipeline, tracks history, and raises
typed alerts when detections cross their thresholds.  An epoch's
sketches live only until the next epoch runs; history keeps what each
epoch answered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import ConfigError, QuorumError
from repro.controlplane.recovery import RecoveryMode
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import (
    EpochResult,
    PipelineConfig,
    SketchVisorPipeline,
)
from repro.tasks.base import MeasurementTask
from repro.telemetry import trace_span
from repro.telemetry.publish import publish_monitor_epoch
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace


class AlertKind(Enum):
    HEAVY_HITTER = "heavy_hitter"
    HEAVY_CHANGER = "heavy_changer"
    DDOS = "ddos"
    SUPERSPREADER = "superspreader"
    #: An epoch was merged from fewer hosts than expected (quorum met,
    #: full set not).  ``subject`` is the tuple of missing host ids and
    #: ``magnitude`` the estimated relative-error inflation.
    DEGRADED_EPOCH = "degraded_epoch"
    #: An accuracy-SLO rule failed its objective this epoch.
    #: ``subject`` is the rule name and ``magnitude`` the offending
    #: metric value (the breach record rides in the epoch result).
    ACCURACY_SLO_BREACH = "accuracy_slo_breach"


@dataclass(frozen=True)
class Alert:
    """One detection event raised during continuous monitoring."""

    epoch: int
    kind: AlertKind
    subject: object  # flow key or host IP
    magnitude: float


@dataclass
class EpochSummary:
    """What one epoch produced in the monitoring loop."""

    epoch: int
    results: dict[str, EpochResult] = field(default_factory=dict)
    alerts: list[Alert] = field(default_factory=list)

    def retire(self) -> None:
        """Drop every sketch the epoch's results hold
        (:meth:`EpochResult.retire`); answers and alerts stay."""
        for result in self.results.values():
            result.retire()


_ALERT_KINDS = {
    "heavy_hitter": AlertKind.HEAVY_HITTER,
    "heavy_changer": AlertKind.HEAVY_CHANGER,
    "ddos": AlertKind.DDOS,
    "superspreader": AlertKind.SUPERSPREADER,
}


class ContinuousMonitor:
    """Run a set of measurement tasks over an epoch stream.

    Parameters
    ----------
    tasks:
        The tasks to run each epoch.  A :class:`HeavyChangerTask`
        compares each epoch against the previous one (its pipeline
        holds that epoch's recovered sketch; the first epoch produces
        no answer).
    config:
        Deployment parameters shared by all tasks.
    """

    def __init__(
        self,
        tasks: list[MeasurementTask],
        dataplane: DataPlaneMode = DataPlaneMode.SKETCHVISOR,
        recovery: RecoveryMode = RecoveryMode.SKETCHVISOR,
        config: PipelineConfig | None = None,
    ):
        if not tasks:
            raise ConfigError("need at least one task")
        self.tasks = tasks
        self.config = config or PipelineConfig()
        self._pipelines = {
            task.name: SketchVisorPipeline(
                task,
                dataplane=dataplane,
                recovery=recovery,
                config=self.config,
            )
            for task in tasks
        }
        self._epoch_index = 0
        self.history: list[EpochSummary] = []

    # ------------------------------------------------------------------
    def process_epoch(self, trace: Trace) -> EpochSummary:
        """Feed one epoch of traffic; returns its summary with alerts.

        The summary is whole until the next call, which retires it in
        place (:meth:`EpochSummary.retire`): a long-running loop keeps
        each past epoch's answers, not its sketches.
        """
        if self.history:
            self.history[-1].retire()
        telemetry = self.config.telemetry
        summary = EpochSummary(epoch=self._epoch_index)
        start = time.perf_counter()
        try:
            with trace_span(
                telemetry, "monitor.epoch", epoch=self._epoch_index
            ):
                self._run_tasks(trace, summary, telemetry)
        finally:
            # Every task's pipeline ran the window, so the index moves
            # on with their epoch counters, failed quorum or not.
            self._epoch_index += 1
        if telemetry is not None:
            publish_monitor_epoch(
                telemetry.registry,
                summary,
                time.perf_counter() - start,
            )
        self.history.append(summary)
        return summary

    def _run_tasks(self, trace, summary, telemetry) -> None:
        """Run the window through every task's pipeline into
        ``summary``.  A task that fails quorum does not stop the tasks
        after it; the first :class:`QuorumError` is raised once all of
        them have run."""
        # What depends only on the window is computed once and shared
        # by every task's pipeline: the exact ground truth here, the
        # host shards on the trace (Trace.partition).
        with trace_span(telemetry, "groundtruth"):
            truth = GroundTruth.from_trace(trace)
        failed = None
        for task in self.tasks:
            try:
                result = self._pipelines[task.name].run_epoch(trace, truth)
            except QuorumError as error:
                failed = failed or error
                continue
            if result is None:
                continue
            summary.results[task.name] = result
            summary.alerts.extend(self._alerts_from(task, result))
            degraded = result.network.degraded
            if degraded is not None:
                summary.alerts.append(
                    Alert(
                        epoch=self._epoch_index,
                        kind=AlertKind.DEGRADED_EPOCH,
                        subject=degraded.missing_hosts,
                        magnitude=degraded.error_inflation,
                    )
                )
            summary.alerts.extend(
                Alert(
                    epoch=self._epoch_index,
                    kind=AlertKind.ACCURACY_SLO_BREACH,
                    subject=breach.rule,
                    magnitude=breach.value,
                )
                for breach in result.slo_breaches
            )
        if failed is not None:
            raise failed

    def _alerts_from(
        self, task: MeasurementTask, result: EpochResult
    ) -> list[Alert]:
        kind = _ALERT_KINDS.get(task.name)
        if kind is None or not isinstance(result.answer, dict):
            return []
        return [
            Alert(
                epoch=self._epoch_index,
                kind=kind,
                subject=subject,
                magnitude=float(magnitude),
            )
            for subject, magnitude in result.answer.items()
        ]

    # ------------------------------------------------------------------
    def alerts(self, kind: AlertKind | None = None) -> list[Alert]:
        """All alerts so far, optionally filtered by kind."""
        collected = [
            alert
            for summary in self.history
            for alert in summary.alerts
        ]
        if kind is None:
            return collected
        return [alert for alert in collected if alert.kind is kind]

    def recurring_subjects(
        self, kind: AlertKind, min_epochs: int = 2
    ) -> set:
        """Subjects alerted in at least ``min_epochs`` distinct epochs.

        Persistent heavy hitters / attackers matter more to operators
        than one-epoch blips.
        """
        epochs_by_subject: dict[object, set[int]] = {}
        for alert in self.alerts(kind):
            epochs_by_subject.setdefault(alert.subject, set()).add(
                alert.epoch
            )
        return {
            subject
            for subject, epochs in epochs_by_subject.items()
            if len(epochs) >= min_epochs
        }
