"""The SketchVisor controller: one-big-switch aggregation (§3.2).

Collects per-host :class:`LocalReport` objects for an epoch, merges the
normal-path sketches and fast-path tables, runs network-wide recovery,
and hands measurement tasks a single recovered sketch — as if all
traffic had been recorded by one switch's normal path.

The merge is *degradation-aware*: when the caller says how many hosts
were expected (``aggregate(..., expected_hosts=n)``) and fewer
reported, the controller proceeds as long as a quorum did — rescaling
the merged sketch and the recovery's volume constraint for the missing
share and annotating the result with a :class:`DegradedEpoch` record —
and raises :class:`QuorumError` only when too few hosts survive to say
anything defensible about the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Sequence

from repro.common.errors import MergeError, QuorumError
from repro.common.flow import FlowKey
from repro.controlplane.lens import LensConfig
from repro.controlplane.merge import (
    MergeFold,
    PartialAggregate,
    rescale_sketch,
    rescale_snapshot,
)
from repro.controlplane.recovery import (
    DegradedEpoch,
    RecoveryMode,
    TrackedEstimates,
    flow_estimates,
    recover,
)
from repro.dataplane.host import LocalReport
from repro.fastpath.topk import FastPathSnapshot
from repro.sketches.base import Sketch
from repro.telemetry import Telemetry, trace_span
from repro.telemetry.publish import publish_controller_epoch


@dataclass
class NetworkResult:
    """Network-wide measurement state for one epoch."""

    #: ``None`` once the epoch is retired (:meth:`retire`).
    sketch: Sketch | None
    #: What :attr:`flow_estimates` is built from; ``None`` when
    #: recovery estimated no tracked flow.
    tracked: TrackedEstimates | None = None
    snapshot: FastPathSnapshot | None = None
    num_hosts: int = 0
    lens_iterations: int = 0
    lens_converged: bool = True
    #: Fast-path volume recovery re-injected for tracked flows and the
    #: synthetic small-flow remainder (the Eq. 2 decomposition; both
    #: zero when the fast path never activated or recovery skipped it).
    tracked_bytes: float = 0.0
    small_flow_bytes: float = 0.0
    #: Present when the epoch was merged from fewer hosts than
    #: expected; ``None`` for clean full-quorum epochs.
    degraded: DegradedEpoch | None = None

    @cached_property
    def flow_estimates(self) -> dict[FlowKey, float]:
        """Recovered bytes per tracked flow, keyed by flow in the
        merged table's key order; built on first read."""
        return flow_estimates(self.tracked)

    def retire(self) -> None:
        """Drop the merged state once the epoch has been answered: the
        merged sketch (``None`` afterwards), the recovered per-flow
        estimates and the merged fast-path snapshot.  The scalar
        outcome — host count, LENS iterations, the Eq. 2 volumes and
        the degraded record — stays."""
        self.sketch = None
        self.tracked = None
        self.flow_estimates = {}
        self.snapshot = None


class Controller:
    """Centralized control plane.

    Parameters
    ----------
    mode:
        Recovery strategy applied after merging (§7.3 arms).
    lens_config:
        Optional compressive-sensing solver parameters.
    quorum:
        Minimum fraction of expected hosts that must report before an
        epoch is merged at all; below it :meth:`aggregate` raises
        :class:`QuorumError`.  Only consulted when the caller passes
        ``expected_hosts``.  A degraded epoch (quorum met, hosts
        missing) scales the merged sketch and fast-path volume by
        ``expected / reported`` so network-wide aggregates stay
        unbiased (hosts carry exchangeable traffic shares, §3.1).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` to receive merge /
        recovery spans and counters.
    """

    def __init__(
        self,
        mode: RecoveryMode = RecoveryMode.SKETCHVISOR,
        lens_config: LensConfig | None = None,
        quorum: float = 0.5,
        telemetry: Telemetry | None = None,
    ):
        if not 0.0 < quorum <= 1.0:
            raise MergeError(
                f"quorum must be in (0, 1], got {quorum}"
            )
        self.mode = mode
        self.lens_config = lens_config
        self.quorum = quorum
        self.telemetry = telemetry

    def aggregate(
        self,
        reports: Sequence[LocalReport | PartialAggregate],
        *,
        expected_hosts: int | None = None,
        missing_hosts: Sequence[int] = (),
        epoch: int | None = None,
    ) -> NetworkResult:
        """Merge per-host reports and run network-wide recovery.

        Parameters
        ----------
        reports:
            What arrived: host reports, or the partial aggregates of a
            cluster aggregator tier (each already folded from a group
            of hosts).  Quorum and the degraded rescale count the
            *hosts* these carry.
        expected_hosts:
            How many hosts *should* have reported.  Omitted (the
            default) the merge behaves exactly as before — whatever
            arrived is the whole network.  Provided, it arms quorum
            checking and degraded-mode rescaling.
        missing_hosts:
            Ids of the hosts known to be missing (from the report
            collector); recorded in the :class:`DegradedEpoch`.
        epoch:
            Epoch number, recorded in the :class:`DegradedEpoch`.
        """
        reported = sum(len(report.host_ids) for report in reports)
        expected = (
            reported if expected_hosts is None else expected_hosts
        )
        if expected_hosts is not None:
            needed = max(1, math.ceil(self.quorum * expected))
            if reported < needed:
                raise QuorumError(
                    f"epoch{'' if epoch is None else f' {epoch}'} has "
                    f"{reported} of {expected} host reports; "
                    f"quorum requires {needed} "
                    f"(missing: {sorted(missing_hosts) or 'unknown'})"
                )
        if not reports:
            raise MergeError("no host reports to aggregate")

        degraded: DegradedEpoch | None = None
        scale = 1.0
        if reported < expected:
            scale = expected / reported
            degraded = DegradedEpoch(
                expected,
                reported,
                missing_hosts=tuple(sorted(missing_hosts)),
                scale=scale,
                epoch=epoch,
            )

        with trace_span(
            self.telemetry,
            "controlplane.merge",
            reports=len(reports),
            expected=expected,
        ):
            fold = MergeFold()
            for report in reports:
                fold.add(report)
            merged = fold.finish()
            merged_sketch = merged.sketch
            merged_snapshot = merged.fastpath
            if merged_snapshot is None:
                merged_snapshot = FastPathSnapshot()
            if scale != 1.0:
                merged_sketch = rescale_sketch(merged_sketch, scale)
                merged_snapshot = rescale_snapshot(
                    merged_snapshot, scale
                )
        with trace_span(
            self.telemetry, "controlplane.recover", mode=self.mode.value
        ):
            state = recover(
                normal=merged_sketch,
                snapshot=merged_snapshot,
                mode=self.mode,
                lens_config=self.lens_config,
                telemetry=self.telemetry,
            )
        network = NetworkResult(
            sketch=state.sketch,
            tracked=state.tracked,
            snapshot=merged_snapshot,
            num_hosts=reported,
            lens_iterations=state.lens_iterations,
            lens_converged=state.lens_converged,
            tracked_bytes=state.tracked_bytes,
            small_flow_bytes=state.small_flow_bytes,
            degraded=degraded,
        )
        if self.telemetry is not None:
            publish_controller_epoch(self.telemetry.registry, network)
        return network
