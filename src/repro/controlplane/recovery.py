"""Network-wide recovery (§5): rebuild the true sketch ``T``.

Five recovery modes reproduce the paper's accuracy arms (§7.3):

* ``NO_RECOVERY`` (NR) — use the merged normal-path sketch only,
  discarding everything the fast path saw;
* ``LOWER`` (LR) — re-inject each tracked flow at its Lemma 4.1 lower
  bound;
* ``UPPER`` (UR) — re-inject at the upper bound;
* ``SKETCHVISOR`` — solve the compressive-sensing interpolation
  (Eq. 4) for the per-flow estimates ``x`` *and* the small-flow noise
  ``Y``, then rebuild ``T = N + sk(x) + Y``;
* ``IDEAL`` is not a recovery mode — it is produced by running the data
  plane with no capacity limit (see :mod:`repro.dataplane.switch`).

Re-injection uses the sketch's own ``inject`` semantics, through its
column entry point :meth:`~repro.sketches.base.Sketch.inject_columns`,
so that non-linear structures (FlowRadar's XOR fields, UnivMon's
trackers, TwoLevel's candidate sketch) are restored exactly for tracked
flows — their headers are known from the merged hash table ``H``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from repro.common.flow import PROTO_TCP, FlowKey, header_flows, pack_headers
from repro.common.hashing import mix64_array
from repro.controlplane.lens import (
    LensConfig,
    box_midpoint,
    lens_interpolate,
)
from repro.fastpath.topk import FastPathSnapshot
from repro.sketches.base import Sketch
from repro.telemetry import trace_span
from repro.telemetry.publish import (
    publish_lens_svd_fallbacks,
    publish_recovery_residual,
)

#: Synthetic small-flow prior: untracked flows are smaller than the
#: fast path's tracking boundary and follow the same power law the
#: fast path itself assumes (PLC, §4.2); a theta=1 Pareto truncated to
#: [64 B, boundary] matches the missing-flow mean within ~10% across
#: fast-path sizes on heavy-tailed workloads.  The number of synthetic
#: flows realizing a given missing volume is what zero-counting
#: estimators (LC/FM/kMin, TwoLevel inner arrays) ultimately see.
_MIN_FLOW_BYTES = 64.0
_MAX_SYNTHETIC_FLOWS = 500_000
#: Half-open ranges of a synthetic flow's (src_ip, dst_ip, src_port,
#: dst_port), in the order they are drawn.
_FIELD_LOW = (1, 1, 1024, 1)
_FIELD_HIGH = (2**32, 2**32, 65536, 1024)


class RecoveryMode(Enum):
    """Control-plane recovery strategy (§7.3 alternatives)."""

    NO_RECOVERY = "nr"
    LOWER = "lr"
    UPPER = "ur"
    SKETCHVISOR = "sketchvisor"


@dataclass(frozen=True, eq=False)
class TrackedEstimates:
    """The recovered bytes of each tracked flow, as the merged table's
    header-word columns (in its key order) and one value per row."""

    hi: np.ndarray
    lo: np.ndarray
    values: list[float]


def flow_estimates(tracked: TrackedEstimates | None) -> dict[FlowKey, float]:
    """``tracked``'s values keyed by flow, in row order; ``{}`` when
    recovery estimated none."""
    if tracked is None:
        return {}
    return dict(zip(header_flows(tracked.hi, tracked.lo), tracked.values))


@dataclass
class RecoveredState:
    """Output of network-wide recovery."""

    sketch: Sketch
    #: ``None`` when recovery re-injected no tracked flow.
    tracked: TrackedEstimates | None = None
    lens_iterations: int = 0
    lens_converged: bool = True
    #: Fast-path volume re-injected for tracked flows (Σx).
    tracked_bytes: float = 0.0
    #: Untracked small-flow mass realized synthetically (the Eq. 2
    #: remainder ``V - Σx``; zero when recovery skipped it).
    small_flow_bytes: float = 0.0

    @cached_property
    def flow_estimates(self) -> dict[FlowKey, float]:
        """Recovered bytes per tracked flow, keyed by flow in the
        merged table's key order.  Its keys are built on first read:
        recovery itself needs them only for the low-rank solve."""
        return flow_estimates(self.tracked)


@dataclass(frozen=True)
class DegradedEpoch:
    """Annotation for an epoch merged without a full set of reports.

    Produced by the controller when at least a quorum — but not all —
    of the expected hosts delivered, and attached to the epoch's
    :class:`~repro.controlplane.controller.NetworkResult` so operators
    and the monitoring loop can see exactly what the result is missing.
    """

    expected_hosts: int
    reported_hosts: int
    missing_hosts: tuple[int, ...]
    #: Volume rescale applied to the merged sketch and the recovery's
    #: Eq. 2 constraint (``expected / reported``; 1.0 when rescaling
    #: was disabled).
    scale: float
    #: Collection epoch, when known (pipeline runs know it; direct
    #: ``Controller.aggregate`` callers may not).
    epoch: int | None = None

    @property
    def missing_share(self) -> float:
        """Fraction of hosts (≈ traffic share, §3.1) that never
        reported."""
        if self.expected_hosts <= 0:
            return 0.0
        return 1.0 - self.reported_hosts / self.expected_hosts

    @property
    def error_inflation(self) -> float:
        """First-order estimate of relative-error inflation.

        Rescaling by ``n/k`` multiplies every surviving counter — and
        therefore every per-flow estimate's error — by the same
        factor, so estimates degrade by about ``n/k - 1`` relative:
        ``f / (1 - f)`` for missing share ``f`` (≈ 33% at 1-of-4
        missing).  Aggregate volumes stay unbiased under the
        exchangeable-host assumption; flows homed on missing hosts are
        unrecoverable and bound recall instead (see
        ``docs/robustness.md``).
        """
        share = self.missing_share
        if share >= 1.0:
            return float("inf")
        return share / (1.0 - share)


def _copy_sketch(sketch: Sketch) -> Sketch:
    clone = sketch.clone_empty()
    clone.merge(sketch)
    return clone


def _inject_tracked(sketch: Sketch, snapshot, values) -> None:
    """Re-inject the snapshot's rows from its header words at their
    recovered byte counts ``values``; flows whose count rounds to zero
    (half to even, as ``round`` does) are left out."""
    amounts = np.rint(np.asarray(values, dtype=np.float64))
    if not np.isfinite(amounts).all():
        raise ValueError("recovered byte counts must be finite")
    keep = amounts > 0
    hi, lo = snapshot.hi[keep], snapshot.lo[keep]
    sketch.inject_columns(
        hi, lo, mix64_array(hi ^ lo), amounts[keep].astype(np.int64)
    )


def recover(
    normal: Sketch,
    snapshot: FastPathSnapshot | None,
    mode: RecoveryMode = RecoveryMode.SKETCHVISOR,
    lens_config: LensConfig | None = None,
    telemetry=None,
) -> RecoveredState:
    """Recover the network-wide sketch from merged local results.

    Parameters
    ----------
    normal:
        The merged normal-path sketch ``N`` (not modified).
    snapshot:
        The merged fast-path table ``H`` plus globals ``V``/``E``; may
        be ``None`` when the fast path never activated.
    mode:
        Recovery strategy.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; receives the
        ``recovery.lens`` / ``recovery.inject`` spans and the final
        solver residual.
    """
    if snapshot is None or (
        not snapshot.tracked and snapshot.total_bytes == 0
    ):
        return RecoveredState(sketch=_copy_sketch(normal))

    if mode is RecoveryMode.NO_RECOVERY:
        return RecoveredState(sketch=_copy_sketch(normal))

    lower = snapshot.r + snapshot.d  # Lemma 4.1's box
    upper = lower + snapshot.e

    def estimates_of(values: np.ndarray) -> TrackedEstimates:
        return TrackedEstimates(snapshot.hi, snapshot.lo, values.tolist())

    if mode is RecoveryMode.LOWER or mode is RecoveryMode.UPPER:
        bounds = lower if mode is RecoveryMode.LOWER else upper
        recovered = _copy_sketch(normal)
        _inject_tracked(recovered, snapshot, bounds)
        estimates = estimates_of(bounds)
        return RecoveredState(
            sketch=recovered,
            tracked=estimates,
            tracked_bytes=float(sum(estimates.values)),
        )

    # SketchVisor: full compressive-sensing interpolation.
    if type(normal).matrix_positions is Sketch.matrix_positions:
        # Sketch without a linear operator (e.g. kMin): fall back to
        # midpoint injection, which still honours the Eq. 3 box, and
        # realize the small-flow mass the same way as the solver path.
        recovered = _copy_sketch(normal)
        midpoints = (lower + upper) / 2.0
        estimates = estimates_of(midpoints)
        _inject_tracked(recovered, snapshot, midpoints)
        remaining = max(0.0, snapshot.total_bytes - sum(estimates.values))
        _inject_synthetic_small_flows(
            recovered,
            remaining,
            _tracking_boundary(snapshot),
            count=_missing_flow_count(snapshot),
        )
        return RecoveredState(
            sketch=recovered,
            tracked=estimates,
            tracked_bytes=float(sum(estimates.values)),
            small_flow_bytes=remaining,
        )

    with trace_span(
        telemetry, "recovery.lens", flows=snapshot.tracked, mode=mode.value
    ):
        if normal.low_rank:
            result = lens_interpolate(
                n_matrix=normal.to_matrix(),
                positions=normal.matrix_positions(
                    header_flows(snapshot.hi, snapshot.lo)
                ),
                lower=lower,
                upper=upper,
                volume=snapshot.total_bytes,
                config=lens_config,
            )
            x = result.x
            iterations, converged = result.iterations, result.converged
            if telemetry is not None:
                _publish_solve(telemetry, result)
            # What builds T on a read (the solve's buffers and
            # operator) goes now, not after the injection.
            del result
        else:
            # §5.3 drops the nuclear term for these sketches and the
            # solver answers the box midpoint at iteration 0; only x is
            # read here, so no position is hashed and neither the
            # operator nor T is built.
            x = box_midpoint(
                normal.to_matrix(), lower, upper, snapshot.total_bytes
            )
            iterations, converged = 0, True

    recovered = _copy_sketch(normal)
    with trace_span(telemetry, "recovery.inject", flows=snapshot.tracked):
        _inject_tracked(recovered, snapshot, x)
        # Realize the small-flow component y as synthetic flows rather
        # than the solver's dense noise matrix: sk(y) is *sparse* (each
        # missed small flow touches a handful of counters), and
        # zero-counting estimators (Linear Counting, FM, TwoLevel's
        # inner arrays) are destroyed by dense noise but restored by a
        # sparse realization with the right total volume.  See DESIGN.md.
        remaining = max(0.0, snapshot.total_bytes - float(x.sum()))
        _inject_synthetic_small_flows(
            recovered,
            remaining,
            _tracking_boundary(snapshot),
            count=_missing_flow_count(snapshot),
        )
    return RecoveredState(
        sketch=recovered,
        tracked=estimates_of(x),
        lens_iterations=iterations,
        lens_converged=converged,
        tracked_bytes=float(x.sum()),
        small_flow_bytes=remaining,
    )


def _publish_solve(telemetry, result) -> None:
    """The solver's final residual, and any SVD fallback it took."""
    if result.residuals:
        publish_recovery_residual(
            telemetry.registry, float(result.residuals[-1])
        )
    if result.gesvd_retries or result.full_svd or result.svd_failed:
        publish_lens_svd_fallbacks(
            telemetry.registry,
            result.gesvd_retries,
            result.full_svd,
            result.svd_failed,
        )
        telemetry.recorder.record(
            "lens_svd_fallback",
            gesvd_retries=result.gesvd_retries,
            full=result.full_svd,
            midpoint=result.svd_failed,
        )


def _missing_flow_count(snapshot: FastPathSnapshot) -> int | None:
    """Estimated number of flows the fast path saw but no longer tracks.

    ``None`` when the snapshot carries no insert/evict counters (then
    the caller falls back to the mass-anchored Pareto estimate).
    """
    if snapshot.insert_count <= 0:
        return None
    return max(
        0,
        int(round(snapshot.distinct_flow_hint)) - snapshot.tracked,
    )


def _tracking_boundary(snapshot: FastPathSnapshot) -> float:
    """The smallest byte count still tracked in the merged table ``H``.

    Untracked flows must sit below it (a larger flow would have been
    kept, Lemma 4.1), so it truncates the synthetic small-flow prior.
    """
    if not snapshot.tracked:
        return 1500.0
    midpoints = snapshot.r + snapshot.d + snapshot.e / 2.0
    return max(float(midpoints.min()), _MIN_FLOW_BYTES * 1.01)


def _inject_synthetic_small_flows(
    sketch: Sketch,
    volume: float,
    boundary: float,
    count: int | None = None,
) -> None:
    """Deposit ``volume`` bytes of untracked small-flow mass (Eq. 2).

    Flow sizes are drawn from a theta=1 Pareto truncated to
    ``[64 B, boundary]`` — the same skew assumption the fast path's
    eviction threshold fits (§4.2, PLC) — where ``boundary`` is the
    smallest flow still tracked in ``H`` (nothing larger can be
    missing, by Lemma 4.1).  When ``count`` is given (from the
    snapshot's insert/evict counters) exactly that many flows are
    injected with sizes rescaled to the target mass, so both the
    missing flow *count* and the missing *volume* are honoured.
    5-tuples are drawn uniformly from the flow space (collisions with
    real flows are negligible at 2^-32).  Deterministic for a given
    sketch seed, so repeated recoveries agree.
    """
    if volume <= 0:
        return
    low = _MIN_FLOW_BYTES
    high = max(boundary, low * 1.01)
    rng = np.random.default_rng(sketch.seed ^ 0x5EED_CAFE)
    inv_low, inv_high = 1.0 / low, 1.0 / high

    if count is None:
        # Mass-anchored: Pareto mean ~ low * ln(high/low).
        mean = low * math.log(high / low) / (1.0 - low / high)
        count = int(round(volume / max(mean, low)))
    count = max(0, min(count, _MAX_SYNTHETIC_FLOWS))
    if count == 0:
        return
    draws = 1.0 / (
        inv_low - rng.random(count) * (inv_low - inv_high)
    )
    draws *= volume / draws.sum()
    # One broadcast draw, flow-major: NumPy's per-element bounded path
    # reads the stream exactly as four scalar calls per flow did, so
    # every synthetic 5-tuple stays what it always was (pinned by
    # tests/test_recovery_internals.py::TestBroadcastDraw).  The rows
    # go to the sketch as header words and their key64 folds.
    fields = rng.integers(
        np.tile(_FIELD_LOW, count), np.tile(_FIELD_HIGH, count)
    ).reshape(count, 4)
    hi, lo = pack_headers(*fields.T, PROTO_TCP)
    sketch.inject_columns(
        hi,
        lo,
        mix64_array(hi ^ lo),
        np.maximum(1.0, np.rint(draws)).astype(np.int64),
    )
