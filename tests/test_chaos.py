"""End-to-end chaos: soak runs, determinism, inertness, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.controlplane.recovery import RecoveryMode
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.framework.modes import DataPlaneMode
from repro.framework.monitor import AlertKind, ContinuousMonitor
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry import Telemetry
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth

NUM_HOSTS = 4
SOAK_EPOCHS = 20

#: The acceptance-criteria mix: drop / delay / corruption / crash at a
#: combined ~10% per-host rate.  Seed 7 is verified below to keep every
#: epoch at or above quorum (2 of 4 hosts).
SOAK_PLAN = dict(
    seed=7,
    rates={
        FaultKind.DROP: 0.04,
        FaultKind.DELAY: 0.02,
        FaultKind.TRUNCATE: 0.01,
        FaultKind.BITFLIP: 0.01,
        FaultKind.CRASH: 0.02,
    },
)


@pytest.fixture(scope="module")
def soak_trace():
    return generate_trace(TraceConfig(num_flows=600, seed=31))


@pytest.fixture(scope="module")
def soak_truth(soak_trace):
    return GroundTruth.from_trace(soak_trace)


def make_pipeline(faults, **overrides):
    trace_bytes = overrides.pop("trace_bytes")
    task = HeavyHitterTask("deltoid", threshold=0.01 * trace_bytes)
    config = PipelineConfig(
        num_hosts=NUM_HOSTS, seed=3, faults=faults, **overrides
    )
    return SketchVisorPipeline(
        task,
        DataPlaneMode.SKETCHVISOR,
        RecoveryMode.SKETCHVISOR,
        config=config,
    )


def run_soak(soak_trace, soak_truth):
    pipeline = make_pipeline(
        FaultPlan(**SOAK_PLAN), trace_bytes=soak_truth.total_bytes
    )
    outcomes = []
    for _ in range(SOAK_EPOCHS):
        result = pipeline.run_epoch(soak_trace, truth=soak_truth)
        degraded = result.degraded
        outcomes.append(
            (
                tuple(result.collection.missing_hosts),
                result.collection.stats.faults_seen,
                result.collection.stats.retries,
                None if degraded is None else degraded.missing_hosts,
                round(result.score.recall, 9),
                round(result.score.precision, 9),
            )
        )
    return outcomes, pipeline


class TestChaosSoak:
    def test_soak_completes_every_epoch(self, soak_trace, soak_truth):
        """20 epochs, 4 hosts, ~10% per-host fault pressure including
        crashes: no unhandled exception, every lossy epoch annotated."""
        outcomes, pipeline = run_soak(soak_trace, soak_truth)
        assert len(outcomes) == SOAK_EPOCHS
        # The plan actually bites: faults were injected somewhere...
        assert sum(o[1] for o in outcomes) > 0
        assert pipeline._injector.injected  # counters registered
        # ...and at least one epoch lost a host (seed chosen so the
        # soak exercises degraded mode, not just clean retries).
        lossy = [o for o in outcomes if o[0]]
        assert lossy
        for missing, _, _, degraded_hosts, _, _ in outcomes:
            if missing:
                assert degraded_hosts == missing
            else:
                assert degraded_hosts is None

    def test_identical_seeds_identical_results(
        self, soak_trace, soak_truth
    ):
        first, _ = run_soak(soak_trace, soak_truth)
        second, _ = run_soak(soak_trace, soak_truth)
        assert first == second

    def test_different_seed_differs(self, soak_trace, soak_truth):
        pipeline = make_pipeline(
            FaultPlan(seed=8, rates=dict(SOAK_PLAN["rates"])),
            trace_bytes=soak_truth.total_bytes,
        )
        schedule = [
            tuple(
                pipeline.run_epoch(
                    soak_trace, truth=soak_truth
                ).collection.missing_hosts
            )
            for _ in range(SOAK_EPOCHS)
        ]
        baseline, _ = run_soak(soak_trace, soak_truth)
        assert schedule != [o[0] for o in baseline]


class TestInertness:
    """No FaultPlan → the chaos subsystem must not exist at all."""

    def test_zero_fault_run_is_bit_identical(
        self, monkeypatch, soak_trace, soak_truth
    ):
        # The env gate would inject a plan into the faults=None config
        # under REPRO_CHAOS=1 CI runs; this test is explicitly about
        # the un-gated default, so clear it.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        direct = make_pipeline(
            None, trace_bytes=soak_truth.total_bytes
        )
        wired = make_pipeline(
            FaultPlan(), trace_bytes=soak_truth.total_bytes
        )
        a = direct.run_epoch(soak_trace, truth=soak_truth)
        b = wired.run_epoch(soak_trace, truth=soak_truth)
        # Direct path: no collector, no collection bookkeeping.
        assert direct._collector is None
        assert a.collection is None
        assert a.degraded is None
        # Inactive-plan path went through the wire codec yet produced
        # the exact same merged state and answer.
        assert b.collection is not None and b.collection.complete
        assert np.array_equal(
            a.network.sketch.to_matrix(), b.network.sketch.to_matrix()
        )
        assert a.answer == b.answer
        assert a.score == b.score

    def test_chaos_flag_in_describe(self, soak_truth):
        on = make_pipeline(
            FaultPlan(), trace_bytes=soak_truth.total_bytes
        )
        assert "chaos=on" in on.describe()


class TestDegradedTelemetryAndAlerts:
    def test_monitor_raises_degraded_alert(self, soak_trace, soak_truth):
        plan = FaultPlan(
            specs=[FaultSpec(FaultKind.CRASH, epoch=0, host=2)]
        )
        monitor = ContinuousMonitor(
            [
                HeavyHitterTask(
                    "deltoid", threshold=0.01 * soak_truth.total_bytes
                )
            ],
            config=PipelineConfig(
                num_hosts=NUM_HOSTS, seed=3, faults=plan
            ),
        )
        summary = monitor.process_epoch(soak_trace)
        degraded = [
            alert
            for alert in summary.alerts
            if alert.kind is AlertKind.DEGRADED_EPOCH
        ]
        assert len(degraded) == 1
        assert degraded[0].subject == (2,)
        assert degraded[0].magnitude == pytest.approx(1 / 3)
        # The next epoch is clean: no standing alert.
        assert not [
            alert
            for alert in monitor.process_epoch(soak_trace).alerts
            if alert.kind is AlertKind.DEGRADED_EPOCH
        ]

    def test_collection_counters_published(self, soak_trace, soak_truth):
        telemetry = Telemetry()
        pipeline = make_pipeline(
            FaultPlan(
                specs=[FaultSpec(FaultKind.DROP, epoch=0, host=1)]
            ),
            trace_bytes=soak_truth.total_bytes,
            telemetry=telemetry,
        )
        pipeline.run_epoch(soak_trace, truth=soak_truth)
        registry = telemetry.registry
        assert registry.value(
            "sketchvisor_transport_faults_total", kind="drop"
        ) == 1
        assert registry.total(
            "sketchvisor_transport_retries_total"
        ) == 1
        assert registry.total(
            "sketchvisor_transport_backoff_seconds_total"
        ) > 0
        assert registry.value(
            "sketchvisor_controller_epochs_total", quality="full"
        ) == 1
