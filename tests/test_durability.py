"""End-to-end durability: crash recovery must be invisible.

The headline contract (ISSUE acceptance): a host that crashes mid-epoch
under checkpointing recovers to a **bit-identical** ``SwitchReport`` —
and identical downstream merged sketch — versus a fault-free run.  Past
``max_restarts`` the pipeline must fall back to PR 3's degraded merge
unchanged; flapping hosts get quarantined; without checkpointing a
mid-epoch fault simply loses the epoch (the pre-durability behavior).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    HeavyHitterTask,
    PipelineConfig,
    SketchVisorPipeline,
)
from repro.dataplane.host import Host
from repro.durability import Supervisor
from repro.sketches import CountMinSketch
from repro.fastpath.topk import FastPath
from repro.telemetry import ProfileConfig, Telemetry
from tests.reference_engine import reference_reports, reference_run
from tests.test_state_codec import state_equal

CHECKPOINT_EVERY = 512


def make_task(truth):
    return HeavyHitterTask(
        "deltoid", threshold=0.005 * truth.total_bytes
    )


def make_pipeline(task, tmp_path=None, faults=None, **overrides):
    kwargs = dict(
        num_hosts=4,
        checkpoint_every=CHECKPOINT_EVERY,
        faults=faults,
    )
    if tmp_path is not None:
        kwargs["checkpoint_dir"] = str(tmp_path)
    kwargs.update(overrides)
    return SketchVisorPipeline(task, config=PipelineConfig(**kwargs))


def crash_plan(*offsets, host=1, kind=FaultKind.DATAPLANE_CRASH):
    return FaultPlan(
        seed=9,
        specs=[
            FaultSpec(
                epoch=0, host=host, kind=kind, packet_offset=offset
            )
            for offset in offsets
        ],
    )


def assert_reports_identical(expected, actual):
    assert expected.host_id == actual.host_id
    assert state_equal(expected.switch, actual.switch)
    assert state_equal(expected.sketch, actual.sketch)
    assert state_equal(expected.fastpath, actual.fastpath)


class TestCrashRecoveryBitIdentity:
    def test_mid_epoch_crash_recovers_bit_identical(
        self, medium_trace, medium_truth, tmp_path
    ):
        """The acceptance test: crash + hang mid-epoch, recovered
        reports and the merged network sketch equal the fault-free
        run's, bit for bit."""
        task = make_task(medium_truth)
        baseline = make_pipeline(task).run_epoch(
            medium_trace, medium_truth
        )
        plan = FaultPlan(
            seed=9,
            specs=[
                FaultSpec(
                    epoch=0,
                    host=1,
                    kind=FaultKind.DATAPLANE_CRASH,
                    packet_offset=700,
                ),
                FaultSpec(
                    epoch=0,
                    host=2,
                    kind=FaultKind.HANG,
                    packet_offset=300,
                ),
            ],
        )
        result = make_pipeline(
            task, tmp_path, faults=plan
        ).run_epoch(medium_trace, medium_truth)

        outcomes = {o.host_id: o for o in result.durability}
        assert outcomes[1].crashes == 1 and outcomes[1].recovered
        assert outcomes[2].hangs == 1 and outcomes[2].recovered
        assert outcomes[1].replayed_packets > 0

        # Both the unsupervised and the crash-recovered epoch equal the
        # per-packet oracle, host by host.
        oracle = reference_reports(
            task, medium_trace, PipelineConfig(num_hosts=4)
        )
        for expected, plain, actual in zip(
            oracle, baseline.reports, result.reports
        ):
            assert_reports_identical(expected, plain)
            assert_reports_identical(expected, actual)
        # Downstream: merged sketch matrix identical.
        assert np.array_equal(
            baseline.network.sketch.to_matrix(),
            result.network.sketch.to_matrix(),
        )
        assert result.degraded is None

    def test_legacy_crash_spec_with_offset_is_recoverable(
        self, medium_trace, medium_truth, tmp_path
    ):
        """Satellite 1: a report-path CRASH spec pinned to a packet
        offset now fires mid-epoch (promoted to a data-plane crash)
        instead of only at report-send time — and recovers."""
        task = make_task(medium_truth)
        baseline = make_pipeline(task).run_epoch(
            medium_trace, medium_truth
        )
        plan = crash_plan(400, host=1, kind=FaultKind.CRASH)
        result = make_pipeline(
            task, tmp_path, faults=plan
        ).run_epoch(medium_trace, medium_truth)
        outcomes = {o.host_id: o for o in result.durability}
        assert outcomes[1].crashes == 1 and outcomes[1].recovered
        for expected, actual in zip(baseline.reports, result.reports):
            assert_reports_identical(expected, actual)

    def test_double_crash_same_epoch_recovers(
        self, medium_trace, medium_truth, tmp_path
    ):
        task = make_task(medium_truth)
        baseline = make_pipeline(task).run_epoch(
            medium_trace, medium_truth
        )
        result = make_pipeline(
            task, tmp_path, faults=crash_plan(200, 900)
        ).run_epoch(medium_trace, medium_truth)
        outcomes = {o.host_id: o for o in result.durability}
        assert outcomes[1].crashes == 2
        assert outcomes[1].restarts == 2
        assert outcomes[1].recovered
        for expected, actual in zip(baseline.reports, result.reports):
            assert_reports_identical(expected, actual)


class TestBoundarySweep:
    def test_crash_at_every_checkpoint_boundary(self, small_trace):
        """Satellite 4: crash a single supervised host at *every*
        checkpoint boundary (and just before/after each) — each run's
        recovered report must equal the uncrashed run's, bit for bit."""
        every = 256
        packets = len(small_trace)

        def fresh_host():
            return Host(
                host_id=0,
                sketch=CountMinSketch(width=64, depth=3, seed=3),
                fastpath_bytes=1024,
                buffer_packets=32,
            )

        expected = fresh_host().run_epoch(small_trace)
        oracle_sketch = CountMinSketch(width=64, depth=3, seed=3)
        oracle_fastpath = FastPath(1024)
        oracle = reference_run(
            small_trace, oracle_sketch, oracle_fastpath, buffer_packets=32
        )
        assert state_equal(oracle, expected.switch)
        assert state_equal(oracle_sketch, expected.sketch)
        assert state_equal(oracle_fastpath.snapshot(), expected.fastpath)

        offsets = set()
        for boundary in range(0, packets + every, every):
            offsets.update(
                {boundary - 1, boundary, boundary + 1}
            )
        offsets = sorted(o for o in offsets if 0 <= o)

        for offset, tmp in zip(
            offsets, _tmp_dirs(len(offsets))
        ):
            supervisor = Supervisor(
                tmp,
                plan=crash_plan(offset, host=0),
                checkpoint_every=every,
            )
            (outcome,) = supervisor.run_epoch(
                [fresh_host()], [small_trace], None, 0
            )
            assert outcome.crashes == 1, offset
            assert outcome.report is not None, offset
            assert state_equal(
                expected.switch, outcome.report.switch
            ), f"offset {offset}"
            assert state_equal(
                expected.sketch, outcome.report.sketch
            ), f"offset {offset}"
            assert state_equal(
                expected.fastpath, outcome.report.fastpath
            ), f"offset {offset}"
            # Replay never exceeds one checkpoint interval.
            assert outcome.replayed_packets <= every, offset


def _tmp_dirs(count):
    import tempfile

    for _ in range(count):
        with tempfile.TemporaryDirectory() as directory:
            yield directory


class TestEscalation:
    def test_restart_exhaustion_falls_to_degraded_merge(
        self, medium_trace, medium_truth, tmp_path
    ):
        """Four crashes against max_restarts=2: host 1 gives up and
        the epoch lands in PR 3's degraded merge."""
        task = make_task(medium_truth)
        result = make_pipeline(
            task,
            tmp_path,
            faults=crash_plan(100, 200, 300, 400),
            max_restarts=2,
        ).run_epoch(medium_trace, medium_truth)
        outcomes = {o.host_id: o for o in result.durability}
        assert outcomes[1].gave_up
        assert outcomes[1].restarts == 2
        assert outcomes[1].report is None
        assert 1 in result.collection.missing_hosts
        assert result.degraded is not None
        assert 1 in result.degraded.missing_hosts
        # The other hosts' epochs still merged.
        assert {r.host_id for r in result.reports} == {0, 2, 3}

    def test_flapping_host_gets_quarantined(
        self, medium_trace, medium_truth, tmp_path
    ):
        """Circuit breaker: a host that gives up epoch after epoch is
        quarantined (no restart churn) and later retried."""
        task = make_task(medium_truth)
        plan = FaultPlan(
            seed=9,
            specs=[
                FaultSpec(
                    epoch=epoch,
                    host=1,
                    kind=FaultKind.DATAPLANE_CRASH,
                    packet_offset=offset,
                )
                for epoch in range(2)
                for offset in (100, 200, 300, 400)
            ],
        )
        pipeline = make_pipeline(
            task,
            tmp_path,
            faults=plan,
            max_restarts=1,
            quarantine_threshold=2,
            quarantine_epochs=1,
        )
        first = pipeline.run_epoch(medium_trace, medium_truth)
        second = pipeline.run_epoch(medium_trace, medium_truth)
        third = pipeline.run_epoch(medium_trace, medium_truth)

        by_host = lambda r: {o.host_id: o for o in r.durability}
        assert by_host(first)[1].gave_up
        assert by_host(second)[1].gave_up  # trips the breaker
        tripped = by_host(third)[1]
        assert tripped.quarantined
        assert tripped.restarts == 0 and tripped.crashes == 0
        assert 1 in third.collection.missing_hosts
        # Epoch 3: quarantine expired, no faults scheduled → recovers.
        fourth = pipeline.run_epoch(medium_trace, medium_truth)
        assert by_host(fourth)[1].report is not None

    def test_unsupervised_dataplane_fault_loses_epoch(
        self, medium_trace, medium_truth, monkeypatch
    ):
        """Without a checkpoint dir there is nothing to restore from:
        the crashed host's epoch is forfeited → degraded merge (the
        exact PR 3 fallback)."""
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        task = make_task(medium_truth)
        result = make_pipeline(
            task, None, faults=crash_plan(700)
        ).run_epoch(medium_trace, medium_truth)
        assert result.durability is None
        assert {r.host_id for r in result.reports} == {0, 2, 3}
        assert 1 in result.collection.missing_hosts
        assert result.degraded is not None


class TestWatchdog:
    def test_hang_charges_watchdog_wait(
        self, medium_trace, medium_truth, tmp_path
    ):
        task = make_task(medium_truth)
        result = make_pipeline(
            task,
            tmp_path,
            faults=crash_plan(300, kind=FaultKind.HANG),
            watchdog_timeout=0.5,
        ).run_epoch(medium_trace, medium_truth)
        outcomes = {o.host_id: o for o in result.durability}
        assert outcomes[1].hangs == 1
        assert outcomes[1].watchdog_wait == pytest.approx(0.5)
        assert outcomes[1].recovered

    def test_stalled_hosts_query(self, small_trace, tmp_path):
        supervisor = Supervisor(
            str(tmp_path), watchdog_timeout=10.0, heartbeat_every=64
        )
        host = Host(
            host_id=7,
            sketch=CountMinSketch(width=64, depth=3, seed=3),
            fastpath_bytes=1024,
        )
        supervisor.run_epoch([host], [small_trace], None, 0)
        assert 7 in supervisor.heartbeats
        assert supervisor.stalled_hosts() == []
        epoch, offset, seen = supervisor.heartbeats[7]
        assert supervisor.stalled_hosts(now=seen + 11.0) == [7]


class TestInertness:
    def test_no_checkpoint_dir_means_no_supervisor(
        self, small_trace, small_truth, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        task = make_task(small_truth)
        pipeline = make_pipeline(task)
        assert pipeline._supervisor is None
        result = pipeline.run_epoch(small_trace, small_truth)
        assert result.durability is None

    def test_env_gate_enables_supervision(
        self, small_trace, small_truth, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "256")
        task = make_task(small_truth)
        pipeline = SketchVisorPipeline(
            task, config=PipelineConfig(num_hosts=2)
        )
        assert pipeline.config.checkpoint_dir == str(tmp_path)
        assert pipeline.config.checkpoint_every == 256
        result = pipeline.run_epoch(small_trace, small_truth)
        assert result.durability is not None
        assert all(o.report is not None for o in result.durability)

    def test_supervised_faultfree_matches_unsupervised(
        self, small_trace, small_truth, tmp_path
    ):
        """Checkpointing alone (no faults) must not change a single
        bit of any report."""
        task = make_task(small_truth)
        baseline = make_pipeline(task).run_epoch(
            small_trace, small_truth
        )
        supervised = make_pipeline(task, tmp_path).run_epoch(
            small_trace, small_truth
        )
        for expected, actual in zip(
            baseline.reports, supervised.reports
        ):
            assert_reports_identical(expected, actual)
        assert all(
            o.checkpoint_writes > 0 for o in supervised.durability
        )


class TestDurabilityTelemetry:
    def test_counters_published(
        self, medium_trace, medium_truth, tmp_path
    ):
        task = make_task(medium_truth)
        telemetry = Telemetry()
        result = make_pipeline(
            task,
            tmp_path,
            faults=crash_plan(700),
            telemetry=telemetry,
        ).run_epoch(medium_trace, medium_truth)
        assert result.durability is not None
        prom = telemetry.prometheus_text()
        assert "sketchvisor_checkpoint_writes_total" in prom
        assert "sketchvisor_checkpoint_restores_total" in prom
        assert "sketchvisor_replay_packets_total" in prom
        assert 'sketchvisor_host_faults_total' in prom
        assert "sketchvisor_recovery_seconds" in prom

    def test_replayed_tail_is_profiled(self, small_trace, tmp_path):
        """The engine restored after a crash runs under the host's
        profiler too: every packet dispatched, replay included, is
        attributed."""
        telemetry = Telemetry(profile=ProfileConfig(sample_hz=0.0))
        host = Host(
            host_id=0,
            sketch=CountMinSketch(width=64, depth=3, seed=3),
            fastpath_bytes=1024,
        )
        host.switch.profiler = telemetry.profiler
        supervisor = Supervisor(
            str(tmp_path), plan=crash_plan(300, host=0), checkpoint_every=256
        )
        with telemetry.profiler.stage("dataplane.host"):
            outcome = supervisor.run_host(host, small_trace, None, 0)
        assert outcome.restores == 1 and outcome.replayed_packets > 0
        assert telemetry.profiler.stages["switch.dispatch"][2] == (
            len(small_trace) + outcome.replayed_packets
        )
