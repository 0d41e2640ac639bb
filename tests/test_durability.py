"""End-to-end durability: crash recovery must be invisible.

The headline contract (ISSUE acceptance): a host that crashes mid-epoch
under checkpointing recovers to a **bit-identical** ``SwitchReport`` —
and identical downstream merged sketch — versus a fault-free run.  Past
``MAX_RESTARTS`` the pipeline must fall back to the degraded merge
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
from repro.durability.supervisor import (
    MAX_RESTARTS,
    WATCHDOG_TIMEOUT,
    CircuitBreaker,
)
from repro.sketches import CountMinSketch
from repro.fastpath.topk import FastPath
from repro.telemetry import ProfileConfig, Telemetry
from repro.traffic.generator import TraceConfig, generate_trace
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
        """Four crashes against MAX_RESTARTS (2): host 1 gives up and
        the epoch lands in the degraded merge."""
        task = make_task(medium_truth)
        result = make_pipeline(
            task,
            tmp_path,
            faults=crash_plan(100, 200, 300, 400),
        ).run_epoch(medium_trace, medium_truth)
        outcomes = {o.host_id: o for o in result.durability}
        assert outcomes[1].gave_up
        assert outcomes[1].restarts == MAX_RESTARTS == 2
        assert outcomes[1].report is None
        assert 1 in result.collection.missing_hosts
        assert result.degraded is not None
        assert 1 in result.degraded.missing_hosts
        # The other hosts' epochs still merged.
        assert {r.host_id for r in result.reports} == {0, 2, 3}

    def test_flapping_host_gets_quarantined(
        self, medium_trace, medium_truth, tmp_path
    ):
        """Circuit breaker at the defaults: three crashes an epoch
        exhaust MAX_RESTARTS, three such epochs trip the breaker, the
        host sits out two epochs (no restart churn) and is then
        retried."""
        assert CircuitBreaker.THRESHOLD == 3
        assert CircuitBreaker.QUARANTINE_EPOCHS == 2
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
                for epoch in range(3)
                for offset in (100, 200, 300)
            ],
        )
        pipeline = make_pipeline(task, tmp_path, faults=plan)
        by_host = lambda r: {o.host_id: o for o in r.durability}
        for epoch in range(3):  # the third trips the breaker
            result = pipeline.run_epoch(medium_trace, medium_truth)
            assert by_host(result)[1].gave_up, epoch
        for epoch in (3, 4):
            result = pipeline.run_epoch(medium_trace, medium_truth)
            tripped = by_host(result)[1]
            assert tripped.quarantined
            assert tripped.restarts == 0 and tripped.crashes == 0
            assert 1 in result.collection.missing_hosts
        # Epoch 5: quarantine expired, no faults scheduled → recovers.
        recovered = pipeline.run_epoch(medium_trace, medium_truth)
        assert by_host(recovered)[1].report is not None

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
        ).run_epoch(medium_trace, medium_truth)
        outcomes = {o.host_id: o for o in result.durability}
        assert outcomes[1].hangs == 1
        assert outcomes[1].watchdog_wait == pytest.approx(
            WATCHDOG_TIMEOUT
        )
        assert WATCHDOG_TIMEOUT == 1.0
        assert outcomes[1].recovered


class TestChunkSchedule:
    def test_supervised_engine_chunks_at_checkpoints_only(
        self, tmp_path, monkeypatch
    ):
        """A supervised host's engine cuts the shard at checkpoint
        boundaries and the end of the trace, nowhere else: one sketch
        update per chunk on a host whose every packet takes the
        normal path."""
        trace = generate_trace(TraceConfig(num_flows=1000, seed=1))
        every = 4096
        host = Host(
            host_id=0,
            sketch=CountMinSketch(width=64, depth=3, seed=3),
            fastpath_bytes=None,
        )
        chunks = []
        update_trace = CountMinSketch.update_trace

        def spy(sketch, trace, indices=None):
            chunks.append(len(trace) if indices is None else len(indices))
            return update_trace(sketch, trace, indices)

        # On the class: checkpoints pickle the sketch instance.
        monkeypatch.setattr(CountMinSketch, "update_trace", spy)
        supervisor = Supervisor(str(tmp_path), checkpoint_every=every)
        (outcome,) = supervisor.run_epoch([host], [trace], None, 0)
        assert outcome.report is not None
        assert len(chunks) == -(-len(trace) // every) == 3
        assert sum(chunks) == len(trace)


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
