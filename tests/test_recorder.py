"""Flight recorder: ring semantics, epoch distillation, dump artifacts."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro import PipelineConfig, SketchVisorPipeline, Telemetry
from repro.controlplane.transport import CollectionResult, CollectionStats
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.framework.monitor import AlertKind, ContinuousMonitor
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry.recorder import DUMP_VERSION, FlightRecorder
from repro.telemetry.accuracy import SLOPolicy
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth

IMPOSSIBLE_POLICY = SLOPolicy.from_dict(
    {
        "rules": [
            {"name": "recall-11",
             "metric": "sketchvisor_accuracy_empirical_hh_recall",
             "op": ">=", "threshold": 1.1}
        ]
    }
)


# ----------------------------------------------------------------------
class TestRing:
    def test_record_and_sequence(self):
        recorder = FlightRecorder(capacity=8)
        first = recorder.record("checkpoint", epoch=0, host=1)
        second = recorder.record("quarantine", epoch=1, host=2)
        assert (first.seq, second.seq) == (0, 1)
        assert len(recorder) == 2
        assert recorder.events("quarantine") == [second]
        assert first.to_json() == {
            "seq": 0, "time": first.time, "kind": "checkpoint",
            "epoch": 0, "host": 1,
        }

    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("tick", epoch=i)
        assert len(recorder) == 4
        assert recorder.total_events == 10
        assert recorder.dropped_events == 6
        assert [e.epoch for e in recorder.events()] == [6, 7, 8, 9]

    def test_capacity_floor_is_one(self):
        recorder = FlightRecorder(capacity=0)
        recorder.record("a")
        recorder.record("b")
        assert [e.kind for e in recorder.events()] == ["b"]

    def test_clear_keeps_lifetime_counters(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("tick")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.total_events == 1

    def test_telemetry_reset_clears_ring(self):
        telemetry = Telemetry()
        telemetry.recorder.record("tick")
        telemetry.reset()
        assert len(telemetry.recorder) == 0


# ----------------------------------------------------------------------
class TestDump:
    def test_dump_schema_and_ordering(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        for i in range(6):
            recorder.record("tick", epoch=i)
        path = recorder.dump(
            tmp_path / "deep" / "dump.json", reason="quarantine"
        )
        assert recorder.dumps == [path]
        loaded = json.loads(path.read_text())
        assert loaded["version"] == DUMP_VERSION
        assert loaded["reason"] == "quarantine"
        assert loaded["capacity"] == 4
        assert loaded["total_events"] == 6
        assert loaded["dropped_events"] == 2
        # Oldest-first; newest (the trigger neighbourhood) last.
        assert [e["epoch"] for e in loaded["events"]] == [2, 3, 4, 5]

    def test_dump_overwrites_previous_incident(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("first")
        target = tmp_path / "dump.json"
        recorder.dump(target, reason="crash")
        recorder.record("second")
        recorder.dump(target, reason="slo_breach")
        loaded = json.loads(target.read_text())
        assert loaded["reason"] == "slo_breach"
        assert [e["kind"] for e in loaded["events"]] == [
            "first", "second",
        ]


class TestDumpRotation:
    def test_rotated_names_carry_stamp_and_reason(self, tmp_path):
        recorder = FlightRecorder(max_dumps=4)
        recorder.record("tick")
        target = tmp_path / "serve_recorder.json"
        first = recorder.dump(target, reason="slo_breach")
        second = recorder.dump(target, reason="shutdown")
        assert first != second
        assert not target.exists()  # rotation never writes the base
        assert first.name.startswith("serve_recorder-")
        assert first.name.endswith("-slo_breach.json")
        assert second.name.endswith("-shutdown.json")
        assert json.loads(second.read_text())["reason"] == "shutdown"
        assert recorder.dumps == [first, second]

    def test_sweep_keeps_newest_max_dumps(self, tmp_path):
        recorder = FlightRecorder(max_dumps=3)
        recorder.record("tick")
        target = tmp_path / "dump.json"
        written = [
            recorder.dump(target, reason="breach") for _ in range(7)
        ]
        remaining = sorted(tmp_path.glob("dump-*.json"))
        assert remaining == sorted(written[-3:])

    def test_max_dumps_floor_never_deletes_fresh_dump(self, tmp_path):
        recorder = FlightRecorder(max_dumps=0)
        recorder.record("tick")
        path = recorder.dump(tmp_path / "dump.json", reason="crash")
        assert path.exists()

    def test_default_is_legacy_fixed_path(self, tmp_path):
        recorder = FlightRecorder()
        assert recorder.max_dumps is None
        recorder.record("tick")
        target = tmp_path / "dump.json"
        assert recorder.dump(target) == target
        assert list(tmp_path.iterdir()) == [target]


# ----------------------------------------------------------------------
def _report(host_id=0, high_water=0, kickouts=0):
    return SimpleNamespace(
        host_id=host_id,
        switch=SimpleNamespace(buffer_high_water=high_water),
        fastpath=SimpleNamespace(
            kickout_count=kickouts, evict_count=kickouts
        ),
    )


class TestEpochDistillation:
    def test_quiet_epoch_records_nothing(self):
        recorder = FlightRecorder()
        recorder.record_epoch_events(
            epoch=0,
            reports=[_report()],
            buffer_capacity=1024,
        )
        assert len(recorder) == 0

    def test_buffer_and_kickout_events(self):
        recorder = FlightRecorder()
        recorder.record_epoch_events(
            epoch=3,
            reports=[_report(host_id=1, high_water=1000, kickouts=7)],
            buffer_capacity=1024,
        )
        kinds = [e.kind for e in recorder.events()]
        assert kinds == ["buffer_high_water", "fastpath_kickout"]
        assert recorder.events()[1].fields["kickouts"] == 7

    def test_transport_and_missing_report_events(self):
        recorder = FlightRecorder()
        stats = CollectionStats(
            drops=2, corrupt_frames=1, retries=3, backoff_seconds=0.5,
        )
        collection = CollectionResult(
            epoch=1, missing_hosts=[4], stats=stats
        )
        recorder.record_epoch_events(epoch=1, collection=collection)
        kinds = [e.kind for e in recorder.events()]
        assert kinds == [
            "transport_fault", "collector_retry", "missing_report",
        ]
        fault = recorder.events()[0]
        assert fault.fields == {"drops": 2, "corrupt_frames": 1}

    def test_outcome_and_degraded_events(self):
        recorder = FlightRecorder()
        outcome = SimpleNamespace(
            host_id=2, checkpoint_writes=5, checkpoint_bytes=4096,
            restores=1, restarts=1, crashes=1, hangs=0,
            replayed_packets=100, gave_up=False, quarantined=True,
        )
        degraded = SimpleNamespace(
            reported_hosts=2, expected_hosts=3,
            missing_hosts=(1,), scale=1.5,
        )
        recorder.record_epoch_events(
            epoch=2,
            outcomes=[outcome],
            network=SimpleNamespace(degraded=degraded),
            dp_missing=(1,),
        )
        kinds = [e.kind for e in recorder.events()]
        assert kinds == [
            "dp_fault", "checkpoint", "restore", "quarantine",
            "degraded_epoch",
        ]
        assert recorder.events("checkpoint")[0].fields == {
            "hosts": 1, "writes": 5, "bytes": 4096,
        }
        assert recorder.events()[-1].fields["scale"] == 1.5

    def test_supervised_epoch_records_one_checkpoint_event(
        self, tmp_path
    ):
        """Every supervised host checkpoints every epoch; the ring
        gets one summary for the epoch, not one event per host."""
        trace = generate_trace(TraceConfig(num_flows=300, seed=5))
        telemetry = Telemetry()
        pipeline = SketchVisorPipeline(
            HeavyHitterTask("deltoid", threshold=1e9),
            config=PipelineConfig(
                num_hosts=3,
                telemetry=telemetry,
                checkpoint_dir=str(tmp_path),
            ),
        )
        result = pipeline.run_epoch(trace)
        (event,) = telemetry.recorder.events("checkpoint")
        assert event.fields == {
            "hosts": 3,
            "writes": sum(o.checkpoint_writes for o in result.durability),
            "bytes": sum(o.checkpoint_bytes for o in result.durability),
        }


# ----------------------------------------------------------------------
class TestChaosEndToEnd:
    """A chaos run that breaches an accuracy SLO must raise the
    monitor alert AND leave a dump whose trailing events show the
    injected fault — the acceptance path of the observability PR."""

    @pytest.fixture(scope="class")
    def soak(self):
        trace = generate_trace(TraceConfig(num_flows=900, seed=21))
        return trace, GroundTruth.from_trace(trace)

    def _monitor(self, truth, telemetry, plan, **config_kwargs):
        return ContinuousMonitor(
            [
                HeavyHitterTask(
                    "deltoid", threshold=0.01 * truth.total_bytes
                )
            ],
            config=PipelineConfig(
                num_hosts=3,
                seed=3,
                batch=True,
                telemetry=telemetry,
                faults=plan,
                slo=IMPOSSIBLE_POLICY,
                shadow_samples=64,
                **config_kwargs,
            ),
        )

    def test_breach_dump_ends_with_injected_fault(
        self, soak, tmp_path
    ):
        trace, truth = soak
        telemetry = Telemetry()
        dump_path = tmp_path / "incident.json"
        plan = FaultPlan(
            specs=[FaultSpec(FaultKind.CRASH, epoch=0, host=2)]
        )
        monitor = self._monitor(
            truth, telemetry, plan, recorder_path=dump_path
        )
        summary = monitor.process_epoch(trace)
        breaches = [
            alert
            for alert in summary.alerts
            if alert.kind is AlertKind.ACCURACY_SLO_BREACH
        ]
        assert len(breaches) == 1
        assert breaches[0].subject == "recall-11"
        loaded = json.loads(dump_path.read_text())
        assert loaded["reason"] == "slo_breach"
        trailing = [e["kind"] for e in loaded["events"]]
        # The injected crash shows up as the missing report and the
        # degraded merge right before the breach that tripped the dump.
        assert "missing_report" in trailing
        assert "degraded_epoch" in trailing
        assert trailing[-1] == "slo_breach"

    def test_alert_counter_parity(self, soak):
        """The monitor's alert list and the telemetry counters stay
        1:1 across epochs, one of them degraded."""
        trace, truth = soak
        telemetry = Telemetry()
        plan = FaultPlan(
            specs=[FaultSpec(FaultKind.CRASH, epoch=1, host=0)]
        )
        monitor = self._monitor(truth, telemetry, plan)
        for _ in range(3):
            monitor.process_epoch(trace)
        registry = telemetry.registry
        breach_alerts = monitor.alerts(AlertKind.ACCURACY_SLO_BREACH)
        assert len(breach_alerts) == registry.total(
            "sketchvisor_slo_breaches_total"
        )
        assert len(breach_alerts) == 3
        degraded_alerts = monitor.alerts(AlertKind.DEGRADED_EPOCH)
        assert len(degraded_alerts) == 1
        assert registry.total("sketchvisor_slo_evaluations_total") == 3
