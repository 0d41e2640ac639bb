"""Continuous multi-epoch monitoring loop."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.errors import ConfigError, QuorumError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.framework.monitor import (
    Alert,
    AlertKind,
    ContinuousMonitor,
)
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.tasks.cardinality import CardinalityTask
from repro.tasks.distribution import FlowSizeDistributionTask
from repro.tasks.heavy_changer import HeavyChangerTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.generator import TraceConfig, generate_epochs
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace


@pytest.fixture(scope="module")
def epoch_stream():
    return generate_epochs(
        TraceConfig(num_flows=1000, seed=17), num_epochs=3
    )


class TestContinuousMonitor:
    def test_requires_tasks(self):
        with pytest.raises(ConfigError):
            ContinuousMonitor([])

    def test_per_epoch_results(self, epoch_stream):
        truth0 = GroundTruth.from_trace(epoch_stream[0])
        threshold = 0.01 * truth0.total_bytes
        monitor = ContinuousMonitor(
            [HeavyHitterTask("flowradar", threshold=threshold)]
        )
        for epoch in epoch_stream:
            summary = monitor.process_epoch(epoch)
            assert "heavy_hitter" in summary.results
        assert len(monitor.history) == 3

    def test_heavy_hitter_alerts_raised(self, epoch_stream):
        truth0 = GroundTruth.from_trace(epoch_stream[0])
        threshold = 0.01 * truth0.total_bytes
        monitor = ContinuousMonitor(
            [HeavyHitterTask("flowradar", threshold=threshold)]
        )
        summary = monitor.process_epoch(epoch_stream[0])
        assert summary.alerts
        assert all(
            alert.kind is AlertKind.HEAVY_HITTER
            for alert in summary.alerts
        )
        true_hh = set(truth0.heavy_hitters(threshold))
        alerted = {alert.subject for alert in summary.alerts}
        assert len(alerted & true_hh) / len(true_hh) > 0.9

    def test_heavy_changer_skips_first_epoch(self, epoch_stream):
        monitor = ContinuousMonitor(
            [HeavyChangerTask("flowradar", threshold=100_000)]
        )
        first = monitor.process_epoch(epoch_stream[0])
        assert "heavy_changer" not in first.results
        second = monitor.process_epoch(epoch_stream[1])
        assert "heavy_changer" in second.results

    def test_estimation_tasks_produce_no_alerts(self, epoch_stream):
        monitor = ContinuousMonitor([CardinalityTask("lc")])
        summary = monitor.process_epoch(epoch_stream[0])
        assert summary.alerts == []
        assert "cardinality" in summary.results

    def test_recurring_subjects(self, epoch_stream):
        truth0 = GroundTruth.from_trace(epoch_stream[0])
        threshold = 0.01 * truth0.total_bytes
        monitor = ContinuousMonitor(
            [HeavyHitterTask("flowradar", threshold=threshold)]
        )
        for epoch in epoch_stream:
            monitor.process_epoch(epoch)
        one_epoch = monitor.recurring_subjects(
            AlertKind.HEAVY_HITTER, min_epochs=1
        )
        persistent = monitor.recurring_subjects(
            AlertKind.HEAVY_HITTER, min_epochs=3
        )
        assert persistent <= one_epoch

    def test_alert_filtering(self, epoch_stream):
        truth0 = GroundTruth.from_trace(epoch_stream[0])
        threshold = 0.01 * truth0.total_bytes
        monitor = ContinuousMonitor(
            [HeavyHitterTask("flowradar", threshold=threshold)]
        )
        monitor.process_epoch(epoch_stream[0])
        assert monitor.alerts(AlertKind.DDOS) == []
        assert monitor.alerts(AlertKind.HEAVY_HITTER)
        assert monitor.alerts() == monitor.alerts(
            AlertKind.HEAVY_HITTER
        )

    def test_quorum_failure_keeps_every_task_in_step(
        self, epoch_stream, monkeypatch
    ):
        """Three of four hosts crash in the middle window, so it fails
        quorum for both tasks.  Both pipelines still run it: the next
        window meets quorum, and their epoch counters agree."""
        # Unsupervised, so a crashed host loses its window.
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(
                    FaultKind.DATAPLANE_CRASH,
                    epoch=1,
                    host=host,
                    packet_offset=1,
                )
                for host in range(3)
            ],
        )
        monitor = ContinuousMonitor(
            [
                CardinalityTask("lc"),
                HeavyHitterTask("flowradar", threshold=100_000),
            ],
            config=PipelineConfig(num_hosts=4, faults=plan),
        )
        monitor.process_epoch(epoch_stream[0])
        with pytest.raises(QuorumError):
            monitor.process_epoch(epoch_stream[1])
        summary = monitor.process_epoch(epoch_stream[2])
        assert summary.epoch == 2
        assert sorted(summary.results) == ["cardinality", "heavy_hitter"]
        assert [
            pipeline._epoch_counter
            for pipeline in monitor._pipelines.values()
        ] == [3, 3]


# ----------------------------------------------------------------------
# A window's work is done once, and changes nothing
# ----------------------------------------------------------------------
NUM_HOSTS = 2


def serve_tasks(epochs):
    threshold = 0.01 * epochs[0].total_bytes
    return [
        HeavyHitterTask("flowradar", threshold=threshold),
        CardinalityTask("lc"),
        FlowSizeDistributionTask("mrac"),
        HeavyChangerTask("flowradar", threshold=threshold),
    ]


def fresh(trace: Trace) -> Trace:
    """The same packets with cold columns and no partition memo."""
    return Trace(trace.packets)


def comparable(result) -> tuple:
    answer = result.answer
    return (
        list(answer.items()) if isinstance(answer, dict) else answer,
        result.score,
        result.network.lens_iterations,
        result.network.sketch.to_matrix().tobytes(),
        [(report.host_id, report.switch) for report in result.reports],
    )


@pytest.fixture(scope="module")
def window_stream():
    return generate_epochs(
        TraceConfig(num_flows=600, seed=23), num_epochs=7
    )


class TestWindowWorkDoneOnce:
    def test_one_ground_truth_per_window(
        self, window_stream, monkeypatch
    ):
        monitor = ContinuousMonitor(
            serve_tasks(window_stream),
            config=PipelineConfig(num_hosts=NUM_HOSTS),
        )
        calls = []
        from_trace = GroundTruth.from_trace

        def spy(trace):
            calls.append(trace)
            return from_trace(trace)

        monkeypatch.setattr(GroundTruth, "from_trace", spy)
        windows = [fresh(trace) for trace in window_stream[:3]]
        for window in windows:
            summary = monitor.process_epoch(window)
        # The third window ran all four tasks, the heavy changer against
        # the second window's held truth — and only its own truth was
        # computed.
        assert len(summary.results) == 4
        assert [id(trace) for trace in calls] == [
            id(window) for window in windows
        ]

    def test_each_pipeline_routes_each_window_once(
        self, window_stream, monkeypatch
    ):
        monitor = ContinuousMonitor(
            serve_tasks(window_stream),
            config=PipelineConfig(num_hosts=NUM_HOSTS),
        )
        calls = []
        run_dataplane = SketchVisorPipeline._run_dataplane

        def spy(pipeline, trace):
            calls.append((pipeline.task.name, id(trace)))
            return run_dataplane(pipeline, trace)

        monkeypatch.setattr(SketchVisorPipeline, "_run_dataplane", spy)
        windows = [fresh(trace) for trace in window_stream[:3]]
        for window in windows:
            monitor.process_epoch(window)
        # The heavy changer holds the previous window's recovered
        # sketch; it never routes that window again.
        assert calls == [
            (task.name, id(window))
            for window in windows
            for task in monitor.tasks
        ]

    def test_epoch_number_is_window_id(self, window_stream):
        monitor = ContinuousMonitor(
            serve_tasks(window_stream),
            config=PipelineConfig(
                num_hosts=NUM_HOSTS, faults=FaultPlan(seed=1)
            ),
        )
        for index, trace in enumerate(window_stream[:4]):
            summary = monitor.process_epoch(fresh(trace))
            assert summary.epoch == index
            assert len(summary.results) == (3 if index == 0 else 4)
            assert {
                name: result.collection.epoch
                for name, result in summary.results.items()
            } == dict.fromkeys(summary.results, index)

    def test_pipelines_route_the_same_shards(self, window_stream):
        window = fresh(window_stream[0])
        first = window.partition(NUM_HOSTS)
        second = window.partition(NUM_HOSTS)
        assert len(first) == NUM_HOSTS
        assert all(a is b for a, b in zip(first, second))
        # The shards' columns were sliced off the window's, not rebuilt.
        assert all(shard._sizes is not None for shard in first)

    def test_memo_is_keyed_by_host_count(self, window_stream):
        window = fresh(window_stream[0])
        two = window.partition(2)
        three = window.partition(3)
        assert len(three) == 3
        assert sum(len(shard) for shard in three) == len(window)
        cold = fresh(window).partition(3)
        assert [shard.packets for shard in three] == [
            shard.packets for shard in cold
        ]
        again = window.partition(2)
        assert [shard.packets for shard in again] == [
            shard.packets for shard in two
        ]
        assert window.partition(1) == [window]

    @pytest.mark.parametrize("path", ["direct", "frames"])
    def test_equals_standalone_pipelines(self, window_stream, path):
        """Sharing the truth and the shards changes no result: every
        window equals each task's own pipeline fed the same windows in
        order on cold traces.  On the frame path the hosts share one
        warm sketch, which the heavy changer's held sketch must not
        alias."""

        def config():
            faults = FaultPlan(seed=1) if path == "frames" else None
            return PipelineConfig(num_hosts=NUM_HOSTS, faults=faults)

        monitor = ContinuousMonitor(
            serve_tasks(window_stream), config=config()
        )
        standalone = {
            task.name: SketchVisorPipeline(task, config=config())
            for task in serve_tasks(window_stream)
        }
        for index, trace in enumerate(window_stream):
            summary = monitor.process_epoch(fresh(trace))
            for name, pipeline in standalone.items():
                expected = pipeline.run_epoch(fresh(trace))
                first_changer = name == "heavy_changer" and index == 0
                assert (expected is None) == first_changer, name
                if first_changer:
                    assert name not in summary.results
                    continue
                assert comparable(summary.results[name]) == comparable(
                    expected
                ), name
        assert len(monitor.history) == len(window_stream) >= 6


# ----------------------------------------------------------------------
# An answered window keeps what it answered, not its sketches
# ----------------------------------------------------------------------
def held_sketches(summary) -> list:
    """Every sketch an epoch summary can reach."""
    sketches = []
    for result in summary.results.values():
        reports = list(result.reports)
        if result.collection is not None:
            reports += result.collection.reports
        reports += [
            outcome.report
            for outcome in result.durability or ()
            if outcome.report is not None
        ]
        sketches.append(result.network.sketch)
        sketches += [report.sketch for report in reports]
    return [sketch for sketch in sketches if sketch is not None]


def answered(result) -> tuple:
    """What a retired result must still carry (the serve harness reads
    these per window)."""
    answer = result.answer
    return (
        list(answer.items()) if isinstance(answer, dict) else answer,
        result.score,
        result.network.lens_iterations,
        result.degraded,
        result.slo_breaches,
        [(report.host_id, report.switch) for report in result.reports],
        [report.fastpath for report in result.reports],
        result.durability,
    )


class TestRetiredWindows:
    @pytest.mark.parametrize(
        "deployment", ["plain", "chaos", "durable", "cluster"]
    )
    def test_sketches_are_released_by_the_next_window(
        self, window_stream, deployment, tmp_path
    ):
        from repro.cluster import ClusterConfig
        from repro.faults import moderate_plan

        extra = {
            "plain": {},
            "chaos": {"faults": moderate_plan(seed=3)},
            "durable": {"checkpoint_dir": str(tmp_path)},
            "cluster": {"cluster": ClusterConfig()},
        }[deployment]
        threshold = 0.01 * window_stream[0].total_bytes
        monitor = ContinuousMonitor(
            [
                HeavyHitterTask("flowradar", threshold=threshold),
                CardinalityTask("lc"),
            ],
            config=PipelineConfig(num_hosts=NUM_HOSTS, **extra),
        )
        summary = monitor.process_epoch(window_stream[0])
        held = held_sketches(summary)
        assert len(held) >= 2 * (NUM_HOSTS + 1)
        refs = [weakref.ref(sketch) for sketch in held]
        del held
        before = {
            name: answered(result)
            for name, result in summary.results.items()
        }
        monitor.process_epoch(window_stream[1])
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert monitor.history[0] is summary
        assert held_sketches(summary) == []
        for name, result in summary.results.items():
            assert answered(result) == before[name], name
            assert result.network.flow_estimates == {}
            assert result.network.snapshot is None
        # The newest window is still whole for its caller.
        assert held_sketches(monitor.history[-1])
