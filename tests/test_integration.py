"""Cross-module integration scenarios: the system as a user runs it."""

from __future__ import annotations

import pytest

from repro import (
    CardinalityTask,
    DataPlaneMode,
    GroundTruth,
    HeavyChangerTask,
    HeavyHitterTask,
    PipelineConfig,
    RecoveryMode,
    SketchVisorPipeline,
    TraceConfig,
    generate_trace,
)
from repro.traffic.generator import generate_epochs


class TestMultiEpochMonitoring:
    def test_three_epoch_hh_stream(self):
        """Per-epoch reset semantics: each epoch scored independently."""
        epochs = generate_epochs(
            TraceConfig(num_flows=1200, seed=3), num_epochs=3
        )
        for epoch in epochs:
            truth = GroundTruth.from_trace(epoch)
            threshold = 0.01 * truth.total_bytes
            task = HeavyHitterTask("flowradar", threshold=threshold)
            result = SketchVisorPipeline(task).run_epoch(epoch, truth)
            assert result.score.recall >= 0.9
            assert result.score.precision >= 0.9

    def test_heavy_changer_across_generated_epochs(self):
        epochs = generate_epochs(
            TraceConfig(num_flows=1200, seed=5), num_epochs=2
        )
        truth_a = GroundTruth.from_trace(epochs[0])
        truth_b = GroundTruth.from_trace(epochs[1])
        # Pick a threshold that some organic changes exceed.
        changes = truth_a.heavy_changers(truth_b, 0)
        threshold = sorted(changes.values())[-5]
        task = HeavyChangerTask("flowradar", threshold=threshold)
        pipeline = SketchVisorPipeline(task)
        pipeline.run_epoch(epochs[0], truth_a)
        result = pipeline.run_epoch(epochs[1], truth_b)
        assert result.score.recall >= 0.7


class TestConsistencyAcrossDeployments:
    def test_host_count_invariance_of_ideal(self):
        """Ideal results should not depend on how traffic is sharded."""
        trace = generate_trace(TraceConfig(num_flows=1000, seed=9))
        truth = GroundTruth.from_trace(trace)
        threshold = 0.01 * truth.total_bytes
        task = HeavyHitterTask("deltoid", threshold=threshold)
        answers = []
        for hosts in (1, 4):
            pipeline = SketchVisorPipeline(
                task,
                dataplane=DataPlaneMode.IDEAL,
                config=PipelineConfig(num_hosts=hosts),
            )
            result = pipeline.run_epoch(trace, truth)
            answers.append(set(result.answer))
        assert answers[0] == answers[1]

    def test_same_seed_same_results(self):
        trace = generate_trace(TraceConfig(num_flows=800, seed=4))
        truth = GroundTruth.from_trace(trace)
        task = CardinalityTask("lc")
        first = SketchVisorPipeline(task).run_epoch(trace, truth)
        second = SketchVisorPipeline(task).run_epoch(trace, truth)
        assert first.answer == pytest.approx(second.answer)


class TestRobustnessStory:
    """The paper's end-to-end claim, §1: robust = fast AND accurate
    under overload."""

    @pytest.fixture(scope="class")
    def overload_setup(self):
        trace = generate_trace(TraceConfig(num_flows=2500, seed=6))
        truth = GroundTruth.from_trace(trace)
        threshold = 0.005 * truth.total_bytes
        return trace, truth, threshold

    def test_throughput_and_accuracy_together(self, overload_setup):
        trace, truth, threshold = overload_setup
        task = HeavyHitterTask("deltoid", threshold=threshold)

        no_fastpath = SketchVisorPipeline(
            task, dataplane=DataPlaneMode.NO_FASTPATH
        ).run_epoch(trace, truth)
        sketchvisor = SketchVisorPipeline(
            task,
            dataplane=DataPlaneMode.SKETCHVISOR,
            recovery=RecoveryMode.SKETCHVISOR,
        ).run_epoch(trace, truth)

        # Robustness: faster AND still accurate.
        assert (
            sketchvisor.throughput_gbps
            > 2 * no_fastpath.throughput_gbps
        )
        assert sketchvisor.score.recall >= 0.9
        assert sketchvisor.score.relative_error < 0.1

    def test_recovery_bridges_the_fastpath_gap(self, overload_setup):
        trace, truth, threshold = overload_setup
        task = HeavyHitterTask("univmon", threshold=threshold)
        nr = SketchVisorPipeline(
            task, recovery=RecoveryMode.NO_RECOVERY
        ).run_epoch(trace, truth)
        sv = SketchVisorPipeline(
            task, recovery=RecoveryMode.SKETCHVISOR
        ).run_epoch(trace, truth)
        ideal = SketchVisorPipeline(
            task, dataplane=DataPlaneMode.IDEAL
        ).run_epoch(trace, truth)
        assert nr.score.recall < ideal.score.recall
        assert sv.score.recall >= ideal.score.recall - 0.1
