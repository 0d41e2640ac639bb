"""Registry (Table 1) and the end-to-end pipeline."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.controlplane.recovery import RecoveryMode
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.framework.registry import TASK_REGISTRY, create_task
from repro.tasks.heavy_changer import HeavyChangerTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.anomalies import inject_heavy_changes


class TestRegistry:
    def test_all_seven_tasks_present(self):
        assert set(TASK_REGISTRY) == {
            "heavy_hitter",
            "heavy_changer",
            "ddos",
            "superspreader",
            "cardinality",
            "flow_size_distribution",
            "entropy",
        }

    def test_table1_solution_lists(self):
        assert TASK_REGISTRY["heavy_hitter"][1] == (
            "flowradar",
            "revsketch",
            "univmon",
            "deltoid",
        )
        assert TASK_REGISTRY["ddos"][1] == ("twolevel",)
        assert TASK_REGISTRY["cardinality"][1] == ("fm", "kmin", "lc")

    def test_create_task(self):
        task = create_task("heavy_hitter", "deltoid", threshold=1000)
        assert isinstance(task, HeavyHitterTask)
        assert task.threshold == 1000

    def test_create_task_validation(self):
        with pytest.raises(ConfigError):
            create_task("bogus", "deltoid")
        with pytest.raises(ConfigError):
            create_task("heavy_hitter", "twolevel", threshold=1)

    def test_every_registered_pair_constructs(self):
        for task_name, (_cls, solutions) in TASK_REGISTRY.items():
            for solution in solutions:
                kwargs = {}
                if task_name in ("heavy_hitter", "heavy_changer"):
                    kwargs["threshold"] = 1000
                task = create_task(task_name, solution, **kwargs)
                sketch = task.create_sketch(seed=1)
                assert sketch.memory_bytes() > 0


class TestPipeline:
    def test_recovery_modes_ordered(self, medium_trace, medium_truth):
        threshold = 0.005 * medium_truth.total_bytes
        task = HeavyHitterTask("deltoid", threshold=threshold)
        recalls = {}
        for mode in (
            RecoveryMode.NO_RECOVERY,
            RecoveryMode.SKETCHVISOR,
        ):
            pipeline = SketchVisorPipeline(task, recovery=mode)
            result = pipeline.run_epoch(medium_trace, medium_truth)
            recalls[mode] = result.score.recall
        assert (
            recalls[RecoveryMode.SKETCHVISOR]
            > recalls[RecoveryMode.NO_RECOVERY]
        )

    def test_ideal_mode_no_fastpath_traffic(
        self, medium_trace, medium_truth
    ):
        threshold = 0.005 * medium_truth.total_bytes
        task = HeavyHitterTask("deltoid", threshold=threshold)
        pipeline = SketchVisorPipeline(
            task, dataplane=DataPlaneMode.IDEAL
        )
        result = pipeline.run_epoch(medium_trace, medium_truth)
        assert result.fastpath_byte_fraction == 0.0
        assert result.score.recall >= 0.95

    def test_multi_host_accuracy(self, medium_trace, medium_truth):
        threshold = 0.005 * medium_truth.total_bytes
        task = HeavyHitterTask("deltoid", threshold=threshold)
        pipeline = SketchVisorPipeline(
            task, config=PipelineConfig(num_hosts=4)
        )
        result = pipeline.run_epoch(medium_trace, medium_truth)
        assert result.network.num_hosts == 4
        assert result.score.recall >= 0.9

    def test_heavy_changer_via_pair(self, small_trace):
        epoch_a, epoch_b, _changers = inject_heavy_changes(
            small_trace, small_trace, num_changers=3, change_bytes=300_000
        )
        task = HeavyChangerTask("flowradar", threshold=150_000)
        pipeline = SketchVisorPipeline(task)
        pipeline.run_epoch(epoch_a)
        result = pipeline.run_epoch(epoch_b)
        assert result.score.recall >= 0.9

    def test_heavy_changer_answers_from_second_epoch(self, small_trace):
        hc = SketchVisorPipeline(HeavyChangerTask("deltoid", threshold=1))
        assert hc.run_epoch(small_trace) is None
        result = hc.run_epoch(small_trace)
        assert result.answer == {}
        assert result.score.extra == {"reported": 0, "true": 0}

    def test_mg_fastpath_mode_uses_misra_gries(self, small_trace):
        from repro.fastpath.misra_gries import MisraGriesTopK

        task = HeavyHitterTask("deltoid", threshold=10_000)
        pipeline = SketchVisorPipeline(
            task, dataplane=DataPlaneMode.MG_FASTPATH
        )
        hosts = pipeline._build_hosts()
        assert isinstance(hosts[0].fastpath, MisraGriesTopK)

    def test_throughput_property(self, small_trace, small_truth):
        task = HeavyHitterTask("deltoid", threshold=10_000)
        pipeline = SketchVisorPipeline(task)
        result = pipeline.run_epoch(small_trace, small_truth)
        assert result.throughput_gbps > 0
