"""Cycle-level profiling: stage timers, sampler, determinism."""

from __future__ import annotations

import os

import pytest

from repro import PipelineConfig, SketchVisorPipeline, Telemetry
from repro.common.hashing import HashFamily
from repro.dataplane.cost_model import CostModel
from repro.dataplane.switch import SoftwareSwitch
from repro.fastpath.topk import FastPath
from repro.framework.modes import DataPlaneMode
from repro.sketches.countmin import CountMinSketch
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry import ProfileConfig
from repro.telemetry.profiling import epoch_attribution, write_folded
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(num_flows=800, seed=7))


@pytest.fixture(scope="module")
def truth(trace):
    return GroundTruth.from_trace(trace)


def _profiled_telemetry(sample_hz: float = 0.0) -> Telemetry:
    return Telemetry(profile=ProfileConfig(sample_hz=sample_hz))


def _run_pipeline(
    trace,
    truth,
    telemetry=None,
    dataplane=DataPlaneMode.SKETCHVISOR,
    **config_kwargs,
):
    pipeline = SketchVisorPipeline(
        HeavyHitterTask("univmon", threshold=0.001),
        dataplane=dataplane,
        config=PipelineConfig(
            num_hosts=2,
            seed=3,
            batch=True,
            telemetry=telemetry,
            **config_kwargs,
        ),
    )
    return pipeline.run_epoch(trace, truth)


#: Both ways a host runs: ``host.run_epoch``, or under the durability
#: supervisor with a checkpoint directory.
host_runs = pytest.mark.parametrize(
    "supervised", [False, True], ids=["unsupervised", "supervised"]
)


def _checkpoint_dir(supervised, tmp_path):
    return str(tmp_path) if supervised else None


# ----------------------------------------------------------------------
# Stage timers
# ----------------------------------------------------------------------
class TestStageTimers:
    def test_stage_records_wall_cpu_count(self):
        telemetry = _profiled_telemetry()
        profiler = telemetry.profiler
        with profiler.stage("epoch"):
            with profiler.stage("dataplane"):
                sum(range(20_000))
        assert set(profiler.stages) == {"epoch", "dataplane"}
        wall, cpu, count = profiler.stages["epoch"]
        assert wall > 0 and cpu >= 0 and count == 1
        # Stages and tracer spans are one tree.
        assert [s.name for s in telemetry.tracer.spans] == [
            "epoch",
            "dataplane",
        ]

    def test_stage_table_sorted_by_wall(self):
        telemetry = _profiled_telemetry()
        profiler = telemetry.profiler
        profiler.stages = {
            "small": [10, 10, 1],
            "big": [100, 90, 2],
        }
        table = profiler.stage_table()
        assert list(table) == ["big", "small"]
        assert table["big"]["wall_seconds"] == pytest.approx(1e-7)
        assert table["big"]["count"] == 2

    def test_inline_credits_materialize_as_child_spans(self):
        telemetry = _profiled_telemetry()
        profiler = telemetry.profiler
        with profiler.stage("dataplane.host"):
            profiler.add("fastpath.topk", 5_000_000, count=42)
        assert profiler.stages["fastpath.topk"] == [
            5_000_000,
            5_000_000,
            42,
        ]
        child = telemetry.tracer.spans[-1]
        assert child.name == "fastpath.topk"
        assert child.attrs == {"aggregated": 42}
        parent = telemetry.tracer.spans[child.parent]
        assert parent.name == "dataplane.host"

    def test_credit_without_open_stage_is_dropped(self):
        profiler = _profiled_telemetry().profiler
        profiler.add("orphan", 1000)
        assert "orphan" not in profiler.stages

    @host_runs
    def test_trace_span_routes_through_profiler(
        self, trace, truth, supervised, tmp_path
    ):
        telemetry = _profiled_telemetry()
        result = _run_pipeline(
            trace,
            truth,
            telemetry=telemetry,
            checkpoint_dir=_checkpoint_dir(supervised, tmp_path),
        )
        if supervised:
            assert result.durability is not None
        stages = telemetry.profiler.stages
        for expected in (
            "epoch",
            "dataplane",
            "dataplane.host",
            "trace.partition",
            "switch.sketch_update",
            "controlplane.merge",
            "hashing",
        ):
            assert expected in stages, expected

    def test_serialization_stage_on_collector_path(
        self, trace, truth
    ):
        """With a report collector the wire encoding is its own
        stage (a fault-free FaultPlan routes reports through the
        v2 codec without injecting anything)."""
        from repro.faults import FaultPlan

        telemetry = _profiled_telemetry()
        _run_pipeline(
            trace, truth, telemetry=telemetry, faults=FaultPlan()
        )
        stages = telemetry.profiler.stages
        assert "controlplane.collect" in stages
        assert "serialize.report" in stages

    @host_runs
    def test_stage_histograms_published(
        self, trace, truth, supervised, tmp_path
    ):
        telemetry = _profiled_telemetry()
        _run_pipeline(
            trace,
            truth,
            telemetry=telemetry,
            checkpoint_dir=_checkpoint_dir(supervised, tmp_path),
        )
        snapshot = telemetry.registry.snapshot()
        assert "sketchvisor_stage_wall_seconds" in snapshot
        assert "sketchvisor_stage_cpu_seconds" in snapshot
        stages = {
            sample["labels"]["stage"]
            for sample in snapshot["sketchvisor_stage_wall_seconds"][
                "samples"
            ]
        }
        assert {"dataplane", "dataplane.host"} <= stages
        rss = snapshot["sketchvisor_process_rss_bytes"]["samples"]
        assert any(s["value"] > 0 for s in rss)


# ----------------------------------------------------------------------
# Acceptance criteria
# ----------------------------------------------------------------------
class TestAcceptance:
    def test_attribution_covers_90_percent_of_epoch(self, trace, truth):
        telemetry = _profiled_telemetry()
        _run_pipeline(trace, truth, telemetry=telemetry)
        assert epoch_attribution(telemetry.tracer) >= 0.90

    @pytest.mark.parametrize(
        "dataplane",
        [DataPlaneMode.SKETCHVISOR, DataPlaneMode.MG_FASTPATH],
        ids=["sketchvisor", "mg_fastpath"],
    )
    def test_profiled_run_bit_identical(self, trace, truth, dataplane):
        bare = _run_pipeline(trace, truth, dataplane=dataplane)
        profiled = _run_pipeline(
            trace,
            truth,
            telemetry=_profiled_telemetry(sample_hz=97.0),
            dataplane=dataplane,
        )
        assert bare.fastpath_byte_fraction > 0
        assert profiled.score.recall == bare.score.recall
        assert profiled.score.precision == bare.score.precision
        assert (
            profiled.score.relative_error == bare.score.relative_error
        )
        assert profiled.throughput_gbps == bare.throughput_gbps
        assert (
            profiled.fastpath_byte_fraction
            == bare.fastpath_byte_fraction
        )

    def test_fastpath_is_the_sketchvisor_hotspot(self):
        """The known hotspot reproduces: on the batched SketchVisor
        path (vectorized CountMin updates), the per-packet fast-path
        top-k dominates the normal-path sketch update."""
        trace = generate_trace(TraceConfig(num_flows=6000, seed=1))
        telemetry = _profiled_telemetry()
        profiler = telemetry.profiler
        switch = SoftwareSwitch(
            CountMinSketch(seed=1),
            fastpath=FastPath(8192),
            cost_model=CostModel.in_memory(),
            buffer_packets=1024,
        )
        switch.profiler = profiler
        with profiler.stage("dataplane.host"):
            switch.process(trace)
        topk_wall = profiler.stages["fastpath.topk"][0]
        sketch_wall = profiler.stages["switch.sketch_update"][0]
        assert topk_wall >= sketch_wall

    def test_engine_loop_unprofiled_when_off(
        self, trace, truth, monkeypatch
    ):
        """Profiling off means no profiler plumbing anywhere."""
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        telemetry = Telemetry()
        result = _run_pipeline(trace, truth, telemetry=telemetry)
        assert telemetry.profiler is None
        assert result.score.recall is not None


# ----------------------------------------------------------------------
# Sampler + folded output
# ----------------------------------------------------------------------
class TestSampler:
    def test_sampler_collects_folded_stacks(self):
        telemetry = _profiled_telemetry(sample_hz=400.0)
        profiler = telemetry.profiler
        with profiler.stage("busy"):
            deadline = 0
            for _ in range(200):
                deadline += sum(range(10_000))
        assert profiler.folded, "no stacks sampled at 400 Hz"
        assert all(
            key.startswith("busy;") for key in profiler.folded
        )
        assert profiler.sample_counts.get("busy", 0) >= 1
        # Sampler thread stopped on deactivation.
        assert profiler._sampler is None

    def test_sampling_disabled_at_zero_hz(self):
        telemetry = _profiled_telemetry(sample_hz=0.0)
        profiler = telemetry.profiler
        with profiler.stage("quiet"):
            sum(range(10_000))
        assert profiler.folded == {}
        assert "quiet" in profiler.stages

    def test_write_folded_format(self, tmp_path):
        destination = tmp_path / "stacks.folded"
        write_folded(
            {"epoch;a:f;b:g": 3, "epoch;a:f": 1}, destination
        )
        lines = destination.read_text().splitlines()
        assert lines == ["epoch;a:f 1", "epoch;a:f;b:g 3"]


# ----------------------------------------------------------------------
# Hash instrumentation hygiene
# ----------------------------------------------------------------------
class TestHashInstrumentation:
    def test_wrappers_installed_only_while_active(self):
        assert not hasattr(HashFamily.bucket, "__wrapped__")
        profiler = _profiled_telemetry().profiler
        with profiler.stage("epoch"):
            assert hasattr(HashFamily.bucket, "__wrapped__")
            family = HashFamily(depth=2, seed=1)
            family.bucket(0, 1234, 64)
        assert not hasattr(HashFamily.bucket, "__wrapped__")
        assert profiler.stages["hashing"][2] >= 1

    def test_hash_values_unchanged_under_instrumentation(self):
        family = HashFamily(depth=3, seed=9)
        bare = [family.bucket(i, 987654321, 128) for i in range(3)]
        profiler = _profiled_telemetry().profiler
        with profiler.stage("epoch"):
            wrapped = [
                family.bucket(i, 987654321, 128) for i in range(3)
            ]
        assert wrapped == bare


# ----------------------------------------------------------------------
# Lifecycle (the REPRO_PROFILE switch is in test_framework.py's table)
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_reset_recreates_profiler(self):
        telemetry = _profiled_telemetry()
        first = telemetry.profiler
        with first.stage("epoch"):
            pass
        telemetry.reset()
        assert telemetry.profiler is not None
        assert telemetry.profiler is not first
        assert telemetry.profiler.stages == {}


# ----------------------------------------------------------------------
# Memory tracking
# ----------------------------------------------------------------------
class TestMemory:
    def test_rss_high_water_recorded(self):
        profiler = _profiled_telemetry().profiler
        with profiler.stage("epoch"):
            data = [0] * 100_000
        assert profiler.rss.get(str(os.getpid()), 0) > 0
        del data
