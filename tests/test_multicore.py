"""Multi-core hosts (§7.2 extension): parallel paths, merged results.

A host's core count is the pipeline's ``cores`` dimension: every core
runs its own switch over a flow-consistent share of the host's
traffic, and the host folds its cores' reports into its one report.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.controlplane.recovery import RecoveryMode, recover
from repro.dataplane.cost_model import CostModel
from repro.dataplane.engine import SwitchReport
from repro.dataplane.host import Host
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.metrics import recall
from repro.tasks.distribution import FlowSizeDistributionTask
from repro.tasks.heavy_hitter import HeavyHitterTask


def _pipeline(trace, solution="deltoid", task=None, **config):
    task = task or HeavyHitterTask(
        solution, threshold=0.005 * trace.total_bytes
    )
    return SketchVisorPipeline(task, config=PipelineConfig(**config))


@pytest.fixture
def core_reports(monkeypatch):
    """Every core report ``Host.run_epoch`` returns, with its shard
    length, in run order (unsupervised: a supervisor drives the engine
    itself)."""
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    seen = []
    run_epoch = Host.run_epoch

    def recording(host, trace, offered_gbps=None):
        report = run_epoch(host, trace, offered_gbps)
        seen.append((host.host_id, len(trace), report))
        return report

    monkeypatch.setattr(Host, "run_epoch", recording)
    return seen


class TestMultiCoreHost:
    def test_throughput_scales(self, medium_trace):
        single = _pipeline(medium_trace).run_epoch(medium_trace)
        dual = _pipeline(medium_trace, cores=2).run_epoch(medium_trace)
        assert dual.throughput_gbps > 1.5 * single.throughput_gbps

    def test_two_cores_forty_gbps_for_cheap_sketch(self, medium_trace):
        """§7.2: 'two CPU cores are sufficient to achieve above
        40 Gbps' — trivially true for MRAC, the paper's lower bound."""
        dual = _pipeline(
            medium_trace, task=FlowSizeDistributionTask("mrac"), cores=2
        ).run_epoch(medium_trace)
        assert dual.throughput_gbps > 40.0

    def test_results_merge_losslessly(self, medium_trace):
        result = _pipeline(medium_trace, cores=4).run_epoch(medium_trace)
        [report] = result.reports
        assert report.switch.total_packets == len(medium_trace)
        assert report.switch.total_bytes == medium_trace.total_bytes
        # Merged sketch + snapshot still recover heavy hitters.
        state = recover(
            report.sketch, report.fastpath, RecoveryMode.SKETCHVISOR
        )
        truth = medium_trace.flow_sizes()
        threshold = 0.005 * medium_trace.total_bytes
        true_hh = {
            flow: size for flow, size in truth.items() if size > threshold
        }
        found = state.sketch.decode(threshold)
        assert recall(found, true_hh) > 0.9

    def test_core_count_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(cores=0)

    def test_reset(self, small_trace):
        pipeline = _pipeline(small_trace, cores=2)
        pipeline.run_epoch(small_trace)
        result = pipeline.run_epoch(small_trace)
        assert result.reports[0].switch.total_bytes == (
            small_trace.total_bytes
        )

    def test_one_report_per_host(self, medium_trace, core_reports):
        result = _pipeline(
            medium_trace, num_hosts=2, cores=3
        ).run_epoch(medium_trace)
        assert [r.host_id for r in result.reports] == [0, 1]
        assert len(core_reports) == 6
        assert sum(r.switch.total_packets for r in result.reports) == (
            len(medium_trace)
        )

    def test_every_core_shard_is_nonempty(self, medium_trace, core_reports):
        """Two hosts of two cores: the four cells split the trace, none
        empty — a host's shard is not re-partitioned with the seed
        that made it (which would put it all on one core)."""
        _pipeline(medium_trace, num_hosts=2, cores=2).run_epoch(
            medium_trace
        )
        shards = {cell: packets for cell, packets, _ in core_reports}
        assert sorted(shards) == [0, 1, 2, 3]
        assert all(packets > 0 for packets in shards.values())
        assert sum(shards.values()) == len(medium_trace)

    def test_buffer_high_water_is_the_fullest_core(
        self, medium_trace, core_reports
    ):
        result = _pipeline(medium_trace, cores=2).run_epoch(medium_trace)
        highs = [
            report.switch.buffer_high_water for *_, report in core_reports
        ]
        assert max(highs) > 0
        assert result.reports[0].switch.buffer_high_water == max(highs)

    def test_crashed_core_recovers_bit_identically(
        self, medium_trace, tmp_path, monkeypatch
    ):
        """A dp_crash on core 1 of the only host restores from that
        cell's checkpoints and replays: same report, same answer."""
        monkeypatch.delenv("REPRO_CHAOS", raising=False)

        def run(directory, faults=None):
            pipeline = _pipeline(
                medium_trace,
                cores=2,
                checkpoint_dir=str(tmp_path / directory),
                checkpoint_every=256,
                faults=faults,
            )
            return pipeline.run_epoch(medium_trace)

        clean = run("clean")
        crash = FaultSpec(
            FaultKind.DATAPLANE_CRASH, epoch=0, host=1, packet_offset=700
        )
        crashed = run("crashed", FaultPlan(seed=1, specs=[crash]))
        by_cell = {o.host_id: o for o in crashed.durability}
        assert by_cell[1].recovered and by_cell[1].replayed_packets > 0
        assert not by_cell[0].recovered
        assert (tmp_path / "crashed" / "host_0001").is_dir()
        assert crashed.reports[0].switch == clean.reports[0].switch
        assert crashed.answer == clean.answer


def _distinct_report(index: int) -> SwitchReport:
    """A report with every field set to a value of its own."""
    values = {}
    for number, spec in enumerate(dataclasses.fields(SwitchReport), 1):
        values[spec.name] = type(spec.default)(number * 10 + index)
    return SwitchReport(**values)


class TestSwitchReportCombine:
    #: How each field folds across cores.  A field missing here fails
    #: the census below: add it, and handle it in ``combine``.
    RULES = {
        "total_packets": sum,
        "total_bytes": sum,
        "normal_packets": sum,
        "normal_bytes": sum,
        "fastpath_packets": sum,
        "fastpath_bytes": sum,
        "producer_cycles": max,
        "consumer_cycles": max,
        "makespan_cycles": max,
        "throughput_gbps": None,  # recomputed
        "buffer_high_water": max,
        "flow_count": sum,
        "fastpath_flow_count": sum,
    }

    def test_every_field_is_combined(self):
        names = [spec.name for spec in dataclasses.fields(SwitchReport)]
        assert sorted(names) == sorted(self.RULES), (
            "SwitchReport fields and combine rules differ"
        )
        model = CostModel.in_memory()
        # Both orders: a "first" or "last" fold must not pass for max.
        for indices in ((1, 2), (2, 1)):
            reports = [_distinct_report(index) for index in indices]
            combined = SwitchReport.combine(reports, model)
            for name, rule in self.RULES.items():
                if rule is not None:
                    values = [getattr(report, name) for report in reports]
                    assert getattr(combined, name) == rule(values), name
            assert combined.throughput_gbps == model.gbps(
                combined.total_bytes, combined.makespan_cycles
            )

    def test_one_report_combines_to_itself(self, small_trace):
        host = Host(0, HeavyHitterTask("deltoid", 1.0).create_sketch())
        switch = host.run_epoch(small_trace).switch
        assert SwitchReport.combine(
            [switch], host.switch.cost_model
        ) == switch
