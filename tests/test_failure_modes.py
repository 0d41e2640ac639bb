"""Failure injection: degraded inputs, overload, and edge regimes.

A robust measurement system must degrade gracefully, not crash: empty
epochs, single-flow floods, tables too small to matter, sketches past
their design capacity, hosts that report nothing, adversarial key
patterns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.flow import FlowKey, Packet
from repro.controlplane.controller import Controller
from repro.controlplane.recovery import RecoveryMode, recover
from repro.dataplane.host import Host
from repro.fastpath.topk import ENTRY_BYTES, FastPath
from repro.framework.pipeline import SketchVisorPipeline
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar
from repro.tasks.cardinality import CardinalityTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace
from tests.conftest import make_flow


class TestEmptyAndDegenerate:
    def test_empty_epoch(self):
        task = HeavyHitterTask("flowradar", threshold=1000)
        pipeline = SketchVisorPipeline(task)
        result = pipeline.run_epoch(Trace([]))
        assert result.answer == {}
        assert result.score.recall == 1.0

    def test_single_packet_epoch(self):
        trace = Trace([Packet(make_flow(1), 1500, 0.0)])
        task = HeavyHitterTask("deltoid", threshold=1000)
        result = SketchVisorPipeline(task).run_epoch(trace)
        assert make_flow(1) in result.answer

    def test_single_flow_flood(self):
        """One elephant, nothing else: every component must cope."""
        flow = make_flow(7)
        trace = Trace(
            [Packet(flow, 1500, i * 1e-5) for i in range(5000)]
        )
        task = HeavyHitterTask("deltoid", threshold=100_000)
        result = SketchVisorPipeline(task).run_epoch(trace)
        assert result.answer.keys() == {flow}
        assert result.answer[flow] == pytest.approx(
            7_500_000, rel=0.01
        )

    def test_all_flows_identical_size(self):
        """No skew at all — the PLC fit degenerates, bounds must hold."""
        packets = [
            Packet(make_flow(i), 100, i * 1e-4)
            for i in range(2000)
        ]
        trace = Trace(packets)
        fastpath = FastPath(8192)
        for packet in trace:
            fastpath.update(packet.flow, packet.size)
        for flow, (lower, upper) in fastpath.bounds().items():
            assert lower <= 100 <= upper


class TestOverloadRegimes:
    def test_fastpath_of_one_entry(self, small_trace):
        """Pathologically tiny fast path: still no crash, V exact."""
        fastpath = FastPath(memory_bytes=ENTRY_BYTES)
        for packet in small_trace:
            fastpath.update(packet.flow, packet.size)
        assert fastpath.total_bytes == small_trace.total_bytes
        assert len(fastpath.rows()) <= 1

    def test_flowradar_over_capacity_recovery_does_not_crash(self):
        """Sketch past design capacity: partial decode, no exception."""
        trace = Trace(
            [
                Packet(make_flow(i), 100, i * 1e-5)
                for i in range(4000)
            ]
        )
        host = Host(
            0,
            FlowRadar(bloom_bits=8000, num_cells=800, seed=2),
            fastpath_bytes=4096,
        )
        report = host.run_epoch(trace)
        state = recover(
            report.sketch, report.fastpath, RecoveryMode.SKETCHVISOR
        )
        decoded, complete = state.sketch.decode()
        assert not complete  # genuinely over capacity
        assert isinstance(decoded, dict)

    def test_buffer_of_one_packet(self, small_trace):
        task = HeavyHitterTask("deltoid", threshold=10_000)
        from repro.framework.pipeline import PipelineConfig

        pipeline = SketchVisorPipeline(
            task, config=PipelineConfig(buffer_packets=1)
        )
        result = pipeline.run_epoch(small_trace)
        assert result.fastpath_byte_fraction > 0.8
        assert result.score.recall >= 0.9  # recovery still carries it


class TestPartialReports:
    def test_hosts_without_fastpath_state(self, small_trace):
        """A mixed fleet: some hosts ran NoFastPath; merging and
        recovery must treat their missing snapshots as empty."""
        shards = small_trace.partition(2)
        with_fp = Host(
            0, Deltoid(width=256, depth=4, seed=3), fastpath_bytes=8192
        )
        without_fp = Host(
            1, Deltoid(width=256, depth=4, seed=3), fastpath_bytes=None
        )
        reports = [
            with_fp.run_epoch(shards[0]),
            without_fp.run_epoch(shards[1]),
        ]
        assert reports[1].fastpath is None
        network = Controller(RecoveryMode.SKETCHVISOR).aggregate(reports)
        assert network.sketch is not None

    def test_recovery_with_zero_volume_snapshot(self):
        """Fast path armed but never hit: recovery is a pass-through."""
        sketch = Deltoid(width=128, depth=2, seed=3)
        sketch.update(make_flow(1), 1000)
        fastpath = FastPath(8192)
        state = recover(
            sketch, fastpath.snapshot(), RecoveryMode.SKETCHVISOR
        )
        assert np.array_equal(
            state.sketch.to_matrix(), sketch.to_matrix()
        )


class TestAdversarialKeys:
    def test_sequential_ips_do_not_skew_sketches(self):
        """Sequential addresses (scanning) must spread across buckets."""
        from repro.sketches.countmin import CountMinSketch

        sketch = CountMinSketch(width=256, depth=2)
        for i in range(10_000):
            sketch.update(FlowKey(i, 1, 1, 1), 1)
        per_bucket = sketch.counters[0]
        assert per_bucket.max() < 12 * per_bucket.mean()

    def test_zero_sized_estimates_never_negative(self, small_trace):
        task = CardinalityTask("lc")
        result = SketchVisorPipeline(task).run_epoch(small_trace)
        assert result.answer >= 0

    def test_extreme_port_values(self):
        flow = FlowKey(2**32 - 1, 0, 65_535, 0, proto=255)
        sketch = Deltoid(width=64, depth=2)
        sketch.update(flow, 5000)
        decoded = sketch.decode(threshold=1000)
        assert flow in decoded
