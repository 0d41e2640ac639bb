"""Network-wide recovery: the NR / LR / UR / SketchVisor arms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.controlplane.merge import (
    merge_fastpath_snapshots,
    merge_sketches,
)
from repro.controlplane.recovery import RecoveryMode, recover
from repro.dataplane.host import Host
from repro.metrics import recall, relative_error
from repro.sketches.cardinality import KMinSketch, LinearCounting
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar
from tests.conftest import make_flow


@pytest.fixture(scope="module")
def overloaded_run(medium_trace):
    """One host under overload: Deltoid normal path + fast path."""
    host = Host(0, Deltoid(width=512, depth=4, seed=9), fastpath_bytes=8192)
    report = host.run_epoch(medium_trace)
    return report, medium_trace


class TestModes:
    def test_nr_discards_fastpath(self, overloaded_run):
        report, _trace = overloaded_run
        state = recover(
            report.sketch, report.fastpath, RecoveryMode.NO_RECOVERY
        )
        assert state.flow_estimates == {}
        assert np.array_equal(
            state.sketch.to_matrix(), report.sketch.to_matrix()
        )

    def test_nr_does_not_alias_input(self, overloaded_run):
        report, _trace = overloaded_run
        state = recover(
            report.sketch, report.fastpath, RecoveryMode.NO_RECOVERY
        )
        state.sketch.update(make_flow(424242), 10_000)
        assert not np.array_equal(
            state.sketch.to_matrix(), report.sketch.to_matrix()
        )

    def test_lr_le_ur_estimates(self, overloaded_run):
        report, _trace = overloaded_run
        low = recover(report.sketch, report.fastpath, RecoveryMode.LOWER)
        high = recover(report.sketch, report.fastpath, RecoveryMode.UPPER)
        assert low.flow_estimates.keys() == high.flow_estimates.keys()
        for flow, low_est in low.flow_estimates.items():
            assert low_est <= high.flow_estimates[flow] + 1e-6

    def test_sketchvisor_estimates_within_bounds(self, overloaded_run):
        report, _trace = overloaded_run
        state = recover(
            report.sketch, report.fastpath, RecoveryMode.SKETCHVISOR
        )
        bounds = {
            flow: (r + d, r + d + e)
            for flow, e, r, d in report.fastpath.rows()
        }
        for flow, estimate in state.flow_estimates.items():
            lower, upper = bounds[flow]
            assert lower - 1.0 <= estimate <= upper + 1.0

    def test_sketchvisor_improves_hh_recall_over_nr(self, overloaded_run):
        report, trace = overloaded_run
        truth = trace.flow_sizes()
        threshold = 0.005 * trace.total_bytes
        true_hh = {
            flow: size for flow, size in truth.items() if size > threshold
        }
        nr = recover(
            report.sketch, report.fastpath, RecoveryMode.NO_RECOVERY
        )
        sv = recover(
            report.sketch, report.fastpath, RecoveryMode.SKETCHVISOR
        )
        nr_found = nr.sketch.decode(threshold)
        sv_found = sv.sketch.decode(threshold)
        assert recall(sv_found, true_hh) > recall(nr_found, true_hh)
        assert recall(sv_found, true_hh) > 0.9
        assert relative_error(sv_found, true_hh) < 0.2

    def test_no_snapshot_passthrough(self, overloaded_run):
        report, _trace = overloaded_run
        state = recover(report.sketch, None, RecoveryMode.SKETCHVISOR)
        assert np.array_equal(
            state.sketch.to_matrix(), report.sketch.to_matrix()
        )


class TestNonLinearSketches:
    def test_flowradar_recovery_restores_flows(self, medium_trace):
        host = Host(
            0,
            FlowRadar(bloom_bits=60_000, num_cells=24_000, seed=3),
            fastpath_bytes=8192,
        )
        report = host.run_epoch(medium_trace)
        assert report.switch.fastpath_packets > 0
        sv = recover(
            report.sketch, report.fastpath, RecoveryMode.SKETCHVISOR
        )
        decoded, _complete = sv.sketch.decode()
        # Every fast-path tracked flow is decodable post-recovery.
        tracked = {flow for flow, *_ in report.fastpath.rows()}
        assert tracked <= set(decoded)

    def test_kmin_falls_back_to_midpoint_injection(self, medium_trace):
        host = Host(0, KMinSketch(k=512, depth=2, seed=5), fastpath_bytes=8192)
        report = host.run_epoch(medium_trace)
        sv = recover(
            report.sketch, report.fastpath, RecoveryMode.SKETCHVISOR
        )
        bounds = {
            flow: (r + d, r + d + e)
            for flow, e, r, d in report.fastpath.rows()
        }
        for flow, estimate in sv.flow_estimates.items():
            lower, upper = bounds[flow]
            assert estimate == pytest.approx((lower + upper) / 2)

    def test_cardinality_recovery_improves(self, medium_trace):
        """§7.3: recovery restores non-zero counters for cardinality."""
        truth_cardinality = len(medium_trace.flows())
        host = Host(
            0, LinearCounting(width=10_000, depth=4, seed=5),
            fastpath_bytes=8192,
        )
        report = host.run_epoch(medium_trace)
        nr = recover(
            report.sketch, report.fastpath, RecoveryMode.NO_RECOVERY
        )
        sv = recover(
            report.sketch, report.fastpath, RecoveryMode.SKETCHVISOR
        )
        nr_error = abs(nr.sketch.estimate() - truth_cardinality)
        sv_error = abs(sv.sketch.estimate() - truth_cardinality)
        assert sv_error <= nr_error


class TestMergedRecovery:
    def test_two_host_merge_then_recover(self, medium_trace):
        shards = medium_trace.partition(2)
        reports = []
        for host_id, shard in enumerate(shards):
            host = Host(
                host_id,
                Deltoid(width=512, depth=4, seed=9),
                fastpath_bytes=8192,
            )
            reports.append(host.run_epoch(shard))
        merged_sketch = merge_sketches([r.sketch for r in reports])
        merged_snapshot = merge_fastpath_snapshots(
            [r.fastpath for r in reports]
        )
        state = recover(
            merged_sketch, merged_snapshot, RecoveryMode.SKETCHVISOR
        )
        threshold = 0.005 * medium_trace.total_bytes
        truth = medium_trace.flow_sizes()
        true_hh = {
            flow: size for flow, size in truth.items() if size > threshold
        }
        found = state.sketch.decode(threshold)
        assert recall(found, true_hh) > 0.9
