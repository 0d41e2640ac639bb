"""Degraded-mode merge: quorum, rescaling, and accuracy bounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import MergeError, QuorumError
from repro.controlplane.controller import Controller
from repro.controlplane.merge import rescale_sketch, rescale_snapshot
from repro.controlplane.recovery import DegradedEpoch, RecoveryMode
from repro.dataplane.host import Host
from repro.sketches.deltoid import Deltoid
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth

NUM_HOSTS = 4


@pytest.fixture(scope="module")
def zipf_trace():
    """Seeded Zipf trace, big enough for stable heavy-hitter sets."""
    return generate_trace(
        TraceConfig(num_flows=2000, zipf_alpha=1.2, seed=77)
    )


@pytest.fixture(scope="module")
def reports(zipf_trace):
    shards = zipf_trace.partition(NUM_HOSTS)
    return [
        Host(
            host_id,
            Deltoid(width=256, depth=2, seed=5),
            fastpath_bytes=8192,
        ).run_epoch(shard)
        for host_id, shard in enumerate(shards)
    ]


class TestQuorum:
    def test_full_set_is_not_degraded(self, reports):
        network = Controller().aggregate(
            reports, expected_hosts=NUM_HOSTS
        )
        assert network.degraded is None
        assert network.num_hosts == NUM_HOSTS

    def test_below_quorum_raises(self, reports):
        with pytest.raises(QuorumError):
            Controller(quorum=0.5).aggregate(
                reports[:1],
                expected_hosts=NUM_HOSTS,
                missing_hosts=[1, 2, 3],
            )

    def test_no_reports_with_expectation_raises_quorum(self):
        with pytest.raises(QuorumError):
            Controller().aggregate([], expected_hosts=4)

    def test_no_reports_without_expectation_raises_merge(self):
        with pytest.raises(MergeError):
            Controller().aggregate([])

    def test_invalid_quorum_rejected(self):
        with pytest.raises(MergeError):
            Controller(quorum=0.0)
        with pytest.raises(MergeError):
            Controller(quorum=1.5)

    def test_without_expected_hosts_behaviour_unchanged(self, reports):
        """Legacy callers (no expected_hosts) never see degradation."""
        network = Controller().aggregate(reports[:2])
        assert network.degraded is None
        assert network.num_hosts == 2


class TestDegradedAnnotation:
    def test_record_fields(self, reports):
        network = Controller(quorum=0.5).aggregate(
            reports[:3],
            expected_hosts=NUM_HOSTS,
            missing_hosts=[3],
            epoch=12,
        )
        degraded = network.degraded
        assert isinstance(degraded, DegradedEpoch)
        assert degraded.expected_hosts == NUM_HOSTS
        assert degraded.reported_hosts == 3
        assert degraded.missing_hosts == (3,)
        assert degraded.epoch == 12
        assert degraded.scale == pytest.approx(4 / 3)
        assert degraded.missing_share == pytest.approx(0.25)
        assert degraded.error_inflation == pytest.approx(1 / 3)


class TestRescaleHelpers:
    def test_rescale_sketch_scales_counters(self, reports):
        sketch = reports[0].sketch
        scaled = rescale_sketch(sketch, 2.0)
        assert np.allclose(
            scaled.to_matrix(), sketch.to_matrix() * 2.0
        )
        # Original untouched; factor 1 is an exact copy.
        copy = rescale_sketch(sketch, 1.0)
        assert np.array_equal(copy.to_matrix(), sketch.to_matrix())

    def test_rescale_snapshot_scales_volume_not_entries(self, reports):
        snapshot = reports[0].fastpath
        scaled = rescale_snapshot(snapshot, 2.0)
        assert scaled.total_bytes == pytest.approx(
            snapshot.total_bytes * 2.0
        )
        assert scaled.total_decremented == pytest.approx(
            snapshot.total_decremented * 2.0
        )
        assert scaled.rows() == snapshot.rows()

    def test_negative_factor_rejected(self, reports):
        with pytest.raises(MergeError):
            rescale_sketch(reports[0].sketch, -1.0)
        with pytest.raises(MergeError):
            rescale_snapshot(reports[0].fastpath, -0.5)


class TestDegradedAccuracy:
    """Satellite bound: with 1 of 4 reports dropped on a seeded Zipf
    trace, heavy-hitter recall loses at most the missing traffic share
    (plus solver noise) and precision stays close to baseline.

    The documented bound (docs/robustness.md):

        recall_degraded    >= recall_baseline - missing_share - 0.10
        precision_degraded >= precision_baseline - 0.15

    Recall must give up the missing hosts' flows (they are physically
    gone; hosts carry ~1/4 of traffic each); precision pays for the
    n/k counter rescale pushing near-threshold survivors over the
    line.
    """

    def _score(self, zipf_trace, kept_reports, expected):
        truth = GroundTruth.from_trace(zipf_trace)
        task = HeavyHitterTask(
            "deltoid", threshold=0.005 * truth.total_bytes
        )
        network = Controller(
            RecoveryMode.SKETCHVISOR, quorum=0.5
        ).aggregate(kept_reports, expected_hosts=expected)
        answer = task.answer(network.sketch)
        return task.score(answer, truth), network

    def test_one_missing_host_bound(self, zipf_trace, reports):
        baseline, base_net = self._score(
            zipf_trace, reports, NUM_HOSTS
        )
        assert base_net.degraded is None
        degraded, net = self._score(
            zipf_trace, reports[:3], NUM_HOSTS
        )
        assert net.degraded is not None
        missing_share = net.degraded.missing_share
        assert degraded.recall >= (
            baseline.recall - missing_share - 0.10
        )
        assert degraded.precision >= baseline.precision - 0.15
