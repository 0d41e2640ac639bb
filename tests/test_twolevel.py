"""TwoLevel sketch: distinct-spread estimation in volume form."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey, Packet
from repro.sketches.twolevel import TwoLevelSketch
from repro.traffic.anomalies import inject_ddos_victims
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace


def _attack_trace(num_sources=100, victim=777):
    packets = [
        Packet(FlowKey(1000 + s, victim, 2000 + s, 80), 120, s * 0.001)
        for s in range(num_sources)
    ]
    return Trace(packets)


class TestSpreadEstimation:
    def test_estimate_near_truth(self):
        sketch = TwoLevelSketch(mode="ddos", inner_width=256)
        for packet in _attack_trace(num_sources=150):
            sketch.update(packet.flow, packet.size)
        estimate = sketch.estimate_spread(777)
        assert estimate == pytest.approx(150, rel=0.25)

    def test_small_spread_small_estimate(self):
        sketch = TwoLevelSketch(mode="ddos")
        for packet in _attack_trace(num_sources=3):
            sketch.update(packet.flow, packet.size)
        assert sketch.estimate_spread(777) < 20

    def test_repeated_packets_do_not_inflate(self):
        sketch = TwoLevelSketch(mode="ddos", inner_width=256)
        trace = _attack_trace(num_sources=50)
        for _ in range(5):  # replay the same sources five times
            for packet in trace:
                sketch.update(packet.flow, packet.size)
        assert sketch.estimate_spread(777) == pytest.approx(50, rel=0.3)

    def test_modes_swap_roles(self):
        ddos = TwoLevelSketch(mode="ddos")
        spread = TwoLevelSketch(mode="superspreader")
        flow = FlowKey(1, 2, 3, 4)
        assert ddos._keys(flow) == (2, 1)
        assert spread._keys(flow) == (1, 2)

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            TwoLevelSketch(mode="bogus")


class TestDetection:
    def test_detects_injected_victims(self, small_trace):
        trace, victims = inject_ddos_victims(
            small_trace, num_victims=2, sources_per_victim=150
        )
        sketch = TwoLevelSketch(mode="ddos", inner_width=256)
        for packet in trace:
            sketch.update(packet.flow, packet.size)
        detected = sketch.detect(spread_threshold=80)
        assert set(victims) <= set(detected)

    def test_detection_threshold_filters(self, small_trace):
        trace, victims = inject_ddos_victims(
            small_trace, num_victims=1, sources_per_victim=60
        )
        sketch = TwoLevelSketch(mode="ddos", inner_width=256)
        for packet in trace:
            sketch.update(packet.flow, packet.size)
        assert victims[0] not in sketch.detect(spread_threshold=500)


class TestAlgebra:
    def test_merge_equals_union(self, small_trace):
        whole = TwoLevelSketch(seed=3)
        a = TwoLevelSketch(seed=3)
        b = TwoLevelSketch(seed=3)
        for index, packet in enumerate(small_trace):
            whole.update(packet.flow, packet.size)
            (a if index % 2 else b).update(packet.flow, packet.size)
        a.merge(b)
        assert np.array_equal(a.counters, whole.counters)
        assert np.array_equal(
            a.candidates.counters, whole.candidates.counters
        )

    def test_merge_rejects_mismatch(self):
        with pytest.raises(MergeError):
            TwoLevelSketch(mode="ddos").merge(
                TwoLevelSketch(mode="superspreader")
            )

    def test_matrix_roundtrip(self, small_trace):
        sketch = TwoLevelSketch()
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
        clone = sketch.clone_empty()
        clone.load_matrix(sketch.to_matrix())
        assert np.array_equal(clone.counters, sketch.counters)

    def test_positions_match_update(self):
        sketch = TwoLevelSketch()
        flow = FlowKey(11, 22, 33, 44)
        sketch.update(flow, 100)
        replayed = np.zeros_like(sketch.to_matrix())
        for row, col, coef in zip(*sketch.matrix_positions([flow])[1:]):
            replayed[row, col] += 100 * coef
        # The candidate RevSketch is outside the matrix; only the inner
        # counter planes must match.
        assert np.array_equal(replayed, sketch.to_matrix())

    def test_paper_config_dimensions(self):
        sketch = TwoLevelSketch.paper_config()
        assert sketch.outer_width == 4000
        assert sketch.inner_width == 250

    def test_volume_form_counters_hold_bytes(self):
        sketch = TwoLevelSketch()
        sketch.update_pair(1, 2, 700)
        per_update = sketch.outer_depth * sketch.inner_depth
        assert sketch.counters.sum() == pytest.approx(700 * per_update)
