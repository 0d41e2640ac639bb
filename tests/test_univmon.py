"""UnivMon: level sampling, universal g-sums, multi-statistic queries."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.common.errors import ConfigError, MergeError
from repro.sketches.univmon import UnivMon
from tests.conftest import make_flow


def _small_univmon(seed=1, heap_size=200):
    return UnivMon(
        level_widths=(1024, 512, 256, 128),
        depth=5,
        heap_size=heap_size,
        seed=seed,
    )


class TestLevels:
    def test_flow_level_deterministic(self):
        sketch = _small_univmon()
        for i in range(100):
            key = make_flow(i).key64
            assert sketch.flow_level(key) == sketch.flow_level(key)

    def test_levels_halve_geometrically(self):
        sketch = _small_univmon()
        counts = [0] * sketch.num_levels
        for i in range(20_000):
            counts[sketch.flow_level(make_flow(i).key64)] += 1
        # ~half the flows stop at level 0, a quarter at level 1, ...
        assert 0.4 < counts[0] / 20_000 < 0.6
        assert 0.15 < counts[1] / 20_000 < 0.35

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            UnivMon(level_widths=())
        with pytest.raises(ConfigError):
            UnivMon(heap_size=0)


class TestQueries:
    def test_heavy_hitters(self, small_trace, small_truth):
        sketch = _small_univmon()
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
        threshold = 0.01 * small_truth.total_bytes
        found = sketch.heavy_hitters(threshold)
        true_hh = small_truth.heavy_hitters(threshold)
        hits = sum(1 for flow in true_hh if flow in found)
        assert hits / len(true_hh) > 0.9

    def test_cardinality_estimate(self, small_trace, small_truth):
        sketch = _small_univmon()
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
        estimate = sketch.cardinality()
        assert estimate == pytest.approx(
            small_truth.cardinality, rel=0.35
        )

    def test_entropy_estimate(self, small_trace, small_truth):
        sketch = _small_univmon()
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
        estimate = sketch.entropy(small_truth.total_bytes)
        assert estimate == pytest.approx(small_truth.entropy, rel=0.25)

    def test_gsum_identity_estimates_volume(self, small_trace):
        sketch = _small_univmon()
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
        estimate = sketch.g_sum(lambda v: v)
        assert estimate == pytest.approx(
            small_trace.total_bytes, rel=0.3
        )

    def test_moment_family(self, small_trace, small_truth):
        sketch = _small_univmon()
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
        f0 = sketch.moment(0)
        f1 = sketch.moment(1)
        f2 = sketch.moment(2)
        assert f0 == pytest.approx(small_truth.cardinality, rel=0.35)
        assert f1 == pytest.approx(small_truth.total_bytes, rel=0.3)
        true_f2 = sum(v * v for v in small_truth.flow_bytes.values())
        assert f2 == pytest.approx(true_f2, rel=0.5)

    def test_moment_validation(self):
        with pytest.raises(ConfigError):
            _small_univmon().moment(-1)

    def test_empty_sketch_zero_answers(self):
        sketch = _small_univmon()
        assert sketch.cardinality() == 0.0
        assert sketch.entropy(0) == 0.0
        assert sketch.heavy_hitters(100) == {}


class TestAlgebra:
    def test_merge_counters_add(self):
        a = _small_univmon(seed=9)
        b = _small_univmon(seed=9)
        whole = _small_univmon(seed=9)
        for i in range(400):
            flow = make_flow(i)
            whole.update(flow, 100 + i)
            (a if i % 2 else b).update(flow, 100 + i)
        a.merge(b)
        for mine, theirs in zip(a.sketches, whole.sketches):
            assert np.array_equal(mine.counters, theirs.counters)

    def test_merge_preserves_heavy_hitters(self, small_trace, small_truth):
        shards = small_trace.partition(2)
        parts = [_small_univmon(seed=4) for _ in shards]
        for part, shard in zip(parts, shards):
            for packet in shard:
                part.update(packet.flow, packet.size)
        parts[0].merge(parts[1])
        threshold = 0.01 * small_truth.total_bytes
        found = parts[0].heavy_hitters(threshold)
        true_hh = small_truth.heavy_hitters(threshold)
        hits = sum(1 for flow in true_hh if flow in found)
        assert hits / len(true_hh) > 0.85

    def test_merge_keeps_tracker_union(self):
        """The control plane has no per-host memory limit: merging
        must not prune the union of trackers (Figure 12's mechanism)."""
        a = _small_univmon(seed=3, heap_size=4)
        b = _small_univmon(seed=3, heap_size=4)
        for i in range(8):
            a.update(make_flow(i), 100_000)
        for i in range(8, 16):
            b.update(make_flow(i), 100_000)
        a.merge(b)
        found = a.heavy_hitters(threshold=50_000)
        assert len(found) >= 10

    def test_merge_rejects_mismatch(self):
        with pytest.raises(MergeError):
            _small_univmon().merge(UnivMon(level_widths=(64, 32)))

    def test_matrix_roundtrip(self):
        sketch = _small_univmon()
        for i in range(100):
            sketch.update(make_flow(i), 100)
        clone = sketch.clone_empty()
        clone.load_matrix(sketch.to_matrix())
        assert np.array_equal(clone.to_matrix(), sketch.to_matrix())

    def test_positions_match_update(self):
        sketch = _small_univmon()
        flow = make_flow(5)
        sketch.update(flow, 64)
        replayed = np.zeros_like(sketch.to_matrix())
        for row, col, coef in zip(*sketch.matrix_positions([flow])[1:]):
            replayed[row, col] += 64 * coef
        assert np.array_equal(replayed, sketch.to_matrix())

    def test_tracker_prune_keeps_heavies(self):
        sketch = _small_univmon(heap_size=10)
        heavy = make_flow(0)
        for i in range(1, 300):
            sketch.update(make_flow(i), 50)
        sketch.update(heavy, 100_000)
        for i in range(300, 600):
            sketch.update(make_flow(i), 50)
        found = sketch.heavy_hitters(threshold=50_000)
        assert heavy in found

    def test_reset(self):
        sketch = _small_univmon()
        sketch.update(make_flow(1), 500)
        sketch.reset()
        assert sketch.to_matrix().sum() == 0
        assert all(not t for t in sketch.trackers)
