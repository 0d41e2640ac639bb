"""CountSketch: unbiased median estimator with sign hashes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError, MergeError
from repro.sketches.countsketch import CountSketch
from tests.conftest import make_flow


class TestCountSketch:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CountSketch(width=0)

    def test_exact_when_sparse(self):
        sketch = CountSketch(width=4096, depth=5)
        flow = make_flow(1)
        sketch.update(flow, 300)
        sketch.update(flow, 200)
        assert sketch.estimate(flow) == 500

    def test_roughly_unbiased_under_load(self):
        """Signed collisions should cancel: mean error near zero."""
        sketch = CountSketch(width=256, depth=5, seed=3)
        truth = {}
        rng = np.random.default_rng(5)
        for i in range(2000):
            size = int(rng.integers(50, 1500))
            sketch.update(make_flow(i), size)
            truth[i] = truth.get(i, 0) + size
        errors = [
            sketch.estimate(make_flow(i)) - truth[i]
            for i in range(0, 2000, 10)
        ]
        assert abs(float(np.mean(errors))) < float(np.std(errors))

    def test_merge_equals_union(self, small_trace):
        whole = CountSketch(width=256, depth=5, seed=9)
        a = CountSketch(width=256, depth=5, seed=9)
        b = CountSketch(width=256, depth=5, seed=9)
        for index, packet in enumerate(small_trace):
            whole.update(packet.flow, packet.size)
            (a if index % 2 else b).update(packet.flow, packet.size)
        a.merge(b)
        assert np.array_equal(a.counters, whole.counters)

    def test_merge_rejects_mismatch(self):
        with pytest.raises(MergeError):
            CountSketch(width=100).merge(CountSketch(width=128))

    def test_l2_estimate_positive_and_sane(self, small_trace):
        sketch = CountSketch(width=512, depth=5)
        truth = {}
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
            truth[packet.flow] = truth.get(packet.flow, 0) + packet.size
        true_l2 = sum(v * v for v in truth.values())
        assert sketch.l2_estimate() == pytest.approx(true_l2, rel=0.3)

    def test_positions_signed(self):
        sketch = CountSketch(width=128, depth=5)
        flow = make_flow(2)
        positions = list(zip(*sketch.matrix_positions([flow])[1:]))
        assert len(positions) == 5
        assert all(coef in (1.0, -1.0) for _r, _c, coef in positions)
        sketch.update(flow, 99)
        matrix = np.zeros_like(sketch.counters)
        for row, col, coef in positions:
            matrix[row, col] += 99 * coef
        assert np.array_equal(matrix, sketch.counters)

    def test_matrix_roundtrip(self):
        sketch = CountSketch(width=64, depth=3)
        sketch.update(make_flow(1), 100)
        clone = sketch.clone_empty()
        clone.load_matrix(sketch.to_matrix())
        assert clone.estimate(make_flow(1)) == sketch.estimate(
            make_flow(1)
        )
