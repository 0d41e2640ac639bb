"""FM, kMin, Linear Counting: distinct-count estimation quality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError, MergeError
from repro.sketches.cardinality import (
    FMSketch,
    KMinSketch,
    LinearCounting,
)
from tests.conftest import make_flow


class TestFM:
    def test_estimate_within_tolerance(self):
        sketch = FMSketch(num_registers=512, depth=4)
        for i in range(5000):
            sketch.update(make_flow(i), 100)
        assert sketch.estimate() == pytest.approx(5000, rel=0.35)

    def test_duplicates_do_not_count(self):
        sketch = FMSketch(num_registers=512, depth=4)
        for _ in range(50):
            for i in range(200):
                sketch.update(make_flow(i), 100)
        assert sketch.estimate() < 1500

    def test_merge_counts_union(self):
        a = FMSketch(num_registers=256, seed=2)
        b = FMSketch(num_registers=256, seed=2)
        for i in range(1500):
            (a if i % 2 else b).update(make_flow(i), 10)
        a.merge(b)
        assert a.estimate() == pytest.approx(1500, rel=0.4)

    def test_matrix_roundtrip(self):
        sketch = FMSketch(num_registers=64, depth=2)
        for i in range(100):
            sketch.update(make_flow(i), 10)
        clone = sketch.clone_empty()
        clone.load_matrix(sketch.to_matrix())
        assert clone.estimate() == sketch.estimate()

    def test_positions_match_update(self):
        sketch = FMSketch(num_registers=64, depth=2)
        flow = make_flow(1)
        sketch.update(flow, 55)
        replayed = np.zeros_like(sketch.to_matrix())
        for row, col, coef in zip(*sketch.matrix_positions([flow])[1:]):
            replayed[row, col] += 55 * coef
        assert np.array_equal(replayed, sketch.to_matrix())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FMSketch(num_registers=0)


class TestKMin:
    def test_estimate_within_tolerance(self):
        sketch = KMinSketch(k=512, depth=4)
        for i in range(5000):
            sketch.update(make_flow(i), 100)
        assert sketch.estimate() == pytest.approx(5000, rel=0.2)

    def test_small_sets_exact(self):
        sketch = KMinSketch(k=512, depth=2)
        for i in range(50):
            sketch.update(make_flow(i), 100)
        assert sketch.estimate() == pytest.approx(50, abs=1)

    def test_duplicates_do_not_count(self):
        sketch = KMinSketch(k=256, depth=2)
        for _ in range(10):
            for i in range(100):
                sketch.update(make_flow(i), 100)
        assert sketch.estimate() == pytest.approx(100, abs=1)

    def test_merge_is_union(self):
        a = KMinSketch(k=256, depth=2, seed=5)
        b = KMinSketch(k=256, depth=2, seed=5)
        for i in range(2000):
            (a if i % 2 else b).update(make_flow(i), 10)
        a.merge(b)
        assert a.estimate() == pytest.approx(2000, rel=0.25)

    def test_merge_idempotent_on_same_content(self):
        a = KMinSketch(k=64, depth=1, seed=5)
        b = KMinSketch(k=64, depth=1, seed=5)
        for i in range(500):
            a.update(make_flow(i), 10)
            b.update(make_flow(i), 10)
        before = a.estimate()
        a.merge(b)
        assert a.estimate() == pytest.approx(before)

    def test_matrix_roundtrip(self):
        sketch = KMinSketch(k=128, depth=2)
        for i in range(500):
            sketch.update(make_flow(i), 10)
        clone = sketch.clone_empty()
        clone.load_matrix(sketch.to_matrix())
        assert clone.estimate() == pytest.approx(sketch.estimate())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            KMinSketch(k=1)


class TestLinearCounting:
    def test_estimate_accurate_at_low_load(self):
        sketch = LinearCounting(width=10_000, depth=4)
        for i in range(3000):
            sketch.update(make_flow(i), 100)
        assert sketch.estimate() == pytest.approx(3000, rel=0.05)

    def test_duplicates_do_not_count(self):
        sketch = LinearCounting(width=4096, depth=2)
        for _ in range(20):
            for i in range(500):
                sketch.update(make_flow(i), 100)
        assert sketch.estimate() == pytest.approx(500, rel=0.1)

    def test_saturated_returns_finite(self):
        sketch = LinearCounting(width=16, depth=1)
        for i in range(1000):
            sketch.update(make_flow(i), 10)
        assert np.isfinite(sketch.estimate())

    def test_merge_counts_union(self):
        a = LinearCounting(width=4096, depth=2, seed=8)
        b = LinearCounting(width=4096, depth=2, seed=8)
        for i in range(1000):
            (a if i % 2 else b).update(make_flow(i), 10)
        a.merge(b)
        assert a.estimate() == pytest.approx(1000, rel=0.1)

    def test_merge_rejects_mismatch(self):
        with pytest.raises(MergeError):
            LinearCounting(width=100).merge(LinearCounting(width=200))

    def test_positions_match_update(self):
        sketch = LinearCounting(width=128, depth=3)
        flow = make_flow(1)
        sketch.update(flow, 70)
        replayed = np.zeros_like(sketch.to_matrix())
        for row, col, coef in zip(*sketch.matrix_positions([flow])[1:]):
            replayed[row, col] += 70 * coef
        assert np.array_equal(replayed, sketch.counters)
