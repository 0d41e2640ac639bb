"""Count-Min sketch: the one-sided error guarantee and merge algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, MergeError
from repro.sketches.countmin import CountMinSketch
from tests.conftest import make_flow

flow_streams = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 1500)),
    min_size=1,
    max_size=200,
)


class TestCountMin:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CountMinSketch(width=0)
        with pytest.raises(ConfigError):
            CountMinSketch(depth=0)

    @given(flow_streams)
    @settings(max_examples=50, deadline=None)
    def test_never_underestimates(self, stream):
        sketch = CountMinSketch(width=64, depth=3)
        truth: dict[int, int] = {}
        for index, size in stream:
            flow = make_flow(index)
            sketch.update(flow, size)
            truth[index] = truth.get(index, 0) + size
        for index, total in truth.items():
            assert sketch.estimate(make_flow(index)) >= total

    def test_exact_without_collisions(self):
        sketch = CountMinSketch(width=4096, depth=4)
        flow = make_flow(1)
        sketch.update(flow, 500)
        sketch.update(flow, 250)
        assert sketch.estimate(flow) == 750

    def test_unknown_flow_small_estimate(self):
        sketch = CountMinSketch(width=4096, depth=4)
        for i in range(50):
            sketch.update(make_flow(i), 100)
        assert sketch.estimate(make_flow(9999)) <= 200

    def test_merge_equals_union_stream(self, small_trace):
        whole = CountMinSketch(width=512, depth=3, seed=5)
        part_a = CountMinSketch(width=512, depth=3, seed=5)
        part_b = CountMinSketch(width=512, depth=3, seed=5)
        for index, packet in enumerate(small_trace):
            whole.update(packet.flow, packet.size)
            (part_a if index % 2 else part_b).update(
                packet.flow, packet.size
            )
        part_a.merge(part_b)
        assert np.array_equal(part_a.counters, whole.counters)

    def test_merge_rejects_mismatched(self):
        with pytest.raises(MergeError):
            CountMinSketch(seed=1).merge(CountMinSketch(seed=2))
        with pytest.raises(MergeError):
            CountMinSketch(width=100).merge(CountMinSketch(width=200))

    def test_matrix_roundtrip(self):
        sketch = CountMinSketch(width=64, depth=3)
        for i in range(30):
            sketch.update(make_flow(i), 10 * (i + 1))
        clone = sketch.clone_empty()
        clone.load_matrix(sketch.to_matrix())
        assert np.array_equal(clone.counters, sketch.counters)

    def test_load_matrix_validates_shape(self):
        sketch = CountMinSketch(width=64, depth=3)
        with pytest.raises(ConfigError):
            sketch.load_matrix(np.zeros((2, 64)))

    def test_positions_match_update(self):
        sketch = CountMinSketch(width=128, depth=4)
        flow = make_flow(7)
        positions = list(zip(*sketch.matrix_positions([flow])[1:]))
        assert len(positions) == 4
        sketch.update(flow, 111)
        matrix = sketch.to_matrix()
        replayed = np.zeros_like(matrix)
        for row, col, coef in positions:
            replayed[row, col] += 111 * coef
        assert np.array_equal(matrix, replayed)

    def test_reset(self):
        sketch = CountMinSketch(width=64, depth=2)
        sketch.update(make_flow(1), 10)
        sketch.reset()
        assert sketch.counters.sum() == 0

    def test_memory_bytes(self):
        assert CountMinSketch(width=100, depth=4).memory_bytes() == 3200

    def test_cost_profile(self):
        profile = CountMinSketch(width=100, depth=4).cost_profile()
        assert profile.hashes == 4
        assert profile.counter_updates == 4

    def test_estimate_key64_agrees(self):
        sketch = CountMinSketch(width=128, depth=3)
        flow = make_flow(3)
        sketch.update(flow, 42)
        assert sketch.estimate_key64(flow.key64) == sketch.estimate(flow)
