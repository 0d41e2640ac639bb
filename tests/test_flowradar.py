"""FlowRadar: XOR-encoded counting table and peel decoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import MergeError
from repro.sketches.flowradar import FlowRadar
from tests.conftest import make_flow


def _small_radar(**kwargs):
    defaults = dict(bloom_bits=20_000, num_cells=4000, num_hashes=4)
    defaults.update(kwargs)
    return FlowRadar(**defaults)


class TestDecode:
    def test_exact_decode_under_capacity(self, small_trace):
        sketch = _small_radar()
        truth = {}
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
            truth[packet.flow] = truth.get(packet.flow, 0) + packet.size
        decoded, complete = sketch.decode()
        assert complete
        assert decoded.keys() == truth.keys()
        for flow, size in truth.items():
            assert decoded[flow] == pytest.approx(size)

    def test_decode_does_not_mutate(self, small_trace):
        sketch = _small_radar()
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
        before = sketch.byte_count.copy()
        sketch.decode()
        sketch.decode()
        assert np.array_equal(sketch.byte_count, before)

    def test_overload_reports_incomplete(self):
        sketch = FlowRadar(bloom_bits=5000, num_cells=300, num_hashes=4)
        for i in range(2000):
            sketch.update(make_flow(i), 100)
        decoded, complete = sketch.decode()
        assert not complete
        assert len(decoded) < 2000

    def test_decoded_subset_is_correct_even_when_incomplete(self):
        # Bloom sized generously (registration must be reliable; an
        # undersized Bloom mis-attributes bytes via false positives),
        # cell table undersized so peeling stalls.
        sketch = FlowRadar(bloom_bits=60_000, num_cells=600, num_hashes=4)
        truth = {}
        for i in range(700):
            flow = make_flow(i)
            sketch.update(flow, 100 + i)
            truth[flow] = 100 + i
        decoded, _complete = sketch.decode()
        for flow, size in decoded.items():
            assert size == pytest.approx(truth[flow])

    def test_empty_decodes_empty(self):
        decoded, complete = _small_radar().decode()
        assert decoded == {} and complete

    def test_estimate_upper_bounds(self):
        sketch = _small_radar()
        flow = make_flow(1)
        sketch.update(flow, 500)
        sketch.update(flow, 250)
        assert sketch.estimate(flow) >= 750


class TestPacketMode:
    def test_count_packets_ignores_bytes(self):
        sketch = _small_radar(count_packets=True)
        flow = make_flow(1)
        for _ in range(5):
            sketch.update(flow, 1400)
        decoded, complete = sketch.decode()
        assert complete
        assert decoded[flow] == 5

    def test_inject_converts_bytes_to_packets(self):
        sketch = _small_radar(count_packets=True)
        sketch.inject(make_flow(1), 7690)
        decoded, _ = sketch.decode()
        assert decoded[make_flow(1)] == 10

    def test_byte_mode_inject_is_update(self):
        sketch = _small_radar()
        sketch.inject(make_flow(1), 1234)
        decoded, _ = sketch.decode()
        assert decoded[make_flow(1)] == 1234


class TestMerge:
    def test_merge_disjoint_hosts_decodes(self, small_trace):
        shards = small_trace.partition(2)
        parts = [_small_radar(seed=11) for _ in shards]
        for part, shard in zip(parts, shards):
            for packet in shard:
                part.update(packet.flow, packet.size)
        parts[0].merge(parts[1])
        decoded, complete = parts[0].decode()
        assert complete
        assert decoded.keys() == small_trace.flow_sizes().keys()

    def test_merge_xors_every_occupied_cell(self, small_trace):
        """``merge`` visits the cells ``other`` counted a flow into;
        the result is the XOR over all cells."""
        mine, other = _small_radar(seed=11), _small_radar(seed=11)
        for part, shard in zip((mine, other), small_trace.partition(2)):
            part.update_trace(shard)
        expected = [a ^ b for a, b in zip(mine.flow_xor, other.flow_xor)]
        assert any(other.flow_xor) and not all(other.flow_xor)
        mine.merge(other)
        assert mine.flow_xor == expected

    def test_merge_rejects_mismatch(self):
        with pytest.raises(MergeError):
            _small_radar(num_cells=4000).merge(_small_radar(num_cells=2000))
        with pytest.raises(MergeError):
            _small_radar().merge(_small_radar(count_packets=True))

    def test_matrix_is_byte_counters(self):
        sketch = _small_radar()
        sketch.update(make_flow(1), 100)
        matrix = sketch.to_matrix()
        assert matrix.shape == (1, 4000)
        assert matrix.sum() == pytest.approx(400)  # 4 cells x 100

    def test_reset_clears_everything(self):
        sketch = _small_radar()
        sketch.update(make_flow(1), 100)
        sketch.reset()
        assert sketch.byte_count.sum() == 0
        assert sketch.flow_count.sum() == 0
        assert all(x == 0 for x in sketch.flow_xor)
        decoded, complete = sketch.decode()
        assert decoded == {} and complete
