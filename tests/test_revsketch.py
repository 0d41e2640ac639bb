"""Reversible Sketch: modular hashing and reverse hashing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError, MergeError
from repro.sketches.revsketch import ReversibleSketch, flow_fingerprint
from tests.conftest import make_flow


def _filled_sketch(heavy_keys, noise_keys, heavy=50_000, noise=100):
    sketch = ReversibleSketch(seed=3)
    for key in heavy_keys:
        sketch.update_key(key, heavy)
    for key in noise_keys:
        sketch.update_key(key, noise)
    return sketch


class TestUpdateEstimate:
    def test_estimate_upper_bounds_truth(self):
        sketch = ReversibleSketch()
        truth = {}
        rng = np.random.default_rng(3)
        for _ in range(2000):
            key = int(rng.integers(0, 2**32))
            size = int(rng.integers(50, 1500))
            sketch.update_key(key, size)
            truth[key] = truth.get(key, 0) + size
        for key, total in list(truth.items())[:100]:
            assert sketch.estimate_key(key) >= total

    def test_flow_interface_uses_fingerprint(self):
        sketch = ReversibleSketch()
        flow = make_flow(1)
        sketch.update(flow, 500)
        assert sketch.estimate(flow) == sketch.estimate_key(
            flow_fingerprint(flow)
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ReversibleSketch(subindex_bits=9, word_bits=8)
        with pytest.raises(ConfigError):
            ReversibleSketch(num_words=0)


class TestReverseHashing:
    def test_recovers_single_heavy_key(self):
        heavy = 0xDEADBEEF
        sketch = _filled_sketch([heavy], range(1, 1000))
        decoded = sketch.decode(threshold=25_000)
        assert heavy in decoded
        assert decoded[heavy] >= 50_000

    def test_recovers_multiple_heavy_keys(self):
        heavies = [0xDEADBEEF, 0x12345678, 0xCAFEBABE, 0x0BADF00D]
        sketch = _filled_sketch(heavies, range(1, 2000))
        decoded = sketch.decode(threshold=25_000)
        assert set(heavies) <= set(decoded)

    def test_no_heavies_decodes_empty(self):
        sketch = _filled_sketch([], range(1, 500))
        assert sketch.decode(threshold=25_000) == {}

    def test_decode_estimates_exceed_threshold(self):
        sketch = _filled_sketch([42, 77], range(100, 600))
        for estimate in sketch.decode(threshold=25_000).values():
            assert estimate > 25_000

    def test_word_boundary_keys(self):
        """Keys with extreme word values (0x00 / 0xFF bytes) decode."""
        for key in (0, 0xFFFFFFFF, 0x00FF00FF):
            sketch = _filled_sketch([key], range(1, 300))
            assert key in sketch.decode(threshold=25_000)

    def test_preimages_cover_word_space(self):
        sketch = ReversibleSketch()
        preimages = sketch._build_preimages()
        for row_tables in preimages:
            for table in row_tables:
                covered = sorted(
                    int(v) for bucket in table for v in bucket
                )
                assert covered == list(range(256))

    def test_beam_limit_raises(self):
        sketch = ReversibleSketch(beam_limit=1)
        for key in range(5000):
            sketch.update_key(key, 1000)
        with pytest.raises(ConfigError):
            sketch.decode(threshold=500)


class TestAlgebra:
    def test_merge_equals_union(self):
        whole = ReversibleSketch(seed=5)
        a = ReversibleSketch(seed=5)
        b = ReversibleSketch(seed=5)
        for key in range(500):
            whole.update_key(key, key + 1)
            (a if key % 2 else b).update_key(key, key + 1)
        a.merge(b)
        assert np.array_equal(a.counters, whole.counters)

    def test_merge_rejects_mismatch(self):
        with pytest.raises(MergeError):
            ReversibleSketch(depth=4).merge(ReversibleSketch(depth=2))

    def test_matrix_roundtrip(self):
        sketch = ReversibleSketch()
        sketch.update_key(123, 456)
        clone = sketch.clone_empty()
        clone.load_matrix(sketch.to_matrix())
        assert clone.estimate_key(123) == sketch.estimate_key(123)

    def test_positions_match_update(self):
        sketch = ReversibleSketch()
        flow = make_flow(9)
        sketch.update(flow, 88)
        replayed = np.zeros_like(sketch.counters)
        for row, col, coef in zip(*sketch.matrix_positions([flow])[1:]):
            replayed[row, col] += 88 * coef
        assert np.array_equal(replayed, sketch.counters)

    def test_width_follows_subindex_bits(self):
        assert ReversibleSketch(subindex_bits=3, num_words=4).width == 4096
        assert ReversibleSketch(subindex_bits=2, num_words=4).width == 256

    def test_hashing_dominates_cost(self):
        """§2.2: >95% of RevSketch cycles are hash computations."""
        profile = ReversibleSketch().cost_profile()
        assert profile.hashes > 2 * profile.counter_updates
