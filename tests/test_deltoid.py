"""Deltoid: header-encoding counters and bit-by-bit reversal."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey
from repro.sketches.deltoid import HEADER_BITS, Deltoid
from tests.conftest import make_flow, make_trace
from tests.reference_deltoid import _reverse_bucket, reference_decode


class TestDeltoidDecode:
    def test_single_heavy_flow_recovered(self):
        sketch = Deltoid(width=256, depth=4)
        heavy = make_flow(1)
        sketch.update(heavy, 100_000)
        for i in range(2, 200):
            sketch.update(make_flow(i), 100)
        decoded = sketch.decode(threshold=50_000)
        assert heavy in decoded
        assert decoded[heavy] >= 100_000

    def test_multiple_heavy_flows(self):
        sketch = Deltoid(width=512, depth=4)
        heavies = [make_flow(i) for i in range(10)]
        for flow in heavies:
            sketch.update(flow, 80_000)
        for i in range(100, 1000):
            sketch.update(make_flow(i), 50)
        decoded = sketch.decode(threshold=40_000)
        assert set(heavies) <= set(decoded)

    def test_no_heavy_flows_no_output(self):
        sketch = Deltoid(width=256, depth=4)
        for i in range(200):
            sketch.update(make_flow(i), 100)
        assert sketch.decode(threshold=50_000) == {}

    def test_decoded_flows_are_verified(self):
        """Everything decoded must re-hash to the bucket it came from."""
        sketch = Deltoid(width=64, depth=4)
        for i in range(500):
            sketch.update(make_flow(i), 1000)
        for flow in sketch.decode(threshold=20_000):
            _index, rows, cols, _coefs = sketch.matrix_positions([flow])
            totals = cols[rows % (1 + HEADER_BITS) == 0]
            assert any(
                sketch.totals[row, col] > 20_000
                for row, col in enumerate(totals.tolist())
            )

    def test_estimate_upper_bounds_truth(self, small_trace):
        sketch = Deltoid(width=256, depth=4)
        truth = {}
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
            truth[packet.flow] = truth.get(packet.flow, 0) + packet.size
        for flow, total in list(truth.items())[:50]:
            assert sketch.estimate(flow) >= total


class TestDeltoidAlgebra:
    def test_merge_equals_union(self):
        whole = Deltoid(width=128, depth=3, seed=5)
        a = Deltoid(width=128, depth=3, seed=5)
        b = Deltoid(width=128, depth=3, seed=5)
        for i in range(100):
            flow = make_flow(i)
            whole.update(flow, 10 + i)
            (a if i % 2 else b).update(flow, 10 + i)
        a.merge(b)
        assert np.array_equal(a.totals, whole.totals)
        assert np.array_equal(a.bits, whole.bits)

    def test_merge_rejects_mismatch(self):
        with pytest.raises(MergeError):
            Deltoid(width=128).merge(Deltoid(width=64))

    def test_matrix_roundtrip(self):
        sketch = Deltoid(width=64, depth=2)
        for i in range(40):
            sketch.update(make_flow(i), 100 * (i + 1))
        clone = sketch.clone_empty()
        clone.load_matrix(sketch.to_matrix())
        assert np.array_equal(clone.totals, sketch.totals)
        assert np.array_equal(clone.bits, sketch.bits)

    def test_matrix_shape(self):
        sketch = Deltoid(width=64, depth=2)
        assert sketch.to_matrix().shape == (2 * (1 + HEADER_BITS), 64)

    def test_positions_match_update(self):
        sketch = Deltoid(width=64, depth=2)
        flow = make_flow(3)
        sketch.update(flow, 77)
        replayed = np.zeros_like(sketch.to_matrix())
        for row, col, coef in zip(*sketch.matrix_positions([flow])[1:]):
            replayed[row, col] += 77 * coef
        assert np.array_equal(replayed, sketch.to_matrix())

    def test_difference_decoding_supports_heavy_changers(self):
        """Linear counters: decode(A - B) finds the changed flow."""
        changer = make_flow(1)
        epoch_a = Deltoid(width=256, depth=4, seed=7)
        epoch_b = Deltoid(width=256, depth=4, seed=7)
        epoch_a.update(changer, 90_000)
        for i in range(2, 100):
            epoch_a.update(make_flow(i), 500)
            epoch_b.update(make_flow(i), 500)
        diff = epoch_a.clone_empty()
        diff.load_matrix(epoch_a.to_matrix() - epoch_b.to_matrix())
        assert changer in diff.decode(threshold=40_000)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Deltoid(width=0)

    def test_cost_dominated_by_counter_updates(self):
        """§2.2: >86% of Deltoid's cycles update header-bit counters."""
        profile = Deltoid(width=4000, depth=4).cost_profile()
        assert profile.counter_updates > 10 * profile.hashes


THRESHOLD = 40_000.0


def _seeded_sketch(seed: int, traffic_seed: int | None = None) -> Deltoid:
    """A Deltoid whose heavy buckets cover every way a reversal ends:
    twelve heavy flows over 64 buckets (some share one: ambiguous),
    and forged heavy buckets that reverse to a header hashing
    elsewhere (verification fails)."""
    rng = random.Random(seed if traffic_seed is None else traffic_seed)
    sketch = Deltoid(width=64, depth=4, seed=seed)
    flows = [FlowKey.from_key104(rng.getrandbits(104)) for _ in range(80)]
    for index, flow in enumerate(flows):
        heavy = index < 12
        sketch.update(
            flow,
            rng.randint(50_000, 90_000) if heavy else rng.randint(40, 900),
        )
    for row in range(sketch.depth):
        flow = FlowKey.from_key104(rng.getrandbits(104))
        home = sketch._hashes.bucket(row, flow.key64, sketch.width)
        cold = [
            col
            for col in np.flatnonzero(sketch.totals[row] < THRESHOLD / 4)
            if col != home
        ]
        col = cold[0]
        sketch.totals[row, col] += 2 * THRESHOLD
        for bit in range(HEADER_BITS):
            if (flow.key104 >> bit) & 1:
                sketch.bits[row, bit, col] += 2 * THRESHOLD
    return sketch


def _outcomes(sketch: Deltoid, threshold: float) -> dict[str, list]:
    """How the reference's reversal of each heavy bucket ended."""
    outcomes: dict[str, list] = {"ambiguous": [], "garbage": [], "flow": []}
    for row in range(sketch.depth):
        for col in np.flatnonzero(sketch.totals[row] > threshold).tolist():
            one = sketch.bits[row, :, col]
            zero = sketch.totals[row, col] - one
            if ((one > threshold) == (zero > threshold)).any():
                outcomes["ambiguous"].append((row, col))
                continue
            flow = _reverse_bucket(sketch, row, col, threshold)
            if flow is None:
                outcomes["garbage"].append((row, col))
            else:
                outcomes["flow"].append(flow)
    return outcomes


class TestSlabDecode:
    """``decode`` reverses a row's heavy buckets as one slab; the answer
    is the bit-by-bit loop's (``tests/reference_deltoid.py``), dict
    order included."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 17, 2017])
    def test_equals_the_bit_by_bit_reversal(self, seed):
        sketch = _seeded_sketch(seed)
        outcomes = _outcomes(sketch, THRESHOLD)
        assert outcomes["ambiguous"] and outcomes["garbage"]
        flows = outcomes["flow"]
        assert len(set(flows)) < len(flows)  # decoded from several rows
        decoded = sketch.decode(THRESHOLD)
        assert decoded and set(decoded) == set(flows)
        assert list(decoded.items()) == list(
            reference_decode(sketch, THRESHOLD).items()
        )

    @pytest.mark.parametrize("seed", [4, 5])
    def test_difference_sketch(self, seed):
        """Negative counters (decode(A - B), the heavy-changer path)."""
        before = _seeded_sketch(seed)
        after = _seeded_sketch(seed, traffic_seed=seed + 100)
        diff = Deltoid(width=64, depth=4, seed=seed)
        diff.load_matrix(before.to_matrix() - after.to_matrix())
        assert list(diff.decode(THRESHOLD).items()) == list(
            reference_decode(diff, THRESHOLD).items()
        )

    def test_empty_result(self):
        sketch = _seeded_sketch(6)
        assert sketch.decode(1e12) == reference_decode(sketch, 1e12) == {}
        # Three heavy flows share each row's one bucket: all ambiguous.
        crowded = Deltoid(width=1, depth=4, seed=6)
        for index in range(3):
            crowded.update(make_flow(index), 90_000)
        assert (
            crowded.decode(THRESHOLD)
            == reference_decode(crowded, THRESHOLD)
            == {}
        )
