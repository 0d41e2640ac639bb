"""FlowRadar: XOR-encoded counting table and peel decoding."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MergeError
from repro.common.flow import FlowKey, header_words, key64_column
from repro.controlplane.merge import rescale_sketch
from repro.sketches.base import flow_updates
from repro.sketches.flowradar import FlowRadar
from tests.conftest import make_flow
from tests.reference_flowradar import reference_decode


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


def _fields(sketch) -> list[bytes]:
    """Every field of the sketch, bit for bit."""
    return [
        column.tobytes()
        for column in (
            sketch.xor_hi,
            sketch.xor_lo,
            sketch.flow_count,
            sketch.byte_count,
            sketch.bloom.bits,
        )
    ]


def _items(decoded: dict) -> list[tuple[FlowKey, str]]:
    """A decode as a list: order and every bit of every size."""
    return [(flow, size.hex()) for flow, size in decoded.items()]


def _wide_flow(rng: random.Random) -> FlowKey:
    """A flow drawn from the whole 104-bit header space."""
    return FlowKey.from_key104(rng.getrandbits(104))


def _drop_from_cell(sketch, flow, cell) -> None:
    """Lose ``flow``'s registration in ``cell`` (header and count, not
    bytes): the cell now claims fewer flows than hash into it."""
    header = flow.key104
    sketch.xor_hi[cell] ^= np.uint64(header >> 64)
    sketch.xor_lo[cell] ^= np.uint64(header & (2**64 - 1))
    sketch.flow_count[cell] -= 1


STATE_KINDS = ("clean", "merged", "rescaled", "corrupted")


@st.composite
def radar_states(draw):
    """A FlowRadar in one of four kinds of state, consistent or not."""
    # Small tables make one flow hit the same cell in two hash rows.
    num_cells = draw(st.integers(6, 60) | st.integers(6, 4000))
    sketch = FlowRadar(
        bloom_bits=40 * num_cells,
        num_cells=num_cells,
        num_hashes=draw(st.integers(1, 5)),
        seed=draw(st.integers(1, 2**16)),
        count_packets=draw(st.booleans()),
    )
    load = draw(st.floats(0.05, 1.2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    flows = [
        _wide_flow(rng) for _ in range(max(1, int(load * num_cells / 4)))
    ]
    for flow in flows:
        for _ in range(rng.randint(1, 3)):
            sketch.update(flow, rng.randint(40, 1500))
    kind = draw(st.sampled_from(STATE_KINDS))
    if kind == "merged":
        # A host that saw some of the same flows: their headers cancel
        # in the XOR field while the count reads 2.
        other = sketch.clone_empty()
        seen = rng.sample(flows, max(1, len(flows) // 3))
        fresh = [_wide_flow(rng) for _ in range(len(flows) // 2)]
        for flow in seen + fresh:
            other.update(flow, rng.randint(40, 1500))
        sketch.merge(other)
    elif kind == "rescaled":
        sketch = rescale_sketch(sketch, 4 / 3)
    elif kind == "corrupted":
        for _ in range(rng.randint(1, 5)):
            cell = rng.randrange(num_cells)
            # 64 bits of garbage in the high word reach above bit 103.
            sketch.xor_hi[cell] ^= np.uint64(
                rng.getrandbits(rng.choice((40, 64)))
            )
            sketch.xor_lo[cell] ^= np.uint64(rng.getrandbits(64))
            sketch.flow_count[cell] += rng.choice((-1, 1))
    return sketch


class TestBatchedPeel:
    """``decode`` peels a batch of queued cells per pass; the answer is
    that of the one-cell-at-a-time queue on every table."""

    @settings(max_examples=300, deadline=None)
    @given(sketch=radar_states())
    def test_equals_the_one_cell_peel(self, sketch):
        before = _fields(sketch)
        decoded, complete = sketch.decode()
        expected, expected_complete = reference_decode(sketch)
        assert _items(decoded) == _items(expected)
        assert complete is expected_complete
        assert _fields(sketch) == before

    def test_batch_ends_at_a_cell_another_flows_peel_touched(self):
        """Cell 5 lost flow A's registration: it reads as a pure cell
        of B, but A still hashes there.  The queue serves A's cell 2
        first; that peel takes A's bytes out of cell 5 and spends it,
        so B comes from cell 7 at its true size.  Peeling cell 5 from
        the state the batch started in would give B both flows' bytes.
        """
        sketch = FlowRadar(bloom_bits=4096, num_cells=12, num_hashes=3, seed=5)
        flow_a, flow_b = make_flow(5), make_flow(3)
        assert sketch._cells(flow_a.key64) == [5, 9, 2]
        assert sketch._cells(flow_b.key64) == [7, 11, 5]
        sketch.update(flow_a, 700)
        sketch.update(flow_b, 300)
        _drop_from_cell(sketch, flow_a, 5)
        assert sketch.flow_count.tolist().count(1) == 5
        assert sketch.byte_count[5] == 1000

        decoded, complete = sketch.decode()
        assert list(decoded.items()) == [(flow_a, 700.0), (flow_b, 300.0)]
        assert complete
        assert _items(decoded) == _items(reference_decode(sketch)[0])

    @settings(max_examples=100, deadline=None)
    @given(sketch=radar_states(), quantile=st.floats(0.0, 1.0))
    def test_threshold_filters_the_full_decode(self, sketch, quantile):
        full, complete = sketch.decode()
        sizes = sorted(full.values())
        threshold = sizes[int(quantile * (len(sizes) - 1))] if sizes else 0.0
        above, complete_above = sketch.decode(threshold)
        assert _items(above) == _items(
            {f: v for f, v in full.items() if v > threshold}
        )
        assert complete_above is complete

    def test_threshold_applies_to_the_sum_of_a_header_decoded_twice(self):
        """A second host wrote the flow into cell 5 only.  Merged, cell
        5 holds the header twice over (XOR 0, count 2): peeling the
        flow from cell 2 leaves cell 5 a pure cell of the same flow,
        which decodes again.  Neither part crosses 400; the sum does.
        """
        sketch = FlowRadar(bloom_bits=4096, num_cells=12, num_hashes=3, seed=5)
        flow = make_flow(5)
        assert sketch._cells(flow.key64) == [5, 9, 2]
        sketch.update(flow, 300)
        other = sketch.clone_empty()
        other.update(flow, 200)
        for cell in (9, 2):
            _drop_from_cell(other, flow, cell)
            other.byte_count[cell] = 0
        sketch.merge(other)
        assert sketch.flow_count[[5, 9, 2]].tolist() == [2, 1, 1]
        assert sketch.byte_count[[5, 9, 2]].tolist() == [500, 300, 300]

        full, _ = sketch.decode()
        assert _items(full) == _items(reference_decode(sketch)[0])
        assert full == {flow: 500.0}
        assert sketch.decode(400.0)[0] == {flow: 500.0}
        assert sketch.decode(500.0)[0] == {}


class TestWordColumns:
    """The XOR field as two uint64 columns equals the per-packet loop
    on headers that use all 104 bits."""

    @staticmethod
    def _workload(seed, count=300):
        rng = random.Random(seed)
        flows = [_wide_flow(rng) for _ in range(count)]
        assert any(flow.key104 >> 64 for flow in flows)
        picks = [rng.choice(flows) for _ in range(4 * count)]
        return picks, [rng.randint(40, 1500) for _ in picks]

    @pytest.mark.parametrize("count_packets", [False, True])
    def test_update_trace_and_inject_batch(self, count_packets):
        flows, values = self._workload(1)
        scalar = _small_radar(bloom_bits=2048, count_packets=count_packets)
        batch = scalar.clone_empty()
        injected = scalar.clone_empty()
        reinjected = scalar.clone_empty()
        for flow, value in zip(flows, values):
            scalar.update(flow, value)
            reinjected.inject(flow, value)
        batch.update_trace(flow_updates(flows, values))
        injected.inject_columns(
            *header_words(flows), key64_column(flows), np.array(values)
        )
        assert _fields(batch) == _fields(scalar)
        assert _fields(injected) == _fields(reinjected)
        assert scalar.flow_xor == [
            (int(hi) << 64) | int(lo)
            for hi, lo in zip(scalar.xor_hi, scalar.xor_lo)
        ]

    def test_merge_reset_clone_empty(self):
        parts = []
        for seed in (2, 3):
            part = _small_radar()
            part.update_trace(flow_updates(*self._workload(seed)))
            parts.append(part)
        mine, other = parts
        expected = [a ^ b for a, b in zip(mine.flow_xor, other.flow_xor)]
        assert max(expected) >> 64
        mine.merge(other)
        assert mine.flow_xor == expected

        empty = mine.clone_empty()
        mine.reset()
        assert _fields(mine) == _fields(empty)
        assert not any(any(field) for field in _fields(empty))
        assert empty.xor_hi.dtype == empty.xor_lo.dtype == np.uint64
