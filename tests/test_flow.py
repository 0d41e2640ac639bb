"""FlowKey / Packet invariants."""

from __future__ import annotations

import copyreg
import io
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.flow import (
    HEADER_FOLD,
    FlowKey,
    Packet,
    destination_key,
    flow_pair_key,
    header_flows,
    header_groups,
    header_words,
    key64_column,
    source_key,
)
from repro.common.hashing import mix64_array
from repro.common.errors import CorruptFrameError
from repro.controlplane.transport import decode_payload
from repro.durability.codec import StateCodec

flow_keys = st.builds(
    FlowKey,
    src_ip=st.integers(0, 2**32 - 1),
    dst_ip=st.integers(0, 2**32 - 1),
    src_port=st.integers(0, 2**16 - 1),
    dst_port=st.integers(0, 2**16 - 1),
    proto=st.integers(0, 255),
)


def _field(bits: int):
    """A header field: anything in range, weighted to both ends."""
    top = 2**bits - 1
    return st.one_of(
        st.sampled_from([0, 1, top - 1, top]), st.integers(0, top)
    )


#: 5-tuples with every field often at 0 or at its maximum.
boundary_flow_keys = st.builds(
    FlowKey,
    src_ip=_field(32),
    dst_ip=_field(32),
    src_port=_field(16),
    dst_port=_field(16),
    proto=st.sampled_from([0, 6, 17, 255]) | st.integers(0, 255),
)


class TestFlowKey:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            FlowKey(src_ip=2**32, dst_ip=1, src_port=1, dst_port=1)
        with pytest.raises(ValueError):
            FlowKey(src_ip=1, dst_ip=1, src_port=2**16, dst_port=1)
        with pytest.raises(ValueError):
            FlowKey(src_ip=1, dst_ip=1, src_port=1, dst_port=1, proto=256)
        with pytest.raises(ValueError):
            FlowKey(src_ip=-1, dst_ip=1, src_port=1, dst_port=1)

    @given(flow_keys)
    def test_key104_roundtrip(self, flow):
        assert FlowKey.from_key104(flow.key104) == flow

    @given(flow_keys)
    def test_key104_width(self, flow):
        assert 0 <= flow.key104 < 2**104

    @given(flow_keys)
    def test_key64_stable(self, flow):
        assert flow.key64 == flow.key64

    def test_key64_differs_across_flows(self):
        keys = {
            FlowKey(1, 2, p, 80).key64 for p in range(1024, 3024)
        }
        assert len(keys) == 2000

    @given(flow_keys)
    def test_reversed_is_involution(self, flow):
        assert flow.reversed().reversed() == flow

    def test_reversed_swaps_endpoints(self):
        flow = FlowKey(1, 2, 10, 20, proto=17)
        back = flow.reversed()
        assert (back.src_ip, back.dst_ip) == (2, 1)
        assert (back.src_port, back.dst_port) == (20, 10)
        assert back.proto == 17

    def test_hashable_and_frozen(self):
        flow = FlowKey(1, 2, 3, 4)
        assert flow in {flow}
        with pytest.raises(AttributeError):
            flow.src_ip = 9

    @given(flow_keys)
    def test_cached_hash_is_the_dataclass_hash(self, flow):
        """``__hash__`` is served from a slot, with the value the
        generated dataclass hash had — the tuple of compared fields —
        so every set/dict of flows iterates in the order it always did."""
        assert hash(flow) == hash(
            (
                flow.src_ip,
                flow.dst_ip,
                flow.src_port,
                flow.dst_port,
                flow.proto,
            )
        )
        assert hash(flow) == flow._hash

    @given(flow_keys)
    def test_slots_frozen_pickle_and_codec_round_trips(self, flow):
        assert not hasattr(flow, "__dict__")
        with pytest.raises(AttributeError):
            flow._hash = 0
        codec = StateCodec()
        for copy in (
            pickle.loads(pickle.dumps(flow)),
            codec.decode(codec.encode(flow)),
            FlowKey.from_key104(flow.key104),
        ):
            assert copy == flow
            assert hash(copy) == hash(flow)
            assert copy.key64 == flow.key64
            assert copy in {flow}

    def test_host_projections(self):
        flow = FlowKey(111, 222, 3, 4)
        assert source_key(flow) == 111
        assert destination_key(flow) == 222
        assert flow_pair_key(flow) == flow_pair_key(FlowKey(111, 222, 9, 9))
        assert flow_pair_key(flow) != flow_pair_key(flow.reversed())


def _fields(flow: FlowKey) -> list:
    return [flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port, flow.proto]


def _legacy_state(flow: FlowKey) -> list:
    return _fields(flow) + [flow.key64, hash(flow)]


def _pickle_as(obj, reduce) -> bytes:
    """``obj`` pickled with every FlowKey reduced by ``reduce(flow)``."""

    class Forger(pickle.Pickler):
        def reducer_override(self, value):
            if type(value) is FlowKey:
                return reduce(value)
            return NotImplemented

    out = io.BytesIO()
    Forger(out, protocol=5).dump(obj)
    return out.getvalue()


def _legacy_pickle(obj, state=_legacy_state) -> bytes:
    """``obj`` pickled the way FlowKey pickled before it had a
    ``__reduce__``: ``__newobj__`` plus the dataclass state, all seven
    fields (forged by ``state(flow)``)."""
    return _pickle_as(
        obj, lambda flow: (copyreg.__newobj__, (FlowKey,), state(flow))
    )


def _payload(envelope: bytes) -> bytes:
    """A payload with an empty array section around ``envelope``."""
    return struct.pack("<I", 0) + envelope


class TestPickling:
    """``FlowKey`` pickles as its five header fields, through the
    constructor; the older state form still loads, through the same
    checks."""

    @given(st.lists(flow_keys, max_size=40))
    def test_round_trip_keeps_hash_fold_and_set_order(self, flows):
        for data in (pickle.dumps(flows, protocol=5), _legacy_pickle(flows)):
            copy = decode_payload(_payload(data))
            assert copy == flows
            # A set built the same way iterates the same way.
            assert list(set(copy)) == list(set(flows))
            assert [hash(flow) for flow in copy] == [
                hash(flow) for flow in flows
            ]
            assert [flow.key64 for flow in copy] == [
                flow.key64 for flow in flows
            ]

    def test_pickles_as_the_constructor_call(self):
        flow = FlowKey(1, 2, 3, 4, 17)
        assert flow.__reduce__() == (FlowKey, (1, 2, 3, 4, 17))
        assert len(pickle.dumps(flow, protocol=5)) < len(
            _legacy_pickle(flow)
        )

    @pytest.mark.parametrize(
        "forge",
        [
            lambda flow: _fields(flow) + [flow.key64 ^ 1, hash(flow)],
            lambda flow: _fields(flow) + [flow.key64, hash(flow) ^ 1],
            lambda flow: [2**32] + _fields(flow)[1:] + [0, 0],
            lambda flow: _fields(flow)[:4] + [256, flow.key64, hash(flow)],
            lambda flow: _fields(flow)[:2] + [-1, 80, 6, 0, 0],
            lambda flow: _fields(flow),
        ],
        ids=[
            "key64",
            "hash",
            "src_ip",
            "proto",
            "src_port",
            "short-state",
        ],
    )
    def test_forged_legacy_state_is_a_corrupt_frame(self, forge):
        envelope = _legacy_pickle([FlowKey(10, 20, 30, 40)], forge)
        with pytest.raises(CorruptFrameError, match="not a valid pickle"):
            decode_payload(_payload(envelope))

    def test_out_of_range_constructor_call_is_a_corrupt_frame(self):
        envelope = _pickle_as(
            [FlowKey(10, 20, 30, 40)],
            lambda flow: (FlowKey, (10, 20, 2**16, 40, 6)),
        )
        with pytest.raises(CorruptFrameError, match="not a valid pickle"):
            decode_payload(_payload(envelope))


class TestPacket:
    def test_positive_size_required(self):
        flow = FlowKey(1, 2, 3, 4)
        with pytest.raises(ValueError):
            Packet(flow, 0)
        with pytest.raises(ValueError):
            Packet(flow, -5)

    def test_defaults(self):
        packet = Packet(FlowKey(1, 2, 3, 4), 100)
        assert packet.timestamp == 0.0


class TestHeaderWords:
    """The word columns the injection kernels read are the headers
    ``FlowKey`` packs, and they fold to its ``key64``."""

    @given(st.lists(boundary_flow_keys | flow_keys, max_size=30))
    def test_words_reassemble_key104_and_fold_to_key64(self, flows):
        hi, lo = header_words(flows)
        assert hi.dtype == lo.dtype == np.uint64
        assert [
            (high << 64) | low for high, low in zip(hi.tolist(), lo.tolist())
        ] == [flow.key104 for flow in flows]
        assert np.array_equal(mix64_array(hi ^ lo), key64_column(flows))
        assert header_flows(hi, lo) == flows

    def test_extremes(self):
        flows = [
            FlowKey(0, 0, 0, 0, 0),
            FlowKey(2**32 - 1, 2**32 - 1, 2**16 - 1, 2**16 - 1, 255),
        ]
        hi, lo = header_words(flows)
        assert hi.tolist() == [0, 2**40 - 1]
        assert lo.tolist() == [0, 2**64 - 1]
        assert np.array_equal(mix64_array(hi ^ lo), key64_column(flows))


def _lexsort_groups(hi, lo):
    """Grouping by both words with one two-key ``lexsort``: how
    ``header_groups`` grouped before the one-word fold."""
    order = np.lexsort((lo, hi))
    sorted_hi, sorted_lo = hi[order], lo[order]
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = (sorted_hi[1:] != sorted_hi[:-1]) | (
        sorted_lo[1:] != sorted_lo[:-1]
    )
    first = order[lead]
    by_row = np.argsort(first)
    rank = np.empty_like(by_row)
    rank[by_row] = np.arange(by_row.size)
    group = np.empty_like(order)
    group[order] = rank[np.cumsum(lead) - 1]
    return first[by_row], group


def _colliding(hi, lo, other_hi):
    """The low word that gives ``other_hi`` the fold of ``(hi, lo)``."""
    return lo ^ (hi * HEADER_FOLD) ^ (other_hi * HEADER_FOLD)


class TestHeaderGroups:
    @staticmethod
    def _check(hi, lo):
        first, group = header_groups(hi, lo)
        ref_first, ref_group = _lexsort_groups(hi, lo)
        assert np.array_equal(first, ref_first)
        assert np.array_equal(group, ref_group)
        # Every row is grouped with exactly the rows of its header.
        assert np.array_equal(hi[first][group], hi)
        assert np.array_equal(lo[first][group], lo)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_lexsort_with_repeats(self, seed):
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 2**40, size=(300, 2), dtype=np.uint64)
        rows = distinct[rng.integers(0, 300, size=2000)]
        self._check(rows[:, 0].copy(), rows[:, 1].copy())

    @pytest.mark.parametrize("seed", range(5))
    def test_fold_collisions_never_merge_headers(self, seed):
        rng = np.random.default_rng(seed)
        hi = rng.integers(0, 2**40, size=200, dtype=np.uint64)
        lo = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        # Twins: another header with the same fold, for half the rows,
        # mixed in among repeats of the originals.
        twin_hi = hi[:100] ^ np.uint64(1)
        twin_lo = _colliding(hi[:100], lo[:100], twin_hi)
        all_hi = np.concatenate([hi, twin_hi, hi[::-1]])
        all_lo = np.concatenate([lo, twin_lo, lo[::-1]])
        order = rng.permutation(all_hi.size)
        fold = all_lo ^ (all_hi * HEADER_FOLD)
        assert np.unique(fold).size == 200
        self._check(all_hi[order], all_lo[order])

    def test_empty_and_single(self):
        empty = np.zeros(0, dtype=np.uint64)
        first, group = header_groups(empty, empty)
        assert first.size == group.size == 0
        one = np.array([7], dtype=np.uint64)
        first, group = header_groups(one, one)
        assert first.tolist() == [0] and group.tolist() == [0]
