"""FlowKey / Packet invariants."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.flow import (
    FlowKey,
    Packet,
    destination_key,
    flow_pair_key,
    source_key,
)
from repro.durability.codec import StateCodec

flow_keys = st.builds(
    FlowKey,
    src_ip=st.integers(0, 2**32 - 1),
    dst_ip=st.integers(0, 2**32 - 1),
    src_port=st.integers(0, 2**16 - 1),
    dst_port=st.integers(0, 2**16 - 1),
    proto=st.integers(0, 255),
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
