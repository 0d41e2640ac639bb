"""Exact ground truth computation for every §2.1 statistic."""

from __future__ import annotations

import math

import pytest

from repro.common.flow import FlowKey, Packet
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace
from tests.conftest import make_flow, make_trace


@pytest.fixture()
def tiny_truth():
    a = make_flow(1)
    b = make_flow(2)
    c = make_flow(3)
    trace = make_trace([(a, [100, 200]), (b, [50]), (c, [1000, 1000])])
    return a, b, c, GroundTruth.from_trace(trace)


def _per_packet_truth(trace: Trace) -> GroundTruth:
    """``from_trace`` as one pass over the packets, everything updated
    where the packet is seen."""
    truth = GroundTruth()
    for packet in trace:
        flow = packet.flow
        truth.flow_bytes[flow] = truth.flow_bytes.get(flow, 0) + packet.size
        truth.flow_packets[flow] = truth.flow_packets.get(flow, 0) + 1
        truth.fanin.setdefault(flow.dst_ip, set()).add(flow.src_ip)
        truth.fanout.setdefault(flow.src_ip, set()).add(flow.dst_ip)
    return truth


class TestColumnarSums:
    def test_same_values_types_and_orders(self, small_trace):
        """Dict *and set* iteration orders are load-bearing downstream
        (answers are compared with their key order)."""
        # Two flows that fold to one key64 stay two flows.
        twins = [FlowKey(1, 7, 9, 0), FlowKey(0, 7, 9, 1)]
        assert twins[0].key64 == twins[1].key64
        packets = list(small_trace.packets[:3000])
        stamp = packets[-1].timestamp
        packets += [Packet(flow, 77, stamp) for flow in twins * 2]
        trace = Trace(packets)
        truth, expected = (
            GroundTruth.from_trace(trace),
            _per_packet_truth(trace),
        )
        for name in ("flow_bytes", "flow_packets", "fanin", "fanout"):
            ours, theirs = getattr(truth, name), getattr(expected, name)
            assert list(ours.items()) == list(theirs.items()), name
        for name in ("fanin", "fanout"):
            for key, members in getattr(truth, name).items():
                assert list(members) == list(getattr(expected, name)[key])
        assert {type(v) for v in truth.flow_bytes.values()} == {int}
        assert {type(v) for v in truth.flow_packets.values()} == {int}
        assert truth.flow_bytes[twins[0]] == truth.flow_bytes[twins[1]] == 154

    def test_empty_trace(self):
        truth = GroundTruth.from_trace(Trace([]))
        assert truth == GroundTruth()
        assert truth.total_bytes == 0 and truth.entropy == 0.0


class TestBasics:
    def test_flow_bytes(self, tiny_truth):
        a, b, c, truth = tiny_truth
        assert truth.flow_bytes == {a: 300, b: 50, c: 2000}

    def test_flow_packets(self, tiny_truth):
        a, b, c, truth = tiny_truth
        assert truth.flow_packets == {a: 2, b: 1, c: 2}

    def test_cardinality_and_total(self, tiny_truth):
        *_flows, truth = tiny_truth
        assert truth.cardinality == 3
        assert truth.total_bytes == 2350

    def test_heavy_hitters(self, tiny_truth):
        a, b, c, truth = tiny_truth
        assert truth.heavy_hitters(299) == {a: 300, c: 2000}
        assert truth.heavy_hitters(2000) == {}

    def test_entropy_matches_manual(self, tiny_truth):
        *_flows, truth = tiny_truth
        total = 2350
        expected = -sum(
            (v / total) * math.log2(v / total) for v in (300, 50, 2000)
        )
        assert truth.entropy == pytest.approx(expected)

    def test_entropy_empty(self):
        assert GroundTruth.from_trace(Trace([])).entropy == 0.0


class TestHeavyChangers:
    def test_detects_change(self):
        a, b = make_flow(1), make_flow(2)
        epoch1 = make_trace([(a, [1000]), (b, [100])])
        epoch2 = make_trace([(a, [100]), (b, [100])])
        t1 = GroundTruth.from_trace(epoch1)
        t2 = GroundTruth.from_trace(epoch2)
        changes = t1.heavy_changers(t2, 500)
        assert changes == {a: 900}

    def test_symmetric(self):
        a = make_flow(1)
        t1 = GroundTruth.from_trace(make_trace([(a, [1000])]))
        t2 = GroundTruth.from_trace(make_trace([(a, [100])]))
        assert t1.heavy_changers(t2, 500) == t2.heavy_changers(t1, 500)

    def test_appearing_flow_is_a_change(self):
        a, b = make_flow(1), make_flow(2)
        t1 = GroundTruth.from_trace(make_trace([(a, [100])]))
        t2 = GroundTruth.from_trace(make_trace([(a, [100]), (b, [999])]))
        assert t1.heavy_changers(t2, 500) == {b: 999}


class TestConnectivity:
    def test_fanin_fanout(self):
        packets = [
            Packet(FlowKey(src, 500, 1000 + src, 80), 64, i * 0.01)
            for i, src in enumerate(range(1, 11))
        ]
        truth = GroundTruth.from_trace(Trace(packets))
        assert truth.ddos_victims(9) == {500: 10}
        assert truth.ddos_victims(10) == {}
        assert truth.superspreaders(0) == {
            src: 1 for src in range(1, 11)
        }

    def test_repeat_flows_do_not_inflate_fanin(self):
        flow = FlowKey(1, 500, 1000, 80)
        packets = [Packet(flow, 64, i * 0.01) for i in range(20)]
        truth = GroundTruth.from_trace(Trace(packets))
        assert truth.fanin[500] == {1}


class TestDistribution:
    def test_flow_size_distribution(self, tiny_truth):
        *_flows, truth = tiny_truth
        assert truth.flow_size_distribution() == {2: 2, 1: 1}

    def test_bucketized_distribution(self, tiny_truth):
        *_flows, truth = tiny_truth
        histogram = truth.flow_size_distribution(bucket_edges=[1, 2])
        assert histogram == {0: 1, 1: 2}


class TestMerge:
    def test_merge_is_network_wide_truth(self, medium_trace):
        shards = medium_trace.partition(3)
        merged = GroundTruth.from_trace(shards[0])
        for shard in shards[1:]:
            merged = merged.merge(GroundTruth.from_trace(shard))
        whole = GroundTruth.from_trace(medium_trace)
        assert merged.flow_bytes == whole.flow_bytes
        assert merged.cardinality == whole.cardinality
        assert merged.fanin == whole.fanin
        assert merged.fanout == whole.fanout
