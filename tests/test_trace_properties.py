"""Property tests: a column-built trace behaves as its packet list.

Every operation on :class:`Trace` — the two constructors, the packet
view and its slices, partitioning, epoch splitting, concatenation,
merging and joining — is checked against the same operation
done packet by packet on a plain list.  The flow pool includes two
headers that share a ``key64`` fold, which must stay two flows.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.flow import FlowKey, Packet
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import PacketView, Trace, number_flows
from tests.conftest import make_flow

#: Distinct headers with one 64-bit fold.
COLLIDING = (FlowKey(1, 9, 3000, 0), FlowKey(0, 9, 3000, 1))
POOL = COLLIDING + tuple(make_flow(index) for index in range(6))


def _build(rows, start: float = 0.0) -> list[Packet]:
    packets, now = [], start
    for flow, size, gap in rows:
        now += gap
        packets.append(Packet(POOL[flow], size, now))
    return packets


packet_lists = st.lists(
    st.tuples(
        st.integers(0, len(POOL) - 1),
        st.integers(1, 1500),
        # Zero gaps give equal timestamps (merge ties, shared epochs).
        st.sampled_from([0.0, 0.0, 1e-3, 0.05, 0.4]),
    ),
    max_size=60,
).map(_build)


def _reference_counts(packets, weight):
    counts: Counter = Counter()
    for packet in packets:
        counts[packet.flow] += weight(packet)
    return list(counts.items())


def test_pool_holds_a_key64_collision():
    first, second = COLLIDING
    assert first.key64 == second.key64 and first != second


class TestConstructors:
    @given(packet_lists)
    @settings(max_examples=60, deadline=None)
    def test_packets_round_trip(self, packets):
        trace = Trace(packets)
        assert list(trace.packets) == packets
        assert trace.packets == packets
        assert list(trace) == packets
        assert len(trace) == len(packets)
        for index in (0, -1):
            if packets:
                assert trace[index] == packets[index]

    @given(packet_lists)
    @settings(max_examples=60, deadline=None)
    def test_column_and_view_constructors_agree(self, packets):
        trace = Trace(packets)
        flow, table = number_flows([packet.flow for packet in packets])
        built = Trace.from_columns(
            [packet.timestamp for packet in packets],
            [packet.size for packet in packets],
            flow,
            table,
        )
        trace.key64  # built on the source ...
        adopted = Trace(trace.packets)
        # ... and rebuilt, not inherited, by a trace adopting its view.
        assert adopted.table is trace.table
        assert adopted._key64 is None
        for other in (built, adopted, Trace(list(trace.packets))):
            assert other.packets == trace.packets
            assert np.array_equal(other.timestamps, trace.timestamps)
            assert np.array_equal(other.sizes, trace.sizes)
            assert np.array_equal(other.key64, trace.key64)

    @given(packet_lists)
    @settings(max_examples=40, deadline=None)
    def test_flow_statistics_match_a_packet_walk(self, packets):
        trace = Trace(packets)
        assert list(trace.flow_sizes().items()) == _reference_counts(
            packets, lambda packet: packet.size
        )
        assert list(trace.flow_packet_counts().items()) == (
            _reference_counts(packets, lambda packet: 1)
        )
        assert trace.flows() == {packet.flow for packet in packets}
        truth = GroundTruth.from_trace(trace)
        assert list(truth.flow_bytes.items()) == _reference_counts(
            packets, lambda packet: packet.size
        )
        assert trace.total_bytes == sum(packet.size for packet in packets)
        assert np.array_equal(
            trace.key64,
            np.array([packet.flow.key64 for packet in packets], np.uint64),
        )

    def test_colliding_headers_stay_two_flows(self):
        first, second = COLLIDING
        trace = Trace(
            [
                Packet(first, 100, 0.0),
                Packet(second, 70, 0.1),
                Packet(first, 40, 0.2),
            ]
        )
        assert trace.flow_sizes() == {first: 140, second: 70}
        assert len(set(trace.key64.tolist())) == 1
        assert len(trace.table) == 2


class TestViews:
    @given(
        packet_lists,
        st.slices(60),
    )
    @settings(max_examples=80, deadline=None)
    def test_view_slices_match_list_slices(self, packets, selection):
        view = Trace(packets).packets[selection]
        assert isinstance(view, PacketView)
        assert list(view) == packets[selection]
        assert view == packets[selection]
        assert len(view) == len(packets[selection])
        if selection.step is None or selection.step > 0:
            sub = Trace(view)
            assert sub.packets == packets[selection]
            assert Trace(packets)[selection].packets == packets[selection]

    @given(packet_lists)
    @settings(max_examples=40, deadline=None)
    def test_views_compare_by_packets(self, packets):
        trace = Trace(packets)
        # Another trace numbers its own table: compared by packets.
        assert trace.packets == Trace(list(packets)).packets
        assert trace.packets == tuple(packets)
        if packets:
            assert trace.packets != packets[:-1]


class TestOperations:
    @given(packet_lists, st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_partition_is_a_per_flow_filter(self, packets, hosts):
        trace = Trace(packets)
        shards = trace.partition(hosts)
        assert len(shards) == hosts
        owner: dict[FlowKey, int] = {}
        for host, shard in enumerate(shards):
            flows = shard.flows()
            for flow in flows:
                assert owner.setdefault(flow, host) == host
            assert shard.packets == [
                packet for packet in packets if packet.flow in flows
            ]
            assert np.array_equal(
                shard.key64,
                np.array([p.flow.key64 for p in shard], np.uint64),
            )
        assert set(owner) == {packet.flow for packet in packets}
        # Colliding headers share a fold, hence a host.
        present = [flow for flow in COLLIDING if flow in owner]
        assert len({owner[flow] for flow in present}) <= 1

    @given(packet_lists, st.sampled_from([0.01, 0.1, 0.37, 1.0, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_split_epochs_matches_a_packet_walk(self, packets, length):
        epochs = Trace(packets).split_epochs(length)
        expected: dict[int, list[Packet]] = {}
        for packet in packets:
            index = int((packet.timestamp - packets[0].timestamp) / length)
            expected.setdefault(index, []).append(packet)
        assert [epoch.packets for epoch in epochs] == [
            expected[index] for index in sorted(expected)
        ]

    @given(packet_lists, packet_lists)
    @settings(max_examples=60, deadline=None)
    def test_concat_shifts_the_second_trace(self, first, second):
        joined = Trace(first).concat(Trace(second))
        expected = first + second
        if first and second and second[0].timestamp < first[-1].timestamp:
            last = first[-1].timestamp
            shift = last - second[0].timestamp
            expected = first + [
                Packet(
                    packet.flow,
                    packet.size,
                    # a - b + b can round below a: the seam is clamped.
                    max(packet.timestamp + shift, last),
                )
                for packet in second
            ]
        assert joined.packets == expected

    def test_concat_seam_survives_rounding(self):
        last, first = 0.9500000000000001, 0.45
        assert first + (last - first) < last
        joined = Trace([Packet(POOL[0], 1, last)]).concat(
            Trace([Packet(POOL[1], 1, first), Packet(POOL[1], 1, 1.0)])
        )
        assert joined.timestamps.tolist() == [
            last, last, 1.0 + (last - first)
        ]

    @given(st.lists(packet_lists, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_merge_is_a_stable_timestamp_sort(self, lists):
        merged = Trace.merge([Trace(packets) for packets in lists])
        everything = [packet for packets in lists for packet in packets]
        assert merged.packets == sorted(
            everything, key=lambda packet: packet.timestamp
        )

    @given(packet_lists, packet_lists)
    @settings(max_examples=60, deadline=None)
    def test_join_renumbers_differing_tables(self, first, second):
        start = first[-1].timestamp if first else 0.0
        second = [
            Packet(packet.flow, packet.size, packet.timestamp + start)
            for packet in second
        ]
        joined = Trace.join([Trace(first), Trace(second)])
        assert joined.packets == first + second
        assert len(joined.table) == len(set(joined.table))

    def test_join_rejects_a_backward_seam(self):
        later = Trace([Packet(POOL[0], 10, 1.0)])
        earlier = Trace([Packet(POOL[1], 10, 0.5)])
        with pytest.raises(ValueError):
            Trace.join([later, earlier])


class TestFromColumnsValidation:
    def test_rejects_bad_columns(self):
        table = POOL[:2]
        with pytest.raises(ValueError, match="distinct"):
            Trace.from_columns([0.0], [1], [0], [POOL[0], POOL[0]])
        with pytest.raises(ValueError, match="outside"):
            Trace.from_columns([0.0], [1], [2], table)
        with pytest.raises(ValueError, match="positive"):
            Trace.from_columns([0.0], [0], [0], table)
        with pytest.raises(ValueError, match="equal lengths"):
            Trace.from_columns([0.0, 1.0], [1], [0], table)
        with pytest.raises(ValueError, match="non-decreasing"):
            Trace.from_columns([1.0, 0.0], [1, 1], [0, 1], table)

    def test_columns_are_read_only(self):
        trace = Trace.from_columns([0.0, 1.0], [5, 6], [1, 0], POOL[:2])
        for column in (trace.timestamps, trace.sizes, trace.flow, trace.key64):
            with pytest.raises(ValueError):
                column[0] = 0
