"""Anomaly injection produces detectable, known-answer events."""

from __future__ import annotations

import numpy as np
import pytest

import tests.reference_anomalies as reference
from repro.common.flow import Packet
from repro.traffic import anomalies
from repro.traffic.anomalies import (
    inject_ddos_victims,
    inject_heavy_changes,
    inject_superspreaders,
)
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace, number_flows


class TestDDoSInjection:
    def test_victims_exceed_fanin(self, small_trace):
        trace, victims = inject_ddos_victims(
            small_trace, num_victims=3, sources_per_victim=80
        )
        truth = GroundTruth.from_trace(trace)
        for victim in victims:
            assert len(truth.fanin[victim]) >= 80

    def test_victims_dominate_detection(self, small_trace):
        trace, victims = inject_ddos_victims(
            small_trace, num_victims=2, sources_per_victim=120
        )
        truth = GroundTruth.from_trace(trace)
        detected = truth.ddos_victims(100)
        assert set(victims) <= set(detected)

    def test_timestamps_remain_ordered(self, small_trace):
        trace, _ = inject_ddos_victims(small_trace, 2, 50)
        previous = -1.0
        for packet in trace:
            assert packet.timestamp >= previous
            previous = packet.timestamp

    def test_validates_arguments(self, small_trace):
        with pytest.raises(ValueError):
            inject_ddos_victims(small_trace, 0, 10)


class TestSuperspreaderInjection:
    def test_spreaders_exceed_fanout(self, small_trace):
        trace, spreaders = inject_superspreaders(
            small_trace, num_spreaders=3, destinations_per_spreader=90
        )
        truth = GroundTruth.from_trace(trace)
        for spreader in spreaders:
            assert len(truth.fanout[spreader]) >= 90

    def test_distinct_from_ddos_hosts(self, small_trace):
        _trace_a, victims = inject_ddos_victims(small_trace, 2, 10)
        _trace_b, spreaders = inject_superspreaders(small_trace, 2, 10)
        assert not set(victims) & set(spreaders)


class TestHeavyChangeInjection:
    def test_changers_appear_in_truth(self, small_trace):
        epoch_a, epoch_b, changers = inject_heavy_changes(
            small_trace, small_trace, num_changers=4, change_bytes=100_000
        )
        truth_a = GroundTruth.from_trace(epoch_a)
        truth_b = GroundTruth.from_trace(epoch_b)
        detected = truth_a.heavy_changers(truth_b, 50_000)
        assert set(changers) <= set(detected)

    def test_change_magnitude(self, small_trace):
        _a, epoch_b, changers = inject_heavy_changes(
            small_trace, small_trace, num_changers=1, change_bytes=90_000
        )
        truth_b = GroundTruth.from_trace(epoch_b)
        assert truth_b.flow_bytes[changers[0]] == pytest.approx(
            90_000, rel=0.05
        )

    def test_epoch_a_untouched(self, small_trace):
        epoch_a, _b, changers = inject_heavy_changes(
            small_trace, small_trace, 2, 10_000
        )
        truth_a = GroundTruth.from_trace(epoch_a)
        for changer in changers:
            assert changer not in truth_a.flow_bytes


def _columns(trace):
    return (
        trace.timestamps.dtype,
        trace.timestamps.tobytes(),
        trace.sizes.dtype,
        trace.sizes.tobytes(),
        trace.flow.dtype,
        trace.flow.tobytes(),
        trace.table,
    )


def _bases(trace):
    """A generated trace, a shard of it (a table with flows it does not
    use), one packet, and nothing."""
    return [trace, trace.partition(2)[1], trace[:1], Trace()]


class TestColumnsEqualPacketOracle:
    """Each injector returns, column for column and in table order, the
    trace the packet-object version (tests/reference_anomalies.py)
    built."""

    def test_ddos_victims(self, small_trace):
        for base in _bases(small_trace):
            trace, victims = inject_ddos_victims(base, 3, 40, 5, seed=3)
            expected, expected_victims = reference.inject_ddos_victims(
                base, 3, 40, 5, seed=3
            )
            assert _columns(trace) == _columns(expected)
            assert victims == expected_victims

    def test_superspreaders(self, small_trace):
        for base in _bases(small_trace):
            trace, spreaders = inject_superspreaders(base, 2, 30, 4)
            expected, expected_spreaders = reference.inject_superspreaders(
                base, 2, 30, 4
            )
            assert _columns(trace) == _columns(expected)
            assert spreaders == expected_spreaders

    @pytest.mark.parametrize("change_bytes", [1000, 1500, 3001, 100_000])
    def test_heavy_changes(self, small_trace, change_bytes):
        for base in _bases(small_trace):
            epoch_a, epoch_b, changers = inject_heavy_changes(
                small_trace, base, 4, change_bytes
            )
            _a, expected_b, expected = reference.inject_heavy_changes(
                small_trace, base, 4, change_bytes
            )
            assert epoch_a is small_trace
            assert _columns(epoch_b) == _columns(expected_b)
            assert changers == expected

    def test_injecting_twice_reuses_the_flows(self, small_trace):
        once, _ = inject_ddos_victims(small_trace, 2, 10)
        twice, _ = inject_ddos_victims(once, 2, 10)
        expected, _ = reference.inject_ddos_victims(
            reference.inject_ddos_victims(small_trace, 2, 10)[0], 2, 10
        )
        assert _columns(twice) == _columns(expected)
        assert len(twice.table) == len(once.table)

    def test_splice_ties_keep_the_base_first(self, small_trace):
        """Extra packets at a base packet's exact timestamp, some of a
        base flow, land after it — as a stable sort of the packet list
        put them."""
        base = small_trace[:200]
        rows = np.arange(0, 200, 7)
        flows = [base.table[base.flow[row]] for row in rows[::2]] + [
            base.table[base.flow[0]].reversed()
        ]
        extra = [
            Packet(flows[index % len(flows)], 64 + index, float(stamp))
            for index, stamp in enumerate(base.timestamps[rows])
        ]
        flow, table = number_flows([packet.flow for packet in extra])
        spliced = anomalies._splice(
            base,
            np.array([packet.timestamp for packet in extra]),
            np.array([packet.size for packet in extra]),
            flow,
            table,
        )
        assert _columns(spliced) == _columns(
            reference._splice(base, extra)
        )
