"""Software switch simulation: FIFO, modes, throughput dynamics."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.dataplane.buffer import BoundedFIFO
from repro.dataplane.cost_model import CostModel
from repro.dataplane.switch import SoftwareSwitch
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import FastPath
from repro.sketches.deltoid import Deltoid
from repro.sketches.mrac import MRAC
from tests.conftest import make_flow


class TestBoundedFIFO:
    """The queue holds enqueue cycles only (the consumer needs nothing
    else of a queued packet)."""

    def test_push_pop_fifo_order(self):
        fifo = BoundedFIFO(4)
        for i in range(3):
            fifo.push(float(i))
        assert fifo.pop() == 0.0
        assert fifo.pop() == 1.0
        assert len(fifo) == 1 and fifo.high_water == 3

    def test_full_and_overflow(self):
        fifo = BoundedFIFO(2)
        fifo.push(0.0)
        fifo.push(0.0)
        assert fifo.full
        with pytest.raises(OverflowError):
            fifo.push(0.0)

    def test_peek(self):
        fifo = BoundedFIFO(2)
        fifo.push(7.5)
        assert fifo.peek_enqueue_cycle() == 7.5
        assert len(fifo) == 1

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            BoundedFIFO(0)


def _deltoid():
    return Deltoid(width=256, depth=4)


class TestSwitchModes:
    def test_all_packets_accounted(self, small_trace):
        switch = SoftwareSwitch(_deltoid(), fastpath=FastPath(8192))
        report = switch.process(small_trace)
        assert report.total_packets == len(small_trace)
        assert (
            report.normal_packets + report.fastpath_packets
            == report.total_packets
        )
        assert report.total_bytes == small_trace.total_bytes

    def test_sketch_sees_normal_path_packets_only(self, small_trace):
        sketch = _deltoid()
        switch = SoftwareSwitch(sketch, fastpath=FastPath(8192))
        report = switch.process(small_trace)
        assert sketch.totals[0].sum() == pytest.approx(
            report.normal_bytes
        )

    def test_ideal_mode_sees_everything(self, small_trace):
        sketch = _deltoid()
        switch = SoftwareSwitch(sketch, ideal=True)
        report = switch.process(small_trace)
        assert report.fastpath_packets == 0
        assert sketch.totals[0].sum() == small_trace.total_bytes

    def test_ideal_rejects_fastpath(self):
        with pytest.raises(ConfigError):
            SoftwareSwitch(_deltoid(), fastpath=FastPath(), ideal=True)

    def test_nofastpath_never_drops(self, small_trace):
        sketch = _deltoid()
        switch = SoftwareSwitch(sketch, fastpath=None, buffer_packets=16)
        report = switch.process(small_trace)
        assert report.fastpath_packets == 0
        assert sketch.totals[0].sum() == small_trace.total_bytes

    def test_throughput_ordering(self, medium_trace):
        """SketchVisor > MGFastPath > NoFastPath for heavy sketches."""
        no_fp = SoftwareSwitch(_deltoid(), fastpath=None).process(
            medium_trace
        )
        sv = SoftwareSwitch(
            _deltoid(), fastpath=FastPath(8192)
        ).process(medium_trace)
        mg = SoftwareSwitch(
            _deltoid(), fastpath=MisraGriesTopK(8192)
        ).process(medium_trace)
        assert sv.throughput_gbps > mg.throughput_gbps
        assert mg.throughput_gbps > no_fp.throughput_gbps

    def test_cheap_sketch_rarely_overflows(self, medium_trace):
        """MRAC keeps up: negligible fast-path traffic (Figure 13)."""
        report = SoftwareSwitch(
            MRAC(width=2000), fastpath=FastPath(8192)
        ).process(medium_trace)
        assert report.fastpath_byte_fraction < 0.5

    def test_heavy_sketch_overflows_heavily(self, medium_trace):
        report = SoftwareSwitch(
            _deltoid(), fastpath=FastPath(8192)
        ).process(medium_trace)
        assert report.fastpath_byte_fraction > 0.5

    def test_low_offered_load_stays_on_normal_path(self, medium_trace):
        """At 0.5 Gbps even Deltoid keeps up: no fast-path traffic."""
        report = SoftwareSwitch(
            _deltoid(), fastpath=FastPath(8192)
        ).process(medium_trace, offered_gbps=0.5)
        assert report.fastpath_packet_fraction < 0.05

    def test_offered_rate_validation(self, small_trace):
        switch = SoftwareSwitch(_deltoid(), fastpath=FastPath(8192))
        with pytest.raises(ConfigError):
            switch.process(small_trace, offered_gbps=-1)

    def test_report_fractions(self, medium_trace):
        report = SoftwareSwitch(
            _deltoid(), fastpath=FastPath(8192)
        ).process(medium_trace)
        assert 0 <= report.fastpath_packet_fraction <= 1
        assert 0 <= report.fastpath_byte_fraction <= 1
        assert 0 <= report.fastpath_flow_fraction <= 1

    def test_empty_trace(self):
        from repro.traffic.trace import Trace

        report = SoftwareSwitch(
            _deltoid(), fastpath=FastPath(8192)
        ).process(Trace([]))
        assert report.total_packets == 0
        assert report.throughput_gbps == float("inf")

    def test_bigger_buffer_more_normal_path(self, medium_trace):
        small_buffer = SoftwareSwitch(
            _deltoid(), fastpath=FastPath(8192), buffer_packets=64
        ).process(medium_trace, offered_gbps=3.0)
        big_buffer = SoftwareSwitch(
            _deltoid(), fastpath=FastPath(8192), buffer_packets=4096
        ).process(medium_trace, offered_gbps=3.0)
        assert (
            big_buffer.normal_packets >= small_buffer.normal_packets
        )

    def test_testbed_profile_slower(self, medium_trace):
        in_memory = SoftwareSwitch(
            MRAC(width=2000),
            fastpath=FastPath(8192),
            cost_model=CostModel.in_memory(),
        ).process(medium_trace)
        testbed = SoftwareSwitch(
            MRAC(width=2000),
            fastpath=FastPath(8192),
            cost_model=CostModel.testbed(),
        ).process(medium_trace)
        assert testbed.throughput_gbps < in_memory.throughput_gbps
