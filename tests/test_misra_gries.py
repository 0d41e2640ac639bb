"""Misra-Gries baseline: per-flow O(k) kick-outs, loose shared bounds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import ENTRY_BYTES, FastPath, UpdateKind
from tests.conftest import make_flow
from tests.reference_topk import MisraGriesTopK as DictMisraGries

streams = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 5000)),
    min_size=1,
    max_size=300,
)

#: Many flows into a tiny table, sizes that often tie: nearly every
#: miss is a kick-out, and ties at the minimum leave in insertion order.
kickout_streams = st.lists(
    st.tuples(
        st.integers(0, 24),
        st.one_of(st.sampled_from([1, 40, 64, 1500]), st.integers(1, 1500)),
    ),
    max_size=400,
)


class TestMisraGries:
    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_residual_never_overestimates(self, stream):
        tracker = MisraGriesTopK(memory_bytes=10 * ENTRY_BYTES)
        truth: dict[int, int] = {}
        for index, size in stream:
            tracker.update(make_flow(index), size)
            truth[index] = truth.get(index, 0) + size
        for flow, r in tracker.estimates().items():
            assert r <= truth[flow.src_ip - 1000] + 1e-6

    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_shared_upper_bound_contains_truth(self, stream):
        tracker = MisraGriesTopK(memory_bytes=10 * ENTRY_BYTES)
        truth: dict[int, int] = {}
        for index, size in stream:
            tracker.update(make_flow(index), size)
            truth[index] = truth.get(index, 0) + size
        for flow, (low, high) in tracker.bounds().items():
            true_size = truth[flow.src_ip - 1000]
            assert low <= true_size + 1e-6 <= high + 1e-6

    def test_evicts_at_most_one_flow_per_pass(self):
        tracker = MisraGriesTopK(memory_bytes=5 * ENTRY_BYTES)
        for i in range(5):
            tracker.update(make_flow(i), 100)
        tracker.update(make_flow(99), 500)
        assert tracker.num_kickouts == 1
        assert tracker.num_evicted <= 1

    def test_heavy_flow_survives(self):
        tracker = MisraGriesTopK(memory_bytes=8 * ENTRY_BYTES)
        heavy = make_flow(0)
        tracker.update(heavy, 1_000_000)
        for i in range(1, 1000):
            tracker.update(make_flow(i), 64)
        assert heavy in tracker.slots

    def test_more_kickouts_than_sketchvisor_fastpath(self, medium_trace):
        """Figure 16(a): MG performs more O(k) passes than Algorithm 1."""
        mg = MisraGriesTopK(memory_bytes=8192)
        sv = FastPath(memory_bytes=8192)
        for packet in medium_trace:
            mg.update(packet.flow, packet.size)
            sv.update(packet.flow, packet.size)
        assert mg.num_kickouts > sv.num_kickouts

    def test_looser_bounds_than_sketchvisor(self, medium_trace):
        """Figure 16(b): MG's per-flow upper slack is far larger."""
        mg = MisraGriesTopK(memory_bytes=8192)
        sv = FastPath(memory_bytes=8192)
        for packet in medium_trace:
            mg.update(packet.flow, packet.size)
            sv.update(packet.flow, packet.size)
        truth = medium_trace.flow_sizes()
        mg_widths = [
            high - low for low, high in mg.bounds().values()
        ]
        estimates, bounds = sv.estimates(), sv.bounds()
        sv_top = sorted(
            bounds.items(),
            key=lambda item: estimates[item[0]],
            reverse=True,
        )[:50]
        sv_widths = [high - low for _flow, (low, high) in sv_top]
        assert (sum(mg_widths) / len(mg_widths)) > 5 * (
            sum(sv_widths) / len(sv_widths)
        )
        # And the SV bounds actually contain the truth for top flows.
        for flow, (low, high) in sv_top:
            assert low - 1e-6 <= truth[flow] <= high + 1e-6

    def test_update_kinds(self):
        tracker = MisraGriesTopK(memory_bytes=2 * ENTRY_BYTES)
        assert tracker.update(make_flow(1), 10) is UpdateKind.INSERT
        assert tracker.update(make_flow(1), 10) is UpdateKind.HIT
        tracker.update(make_flow(2), 10)
        assert tracker.update(make_flow(3), 10) is UpdateKind.KICKOUT

    def test_memory_validation(self):
        with pytest.raises(ConfigError):
            MisraGriesTopK(memory_bytes=1)

    def test_reset(self):
        tracker = MisraGriesTopK()
        tracker.update(make_flow(1), 100)
        tracker.reset()
        assert not tracker.slots and tracker.total_bytes == 0

    @given(st.integers(1, 6), kickout_streams)
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_the_dict_of_entries(self, capacity, stream):
        """The column tracker is the dict-of-entries one
        (``tests/reference_topk.py``) update by update: the same kind
        per update, the same rows in the same order, the same bounds
        and the same counters, bit for bit."""
        tracker = MisraGriesTopK(memory_bytes=capacity * ENTRY_BYTES)
        oracle = DictMisraGries(memory_bytes=capacity * ENTRY_BYTES)
        for index, size in stream:
            flow = make_flow(index)
            assert tracker.update(flow, size) is oracle.update(flow, size)
        assert tracker.rows() == [
            (flow, 0.0, entry.r, 0.0) for flow, entry in oracle.table.items()
        ]
        assert list(tracker.bounds().items()) == list(
            oracle.bounds().items()
        )
        for name in (
            "total_bytes",
            "total_decremented",
            "num_updates",
            "num_hits",
            "num_inserts",
            "num_kickouts",
            "num_evicted",
        ):
            assert getattr(tracker, name) == getattr(oracle, name), name
