"""Space-Saving top-k (the non-paper ablation alternative)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.fastpath.space_saving import SpaceSavingTopK
from repro.fastpath.topk import ENTRY_BYTES, UpdateKind
from tests.conftest import make_flow
from tests.reference_topk import SpaceSavingTopK as DictSpaceSaving
from tests.test_misra_gries import kickout_streams

streams = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 5000)),
    min_size=1,
    max_size=300,
)


class TestSpaceSaving:
    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_never_underestimates(self, stream):
        """Space-Saving's signature: count >= true size for tracked."""
        tracker = SpaceSavingTopK(memory_bytes=10 * ENTRY_BYTES)
        truth: dict[int, int] = {}
        for index, size in stream:
            tracker.update(make_flow(index), size)
            truth[index] = truth.get(index, 0) + size
        for flow, count in tracker.estimates().items():
            assert count >= truth[flow.src_ip - 1000] - 1e-6

    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_bounds_contain_truth(self, stream):
        tracker = SpaceSavingTopK(memory_bytes=10 * ENTRY_BYTES)
        truth: dict[int, int] = {}
        for index, size in stream:
            tracker.update(make_flow(index), size)
            truth[index] = truth.get(index, 0) + size
        for flow, (low, high) in tracker.bounds().items():
            true_size = truth[flow.src_ip - 1000]
            assert low - 1e-6 <= true_size <= high + 1e-6

    def test_table_always_full_after_warmup(self):
        """Space-Saving never leaves slots empty: misses replace."""
        tracker = SpaceSavingTopK(memory_bytes=5 * ENTRY_BYTES)
        for i in range(100):
            tracker.update(make_flow(i), 100)
        assert len(tracker.slots) == tracker.capacity

    def test_heavy_flow_survives(self):
        tracker = SpaceSavingTopK(memory_bytes=8 * ENTRY_BYTES)
        heavy = make_flow(0)
        tracker.update(heavy, 1_000_000)
        for i in range(1, 1000):
            tracker.update(make_flow(i), 64)
        assert heavy in tracker.slots

    def test_error_bound_classic(self):
        tracker = SpaceSavingTopK(memory_bytes=10 * ENTRY_BYTES)
        for i in range(100):
            tracker.update(make_flow(i), 100)
        assert tracker.error_bound() == pytest.approx(
            tracker.total_bytes / tracker.capacity
        )

    def test_every_miss_is_a_takeover(self):
        tracker = SpaceSavingTopK(memory_bytes=3 * ENTRY_BYTES)
        for i in range(3):
            tracker.update(make_flow(i), 100)
        for i in range(3, 13):
            assert (
                tracker.update(make_flow(i), 10) is UpdateKind.KICKOUT
            )
        assert tracker.num_kickouts == 10
        assert tracker.num_evicted == 10

    def test_memory_validation(self):
        with pytest.raises(ConfigError):
            SpaceSavingTopK(memory_bytes=1)

    def test_reset(self):
        tracker = SpaceSavingTopK()
        tracker.update(make_flow(1), 100)
        tracker.reset()
        assert not tracker.slots and tracker.total_bytes == 0

    @given(st.integers(1, 6), kickout_streams)
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_the_dict_of_entries(self, capacity, stream):
        """The column tracker is the dict-of-entries one
        (``tests/reference_topk.py``) update by update: the same kind
        per update, the same rows in the same order (``r`` the count,
        ``e`` the inherited error), the same bounds and the same
        counters, bit for bit."""
        tracker = SpaceSavingTopK(memory_bytes=capacity * ENTRY_BYTES)
        oracle = DictSpaceSaving(memory_bytes=capacity * ENTRY_BYTES)
        for index, size in stream:
            flow = make_flow(index)
            assert tracker.update(flow, size) is oracle.update(flow, size)
        assert tracker.rows() == [
            (flow, entry.error, entry.count, 0.0)
            for flow, entry in oracle.table.items()
        ]
        assert list(tracker.bounds().items()) == list(
            oracle.bounds().items()
        )
        for name in (
            "total_bytes",
            "num_updates",
            "num_hits",
            "num_inserts",
            "num_kickouts",
            "num_evicted",
        ):
            assert getattr(tracker, name) == getattr(oracle, name), name
