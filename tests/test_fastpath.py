"""Algorithm 1 and Lemma 4.1 — the fast path's correctness core.

The three Lemma 4.1 properties are property-tested over random streams:
1. any flow with true size > E is tracked;
2. tracked flows satisfy r + d <= v_true <= r + d + e;
3. every flow's error is O(V/k).
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.flow import FlowKey
from repro.dataplane.switch import SoftwareSwitch
from repro.durability.codec import _freeze_fastpath, _thaw_fastpath
from repro.fastpath.topk import (
    ENTRY_BYTES,
    FastPath,
    UpdateKind,
    compute_thresh,
)
from repro.sketches.deltoid import Deltoid
from tests.conftest import make_flow, make_trace

streams = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 5000)),
    min_size=1,
    max_size=400,
)


def _run(stream, memory_bytes=10 * ENTRY_BYTES):
    fastpath = FastPath(memory_bytes=memory_bytes)
    truth: dict[int, int] = {}
    for index, size in stream:
        fastpath.update(make_flow(index), size)
        truth[index] = truth.get(index, 0) + size
    return fastpath, truth


class TestComputeThresh:
    def test_paper_example_figure4c(self):
        """Inputs {9, 7, 2} + v=3 must yield e ~= 2 (Figure 4)."""
        assert compute_thresh([9, 7, 2, 3]) == pytest.approx(2.04, abs=0.05)

    def test_paper_example_figure4e(self):
        """Inputs {7, 5, 1} + v=5 must yield e ~= 1 (Figure 4)."""
        assert compute_thresh([7, 5, 1, 5]) == pytest.approx(1.03, abs=0.05)

    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=1e6),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=100)
    def test_threshold_at_least_minimum(self, values):
        """e >= a_{k+1}: the smallest flow can always be kicked out."""
        assert compute_thresh(values) >= min(min(values), 1.0) * 0.999

    def test_degenerate_equal_top_values(self):
        assert compute_thresh([5.0, 5.0, 2.0]) == 2.0

    def test_degenerate_small_values(self):
        assert compute_thresh([1.0, 0.5, 0.2]) == 1.0

    def test_single_value(self):
        assert compute_thresh([10.0]) >= 10.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            compute_thresh([])

    def test_larger_skew_larger_margin(self):
        """A dominant top flow (larger b) widens the eviction margin."""
        mild = compute_thresh([10, 9, 2, 2])
        steep = compute_thresh([10_000, 9, 2, 2])
        assert steep > mild


class TestLemma41:
    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_flows_above_E_are_tracked(self, stream):
        fastpath, truth = _run(stream)
        for index, size in truth.items():
            if size > fastpath.total_decremented:
                assert make_flow(index) in fastpath.slots

    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_bounds_contain_truth(self, stream):
        fastpath, truth = _run(stream)
        for flow, (lower, upper) in fastpath.bounds().items():
            true_size = truth[flow.src_ip - 1000]
            assert lower <= true_size + 1e-6
            assert true_size <= upper + 1e-6

    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_error_bounded_by_V_over_k(self, stream):
        fastpath, truth = _run(stream)
        # Appendix B: error <= theta-root(1-delta) * V/(k+1); use a
        # small slack factor over V/(k+1) for the root term.
        bound = 1.5 * fastpath.total_bytes / (fastpath.capacity + 1)
        estimates = fastpath.estimates()
        for flow, e, _r, _d in fastpath.rows():
            true_size = truth[flow.src_ip - 1000]
            assert abs(estimates[flow] - true_size) <= e / 2 + 1e-6
            assert e <= fastpath.total_decremented + 1e-6
        assert fastpath.total_decremented <= bound * (
            1 + len(stream) * 0  # documentation: E itself obeys the bound
        ) or fastpath.total_decremented <= bound

    @given(streams)
    @settings(max_examples=40, deadline=None)
    def test_V_accounts_all_bytes(self, stream):
        fastpath, truth = _run(stream)
        assert fastpath.total_bytes == sum(
            size for _i, size in stream
        )

    def test_capacity_never_exceeded(self):
        fastpath = FastPath(memory_bytes=5 * ENTRY_BYTES)
        for i in range(500):
            fastpath.update(make_flow(i % 50), 100 + i)
            assert len(fastpath.rows()) <= fastpath.capacity


class TestMechanics:
    def test_update_kinds(self):
        fastpath = FastPath(memory_bytes=2 * ENTRY_BYTES)
        assert fastpath.update(make_flow(1), 10) is UpdateKind.INSERT
        assert fastpath.update(make_flow(1), 10) is UpdateKind.HIT
        assert fastpath.update(make_flow(2), 10) is UpdateKind.INSERT
        assert fastpath.update(make_flow(3), 10) is UpdateKind.KICKOUT

    def test_kickout_evicts_small_flows(self):
        fastpath = FastPath(memory_bytes=3 * ENTRY_BYTES)
        fastpath.update(make_flow(1), 10_000)
        fastpath.update(make_flow(2), 10)
        fastpath.update(make_flow(3), 10)
        fastpath.update(make_flow(4), 5_000)  # triggers kick-out
        assert make_flow(1) in fastpath.slots
        assert fastpath.num_kickouts == 1
        assert fastpath.num_evicted >= 1

    def test_heavy_flow_survives_churn(self):
        fastpath = FastPath(memory_bytes=8 * ENTRY_BYTES)
        heavy = make_flow(0)
        fastpath.update(heavy, 1_000_000)
        for i in range(1, 2000):
            fastpath.update(make_flow(i), 64)
        assert heavy in fastpath.slots
        lower, upper = fastpath.bounds()[heavy]
        assert lower <= 1_000_000 <= upper

    def test_snapshot_is_isolated(self):
        fastpath = FastPath(memory_bytes=4 * ENTRY_BYTES)
        fastpath.update(make_flow(1), 100)
        snapshot = fastpath.snapshot()
        fastpath.update(make_flow(1), 900)
        assert snapshot.rows() == [(make_flow(1), 0.0, 100.0, 0.0)]
        assert snapshot.total_bytes == 100

    def test_reset(self):
        fastpath = FastPath()
        fastpath.update(make_flow(1), 100)
        fastpath.reset()
        assert not fastpath.rows()
        assert fastpath.total_bytes == 0
        assert fastpath.total_decremented == 0

    def test_memory_validation(self):
        with pytest.raises(ConfigError):
            FastPath(memory_bytes=10)
        with pytest.raises(ConfigError):
            FastPath(delta=1.5)

    def test_capacity_from_memory(self):
        assert FastPath(memory_bytes=8192).capacity == 8192 // ENTRY_BYTES

    def test_bounds_and_estimates_views(self):
        fastpath = FastPath()
        fastpath.update(make_flow(1), 500)
        bounds = fastpath.bounds()
        estimates = fastpath.estimates()
        low, high = bounds[make_flow(1)]
        assert low <= estimates[make_flow(1)] <= high

    def test_error_bound_property(self):
        fastpath = FastPath(memory_bytes=10 * ENTRY_BYTES)
        for i in range(100):
            fastpath.update(make_flow(i), 100)
        assert fastpath.error_bound() == pytest.approx(
            fastpath.total_bytes / (fastpath.capacity + 1)
        )


class _DictTopK:
    """Algorithm 1 over a dict of ``[e, r, d]`` lists — the pointer
    structure the columns replaced, kept as their oracle: a Python loop
    per kick-out, a full sort per threshold."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.table: dict = {}
        self.total_bytes = 0.0
        self.total_decremented = 0.0
        self.kinds: list[UpdateKind] = []
        self.num_evicted = 0
        self.num_rejected = 0

    def update(self, flow, value):
        self.total_bytes += value
        self.kinds.append(self._update(flow, value))

    def _update(self, flow, value):
        entry = self.table.get(flow)
        if entry is not None:
            entry[1] += value
            return UpdateKind.HIT
        if len(self.table) < self.capacity:
            self.table[flow] = [self.total_decremented, float(value), 0.0]
            return UpdateKind.INSERT
        threshold = compute_thresh(
            [entry[1] for entry in self.table.values()] + [float(value)]
        )
        for key, entry in list(self.table.items()):
            entry[1] -= threshold
            entry[2] += threshold
            if entry[1] <= 0:
                del self.table[key]
                self.num_evicted += 1
        if value > threshold and len(self.table) < self.capacity:
            self.table[flow] = [
                self.total_decremented,
                float(value) - threshold,
                threshold,
            ]
        else:
            self.num_rejected += 1
        self.total_decremented += threshold
        return UpdateKind.KICKOUT

    def rows(self):
        return [(flow, *entry) for flow, entry in self.table.items()]


def _hex_rows(rows):
    return [(flow, e.hex(), r.hex(), d.hex()) for flow, e, r, d in rows]


def _assert_equals_oracle(fastpath, oracle, kinds):
    """Rows with order as exact floats, ``V``, ``E``, the six counters
    and every update's kind."""
    assert kinds == oracle.kinds
    assert _hex_rows(fastpath.rows()) == _hex_rows(oracle.rows())
    assert fastpath.total_bytes == oracle.total_bytes
    assert fastpath.total_decremented == oracle.total_decremented
    counts = {kind: oracle.kinds.count(kind) for kind in UpdateKind}
    inserts = counts[UpdateKind.INSERT] + (
        counts[UpdateKind.KICKOUT] - oracle.num_rejected
    )
    assert (
        fastpath.num_updates,
        fastpath.num_hits,
        fastpath.num_inserts,
        fastpath.num_kickouts,
        fastpath.num_evicted,
        fastpath.num_rejected,
    ) == (
        len(oracle.kinds),
        counts[UpdateKind.HIT],
        inserts,
        counts[UpdateKind.KICKOUT],
        oracle.num_evicted,
        oracle.num_rejected,
    )
    _assert_index_consistent(fastpath)


def _assert_index_consistent(fastpath):
    """``slots`` is exactly the inverse of ``keys`` over the live
    slots, ``free`` is exactly the rest, every live residual is
    positive and ``rows()`` walks ``slots`` (insertion) order."""
    capacity = fastpath.capacity
    assert len(fastpath.keys) == capacity
    assert fastpath.slots == {
        flow: slot
        for slot, flow in enumerate(fastpath.keys)
        if flow is not None
    }
    assert sorted(fastpath.free) == sorted(
        set(range(capacity)) - set(fastpath.slots.values())
    )
    for column in (fastpath.e, fastpath.r, fastpath.d):
        assert column.shape == (capacity,)
        assert column.base is None  # separately owned, never views
    assert all(fastpath.r[slot] > 0 for slot in fastpath.slots.values())
    order = [flow for flow, _e, _r, _d in fastpath.rows()]
    assert order == list(fastpath.slots)


def _churn(seed, capacity, length):
    """A skewed stream over a pool several tables wide: a few flows
    that stay, many that come back after they were evicted."""
    rng = random.Random(seed)
    pool = 4 * capacity + 8
    return [
        (
            int(pool * rng.random() ** 3),
            rng.choice((40, 64, 576, 1500)) + rng.randrange(64),
        )
        for _ in range(length)
    ]


churn = st.tuples(st.integers(0, 2**32), st.integers(1, 64))


def _drive(capacity, stream, swaps=()):
    """Feed ``stream`` to a :class:`FastPath` and to the oracle;
    ``swaps`` is ``(position, rebuild)`` pairs, each replacing the fast
    path by ``rebuild(fastpath)`` before that position's update."""
    fastpath = FastPath(memory_bytes=capacity * ENTRY_BYTES)
    oracle = _DictTopK(capacity)
    kinds = []
    for at, (index, size) in enumerate(stream):
        for position, rebuild in swaps:
            if position == at:
                fastpath = rebuild(fastpath)
                _assert_index_consistent(fastpath)
        kinds.append(fastpath.update(make_flow(index), size))
        oracle.update(make_flow(index), size)
    return fastpath, oracle, kinds


class TestColumns:
    """The slot-indexed ``(key, e, r, d)`` layout and its key→slot
    index: stable slots, a free list, order read off ``slots``."""

    @given(streams, st.integers(1, 12))
    @settings(max_examples=120, deadline=None)
    def test_columns_equal_dict_of_entries(self, stream, capacity):
        """Ordered rows, ``V``, ``E``, the counters and every update's
        kind are bit-equal to the dict-of-entries formulation, and the
        index stays exact."""
        _assert_equals_oracle(*_drive(capacity, stream))

    @given(churn)
    @settings(max_examples=40, deadline=None)
    def test_long_churn_equals_dict_of_entries(self, case):
        """Capacities 1-64, hundreds of kick-outs per stream."""
        seed, capacity = case
        fastpath, oracle, kinds = _drive(
            capacity, _churn(seed, capacity, 3000)
        )
        assert fastpath.num_kickouts >= 200
        _assert_equals_oracle(fastpath, oracle, kinds)

    @given(churn, st.integers(0, 2999), st.integers(0, 2999))
    @settings(max_examples=40, deadline=None)
    def test_thawed_and_pickled_tables_carry_on(
        self, case, thaw_at, pickle_at
    ):
        """A checkpoint restore (other slots, same table) and a plain
        pickle (same slots, copied columns) mid-stream are both
        invisible to everything after them."""
        seed, capacity = case
        swaps = [
            (thaw_at, lambda fp: _thaw_fastpath(_freeze_fastpath(fp))),
            (pickle_at, lambda fp: pickle.loads(pickle.dumps(fp))),
        ]
        _assert_equals_oracle(
            *_drive(capacity, _churn(seed, capacity, 3000), swaps)
        )

    @given(churn)
    @settings(max_examples=20, deadline=None)
    def test_reset_then_reuse_equals_a_fresh_table(self, case):
        seed, capacity = case
        used = FastPath(memory_bytes=capacity * ENTRY_BYTES)
        for index, size in _churn(seed, capacity, 1000):
            used.update(make_flow(index), size)
        used.reset()
        assert used.rows() == []
        _assert_index_consistent(used)
        fresh = FastPath(memory_bytes=capacity * ENTRY_BYTES)
        for index, size in _churn(seed + 1, capacity, 1000):
            used.update(make_flow(index), size)
            fresh.update(make_flow(index), size)
        assert _hex_rows(used.rows()) == _hex_rows(fresh.rows())
        assert used.total_bytes == fresh.total_bytes
        assert used.total_decremented == fresh.total_decremented
        _assert_index_consistent(used)

    @given(churn, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_bound_table_probes_by_ordinal(self, case, rng):
        """Between ``bind`` and ``unbind`` the engine probes and misses
        with ordinals into a trace's table.  Half the stream goes
        through ``update`` with flows, then the table is bound to a
        shuffled pool that lacks some tracked flows (they get ordinals
        past its end), and the rest goes in by ordinal: rows, ``V``,
        ``E``, the counters and the kinds stay the flow-fed oracle's,
        every read while bound names flows, and ``unbind`` leaves the
        index on flows again."""
        seed, capacity = case
        stream = _churn(seed, capacity, 2000)
        fastpath = FastPath(memory_bytes=capacity * ENTRY_BYTES)
        oracle = _DictTopK(capacity)
        kinds = []
        for index, size in stream[:1000]:
            kinds.append(fastpath.update(make_flow(index), size))
            oracle.update(make_flow(index), size)
        tracked = list(fastpath.slots)
        absent = set(rng.sample(tracked, len(tracked) // 2))
        table = [
            make_flow(index)
            for index in range(4 * capacity + 8)
            if make_flow(index) not in absent
        ]
        rng.shuffle(table)
        ordinal = {flow: at for at, flow in enumerate(table)}

        probe, residuals = fastpath.bind(tuple(table)), fastpath.r
        rest = [
            (make_flow(index), size)
            for index, size in stream[1000:]
            if make_flow(index) not in absent
        ]
        hits = 0
        for flow, size in rest:
            slot = probe(ordinal[flow])
            if slot is not None:
                residuals[slot] += size
                hits += 1
                kinds.append(UpdateKind.HIT)
            else:
                kinds.append(fastpath.miss(ordinal[flow], size))
            oracle.update(flow, size)
        fastpath.account(len(rest), hits, sum(size for _f, size in rest))
        assert _hex_rows(fastpath.rows()) == _hex_rows(oracle.rows())
        assert list(fastpath.slots) == [flow for flow, *_ in oracle.rows()]
        assert all(
            key is None or type(key) is FlowKey for key in fastpath.keys
        )
        fastpath.unbind()
        assert fastpath.slots is fastpath.slots  # the live index again
        _assert_equals_oracle(fastpath, oracle, kinds)

    def test_held_probe_and_residuals_see_every_hit(self):
        """``HostEngine.run`` holds the probe ``FastPath.bind`` returns
        and ``r`` for a whole run and calls ``miss`` thousands of times
        in between: neither object may ever be rebound."""
        capacity = 16
        fastpath = FastPath(memory_bytes=capacity * ENTRY_BYTES)
        oracle = _DictTopK(capacity)
        probe, residuals, miss = fastpath.slots.get, fastpath.r, fastpath.miss
        stream = _churn(11, capacity, 6000)
        hits = 0
        for index, size in stream:
            flow = make_flow(index)
            slot = probe(flow)
            if slot is not None:
                residuals[slot] += size
                hits += 1
            else:
                miss(flow, size)
            oracle.update(flow, size)
        fastpath.account(
            len(stream), hits, sum(size for _index, size in stream)
        )
        assert len(stream) - hits > 2000 and fastpath.num_kickouts > 1000
        assert probe.__self__ is fastpath.slots
        assert residuals is fastpath.r
        _assert_equals_oracle(fastpath, oracle, oracle.kinds)

    def test_kickout_touches_slots_once_per_evicted_flow(self, monkeypatch):
        """A pass that evicts ``m`` flows hashes ``m`` keys (one ``del``
        each) plus the admitted flow's — never a survivor's."""
        capacity = 32
        fastpath = FastPath(memory_bytes=capacity * ENTRY_BYTES)
        stream = _churn(5, capacity, 2000)
        flows = {index: make_flow(index) for index, _size in stream}
        hashed = []
        monkeypatch.setattr(
            FlowKey,
            "__hash__",
            lambda flow: hashed.append(flow) or flow._hash,
        )
        passes = 0
        for index, size in stream:
            flow = flows[index]
            if flow in fastpath.slots or fastpath.free:
                fastpath.update(flow, size)
                continue
            before = dict(fastpath.slots)
            evicted, inserts = fastpath.num_evicted, fastpath.num_inserts
            del hashed[:]
            assert fastpath.miss(flow, size) is UpdateKind.KICKOUT
            touched = len(hashed)
            evicted = fastpath.num_evicted - evicted
            admitted = fastpath.num_inserts - inserts
            assert touched == evicted + admitted
            # Survivors sit where they sat.
            for survivor, slot in fastpath.slots.items():
                if survivor != flow:
                    assert before[survivor] == slot
            passes += evicted > 1
        assert passes > 20  # passes that evicted several flows at once

    def test_eviction_at_first_middle_and_last_slot(self):
        """One pass evicts slots 0, 2 and 4 of a full 5-slot table:
        survivors stay in slots 1 and 3, the admitted flow takes a
        freed slot and the rows still read in insertion order."""
        fastpath = FastPath(memory_bytes=5 * ENTRY_BYTES)
        sizes = [10, 10_000, 10, 9_000, 10]
        for index, size in enumerate(sizes):
            fastpath.update(make_flow(index), size)
        assert fastpath.keys == [make_flow(i) for i in range(5)]
        assert fastpath.free == []

        kind = fastpath.update(make_flow(5), 5_000)
        assert kind is UpdateKind.KICKOUT
        assert fastpath.num_evicted == 3
        threshold = fastpath.total_decremented
        assert 10 < threshold < 11
        assert fastpath.slots[make_flow(1)] == 1
        assert fastpath.slots[make_flow(3)] == 3
        admitted = fastpath.slots[make_flow(5)]
        assert admitted in (0, 2, 4)
        assert sorted(fastpath.free + [admitted]) == [0, 2, 4]
        assert [fastpath.keys[slot] for slot in fastpath.free] == [None, None]
        assert fastpath.rows() == [
            (make_flow(1), 0.0, 10_000 - threshold, threshold),
            (make_flow(3), 0.0, 9_000 - threshold, threshold),
            (make_flow(5), 0.0, 5_000 - threshold, threshold),
        ]
        _assert_index_consistent(fastpath)
        # Hits after the pass land on the rows that never moved.
        fastpath.update(make_flow(3), 7)
        residuals = {flow: r for flow, _e, r, _d in fastpath.rows()}
        assert residuals[make_flow(3)] == 9_000 - threshold + 7
        assert residuals[make_flow(1)] == 10_000 - threshold
        for flow in (make_flow(0), make_flow(2), make_flow(4)):
            assert flow not in fastpath.slots
        # The next two misses are plain inserts into the freed slots,
        # and they read last.
        assert fastpath.update(make_flow(6), 70) is UpdateKind.INSERT
        assert fastpath.update(make_flow(7), 80) is UpdateKind.INSERT
        assert fastpath.free == []
        assert [flow for flow, *_ in fastpath.rows()] == [
            make_flow(i) for i in (1, 3, 5, 6, 7)
        ]
        _assert_index_consistent(fastpath)

    def test_key64_colliding_flows_get_their_own_rows(self):
        """``key64`` folds 104 bits into 64, so it is not an identity:
        two headers with one fold, sent down the fast path by the
        engine, must occupy two slots with separate ``(e, r, d)``."""
        first = FlowKey(1, 9, 3000, 0)
        second = FlowKey(0, 9, 3000, 1)
        assert first.key64 == second.key64 and first != second
        sizes = {first: [100, 40, 7, 900], second: [70, 900, 33]}
        trace = make_trace(list(sizes.items()))
        fastpath = FastPath()
        # Deltoid costs the consumer ~10K cycles a packet, so the
        # one-slot FIFO takes the first packet and the rest overflow.
        switch = SoftwareSwitch(
            Deltoid(width=64, depth=2, seed=1),
            fastpath=fastpath,
            buffer_packets=1,
        )
        report = switch.process(trace)
        assert report.fastpath_packets == len(trace) - 1
        assert report.fastpath_flow_count == 2
        assert report.flow_count == 2
        assert fastpath.slots == {second: 0, first: 1}
        assert fastpath.keys[:2] == [second, first]
        assert len(fastpath.free) == fastpath.capacity - 2
        assert fastpath.rows() == [
            (second, 0.0, float(sum(sizes[second])), 0.0),
            (first, 0.0, float(sum(sizes[first][1:])), 0.0),
        ]
        assert fastpath.num_hits == len(trace) - 3
        _assert_index_consistent(fastpath)

    def test_snapshot_columns_are_copies(self):
        fastpath = FastPath()
        fastpath.update(make_flow(1), 100)
        snapshot = fastpath.snapshot()
        snapshot.r[:] = 0.0
        assert fastpath.rows() == [(make_flow(1), 0.0, 100.0, 0.0)]

    def test_load_rows_round_trips_and_checks_capacity(self):
        fastpath, _ = _run([(i % 30, 50 + 13 * i) for i in range(300)])
        clone = FastPath(memory_bytes=fastpath.memory_bytes)
        clone.load_rows(fastpath.rows())
        assert clone.rows() == fastpath.rows()
        _assert_index_consistent(clone)
        with pytest.raises(ConfigError):
            FastPath(memory_bytes=ENTRY_BYTES).load_rows(fastpath.rows())
