"""Recovery internals: boundaries, count anchoring, synthetic flows."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.controlplane import lens, recovery
from repro.controlplane.lens import LensConfig, lens_interpolate
from repro.controlplane.recovery import (
    RecoveryMode,
    _copy_sketch,
    _inject_synthetic_small_flows,
    _missing_flow_count,
    _tracking_boundary,
    recover,
)
from repro.common.flow import (
    FlowKey,
    header_flows,
    header_words,
    key64_column,
)
from repro.durability.codec import StateCodec
from repro.fastpath.topk import FastPath
from repro.sketches.cardinality import LinearCounting
from repro.sketches.countmin import CountMinSketch
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar
from repro.sketches.mrac import MRAC
from repro.sketches.revsketch import ReversibleSketch
from repro.sketches.univmon import UnivMon
from tests.conftest import make_flow, registry_solutions, snapshot_of


def _snapshot(rows=(), V=0.0, E=0.0, inserts=0, evicted=0):
    """A snapshot of ``(flow, e, r, d)`` rows."""
    return snapshot_of(
        rows,
        total_bytes=V,
        total_decremented=E,
        insert_count=inserts,
        evict_count=evicted,
    )


class TestTrackingBoundary:
    def test_empty_snapshot_default(self):
        assert _tracking_boundary(_snapshot()) == 1500.0

    def test_minimum_estimate(self):
        rows = [(make_flow(1), 0, 5000, 0), (make_flow(2), 0, 700, 100)]
        assert _tracking_boundary(_snapshot(rows)) == 800.0

    def test_floor_at_min_packet(self):
        rows = [(make_flow(1), 0, 10, 0)]
        assert _tracking_boundary(_snapshot(rows)) > 64.0


class TestMissingFlowCount:
    def test_none_without_counters(self):
        assert _missing_flow_count(_snapshot()) is None

    def test_inserts_minus_half_evictions_minus_tracked(self):
        rows = [(make_flow(i), 0, 100, 0) for i in range(10)]
        snapshot = _snapshot(rows, inserts=100, evicted=60)
        # hint = max(10, 100 - 30) = 70; missing = 70 - 10 = 60.
        assert _missing_flow_count(snapshot) == 60

    def test_never_negative(self):
        rows = [(make_flow(i), 0, 100, 0) for i in range(10)]
        snapshot = _snapshot(rows, inserts=5, evicted=0)
        assert _missing_flow_count(snapshot) == 0


class TestSyntheticInjection:
    def test_mass_conserved(self):
        sketch = CountMinSketch(width=512, depth=1, seed=3)
        _inject_synthetic_small_flows(sketch, 100_000.0, 2000.0)
        assert sketch.counters.sum() == pytest.approx(
            100_000, rel=0.02
        )

    def test_count_anchored(self):
        sketch = CountMinSketch(width=50_000, depth=1, seed=3)
        _inject_synthetic_small_flows(
            sketch, 60_000.0, 2000.0, count=100
        )
        # ~100 flows, nearly all in distinct counters at this width.
        nonzero = int((sketch.counters > 0).sum())
        assert 90 <= nonzero <= 100

    def test_zero_volume_noop(self):
        sketch = CountMinSketch(width=64, depth=1)
        _inject_synthetic_small_flows(sketch, 0.0, 1000.0)
        assert sketch.counters.sum() == 0

    def test_zero_count_noop(self):
        sketch = CountMinSketch(width=64, depth=1)
        _inject_synthetic_small_flows(sketch, 5000.0, 1000.0, count=0)
        assert sketch.counters.sum() == 0

    def test_deterministic_per_seed(self):
        a = CountMinSketch(width=512, depth=2, seed=7)
        b = CountMinSketch(width=512, depth=2, seed=7)
        _inject_synthetic_small_flows(a, 50_000.0, 1500.0)
        _inject_synthetic_small_flows(b, 50_000.0, 1500.0)
        assert np.array_equal(a.counters, b.counters)


def _scalar_fields(rng, count):
    """Four scalar generator calls per flow — how the synthetic
    5-tuples were drawn before the one broadcast call."""
    return [
        [
            int(rng.integers(1, 2**32)),
            int(rng.integers(1, 2**32)),
            int(rng.integers(1024, 65536)),
            int(rng.integers(1, 1024)),
        ]
        for _ in range(count)
    ]


def _inject_one_by_one(sketch, volume, boundary, count=None):
    """``_inject_synthetic_small_flows`` as it was before the batch
    entry point and the broadcast draw: scalar draws, scalar
    ``inject`` per flow."""
    if volume <= 0:
        return
    low = 64.0
    high = max(boundary, low * 1.01)
    rng = np.random.default_rng(sketch.seed ^ 0x5EED_CAFE)
    inv_low, inv_high = 1.0 / low, 1.0 / high
    if count is None:
        mean = low * math.log(high / low) / (1.0 - low / high)
        count = int(round(volume / max(mean, low)))
    count = max(0, min(count, recovery._MAX_SYNTHETIC_FLOWS))
    if count == 0:
        return
    draws = 1.0 / (inv_low - rng.random(count) * (inv_low - inv_high))
    draws *= volume / draws.sum()
    for fields, size in zip(_scalar_fields(rng, count), draws):
        sketch.inject(FlowKey(*fields), max(1, int(round(size))))


class TestBroadcastDraw:
    """The fact the one-call draw rests on, by name: a NumPy whose
    broadcast ``integers`` reads the PCG64 stream in another order
    would move every pinned answer — it must fail here first."""

    COUNTS = (1, 2, 3, 5, 17, 100, 1000, 5000)

    @pytest.mark.parametrize("count", COUNTS)
    def test_broadcast_equals_four_scalar_calls_per_flow(self, count):
        # 200 seeds in all, 25 per count.
        first = self.COUNTS.index(count)
        for seed in range(first, 200, len(self.COUNTS)):
            scalar = np.random.default_rng(seed)
            broadcast = np.random.default_rng(seed)
            # The size draws that precede the 5-tuples in recovery.
            assert np.array_equal(
                scalar.random(count), broadcast.random(count)
            )
            fields = broadcast.integers(
                np.tile(recovery._FIELD_LOW, count),
                np.tile(recovery._FIELD_HIGH, count),
            ).reshape(count, 4)
            assert fields.tolist() == _scalar_fields(scalar, count)
            assert (
                broadcast.bit_generator.state
                == scalar.bit_generator.state
            )

    def test_one_generator_call_per_injection(self, monkeypatch):
        calls = []
        real = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self._rng = real(seed)

            def random(self, *args):
                return self._rng.random(*args)

            def integers(self, *args):
                calls.append(args)
                return self._rng.integers(*args)

        monkeypatch.setattr(recovery.np.random, "default_rng", Spy)
        _inject_synthetic_small_flows(
            CountMinSketch(width=64, depth=1, seed=3), 90_000.0, 1500.0
        )
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name", ["deltoid", "flowradar", "linear", "mrac"]
    )
    @pytest.mark.parametrize(
        "volume,count",
        [
            (50_000.0, None),  # mass-anchored, ~226 flows
            (250_000.0, 5_000),  # count clamped (to 300, below)
            (9_000_000.0, None),  # mass-anchored into the clamp
            (0.0, 600),
            (-5.0, None),
        ],
    )
    def test_sketches_byte_equal_to_scalar_reference(
        self, monkeypatch, name, volume, count
    ):
        """Beside ``count`` given and unclamped, which is
        ``TestBatchInjection.test_synthetic_flows_byte_equal_to_scalar_inject``."""
        monkeypatch.setattr(recovery, "_MAX_SYNTHETIC_FLOWS", 300)
        scalar, batch = _live_pair(name)
        _inject_one_by_one(scalar, volume, 1800.0, count)
        _inject_synthetic_small_flows(batch, volume, 1800.0, count)
        codec = StateCodec()
        assert codec.encode(batch) == codec.encode(scalar)


#: Every ``inject`` flavour: plain update with a kernel (key64 batch,
#: FlowRadar, Deltoid), plain update without one (UnivMon), and the
#: byte→packet conversions (MRAC's batch override, FlowRadar's loop).
INJECT_FACTORIES = {
    "countmin": lambda: CountMinSketch(width=256, depth=3, seed=11),
    "revsketch": lambda: ReversibleSketch(seed=11),
    "deltoid": lambda: Deltoid(width=64, depth=2, seed=11),
    # 600 flows x 4 hashes into 1024 bits: order-dependent false
    # positives in the new-flow decisions.
    "flowradar": lambda: FlowRadar(
        bloom_bits=1024, num_cells=512, seed=11
    ),
    "flowradar_packets": lambda: FlowRadar(
        bloom_bits=1024, num_cells=512, seed=11, count_packets=True
    ),
    "univmon": lambda: UnivMon(
        level_widths=(64, 32, 16), depth=3, heap_size=20, seed=11
    ),
    "mrac": lambda: MRAC(width=128, seed=11),
    "linear": lambda: LinearCounting(width=2048, depth=2, seed=11),
}


def _inject_columns(sketch, flows, values):
    """``flows`` through the column entry point."""
    sketch.inject_columns(
        *header_words(flows),
        key64_column(flows),
        np.asarray(values, dtype=np.int64),
    )


def _live_pair(name):
    """Two equal sketches with pre-existing state, so injection lands
    on live counters."""
    pair = INJECT_FACTORIES[name](), INJECT_FACTORIES[name]()
    for index in range(40):
        for sketch in pair:
            sketch.update(make_flow(index), 100 + index)
    return pair


class TestBatchInjection:
    @pytest.mark.parametrize("name", sorted(INJECT_FACTORIES))
    def test_synthetic_flows_byte_equal_to_scalar_inject(self, name):
        """The batch entry point leaves the recovered sketch byte-equal
        to per-flow ``inject`` calls over the same RNG stream."""
        codec = StateCodec()
        scalar, batch = _live_pair(name)
        _inject_one_by_one(scalar, 250_000.0, 1800.0, 600)
        _inject_synthetic_small_flows(batch, 250_000.0, 1800.0, 600)
        assert codec.encode(batch) == codec.encode(scalar)

    @pytest.mark.parametrize("name", sorted(INJECT_FACTORIES))
    def test_inject_batch_handles_repeats_and_empty(self, name):
        codec = StateCodec()
        factory = INJECT_FACTORIES[name]
        scalar, batch = factory(), factory()
        flows = [make_flow(i % 7) for i in range(50)]
        values = [1 + 389 * i for i in range(50)]  # spans the 769 B mean
        for flow, value in zip(flows, values):
            scalar.inject(flow, value)
        _inject_columns(batch, flows, values)
        _inject_columns(batch, [], [])
        assert codec.encode(batch) == codec.encode(scalar)


class _FewTuples:
    """A generator whose ``integers`` squashes every draw to one of
    three values above its low end, after reading the stream as the
    real call does: scalar and broadcast draws still agree (see
    :class:`TestBroadcastDraw`), and 600 synthetic flows share 81
    5-tuples."""

    _real = staticmethod(np.random.default_rng)

    def __init__(self, seed):
        self._rng = self._real(seed)

    def random(self, *args):
        return self._rng.random(*args)

    def integers(self, low, high):
        return np.asarray(low) + self._rng.integers(low, high) % 3


class TestColumnInjectionEdges:
    """The column path where grouping and order matter most, against
    the per-``FlowKey`` oracle."""

    @pytest.mark.parametrize("name", sorted(INJECT_FACTORIES))
    def test_repeated_tuples_byte_equal_to_scalar_inject(
        self, monkeypatch, name
    ):
        monkeypatch.setattr(recovery.np.random, "default_rng", _FewTuples)
        scalar, batch = _live_pair(name)
        _inject_one_by_one(scalar, 250_000.0, 1800.0, 600)
        _inject_synthetic_small_flows(batch, 250_000.0, 1800.0, 600)
        codec = StateCodec()
        assert codec.encode(batch) == codec.encode(scalar)

    @pytest.mark.parametrize("name", sorted(INJECT_FACTORIES))
    def test_headers_sharing_a_key64_stay_two_flows(self, name):
        """``key64`` folds ``hi ^ lo``: flipping the same low bits of
        both words gives another header with the same fold."""
        base = make_flow(3)
        hi, lo = header_words([base])
        (twin,) = header_flows(hi ^ np.uint64(0x5A), lo ^ np.uint64(0x5A))
        assert twin != base and twin.key64 == base.key64
        flows = [base, twin, make_flow(4), base, twin, twin]
        values = [700, 1600, 900, 50, 2, 384]
        scalar, batch = _live_pair(name)
        for flow, value in zip(flows, values):
            scalar.inject(flow, value)
        _inject_columns(batch, flows, values)
        codec = StateCodec()
        assert codec.encode(batch) == codec.encode(scalar)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tracked_counts_raise(self, bad):
        """As ``int(round(value))`` per flow did: a count that names no
        byte volume stops the injection instead of landing as garbage."""
        sketch = CountMinSketch(width=64, depth=1)
        with pytest.raises(ValueError, match="finite"):
            recovery._inject_tracked(
                sketch, [make_flow(1), make_flow(2)], [300.0, bad]
            )
        assert sketch.counters.sum() == 0

    @pytest.mark.parametrize("count_packets", [False, True])
    @pytest.mark.parametrize("few_tuples", [False, True])
    def test_tiny_bloom_filter_byte_equal_to_scalar_inject(
        self, monkeypatch, count_packets, few_tuples
    ):
        """64 Bloom bits under 600 flows: nearly every new-flow decision
        is a false positive that depends on what came before."""
        if few_tuples:
            monkeypatch.setattr(
                recovery.np.random, "default_rng", _FewTuples
            )
        pair = [
            FlowRadar(
                bloom_bits=64,
                num_cells=256,
                seed=11,
                count_packets=count_packets,
            )
            for _ in range(2)
        ]
        scalar, batch = pair
        _inject_one_by_one(scalar, 250_000.0, 1800.0, 600)
        _inject_synthetic_small_flows(batch, 250_000.0, 1800.0, 600)
        assert batch.flow_count.sum() < 600 * batch.num_hashes
        codec = StateCodec()
        assert codec.encode(batch) == codec.encode(scalar)


def _tracked_snapshot():
    """60 tracked flows; every fifth has bounds that round to zero."""
    rows = [
        (make_flow(index), 0.3, 0.1, 0.0)
        if index % 5 == 0
        else (make_flow(index), 400.0 + index, 900.0 * index, 250.0)
        for index in range(60)
    ]
    volume = sum(r + d + e for _, e, r, d in rows)
    return _snapshot(
        rows, V=volume + 80_000.0, E=5_000.0, inserts=260, evicted=120
    )


class TestTrackedFlowReinjection:
    """``recover`` re-injects the tracked flows as one batch; the state
    is that of the per-flow loop it replaced."""

    @pytest.mark.parametrize(
        "mode",
        [RecoveryMode.LOWER, RecoveryMode.UPPER, RecoveryMode.SKETCHVISOR],
        ids=lambda mode: mode.value,
    )
    @pytest.mark.parametrize("solution", sorted(registry_solutions()))
    def test_batch_equals_per_flow_loop(self, solution, mode):
        normal = registry_solutions()[solution](seed=5)
        for index in range(30, 120):
            normal.update(make_flow(index), 300 + index)
        snapshot = _tracked_snapshot()
        state = recover(normal, snapshot, mode)

        expected = _copy_sketch(normal)
        injected = 0
        for flow, value in state.flow_estimates.items():
            amount = int(round(value))
            if amount > 0:
                expected.inject(flow, amount)
                injected += 1
        assert list(state.flow_estimates) == _flows(snapshot)
        assert injected == 48  # the twelve near-zero flows are left out
        if mode is RecoveryMode.SKETCHVISOR:
            assert state.small_flow_bytes > 0
            _inject_synthetic_small_flows(
                expected,
                state.small_flow_bytes,
                _tracking_boundary(snapshot),
                count=_missing_flow_count(snapshot),
            )
        codec = StateCodec()
        assert codec.encode(state.sketch) == codec.encode(expected)


def _flows(snapshot):
    return [flow for flow, *_ in snapshot.rows()]


def _recover_through_the_solver(normal, snapshot):
    """``recover(..., SKETCHVISOR)`` with nothing skipped: every
    tracked flow's positions hashed, the operator built and
    ``lens_interpolate`` run, whatever ``low_rank`` says."""
    flows = _flows(snapshot)
    result = lens_interpolate(
        normal.to_matrix(),
        positions=normal.matrix_positions(flows),
        lower=[r + d for _, e, r, d in snapshot.rows()],
        upper=[r + d + e for _, e, r, d in snapshot.rows()],
        volume=snapshot.total_bytes,
        low_rank=normal.low_rank,
    )
    recovered = _copy_sketch(normal)
    for flow, value in zip(flows, result.x):
        if int(round(value)) > 0:
            recovered.inject(flow, int(round(value)))
    small = max(0.0, snapshot.total_bytes - float(result.x.sum()))
    _inject_synthetic_small_flows(
        recovered,
        small,
        _tracking_boundary(snapshot),
        count=_missing_flow_count(snapshot),
    )
    return recovered, result, small


def _loaded(solution):
    normal = registry_solutions()[solution](seed=5)
    for index in range(30, 120):
        normal.update(make_flow(index), 300 + index)
    return normal


#: kMin has no linear operator; every other solution has one.
WITH_OPERATOR = sorted(set(registry_solutions()) - {"kmin"})
NO_NUCLEAR_TERM = sorted(
    set(WITH_OPERATOR) - {"deltoid", "revsketch", "twolevel"}
)


class TestRecoverySkipsWhatItNeverReads:
    """Sketches with no low-rank structure take the box midpoint
    without an operator; the recovered state is the solver route's."""

    @pytest.mark.parametrize("solution", WITH_OPERATOR)
    def test_state_equals_the_solver_route(self, solution):
        normal, snapshot = _loaded(solution), _tracked_snapshot()
        state = recover(normal, snapshot, RecoveryMode.SKETCHVISOR)
        expected, result, small = _recover_through_the_solver(
            normal, snapshot
        )
        codec = StateCodec()
        assert codec.encode(state.sketch) == codec.encode(expected)
        assert [
            (flow, value.hex())
            for flow, value in state.flow_estimates.items()
        ] == [
            (flow, float(value).hex())
            for flow, value in zip(_flows(snapshot), result.x)
        ]
        assert state.tracked_bytes == float(result.x.sum())
        assert state.small_flow_bytes == small
        assert state.lens_iterations == result.iterations
        assert state.lens_converged is result.converged
        assert (state.lens_iterations > 0) is normal.low_rank

    @pytest.mark.parametrize("solution", NO_NUCLEAR_TERM)
    def test_no_position_is_hashed_and_no_operator_built(
        self, solution, monkeypatch
    ):
        normal = _loaded(solution)
        assert not normal.low_rank
        calls = []
        monkeypatch.setattr(
            type(normal),
            "matrix_positions",
            lambda self, flows: calls.append("positions"),
        )
        monkeypatch.setattr(
            lens, "_build_operator", lambda *a: calls.append("operator")
        )
        state = recover(
            normal, _tracked_snapshot(), RecoveryMode.SKETCHVISOR
        )
        assert calls == []
        assert len(state.flow_estimates) == 60

    @pytest.mark.parametrize("solution", ["deltoid", "revsketch", "twolevel"])
    def test_low_rank_positions_are_one_call_over_every_flow(
        self, solution, monkeypatch
    ):
        normal, snapshot = _loaded(solution), _tracked_snapshot()
        calls = []
        real_positions = type(normal).matrix_positions

        def positions(self, flows):
            calls.append(list(flows))
            return real_positions(self, flows)

        monkeypatch.setattr(type(normal), "matrix_positions", positions)
        recover(normal, snapshot, RecoveryMode.SKETCHVISOR)
        assert calls == [_flows(snapshot)]

    def test_kmin_keeps_its_unscaled_midpoint(self):
        normal, snapshot = _loaded("kmin"), _tracked_snapshot()
        state = recover(normal, snapshot, RecoveryMode.SKETCHVISOR)
        assert state.flow_estimates == {
            flow: ((r + d) + (r + d + e)) / 2.0
            for flow, e, r, d in snapshot.rows()
        }
        assert state.lens_iterations == 0 and state.lens_converged
        assert state.small_flow_bytes == max(
            0.0,
            snapshot.total_bytes - sum(state.flow_estimates.values()),
        )

    @pytest.mark.parametrize("solution", ["flowradar", "deltoid"])
    def test_invalid_bounds_still_raise(self, solution):
        normal = _loaded(solution)
        inverted = [(make_flow(1), -50.0, 900.0, 0.0)]
        with pytest.raises(ConfigError, match="lower bounds"):
            recover(normal, _snapshot(inverted, V=5000.0))
        tracked = [(make_flow(1), 50.0, 900.0, 0.0)]
        with pytest.raises(ConfigError, match="volume"):
            recover(normal, _snapshot(tracked, V=-1.0))


class TestFastPathCounters:
    def test_insert_and_reject_accounting(self):
        from repro.fastpath.topk import ENTRY_BYTES

        fastpath = FastPath(memory_bytes=3 * ENTRY_BYTES)
        fastpath.update(make_flow(1), 10_000)
        fastpath.update(make_flow(2), 10_000)
        fastpath.update(make_flow(3), 10_000)
        assert fastpath.num_inserts == 3
        # Table full; a tiny flow is rejected by the v > e gate.
        fastpath.update(make_flow(4), 1)
        assert fastpath.num_rejected >= 1 or fastpath.num_inserts == 4

    def test_snapshot_carries_counters(self):
        fastpath = FastPath(8192)
        for i in range(500):
            fastpath.update(make_flow(i), 100 + i)
        snapshot = fastpath.snapshot()
        assert snapshot.insert_count == fastpath.num_inserts
        assert snapshot.evict_count == fastpath.num_evicted
        assert snapshot.distinct_flow_hint >= snapshot.tracked


class TestLensShortcutAndEarlyStop:
    def _instance(self, low_rank):
        sketch_cls = Deltoid if low_rank else CountMinSketch
        sketch = (
            Deltoid(width=64, depth=2, seed=5)
            if low_rank
            else CountMinSketch(width=256, depth=4, seed=5)
        )
        for i in range(100, 300):
            sketch.update(make_flow(i), 500)
        flows = [make_flow(i) for i in range(10)]
        positions = sketch.matrix_positions(flows)
        lower = np.full(10, 900.0)
        upper = np.full(10, 1100.0)
        return sketch, positions, lower, upper

    def test_no_nuclear_shortcut_returns_midpoint(self):
        sketch, positions, lower, upper = self._instance(low_rank=False)
        result = lens_interpolate(
            sketch.to_matrix(), positions, lower, upper, 20_000.0,
            low_rank=False,
        )
        assert result.iterations == 0
        assert result.converged
        assert np.allclose(result.x, 1000.0)

    def test_early_stop_bounded_iterations(self):
        sketch, positions, lower, upper = self._instance(low_rank=True)
        eager = lens_interpolate(
            sketch.to_matrix(), positions, lower, upper, 15_000.0,
            low_rank=True,
            config=LensConfig(
                max_iterations=50, x_stability_tolerance=1e-2
            ),
        )
        patient = lens_interpolate(
            sketch.to_matrix(), positions, lower, upper, 15_000.0,
            low_rank=True,
            config=LensConfig(
                max_iterations=50, x_stability_tolerance=None,
                tolerance=1e-12,
            ),
        )
        assert eager.iterations <= patient.iterations
        # Early stop does not move the estimates meaningfully.
        assert np.allclose(eager.x, patient.x, rtol=0.05, atol=20.0)
