"""Control-plane merging and the LENS compressive-sensing solver."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, MergeError
from repro.controlplane import lens
from repro.controlplane.lens import (
    LensConfig,
    lens_interpolate,
    singular_value_threshold,
)
from repro.controlplane.recovery import _publish_solve
from repro.controlplane.merge import (
    MergeFold,
    merge_fastpath_snapshots,
    merge_sketches,
    rescale_snapshot,
)
from repro.common.flow import FlowKey
from repro.fastpath.topk import FastPath, FastPathSnapshot
from repro.sketches.countmin import CountMinSketch
from repro.sketches.deltoid import Deltoid
from repro.telemetry import Telemetry
from tests import reference_lens, reference_merge
from tests.conftest import make_flow, registry_solutions, snapshot_of
from tests.reference_lens import exact_shrink


class TestMergeSketches:
    def test_merge_equals_single_observer(self, medium_trace):
        shards = medium_trace.partition(3)
        parts = []
        for shard in shards:
            sketch = CountMinSketch(width=512, depth=3, seed=7)
            for packet in shard:
                sketch.update(packet.flow, packet.size)
            parts.append(sketch)
        merged = merge_sketches(parts)
        whole = CountMinSketch(width=512, depth=3, seed=7)
        for packet in medium_trace:
            whole.update(packet.flow, packet.size)
        assert np.array_equal(merged.counters, whole.counters)

    def test_merge_does_not_mutate_inputs(self):
        a = CountMinSketch(width=64, depth=2, seed=1)
        a.update(make_flow(1), 100)
        before = a.counters.copy()
        merge_sketches([a, a.clone_empty()])
        assert np.array_equal(a.counters, before)

    def test_merge_empty_rejected(self):
        with pytest.raises(MergeError):
            merge_sketches([])


class TestMergeSnapshots:
    def test_sums_globals(self):
        fp_a, fp_b = FastPath(4096), FastPath(4096)
        fp_a.update(make_flow(1), 100)
        fp_b.update(make_flow(2), 250)
        merged = merge_fastpath_snapshots(
            [fp_a.snapshot(), fp_b.snapshot()]
        )
        assert merged.total_bytes == 350
        assert {flow for flow, *_ in merged.rows()} == {
            make_flow(1),
            make_flow(2),
        }

    def test_none_snapshots_ignored(self):
        fp = FastPath(4096)
        fp.update(make_flow(1), 100)
        merged = merge_fastpath_snapshots([None, fp.snapshot(), None])
        assert merged.total_bytes == 100

    def test_shared_flow_counters_add(self):
        fp_a, fp_b = FastPath(4096), FastPath(4096)
        fp_a.update(make_flow(1), 100)
        fp_b.update(make_flow(1), 50)
        merged = merge_fastpath_snapshots(
            [fp_a.snapshot(), fp_b.snapshot()]
        )
        assert merged.rows() == [(make_flow(1), 0.0, 150.0, 0.0)]

    def test_all_none(self):
        merged = merge_fastpath_snapshots([None, None])
        assert merged.total_bytes == 0 and not merged.tracked

    def test_entry_order_is_independent_of_input_order(self):
        """Merged entries come out in full-key order.  ``twin`` folds to
        the same ``key64`` as ``flow`` (``key64`` mixes ``hi ^ lo`` of
        the 104-bit header, so flipping one bit in each word keeps it):
        an order keyed on ``key64`` would leave the pair in arrival
        order."""
        flow = make_flow(1)
        twin = FlowKey.from_key104(flow.key104 ^ (1 << 64 | 1))
        assert twin != flow and twin.key64 == flow.key64
        a = snapshot_of(
            [(flow, 0.0, 10.0, 0.0), (make_flow(7), 0.0, 5.0, 0.0)],
            total_bytes=15.0,
        )
        b = snapshot_of(
            [(twin, 0.0, 20.0, 0.0), (make_flow(3), 0.0, 8.0, 0.0)],
            total_bytes=28.0,
        )
        forward = merge_fastpath_snapshots([a, b])
        backward = merge_fastpath_snapshots([b, a])
        assert forward.rows() == backward.rows()
        keys = [key.key104 for key, *_ in forward.rows()]
        assert keys == sorted(keys)

    def test_decremented_total_is_independent_of_grouping(self):
        """``E`` sums fractional thresholds: folded flat, ``0.1 + 0.2 +
        0.3`` reads ``0.6000000000000001`` in sequence, but ``0.6`` with
        the last two grouped first.  A partial hands its summands on,
        so every grouping reads their correctly rounded sum."""
        reports = [
            SimpleNamespace(
                sketch=CountMinSketch(width=8, depth=1, seed=1),
                fastpath=FastPathSnapshot(total_decremented=value),
                host_ids=(host,),
            )
            for host, value in enumerate((0.1, 0.2, 0.3))
        ]
        flat = MergeFold()
        for report in reports:
            flat.add(report)
        flat = flat.finish()

        grouped, tail = MergeFold(), MergeFold()
        grouped.add(reports[0])
        for report in reports[1:]:
            tail.add(report)
        grouped.add(tail.finish())
        grouped = grouped.finish()
        for merged in (flat, grouped):
            assert merged.fastpath.total_decremented == 0.6
            assert merged.decrements == (0.1, 0.2, 0.3)


#: Flows the property's tables draw from: ``make_flow(1)``'s key64
#: twin (see above), so a fold keyed on ``key64`` would merge two
#: flows; one header word apart from ``make_flow(1)`` in each word;
#: and a flow whose ``hi`` is the largest and ``lo`` the smallest, so
#: an order on either word alone is wrong.
_POOL = [make_flow(index) for index in range(6)] + [
    FlowKey.from_key104(make_flow(1).key104 ^ (1 << 64 | 1)),
    FlowKey.from_key104(make_flow(1).key104 ^ (1 << 64)),
    FlowKey.from_key104(make_flow(1).key104 ^ (1 << 8)),
    FlowKey(2000, 1, 9, 80),
]
_COUNTER = st.one_of(
    st.integers(0, 10_000).map(float),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _table(draw):
    """One host's snapshot: distinct flows from the pool in any order,
    fractional counters, and scalars; or ``None`` (no fast path)."""
    if draw(st.integers(0, 7)) == 0:
        return None
    flows = draw(st.permutations(_POOL))[: draw(st.integers(0, len(_POOL)))]
    rows = [
        (flow, draw(_COUNTER), draw(_COUNTER), draw(_COUNTER))
        for flow in flows
    ]
    return snapshot_of(
        rows,
        total_bytes=draw(st.integers(0, 10**6)),
        total_decremented=draw(_COUNTER),
        insert_count=draw(st.integers(0, 500)),
        evict_count=draw(st.integers(0, 500)),
        update_count=draw(st.integers(0, 5000)),
        hit_count=draw(st.integers(0, 5000)),
        kickout_count=draw(st.integers(0, 50)),
        reject_count=draw(st.integers(0, 50)),
    )


def _assert_same(snapshot, folded):
    """``snapshot`` is the oracle's ``folded`` table: rows, order,
    counter bits and scalars."""
    assert reference_merge.bits(snapshot.rows()) == reference_merge.bits(
        folded.rows()
    )
    for name, value in folded.scalars().items():
        assert getattr(snapshot, name) == value, name


class TestColumnFoldEqualsTheDictFold:
    """The column fold against ``tests/reference_merge.py``: the same
    rows in the same order, every counter to the bit, the same
    scalars, flat and through partials."""

    @settings(max_examples=100, deadline=None)
    @given(
        tables=st.lists(_table(), max_size=6),
        cuts=st.lists(st.integers(1, 5), max_size=3),
    )
    def test_any_grouping(self, tables, cuts):
        flat = merge_fastpath_snapshots(tables)
        expected = reference_merge.fold(tables)
        if expected is None:
            assert not flat.tracked and flat.total_bytes == 0
        else:
            _assert_same(flat, expected)

        # Regrouped: consecutive groups folded into partials, then the
        # partials folded; the oracle folds the same tree.
        inner = (cut for cut in cuts if cut < len(tables))
        bounds = sorted({0, len(tables), *inner})
        groups = [tables[a:b] for a, b in zip(bounds, bounds[1:])]
        top, oracle_partials = MergeFold(), []
        for group in groups:
            fold = MergeFold()
            for table in group:
                fold.add_snapshot(table)
            partial = fold.finish()
            top.add_snapshot(partial.fastpath, partial.decrements)
            oracle_partials.append(reference_merge.fold(group))
        merged = top.finish().fastpath
        oracle = reference_merge.fold(
            oracle_partials,
            decrements=[t.total_decremented for t in tables if t is not None],
        )
        assert (merged is None) is (oracle is None)
        if oracle is not None:
            _assert_same(merged, oracle)
            assert merged.total_decremented == flat.total_decremented

    @settings(max_examples=50, deadline=None)
    @given(table=_table(), factor=st.floats(0.0, 8.0))
    def test_rescale(self, table, factor):
        if table is None:
            return
        scaled = rescale_snapshot(table, factor)
        expected = reference_merge.rescale(table, factor)
        assert reference_merge.bits(scaled.rows()) == reference_merge.bits(
            expected["rows"]
        )
        assert scaled.total_bytes == expected["total_bytes"]
        assert scaled.total_decremented == expected["total_decremented"]
        # The columns are shared, not copied.
        for name in FastPathSnapshot.COLUMNS:
            assert getattr(scaled, name) is getattr(table, name)


class TestSVT:
    def test_shrinks_singular_values(self):
        matrix = np.diag([10.0, 5.0, 1.0])
        shrunk = singular_value_threshold(matrix, 2.0)
        values = np.linalg.svd(shrunk, compute_uv=False)
        assert values[0] == pytest.approx(8.0)
        assert values[1] == pytest.approx(3.0)
        assert values[2] == pytest.approx(0.0, abs=1e-9)

    def test_all_shrunk_to_zero(self):
        matrix = np.ones((3, 3))
        assert singular_value_threshold(matrix, 100.0).sum() == 0.0


#: The range finder's largest entry error on the shrunk matrix, as a
#: fraction of the top singular value, when the signal's values stand
#: about three times or more above the noise's (the worst of 1000
#: inputs drawn by ``low_rank_plus_noise`` was 1.2e-6).
RANGE_TOLERANCE = 1e-5


@st.composite
def low_rank_plus_noise(draw):
    """A rank-``r`` matrix with spaced singular values in [1, 21]
    plus Gaussian noise whose top value stays below ~0.3, tall or
    wide, some sides under ``2 * RANGE_RANK`` (factored whole), and a
    threshold of 0, between two signal values, or above the top one."""
    rows = draw(st.integers(16, 200))
    cols = draw(st.integers(16, 200))
    rank = draw(st.integers(1, min(12, rows, cols) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = draw(
        st.lists(
            st.floats(0.1, 2.0), min_size=rank - 1, max_size=rank - 1
        )
    )
    values = 1.0 + np.cumsum([0.0, *gaps])[::-1]
    left = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    noise = draw(st.floats(1e-4, 1e-2)) * rng.standard_normal((rows, cols))
    matrix = (left * values) @ right.T + noise
    top = np.linalg.svd(matrix, compute_uv=False)
    kind = draw(st.sampled_from(["zero", "mid", "above"]))
    if kind == "zero":
        threshold = 0.0
    elif kind == "mid":
        cut = draw(st.integers(0, rank - 1))
        threshold = float(top[cut] + top[cut + 1]) / 2.0
    else:
        threshold = float(top[0]) * 1.5
    return matrix, threshold, float(top[0])


class TestRangeFinder:
    """``_shrink`` factors a seeded randomized range finder's
    projection; ``tests/reference_lens.py`` factors the whole matrix."""

    @settings(max_examples=40, deadline=None)
    @given(low_rank_plus_noise())
    def test_agrees_with_the_exact_svd(self, case):
        matrix, threshold, top = case
        expected, expected_kept = exact_shrink(matrix, threshold)
        kept = []
        rebuild = lens._rebuild

        def counting(u, s, vt, threshold):
            kept.append(int((s > threshold).sum()))
            return rebuild(u, s, vt, threshold)

        with mock.patch.object(lens, "_rebuild", counting):
            shrunk = singular_value_threshold(matrix, threshold)
        assert kept == [expected_kept]
        assert np.abs(shrunk - expected).max() <= RANGE_TOLERANCE * top
        if min(matrix.shape) <= 2 * lens.RANGE_RANK:
            # Factored whole: the oracle's own arithmetic.
            assert shrunk.tobytes() == expected.tobytes()

    def test_same_input_same_bits(self):
        rng = np.random.default_rng(4)
        matrix = rng.random((200, 8)) @ rng.random((8, 300))
        matrix += 1e-3 * rng.random((200, 300))
        first = singular_value_threshold(matrix, 0.5)
        assert singular_value_threshold(matrix, 0.5).tobytes() == (
            first.tobytes()
        )

    def test_full_rank_doubles_up_to_the_exact_svd(self):
        matrix = np.random.default_rng(1).random((100, 150))
        shrunk, retries, full = lens._shrink(matrix, 0.0)
        assert full and retries == 0
        assert shrunk.tobytes() == exact_shrink(matrix, 0.0)[0].tobytes()
        # Counted once per solve, however many sweeps fell back.
        result = lens_interpolate(
            matrix,
            (np.array([0]), np.array([0]), np.array([0]), np.ones(1)),
            np.array([1.0]),
            np.array([2.0]),
            10.0,
            config=LensConfig(
                alpha=1e-9,
                max_iterations=3,
                tolerance=0.0,
                x_stability_tolerance=None,
            ),
        )
        assert result.iterations == 3 and result.full_svd
        telemetry = Telemetry()
        _publish_solve(telemetry, result)
        assert telemetry.registry.value(
            "sketchvisor_lens_svd_fallbacks_total", rung="full"
        ) == 1
        (event,) = telemetry.recorder.events("lens_svd_fallback")
        assert event.fields == {
            "gesvd_retries": 0,
            "full": True,
            "midpoint": False,
        }


class TestLensInterpolate:
    def _setup(self, num_flows=20, width=256, seed=3):
        """A Count-Min N missing a known x; returns pieces + truth."""
        sketch = CountMinSketch(width=width, depth=4, seed=seed)
        rng = np.random.default_rng(seed)
        # Background (normal-path) traffic.
        for i in range(200):
            sketch.update(make_flow(1000 + i), int(rng.integers(64, 1500)))
        flows = [make_flow(i) for i in range(num_flows)]
        true_x = rng.integers(5_000, 50_000, size=num_flows).astype(float)
        positions = sketch.matrix_positions(flows)
        slack = rng.integers(50, 500, size=num_flows).astype(float)
        lower = true_x - slack
        upper = true_x + slack
        small_flow_mass = 30_000.0
        volume = float(true_x.sum() + small_flow_mass)
        return sketch, flows, positions, lower, upper, volume, true_x

    def test_x_respects_box(self):
        sketch, _f, positions, lower, upper, volume, _t = self._setup()
        result = lens_interpolate(
            sketch.to_matrix(), positions, lower, upper, volume,
            low_rank=False,
        )
        assert (result.x >= lower - 1e-6).all()
        assert (result.x <= upper + 1e-6).all()

    def test_x_close_to_truth(self):
        sketch, _f, positions, lower, upper, volume, truth = self._setup()
        result = lens_interpolate(
            sketch.to_matrix(), positions, lower, upper, volume,
            low_rank=False,
        )
        errors = np.abs(result.x - truth) / truth
        assert errors.mean() < 0.05  # the box is tight; stay inside it

    def test_volume_conserved(self):
        sketch, _f, positions, lower, upper, volume, _t = self._setup()
        result = lens_interpolate(
            sketch.to_matrix(), positions, lower, upper, volume,
            low_rank=False,
        )
        # sum(x) + noise mass / positions-per-flow ~= V
        mean_mass = len(positions[0]) / len(lower)
        recovered_volume = result.x.sum() + result.noise.sum() / mean_mass
        assert recovered_volume == pytest.approx(volume, rel=0.05)

    def test_noise_nonnegative(self):
        sketch, _f, positions, lower, upper, volume, _t = self._setup()
        result = lens_interpolate(
            sketch.to_matrix(), positions, lower, upper, volume,
            low_rank=False,
        )
        assert (result.noise >= 0).all()

    def test_nuclear_term_runs_on_low_rank_sketch(self):
        sketch = Deltoid(width=64, depth=2, seed=5)
        for i in range(100):
            sketch.update(make_flow(i), 500)
        flows = [make_flow(1000)]
        positions = sketch.matrix_positions(flows)
        result = lens_interpolate(
            sketch.to_matrix(),
            positions,
            np.array([1000.0]),
            np.array([1200.0]),
            2000.0,
            low_rank=True,
            config=LensConfig(max_iterations=10),
        )
        assert 1000.0 - 1e-6 <= result.x[0] <= 1200.0 + 1e-6
        assert result.iterations <= 10

    def test_no_tracked_flows_spreads_volume(self):
        sketch = CountMinSketch(width=64, depth=2)
        result = lens_interpolate(
            sketch.to_matrix(),
            sketch.matrix_positions([]),
            np.zeros(0),
            np.zeros(0),
            1000.0,
        )
        assert result.matrix.sum() == pytest.approx(
            1000.0 / (2 * 64) * 2 * 64
        )

    def test_validates_bounds(self):
        sketch = CountMinSketch(width=64, depth=2)
        flow = make_flow(1)
        with pytest.raises(ConfigError):
            lens_interpolate(
                sketch.to_matrix(),
                sketch.matrix_positions([flow]),
                np.array([10.0]),
                np.array([5.0]),  # upper < lower
                100.0,
            )
        with pytest.raises(ConfigError):
            lens_interpolate(
                sketch.to_matrix(),
                sketch.matrix_positions([flow]),
                np.array([1.0]),
                np.array([2.0]),
                -5.0,
            )
        with pytest.raises(ConfigError, match="number of tracked flows"):
            lens_interpolate(
                sketch.to_matrix(),
                sketch.matrix_positions([flow, make_flow(2)]),
                np.array([1.0]),  # bounds for one flow, positions for two
                np.array([2.0]),
                100.0,
            )


#: Shapes the oracle property draws from: ones whose short side the
#: range finder never projects (factored whole), and one it projects.
LENS_SHAPES = ((3, 5), (12, 4), (20, 48), (70, 140))


@st.composite
def lens_problems(draw):
    """A LENS problem: a non-negative low-rank matrix with zeroed
    cells, each tracked flow's positions (a cell may repeat, and a
    coefficient may be negative or zero), its Eq. 3 box and a volume;
    and a config with ``rho`` in {0.5, 1, 2}, explicit or derived
    ``alpha`` (zero included) and ``gamma``, and a sweep budget."""
    rows, cols = draw(st.sampled_from(LENS_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, 3))
    matrix = rng.random((rows, rank)) @ rng.random((rank, cols))
    matrix *= draw(st.sampled_from([1.0, 1e3, 1e6]))
    matrix[rng.random((rows, cols)) < draw(st.floats(0.0, 0.9))] = 0.0
    num_flows = draw(st.integers(0, 12))
    per_flow = rng.integers(1, 5, size=num_flows)
    flow_index = np.repeat(np.arange(num_flows), per_flow)
    positions = (
        flow_index,
        rng.integers(0, rows, size=flow_index.size),
        rng.integers(0, cols, size=flow_index.size),
        rng.choice([1.0, -1.0, 0.5, 0.0], size=flow_index.size),
    )
    lower = rng.random(num_flows) * matrix.max(initial=1.0)
    upper = lower + rng.random(num_flows) * draw(
        st.sampled_from([0.0, 1.0, 1e4])
    )
    volume = float(upper.sum()) * draw(st.floats(0.0, 3.0))
    config = LensConfig(
        alpha=draw(st.sampled_from([None, 0.0, 1e-3, 0.5])),
        gamma=draw(st.sampled_from([None, 0.05, 2.0])),
        rho=draw(st.sampled_from([0.5, 1.0, 2.0])),
        max_iterations=draw(st.integers(1, 8)),
        tolerance=draw(st.sampled_from([0.0, 1e-4])),
        x_stability_tolerance=draw(st.sampled_from([None, 1e-2])),
    )
    return dict(
        n_matrix=matrix,
        positions=positions,
        lower=lower,
        upper=upper,
        volume=volume,
        low_rank=draw(st.booleans()),
        config=config,
    )


class TestLensOracle:
    """``lens_interpolate`` runs the oracle's floating-point operations
    in the oracle's order (``tests/reference_lens.py``), through fixed
    buffers, so every field of its answer is the oracle's, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(lens_problems())
    def test_every_field_equals_the_oracle(self, problem):
        expected = reference_lens.lens_interpolate(**problem)
        result = lens_interpolate(**problem)
        for name in ("x", "noise", "matrix"):
            assert getattr(result, name).tobytes() == (
                getattr(expected, name).tobytes()
            ), name
        for name in (
            "residuals",
            "iterations",
            "converged",
            "gesvd_retries",
            "full_svd",
            "svd_failed",
        ):
            assert getattr(result, name) == getattr(expected, name), name

    def test_the_matrix_is_built_on_first_read_only(self):
        rng = np.random.default_rng(8)
        matrix = rng.random((20, 3)) @ rng.random((3, 48))
        result = lens_interpolate(
            matrix,
            (np.arange(4), np.arange(4), np.arange(4), np.ones(4)),
            np.full(4, 0.5),
            np.full(4, 0.75),
            5.0,
            config=LensConfig(max_iterations=2),
        )
        assert result.build_matrix is not None
        first = result.matrix
        assert result.build_matrix is None and result.matrix is first

    def test_a_fanin_solve_allocates_under_its_pin(self):
        """Three sweeps on the deployed 420 x 1024 Deltoid of a
        ``cp_fanin`` epoch peak at 7.21 matrices of fresh memory; the
        solver with a fresh array per intermediate and an eager T
        peaked at 10.08.  The pin leaves a little room."""
        sketch = registry_solutions()["deltoid"](seed=1)
        for index in range(3000):
            sketch.update(make_flow(index), 64 + index % 1400)
        matrix = sketch.to_matrix()
        assert matrix.shape == (420, 1024)
        flows = [make_flow(index) for index in range(0, 3000, 8)]
        lower = np.full(len(flows), 500.0)
        problem = dict(
            n_matrix=matrix,
            positions=sketch.matrix_positions(flows),
            lower=lower,
            upper=lower + 400.0,
            volume=float(matrix.sum()),
            config=LensConfig(
                max_iterations=3, tolerance=0.0, x_stability_tolerance=None
            ),
        )
        tracemalloc.start()
        try:
            result = lens_interpolate(**problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations == 3
        assert peak <= 7.4 * matrix.nbytes
