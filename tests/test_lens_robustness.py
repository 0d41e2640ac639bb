"""LENS cannot kill an epoch: the SVD ladder gesdd -> gesvd -> midpoint,
on the exact SVD of a small matrix and on the range finder's projection
of a large one."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from repro.controlplane import lens
from repro.controlplane.lens import box_midpoint, lens_interpolate
from repro.controlplane.recovery import (
    _copy_sketch,
    _inject_synthetic_small_flows,
    _missing_flow_count,
    _tracking_boundary,
    recover,
)
from repro.durability.codec import StateCodec
from repro.sketches.deltoid import Deltoid
from repro.telemetry import Telemetry
from tests.conftest import make_flow, snapshot_of

ROOT = Path(__file__).resolve().parent.parent


def _lens_seeds(*args: str) -> list[dict]:
    """Run ``tests/lens_seeds.py`` on single-threaded BLAS (where the
    known seeds defeat gesdd); one dict per line it printed."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "lens_seeds.py"), *args],
        env={
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": str(ROOT / "src"),
        },
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return [json.loads(line) for line in done.stdout.splitlines()]


class TestKnownSeeds:
    """Inputs on which ``np.linalg.svd`` of the whole LENS matrix raised
    ``SVD did not converge`` and took the epoch — and under ``repro
    serve`` the process — down.  The range finder now factors a small
    projection of them, which gesdd converges on, so they stay as
    regressions: the epoch completes without the midpoint."""

    def test_fanin_epoch_at_trace_seed_321_completes(self):
        (run,) = _lens_seeds("--fanin", "321")
        assert run["lens_converged"] is True
        assert run["midpoint"] == 0

    def test_heavy_changer_monitor_at_trace_seed_11_completes(self):
        (run,) = _lens_seeds("--monitor", "11")
        assert run["windows"] == 12
        assert run["midpoint"] == 0


def _no_convergence(*_args, **_kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def _deltoid_and_snapshot(width=64, flows=90):
    normal = Deltoid(width=width, depth=2, seed=5)
    for index in range(30, 30 + flows):
        normal.update(make_flow(index), 300 + index)
    rows = [
        (make_flow(index), 400.0 + index, 900.0 * (index + 1), 250.0)
        for index in range(40)
    ]
    volume = sum(r + d + e for _, e, r, d in rows)
    return normal, snapshot_of(
        rows,
        total_bytes=volume + 80_000.0,
        total_decremented=5_000.0,
        insert_count=260,
        evict_count=120,
    )


def _fallbacks(telemetry, rung):
    return telemetry.registry.value(
        "sketchvisor_lens_svd_fallbacks_total", rung=rung
    )


class TestSvdLadder:
    """A 210 x 64 Deltoid matrix: short enough that ``_shrink`` factors
    it whole."""

    shape = dict(width=64, flows=90)

    def _inputs(self):
        return _deltoid_and_snapshot(**self.shape)

    def test_first_driver_converging_touches_nothing(self):
        normal, snapshot = self._inputs()
        telemetry = Telemetry()
        state = recover(normal, snapshot, telemetry=telemetry)
        assert state.lens_iterations > 0 and state.lens_converged
        assert not _fallbacks(telemetry, "gesvd")
        assert not _fallbacks(telemetry, "full")
        assert not _fallbacks(telemetry, "midpoint")
        assert telemetry.recorder.events("lens_svd_fallback") == []

    def test_gesvd_answers_when_gesdd_gives_up(self, monkeypatch):
        normal, snapshot = self._inputs()
        expected = recover(normal, snapshot)
        monkeypatch.setattr(np.linalg, "svd", _no_convergence)
        telemetry = Telemetry()
        state = recover(normal, snapshot, telemetry=telemetry)
        assert state.lens_converged
        assert state.lens_iterations == expected.lens_iterations
        assert list(state.flow_estimates) == list(expected.flow_estimates)
        assert np.allclose(
            list(state.flow_estimates.values()),
            list(expected.flow_estimates.values()),
            rtol=1e-9,
        )
        # One retry per sweep of the solver.
        assert _fallbacks(telemetry, "gesvd") == state.lens_iterations
        assert not _fallbacks(telemetry, "midpoint")
        (event,) = telemetry.recorder.events("lens_svd_fallback")
        assert event.fields == {
            "gesvd_retries": state.lens_iterations,
            "full": False,
            "midpoint": False,
        }

    def test_midpoint_stands_in_when_no_driver_converges(self, monkeypatch):
        normal, snapshot = self._inputs()
        monkeypatch.setattr(np.linalg, "svd", _no_convergence)
        monkeypatch.setattr(scipy.linalg, "svd", _no_convergence)
        telemetry = Telemetry()
        state = recover(normal, snapshot, telemetry=telemetry)

        flows = [flow for flow, *_ in snapshot.rows()]
        midpoint = box_midpoint(
            normal.to_matrix(),
            [r + d for _, e, r, d in snapshot.rows()],
            [r + d + e for _, e, r, d in snapshot.rows()],
            snapshot.total_bytes,
        )
        assert state.lens_converged is False
        assert state.lens_iterations == 0
        assert state.flow_estimates == dict(zip(flows, midpoint.tolist()))
        assert state.tracked_bytes == float(midpoint.sum())
        # The recovered sketch is N plus the midpoints plus the small
        # flows, as for a sketch that never runs the solver.
        expected = _copy_sketch(normal)
        for flow, value in zip(flows, midpoint.tolist()):
            expected.inject(flow, int(round(value)))
        _inject_synthetic_small_flows(
            expected,
            state.small_flow_bytes,
            _tracking_boundary(snapshot),
            count=_missing_flow_count(snapshot),
        )
        codec = StateCodec()
        assert codec.encode(state.sketch) == codec.encode(expected)
        assert _fallbacks(telemetry, "midpoint") == 1
        assert not _fallbacks(telemetry, "gesvd")
        (event,) = telemetry.recorder.events("lens_svd_fallback")
        assert event.fields == {
            "gesvd_retries": 0,
            "full": False,
            "midpoint": True,
        }

    def test_solver_reports_the_failure_with_a_usable_result(
        self, monkeypatch
    ):
        normal, snapshot = self._inputs()
        flows = [flow for flow, *_ in snapshot.rows()]
        arguments = dict(
            n_matrix=normal.to_matrix(),
            positions=normal.matrix_positions(flows),
            lower=[r + d for _, e, r, d in snapshot.rows()],
            upper=[r + d + e for _, e, r, d in snapshot.rows()],
            volume=snapshot.total_bytes,
        )
        calls = []

        def second_call_fails(matrix, **kwargs):
            calls.append(matrix.shape)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(matrix, **kwargs)

        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", second_call_fails)
        monkeypatch.setattr(scipy.linalg, "svd", _no_convergence)
        result = lens_interpolate(**arguments)
        assert result.svd_failed and not result.converged
        assert result.iterations == 1 and len(result.residuals) == 1
        assert result.x.tobytes() == box_midpoint(
            arguments["n_matrix"],
            arguments["lower"],
            arguments["upper"],
            arguments["volume"],
        ).tobytes()
        assert result.matrix.shape == arguments["n_matrix"].shape
        assert np.isfinite(result.matrix).all()


class TestSvdLadderOnRangeFinder(TestSvdLadder):
    """The same ladder on a 210 x 300 Deltoid matrix, which the range
    finder projects onto ``RANGE_RANK`` directions first (5-12 values
    survive per sweep): gesdd, gesvd and the midpoint see the
    ``RANGE_RANK x 300`` projection, one factorization per sweep."""

    shape = dict(width=300, flows=370)

    def test_the_projection_answers(self, monkeypatch):
        normal, snapshot = self._inputs()
        assert min(normal.to_matrix().shape) > 2 * lens.RANGE_RANK
        shapes = []
        real_svd = np.linalg.svd

        def recording(matrix, **kwargs):
            shapes.append(matrix.shape)
            return real_svd(matrix, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        state = recover(normal, snapshot)
        assert shapes == [(lens.RANGE_RANK, 300)] * state.lens_iterations


@pytest.mark.parametrize("threshold", [0.0, 0.5])
def test_singular_value_threshold_survives_gesdd(monkeypatch, threshold):
    matrix = np.random.default_rng(3).random((12, 20))
    expected = lens.singular_value_threshold(matrix, threshold)
    monkeypatch.setattr(np.linalg, "svd", _no_convergence)
    assert np.allclose(
        lens.singular_value_threshold(matrix, threshold), expected
    )
