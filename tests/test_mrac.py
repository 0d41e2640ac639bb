"""MRAC: counter-array flow size distribution via Poisson inversion."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, MergeError
from repro.sketches import mrac
from repro.sketches.mrac import MRAC, power_series_log
from tests.conftest import make_flow
from tests.reference_mrac import reference_power_series_log


def loaded_mrac(flows: int, seed: int = 1) -> MRAC:
    """A 4000-counter MRAC holding ``flows`` Zipf-sized flows."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(1, 2**63, size=flows, dtype=np.uint64)
    packets = np.minimum(rng.zipf(1.8, size=flows), 400)
    sketch = MRAC(width=4000, seed=3)
    column = np.repeat(keys, packets)
    sketch.update_batch(column, np.ones(column.size, dtype=np.int64))
    return sketch


def reference_log(coefficients: np.ndarray) -> np.ndarray:
    """The oracle, with NumPy's overflow warnings silenced (driving it
    to inf/nan is the point of half the cases below)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return reference_power_series_log(coefficients)


@st.composite
def coefficient_vectors(draw) -> np.ndarray:
    """Anything from one non-zero coefficient to all of them, signed
    zeros among them; a tiny ``c[0]`` makes the recurrence overflow."""
    length = draw(st.integers(2, 64))
    coefficients = np.zeros(length, dtype=np.float64)
    coefficients[0] = draw(
        st.one_of(
            st.floats(1e-3, 1.0),
            st.sampled_from([5e-324, 1e-300, 1e-150, 1e-30]),
        )
    )
    entry = st.one_of(
        st.just(-0.0), st.floats(1e-12, 1.0), st.floats(-1.0, -1e-12)
    )
    for position in draw(st.sets(st.integers(1, length - 1))):
        coefficients[position] = draw(entry)
    return coefficients


class TestPowerSeriesLog:
    def test_inverts_exp(self):
        """log of the power series of exp(c*x) recovers c at degree 1."""
        # exp(lambda*(x-1)) truncated: Poisson pmf over 0..n.
        lam = 0.7
        from math import exp, factorial

        pmf = np.array(
            [exp(-lam) * lam**k / factorial(k) for k in range(20)]
        )
        log_coeffs = power_series_log(pmf)
        assert log_coeffs[0] == pytest.approx(-lam)
        assert log_coeffs[1] == pytest.approx(lam, rel=1e-6)
        assert abs(log_coeffs[2]) < 1e-9

    def test_compound_poisson_mixture(self):
        """Flows of sizes 1 and 3 appear at the right coefficients."""
        from math import exp

        lam1, lam3 = 0.4, 0.2
        # PGF = exp(lam1*(x-1) + lam3*(x^3-1)); build via convolutions.
        degree = 24
        log_target = np.zeros(degree)
        log_target[0] = -(lam1 + lam3)
        log_target[1] = lam1
        log_target[3] = lam3
        # exponentiate the series numerically
        series = np.zeros(degree)
        series[0] = 1.0
        term = np.zeros(degree)
        term[0] = 1.0
        for n in range(1, 40):
            term = np.convolve(term, log_target)[:degree] / n
            series += term
        series[0] *= exp(0)  # already includes the constant
        recovered = power_series_log(series / series.sum())
        assert recovered[1] == pytest.approx(lam1, rel=0.02)
        assert recovered[3] == pytest.approx(lam3, rel=0.02)

    def test_requires_positive_constant(self):
        with pytest.raises(ValueError):
            power_series_log(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            power_series_log(np.array([-0.25, 1.0]))


class TestSparseKernelMatchesQuadraticLoop:
    """``power_series_log`` skips zero coefficients; the bytes it
    returns are those of the full double loop."""

    # 30K flows leave c[0] ~ 1e-3 and |l| far beyond 1e87.
    LOADS = (1_500, 6_000, 12_000, 30_000)

    @pytest.mark.parametrize("flows", LOADS)
    def test_real_counter_histograms(self, flows):
        histogram = loaded_mrac(flows).counter_histogram()
        assert histogram[0] > 0
        pmf = histogram / histogram.sum()
        assert np.count_nonzero(pmf) < len(pmf)
        assert (
            power_series_log(pmf).tobytes()
            == reference_log(pmf).tobytes()
        )

    @settings(max_examples=200, deadline=None)
    @given(coefficients=coefficient_vectors())
    def test_any_coefficients(self, coefficients):
        assert (
            power_series_log(coefficients).tobytes()
            == reference_log(coefficients).tobytes()
        )

    def test_overflowed_terms_poison_later_zeros(self):
        """Once ``j * l_j`` is inf, a zero coefficient gives inf * 0 =
        nan in the full loop; the kernel must not skip it."""
        coefficients = np.zeros(40)
        coefficients[0] = 1e-300
        coefficients[1] = 1.0
        expected = reference_log(coefficients)
        assert np.isnan(expected).any()
        assert power_series_log(coefficients).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("flows", LOADS)
    def test_decode_unchanged(self, flows, monkeypatch):
        sketch = loaded_mrac(flows)
        decoded = sketch.decode()
        monkeypatch.setattr(mrac, "power_series_log", reference_log)
        expected = sketch.decode()
        assert list(decoded.items()) == list(expected.items())


class TestMRAC:
    def test_counts_packets_not_bytes(self):
        sketch = MRAC(width=1024)
        flow = make_flow(1)
        for _ in range(7):
            sketch.update(flow, 1500)
        assert sketch.counters.sum() == 7

    def test_decode_recovers_distribution(self):
        sketch = MRAC(width=4000, seed=3)
        # 600 flows of size 1, 200 of size 3, 50 of size 8.
        truth = {1: 600, 3: 200, 8: 50}
        index = 0
        for size, count in truth.items():
            for _ in range(count):
                flow = make_flow(index)
                index += 1
                for _ in range(size):
                    sketch.update(flow, 100)
        estimated = sketch.decode()
        for size, count in truth.items():
            assert estimated.get(size, 0.0) == pytest.approx(
                count, rel=0.25
            )

    def test_cardinality_estimate(self, small_trace, small_truth):
        sketch = MRAC(width=4000)
        for packet in small_trace:
            sketch.update(packet.flow, packet.size)
        assert sketch.cardinality() == pytest.approx(
            small_truth.cardinality, rel=0.15
        )

    def test_saturated_array_falls_back(self):
        sketch = MRAC(width=4)
        for i in range(100):
            sketch.update(make_flow(i), 10)
        estimated = sketch.decode()  # no zero counters: fallback path
        assert sum(estimated.values()) > 0

    def test_inject_converts_bytes(self):
        sketch = MRAC(width=1024)
        sketch.inject(make_flow(1), 7690)  # ~10 packets
        assert sketch.counters.sum() == 10

    def test_merge(self):
        a = MRAC(width=512, seed=2)
        b = MRAC(width=512, seed=2)
        a.update(make_flow(1), 10)
        b.update(make_flow(1), 10)
        a.merge(b)
        assert a.counters.sum() == 2

    def test_merge_rejects_mismatch(self):
        with pytest.raises(MergeError):
            MRAC(width=512).merge(MRAC(width=256))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MRAC(width=0)
        with pytest.raises(ConfigError):
            MRAC(max_size=0)

    def test_cheapest_cost_profile(self):
        profile = MRAC().cost_profile()
        assert profile.hashes == 1
        assert profile.counter_updates == 1
