"""MRAC [26]: flow size distribution from an array of counters.

A single row of counters; every packet increments one counter chosen by
hashing the flow.  The *flow size distribution* (number of flows with
each packet count) is recovered from the histogram of counter values by
deconvolving the hash-collision process.

Recovery here uses the compound-Poisson inversion that underlies Kumar
et al.'s EM estimator: with ``n`` flows in ``m`` counters, each counter
receives ``Poisson(n/m)`` flows, so the counter-value PGF is
``C(x) = exp(lambda * (F(x) - 1))`` with ``F`` the flow-size PMF.
Taking the formal power-series logarithm of the empirical counter-value
distribution therefore yields ``lambda * f_s`` directly — a closed-form
fixed point of the EM iteration, computed by the standard
``C * L' = C'`` recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey
from repro.common.hashing import HashFamily
from repro.sketches.base import (
    CostProfile,
    Positions,
    Sketch,
    flow_major,
    key64_column,
)

_COUNTER_BYTES = 8


def power_series_log(coefficients: np.ndarray) -> np.ndarray:
    """Formal power-series logarithm of ``sum_z c_z x^z`` (c_0 > 0).

    Uses the recurrence ``s*c_s = sum_{j=1}^{s} j * l_j * c_{s-j}``
    derived from ``C * L' = C'``.

    The inner sum walks only the non-zero ``c_{s-j}``, ``j`` ascending
    (largest coefficient index first): a zero coefficient contributes
    ``acc -= (j * l_j) * 0.0``, which leaves ``acc`` as it was, so the
    result is bit-identical to the full double loop
    (``tests/reference_mrac.py``) at ``O(len * nnz(c))``.  The two
    cases where subtracting a zero product is *not* a no-op take every
    index, as the full loop does: once some ``j * l_j`` has overflowed
    (``inf * 0 = nan``), and a row that starts at ``-0.0``
    (``-0.0 - -0.0 = +0.0``).
    """
    c = np.asarray(coefficients, dtype=np.float64)
    if c[0] <= 0:
        raise ValueError("constant term must be positive for log")
    length = len(c)
    # Plain floats: the same IEEE doubles, several times faster to
    # touch one at a time than NumPy scalars.
    coeffs = c.tolist()
    nonzero = np.flatnonzero(c[1:]) + 1
    ends = np.searchsorted(nonzero, np.arange(length)).tolist()
    nonzero = nonzero.tolist()
    weighted = [0.0] * length  # j * l_j
    log_coeffs = [0.0] * length
    log_coeffs[0] = float(np.log(c[0]))
    dense = False
    for s in range(1, length):
        acc = s * coeffs[s]
        if dense or (acc == 0.0 and math.copysign(1.0, acc) < 0.0):
            for j in range(1, s):
                acc -= weighted[j] * coeffs[s - j]
        else:
            for k in reversed(nonzero[: ends[s]]):
                acc -= weighted[s - k] * coeffs[k]
        log_coeffs[s] = acc / (s * coeffs[0])
        weighted[s] = s * log_coeffs[s]
        if not math.isfinite(weighted[s]):
            dense = True
    return np.array(log_coeffs, dtype=np.float64)


class MRAC(Sketch):
    """MRAC counter array over 5-tuple flows (packet counts).

    Parameters
    ----------
    width:
        Number of counters (paper: a single row of 4000).
    max_size:
        Largest flow size (in packets) tracked by the estimator; counter
        values above it are clamped into the last slot for decoding.
    """

    name = "mrac"
    low_rank = False
    key64_updates = True

    def __init__(self, width: int = 4000, max_size: int = 512, seed: int = 1):
        super().__init__(seed)
        if width < 1:
            raise ConfigError("width must be >= 1")
        if max_size < 1:
            raise ConfigError("max_size must be >= 1")
        self.width = width
        self.max_size = max_size
        self._hashes = HashFamily(1, seed)
        self.counters = np.zeros(width, dtype=np.float64)

    def update(self, flow: FlowKey, value: int) -> None:
        # MRAC counts packets, not bytes: `value` is ignored by design.
        self.counters[self._hashes.bucket(0, flow.key64, self.width)] += 1

    def update_key64(self, key64: int, value: int) -> None:
        self.counters[self._hashes.bucket(0, key64, self.width)] += 1

    def update_batch(self, keys64, values) -> None:
        """Vectorized packet-count update over a key64 column.

        Per-bucket increments are all +1, so a ``bincount`` of bucket
        hits adds exact integers — bit-identical to the scalar loop.
        """
        cols = self._hashes.buckets_array(keys64, self.width)[0]
        self.counters += np.bincount(cols, minlength=self.width).astype(
            np.float64
        )

    def inject(self, flow: FlowKey, value: int) -> None:
        """Recovery injection: convert recovered bytes to packets.

        The fast path tracks byte volumes; MRAC counts packets, so the
        recovered volume converts at the dataset mean packet size.
        """
        packets = max(1, round(value / 769.0))
        self.counters[
            self._hashes.bucket(0, flow.key64, self.width)
        ] += packets

    def inject_columns(self, hi, lo, keys64, values) -> None:
        """:meth:`inject` per row: integer packet counts summed per
        bucket (``np.rint`` rounds half to even, as ``round`` does)."""
        packets = np.maximum(
            1.0, np.rint(np.asarray(values, dtype=np.float64) / 769.0)
        )
        cols = self._hashes.buckets_array(keys64, self.width)[0]
        self.counters += np.bincount(
            cols, weights=packets, minlength=self.width
        )

    # ------------------------------------------------------------------
    def counter_histogram(self) -> np.ndarray:
        """``h[z]`` = number of counters holding value ``z``."""
        clamped = np.minimum(
            self.counters.astype(np.int64), self.max_size
        )
        return np.bincount(clamped, minlength=self.max_size + 1).astype(
            np.float64
        )

    def decode(self) -> dict[int, float]:
        """Estimated flow size distribution ``{packets: num_flows}``.

        Inverts the compound-Poisson collision process via the
        power-series log of the empirical counter-value distribution.
        """
        histogram = self.counter_histogram()
        if histogram[0] == 0:
            # Saturated array: no zero counters, the Poisson inversion
            # has no information — fall back to raw counter values.
            raw = np.bincount(
                self.counters.astype(np.int64), minlength=2
            )
            return {
                size: float(count)
                for size, count in enumerate(raw)
                if size > 0 and count > 0
            }
        pmf = histogram / histogram.sum()
        log_coeffs = power_series_log(pmf)
        estimate = np.maximum(log_coeffs * self.width, 0.0)
        # Deconvolution noise leaves a dust of fractional counts across
        # many sizes; sizes estimated at under half a flow are noise,
        # not signal, and would dominate the MRD metric if reported.
        return {
            size: float(estimate[size])
            for size in range(1, len(estimate))
            if estimate[size] > 0.5
        }

    def cardinality(self) -> float:
        """Distinct-flow estimate (sums the decoded distribution)."""
        return float(sum(self.decode().values()))

    # ------------------------------------------------------------------
    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, MRAC)
        if other.width != self.width:
            raise MergeError("MRAC widths differ")
        self._fold(other)

    def fold_buffers(self):
        return ((self.counters, np.add),)

    def to_matrix(self) -> np.ndarray:
        return self.counters.reshape(1, -1).copy()

    def load_matrix(self, matrix: np.ndarray) -> None:
        if matrix.shape != (1, self.width):
            raise ConfigError(
                f"matrix shape {matrix.shape} != (1, {self.width})"
            )
        self.counters = matrix.reshape(-1).astype(np.float64).copy()

    def matrix_positions(self, flows) -> Positions:
        return flow_major(
            0, self._hashes.buckets_array(key64_column(flows), self.width)
        )

    def memory_bytes(self) -> int:
        return self.width * _COUNTER_BYTES

    def cost_profile(self) -> CostProfile:
        # The cheapest solution in the paper (404 cycles/packet):
        # one hash, one counter increment.
        return CostProfile(hashes=1, counter_updates=1)

    def clone_empty(self) -> "MRAC":
        return MRAC(self.width, self.max_size, self.seed)
