"""The quadratic power-series logarithm: the oracle for the sparse kernel.

This is ``repro.sketches.mrac.power_series_log`` as it was written
first — the full ``O(len²)`` double loop over NumPy scalars, every
coefficient visited whether or not it is zero.  The kernel in ``src/``
skips zero coefficients and must return the same bytes, overflow to
inf/nan included.
"""

from __future__ import annotations

import numpy as np


def reference_power_series_log(coefficients: np.ndarray) -> np.ndarray:
    c = np.asarray(coefficients, dtype=np.float64)
    if c[0] <= 0:
        raise ValueError("constant term must be positive for log")
    length = len(c)
    log_coeffs = np.zeros(length, dtype=np.float64)
    log_coeffs[0] = np.log(c[0])
    for s in range(1, length):
        acc = s * c[s]
        for j in range(1, s):
            acc -= j * log_coeffs[j] * c[s - j]
        log_coeffs[s] = acc / (s * c[0])
    return log_coeffs
