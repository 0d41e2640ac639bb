"""Exact singular-value thresholding: the oracle for LENS's ``_shrink``.

This is the nuclear step as it was written first: one full gesdd SVD
of the whole matrix, every value shrunk by ``threshold``, and the
matrix rebuilt from the survivors.  ``repro.controlplane.lens`` factors
only the leading subspace a seeded randomized range finder finds, and
must keep the same number of values and agree with this within the
tolerance ``tests/test_merge_lens.py`` states.
"""

from __future__ import annotations

import numpy as np


def exact_shrink(
    matrix: np.ndarray, threshold: float
) -> tuple[np.ndarray, int]:
    """The shrunk matrix and how many singular values survived."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0
    if not keep.any():
        return np.zeros_like(matrix), 0
    return (u[:, keep] * s[keep]) @ vt[keep], int(keep.sum())
