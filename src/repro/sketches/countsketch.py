"""CountSketch [8] — the unbiased building block inside UnivMon.

Like Count-Min but each update is multiplied by a ±1 sign hash, and a
point query takes the *median* across rows, giving an unbiased estimator
with error proportional to the L2 norm of the stream.
"""

from __future__ import annotations

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


class CountSketch(Sketch):
    """CountSketch over 64-bit folded keys.

    Parameters
    ----------
    width:
        Counters per row.
    depth:
        Rows; odd values give a well-defined median.
    """

    name = "countsketch"
    low_rank = False
    key64_updates = True

    def __init__(self, width: int = 4000, depth: int = 5, seed: int = 1):
        super().__init__(seed)
        if width < 1 or depth < 1:
            raise ConfigError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self._hashes = HashFamily(depth, seed)
        self.counters = np.zeros((depth, width), dtype=np.float64)

    def update(self, flow: FlowKey, value: int) -> None:
        self.update_key64(flow.key64, value)

    def update_key64(self, key64: int, value: int) -> None:
        cols = self._hashes.buckets(key64, self.width)
        signs = self._hashes.signs(key64)
        for row in range(self.depth):
            self.counters[row, cols[row]] += signs[row] * value

    def update_batch(self, keys64, values) -> None:
        """Vectorized signed update over a key64 column (bit-identical)."""
        cols = self._hashes.buckets_array(keys64, self.width)
        signs = self._hashes.signs_array(keys64)
        values = np.asarray(values, dtype=np.float64)
        for row in range(self.depth):
            np.add.at(self.counters[row], cols[row], signs[row] * values)

    def estimate(self, flow: FlowKey) -> float:
        return self.estimate_key64(flow.key64)

    def estimate_key64(self, key64: int) -> float:
        cols = self._hashes.buckets(key64, self.width)
        signs = self._hashes.signs(key64)
        values = [
            signs[row] * self.counters[row, cols[row]]
            for row in range(self.depth)
        ]
        return float(np.median(values))

    def l2_estimate(self) -> float:
        """Estimate of the squared L2 norm of the stream (median of rows)."""
        return float(np.median((self.counters**2).sum(axis=1)))

    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, CountSketch)
        if (other.width, other.depth) != (self.width, self.depth):
            raise MergeError("CountSketch shapes differ")
        self._fold(other)

    def fold_buffers(self):
        return ((self.counters, np.add),)

    def to_matrix(self) -> np.ndarray:
        return self.counters.copy()

    def load_matrix(self, matrix: np.ndarray) -> None:
        if matrix.shape != self.counters.shape:
            raise ConfigError(
                f"matrix shape {matrix.shape} != {self.counters.shape}"
            )
        self.counters = matrix.astype(np.float64).copy()

    def matrix_positions(self, flows) -> Positions:
        keys = key64_column(flows)
        return flow_major(
            np.arange(self.depth)[:, None],
            self._hashes.buckets_array(keys, self.width),
            self._hashes.signs_array(keys),
        )

    def memory_bytes(self) -> int:
        return self.depth * self.width * _COUNTER_BYTES

    def cost_profile(self) -> CostProfile:
        # Bucket hash + sign hash per row.
        return CostProfile(
            hashes=2 * self.depth,
            counter_updates=self.depth,
        )

    def clone_empty(self) -> "CountSketch":
        return CountSketch(self.width, self.depth, self.seed)
