"""Count-Min sketch [14] — the paper's running example (Figure 1).

A ``d x w`` counter array with ``d`` independent hash functions.  Each
packet adds its byte count to one counter per row; a point query returns
the minimum of the flow's ``d`` counters, which overestimates the true
size by at most ``e * V / w`` with probability ``1 - (1/2)^d``.
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


class CountMinSketch(Sketch):
    """Count-Min sketch over 5-tuple flows.

    Parameters
    ----------
    width:
        Counters per row (``w``).
    depth:
        Number of rows / hash functions (``d``).
    seed:
        Hash family seed.
    """

    name = "countmin"
    low_rank = False  # few rows, rank == depth (§5.3, Figure 5)
    key64_updates = True

    def __init__(self, width: int = 4000, depth: int = 4, seed: int = 1):
        super().__init__(seed)
        if width < 1 or depth < 1:
            raise ConfigError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self._hashes = HashFamily(depth, seed)
        self.counters = np.zeros((depth, width), dtype=np.float64)

    # ------------------------------------------------------------------
    def update(self, flow: FlowKey, value: int) -> None:
        key64 = flow.key64
        for row, col in enumerate(self._hashes.buckets(key64, self.width)):
            self.counters[row, col] += value

    def update_key64(self, key64: int, value: int) -> None:
        """Update by a pre-folded 64-bit key (host-based statistics)."""
        for row, col in enumerate(self._hashes.buckets(key64, self.width)):
            self.counters[row, col] += value

    def update_batch(self, keys64, values) -> None:
        """Vectorized update over a key64 column.

        ``np.add.at`` applies additions in array order, so per-bucket
        accumulation happens in the same sequence as the scalar loop —
        the counters come out bit-identical.
        """
        cols = self._hashes.buckets_array(keys64, self.width)
        values = np.asarray(values, dtype=np.float64)
        for row in range(self.depth):
            np.add.at(self.counters[row], cols[row], values)

    def estimate(self, flow: FlowKey) -> float:
        """Point query: never underestimates the true byte count."""
        return self.estimate_key64(flow.key64)

    def estimate_key64(self, key64: int) -> float:
        return min(
            self.counters[row, col]
            for row, col in enumerate(
                self._hashes.buckets(key64, self.width)
            )
        )

    # ------------------------------------------------------------------
    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, CountMinSketch)
        if (other.width, other.depth) != (self.width, self.depth):
            raise MergeError("Count-Min shapes differ")
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
        return flow_major(
            np.arange(self.depth)[:, None],
            self._hashes.buckets_array(key64_column(flows), self.width),
        )

    def memory_bytes(self) -> int:
        return self.depth * self.width * _COUNTER_BYTES

    def cost_profile(self) -> CostProfile:
        return CostProfile(
            hashes=self.depth,
            counter_updates=self.depth,
        )

    def clone_empty(self) -> "CountMinSketch":
        return CountMinSketch(self.width, self.depth, self.seed)
