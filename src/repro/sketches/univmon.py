"""UnivMon [30]: universal sketching — one sketch, many statistics.

A hierarchy of ``L`` levels; level ``i`` monitors the substream of flows
whose sampling hash has at least ``i`` trailing zero bits (each level
halves the substream).  Every level runs a CountSketch plus a top-k
tracker.  Any function ``G = sum_f g(v_f)`` is then estimated by the
recursive universal estimator:

    Y_{L-1} = sum_{f in heap_{L-1}} g(v_f)
    Y_i     = 2 * Y_{i+1} + sum_{f in heap_i} (1 - 2*s_{i+1}(f)) * g(v_f)

where ``s_{i+1}(f)`` indicates membership of ``f`` in level ``i+1``.
Heavy hitters come from the level-0 tracker; entropy uses
``g(v) = v * log2(v)``; cardinality uses ``g(v) = 1``.

The paper's configuration: counter widths 4000 / 2000 / 1000 / 500 /
500... and a 500-flow heap per level; UnivMon spends 53% of its cycles
hashing and 47% maintaining heaps (§2.2; 4,382 cycles/packet).
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey
from repro.common.hashing import mix64, mix64_array, trailing_zeros_array
from repro.sketches.base import (
    CostProfile,
    Positions,
    Sketch,
    flow_major,
    key64_column,
)
from repro.sketches.countsketch import CountSketch

PAPER_LEVEL_WIDTHS = (4000, 2000, 1000, 500, 500, 500, 500, 500)


def _trailing_zeros(value: int) -> int:
    if value == 0:
        return 64
    return (value & -value).bit_length() - 1


class UnivMon(Sketch):
    """UnivMon over 5-tuple flows.

    Parameters
    ----------
    level_widths:
        CountSketch width per level; the number of levels is its length.
    depth:
        CountSketch rows per level.
    heap_size:
        Top-k tracker capacity per level (paper: 500).

    UnivMon has no batch kernel: which flows a level's tracker holds,
    and the estimate stored with each, depend on the order packets
    arrive in (admission, pruning), so the engine applies it
    through the default per-packet :meth:`Sketch.update_trace` loop.
    """

    name = "univmon"
    low_rank = False

    def __init__(
        self,
        level_widths: tuple[int, ...] = PAPER_LEVEL_WIDTHS,
        depth: int = 5,
        heap_size: int = 500,
        seed: int = 1,
    ):
        super().__init__(seed)
        if not level_widths:
            raise ConfigError("need at least one level")
        if heap_size < 1:
            raise ConfigError("heap_size must be >= 1")
        self.level_widths = tuple(level_widths)
        self.num_levels = len(level_widths)
        self.depth = depth
        self.heap_size = heap_size
        self._sample_seed = mix64(seed ^ 0x0451_0451)
        self.sketches = [
            CountSketch(width, depth, seed=mix64(seed + 31 * (i + 1)))
            for i, width in enumerate(level_widths)
        ]
        # Per-level top-k tracker: {key64: (FlowKey, estimate)}.
        self.trackers: list[dict[int, tuple[FlowKey, float]]] = [
            {} for _ in range(self.num_levels)
        ]

    # ------------------------------------------------------------------
    def flow_level(self, key64: int) -> int:
        """Deepest level this flow participates in (0-based)."""
        ntz = _trailing_zeros(mix64(key64 ^ self._sample_seed))
        return min(ntz, self.num_levels - 1)

    def update(self, flow: FlowKey, value: int) -> None:
        key64 = flow.key64
        deepest = self.flow_level(key64)
        for level in range(deepest + 1):
            sketch = self.sketches[level]
            sketch.update_key64(key64, value)
            tracker = self.trackers[level]
            if key64 in tracker or len(tracker) < 2 * self.heap_size:
                estimate = sketch.estimate_key64(key64)
                tracker[key64] = (flow, max(estimate, 0.0))
            else:
                estimate = sketch.estimate_key64(key64)
                self._prune_tracker(level)
                tracker = self.trackers[level]
                if len(tracker) < 2 * self.heap_size:
                    tracker[key64] = (flow, max(estimate, 0.0))

    def _prune_tracker(self, level: int) -> None:
        """Drop the smallest tracked flows, keeping ``heap_size`` of them."""
        tracker = self.trackers[level]
        if len(tracker) <= self.heap_size:
            return
        kept = sorted(
            tracker.items(), key=lambda item: item[1][1], reverse=True
        )[: self.heap_size]
        self.trackers[level] = dict(kept)

    def _top_flows(self, level: int) -> list[tuple[FlowKey, int, float]]:
        """Top flows of a level with refreshed CountSketch estimates."""
        sketch = self.sketches[level]
        refreshed = [
            (flow, key64, max(sketch.estimate_key64(key64), 0.0))
            for key64, (flow, _stale) in self.trackers[level].items()
        ]
        refreshed.sort(key=lambda item: item[2], reverse=True)
        return refreshed[: self.heap_size]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def heavy_hitters(self, threshold: float) -> dict[FlowKey, float]:
        """Flows in the level-0 tracker whose estimate exceeds threshold."""
        return {
            flow: estimate
            for flow, _key64, estimate in self._top_flows(0)
            if estimate > threshold
        }

    def g_sum(self, g) -> float:
        """Universal estimator for ``G = sum_f g(v_f)`` (g(0) must be 0)."""
        estimate = 0.0
        for level in reversed(range(self.num_levels)):
            contribution = 0.0
            for _flow, key64, value in self._top_flows(level):
                if value <= 0:
                    continue
                if level == self.num_levels - 1:
                    contribution += g(value)
                else:
                    in_next = self.flow_level(key64) > level
                    contribution += (1 - 2 * int(in_next)) * g(value)
            if level == self.num_levels - 1:
                estimate = contribution
            else:
                estimate = 2 * estimate + contribution
        return max(estimate, 0.0)

    def entropy(self, total_bytes: float) -> float:
        """Shannon entropy (bits) of the flow size distribution."""
        if total_bytes <= 0:
            return 0.0
        g_v_log_v = self.g_sum(
            lambda value: value * math.log2(value) if value > 1 else 0.0
        )
        return max(math.log2(total_bytes) - g_v_log_v / total_bytes, 0.0)

    def cardinality(self) -> float:
        """Distinct-flow estimate via ``g(v) = 1``."""
        return self.g_sum(lambda value: 1.0)

    def moment(self, p: float) -> float:
        """``p``-th frequency moment ``F_p = sum_f v_f^p``.

        ``p = 0`` is cardinality, ``p = 1`` total volume, ``p = 2`` the
        repeat-rate/self-join size — the universal-sketching promise of
        one structure answering the whole moment family.
        """
        if p < 0:
            raise ConfigError("moment order must be >= 0")
        return self.g_sum(lambda value: float(value) ** p)

    # ------------------------------------------------------------------
    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, UnivMon)
        if (
            other.level_widths != self.level_widths
            or other.depth != self.depth
        ):
            raise MergeError("UnivMon configurations differ")
        self._fold(other)
        for level in range(self.num_levels):
            merged = dict(self.trackers[level])
            for key64, (flow, _est) in other.trackers[level].items():
                merged.setdefault(key64, (flow, 0.0))
            sketch = self.sketches[level]
            self.trackers[level] = {
                key64: (flow, max(sketch.estimate_key64(key64), 0.0))
                for key64, (flow, _est) in merged.items()
            }
        # The merged sketch lives in the control plane, which has no
        # per-host memory constraint: keep the tracker union (this is
        # what makes Figure 12's recall improve with deployment size —
        # each host contributes the heavy keys of its own shard).
        self.heap_size = max(
            self.heap_size,
            max((len(t) for t in self.trackers), default=self.heap_size),
        )

    def to_matrix(self) -> np.ndarray:
        return np.hstack([s.counters for s in self.sketches])

    def load_matrix(self, matrix: np.ndarray) -> None:
        expected = (self.depth, sum(self.level_widths))
        if matrix.shape != expected:
            raise ConfigError(f"matrix shape {matrix.shape} != {expected}")
        offset = 0
        for sketch in self.sketches:
            sketch.counters = (
                matrix[:, offset : offset + sketch.width]
                .astype(np.float64)
                .copy()
            )
            offset += sketch.width

    def matrix_positions(self, flows) -> Positions:
        """Per flow, the CountSketch rows of levels ``0..flow_level``:
        slot ``level * depth + row`` is matrix cell
        ``(row, level offset + col)`` with the row's sign."""
        keys = key64_column(flows)
        deepest = np.minimum(
            trailing_zeros_array(mix64_array(keys, self._sample_seed)),
            self.num_levels - 1,
        )
        offsets = np.cumsum((0,) + self.level_widths[:-1])
        levels = self.sketches
        slot_level = np.repeat(np.arange(self.num_levels), self.depth)
        return flow_major(
            np.tile(np.arange(self.depth), self.num_levels)[:, None],
            np.concatenate(
                [
                    level._hashes.buckets_array(keys, level.width) + offset
                    for level, offset in zip(levels, offsets)
                ]
            ),
            np.concatenate(
                [level._hashes.signs_array(keys) for level in levels]
            ),
            mask=slot_level[:, None] <= deepest,
        )

    def memory_bytes(self) -> int:
        sketch_bytes = sum(s.memory_bytes() for s in self.sketches)
        # 13-byte key + 8-byte estimate per heap slot.
        heap_bytes = self.num_levels * self.heap_size * (13 + 8)
        return sketch_bytes + heap_bytes

    def cost_profile(self) -> CostProfile:
        # A flow participates in ~2 levels on average (geometric);
        # each level costs a CountSketch update + an estimate refresh
        # (2*depth hashes each) and tracker maintenance.
        avg_levels = 2.0
        return CostProfile(
            hashes=1 + avg_levels * 4 * self.depth,
            counter_updates=avg_levels * self.depth,
            heap_ops=avg_levels * 2,
        )

    def clone_empty(self) -> "UnivMon":
        return UnivMon(
            level_widths=self.level_widths,
            depth=self.depth,
            heap_size=self.heap_size,
            seed=self.seed,
        )

    def fold_buffers(self):
        return tuple((sketch.counters, np.add) for sketch in self.sketches)

    def reset(self) -> None:
        super().reset()
        self.trackers = [{} for _ in range(self.num_levels)]
