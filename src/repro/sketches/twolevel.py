"""TwoLevel sketch [56] for DDoS and superspreader detection.

Two levels of hashing: an outer Count-Min over the *aggregate* key (the
destination IP for DDoS, the source IP for superspreaders) whose buckets
each hold a small inner counter array keyed by the *spread* key (the
other endpoint).  The number of distinct spread keys for an aggregate is
estimated by linear counting over its inner arrays.  A Reversible Sketch
over the aggregate key supplies the candidate IPs to query.

Per §4.2 the structure is kept in *volume form* — counters updated by
byte counts instead of bits — so the fast path and the recovery treat it
like every other sketch; linear counting only needs zero/non-zero.

Paper configuration (§7.1): outer Count-Min 2 x 4000, inner arrays
2 x 250, RevSketch 2 x 4096 over 8-bit words of the 32-bit IP.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey
from repro.common.hashing import HashFamily, mix64, mix64_array
from repro.sketches.base import CostProfile, Positions, Sketch, flow_major
from repro.sketches.revsketch import ReversibleSketch

_COUNTER_BYTES = 8


class TwoLevelSketch(Sketch):
    """TwoLevel sketch over (aggregate IP, spread IP) pairs.

    Parameters
    ----------
    mode:
        ``"ddos"`` aggregates by destination and spreads by source;
        ``"superspreader"`` is the mirror image.
    outer_width, outer_depth:
        Count-Min dimensions over the aggregate key.
    inner_width, inner_depth:
        Inner counter-array dimensions per outer bucket.
    """

    name = "twolevel"
    low_rank = True  # Figure 5: ~15% of singular values for <10% error

    def __init__(
        self,
        mode: str = "ddos",
        outer_width: int = 1024,
        outer_depth: int = 2,
        inner_width: int = 64,
        inner_depth: int = 2,
        seed: int = 1,
    ):
        super().__init__(seed)
        if mode not in ("ddos", "superspreader"):
            raise ConfigError(f"unknown mode {mode!r}")
        if min(outer_width, outer_depth, inner_width, inner_depth) < 1:
            raise ConfigError("all dimensions must be >= 1")
        self.mode = mode
        self.outer_width = outer_width
        self.outer_depth = outer_depth
        self.inner_width = inner_width
        self.inner_depth = inner_depth
        self._outer_hashes = HashFamily(outer_depth, seed)
        self._inner_hashes = HashFamily(inner_depth, mix64(seed ^ 0x1221))
        self.counters = np.zeros(
            (outer_depth, outer_width, inner_depth, inner_width),
            dtype=np.float64,
        )
        # Depth 4 (vs the paper's 2 rows) keeps reverse hashing's
        # candidate beam tractable at permissive volume thresholds; the
        # memory delta is two extra 4096-counter rows.
        self.candidates = ReversibleSketch(
            word_bits=8,
            num_words=4,
            subindex_bits=3,
            depth=4,
            seed=mix64(seed ^ 0x2112),
        )

    @classmethod
    def paper_config(cls, mode: str = "ddos", seed: int = 1) -> "TwoLevelSketch":
        """The exact §7.1 configuration (2x4000 outer, 2x250 inner)."""
        return cls(
            mode=mode,
            outer_width=4000,
            outer_depth=2,
            inner_width=250,
            inner_depth=2,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def _keys(self, flow: FlowKey) -> tuple[int, int]:
        if self.mode == "ddos":
            return flow.dst_ip, flow.src_ip
        return flow.src_ip, flow.dst_ip

    def update(self, flow: FlowKey, value: int) -> None:
        aggregate, spread = self._keys(flow)
        self.update_pair(aggregate, spread, value)

    def update_pair(self, aggregate: int, spread: int, value: int) -> None:
        """Record ``value`` bytes from ``spread`` toward ``aggregate``."""
        agg64 = mix64(aggregate)
        spread64 = mix64(spread)
        inner_cols = self._inner_hashes.buckets(spread64, self.inner_width)
        for row, col in enumerate(
            self._outer_hashes.buckets(agg64, self.outer_width)
        ):
            for inner_row, inner_col in enumerate(inner_cols):
                self.counters[row, col, inner_row, inner_col] += value
        self.candidates.update_key(aggregate, value)

    # ------------------------------------------------------------------
    def estimate_spread(self, aggregate: int) -> float:
        """Estimated number of distinct spread keys for ``aggregate``.

        Linear counting over each inner array (non-zero counters are
        "set bits" in volume form), averaged across inner rows, then
        minimized across outer rows to shed collision inflation.
        """
        agg64 = mix64(aggregate)
        estimates = []
        for row, col in enumerate(
            self._outer_hashes.buckets(agg64, self.outer_width)
        ):
            row_estimates = []
            for inner_row in range(self.inner_depth):
                array = self.counters[row, col, inner_row]
                zeros = int((array == 0).sum())
                m = self.inner_width
                if zeros == 0:
                    row_estimates.append(float(m * math.log(m)))
                else:
                    row_estimates.append(m * math.log(m / zeros))
            estimates.append(sum(row_estimates) / len(row_estimates))
        return min(estimates)

    def detect(
        self,
        spread_threshold: float,
        volume_threshold: float | None = None,
    ) -> dict[int, float]:
        """Aggregate keys with estimated spread above ``spread_threshold``.

        Candidates come from reversing the candidate sketch above
        ``volume_threshold``.  The default starts at the 95th percentile
        of candidate-counter values — aggregates with many spread keys
        necessarily accumulate volume across them — and doubles the cut
        whenever reverse hashing would explode (too many heavy buckets
        make the candidate space ambiguous).
        """
        if volume_threshold is None:
            # An aggregate contacted by T distinct spread keys received
            # at least T minimum-size packets, so T * 64 bytes is a
            # sound volume floor for candidates.
            counters = self.candidates.counters
            volume_threshold = max(
                spread_threshold * 64.0, float(counters.mean())
            )
        decoded: dict[int, float] | None = None
        threshold = volume_threshold
        for _attempt in range(20):
            try:
                decoded = self.candidates.decode(threshold)
                break
            except ConfigError:
                threshold *= 2.0
        if decoded is None:
            return {}
        return {
            aggregate: spread
            for aggregate in decoded
            if (spread := self.estimate_spread(aggregate))
            > spread_threshold
        }

    # ------------------------------------------------------------------
    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, TwoLevelSketch)
        if (
            other.mode,
            other.outer_width,
            other.outer_depth,
            other.inner_width,
            other.inner_depth,
        ) != (
            self.mode,
            self.outer_width,
            self.outer_depth,
            self.inner_width,
            self.inner_depth,
        ):
            raise MergeError("TwoLevel configurations differ")
        self._fold(other)

    def fold_buffers(self):
        return (
            (self.counters, np.add),
            (self.candidates.counters, np.add),
        )

    def to_matrix(self) -> np.ndarray:
        """(outer_depth * outer_width) x (inner_depth * inner_width).

        One matrix row per outer bucket: rows of buckets that only see
        background small-flow noise are statistically similar, which is
        the low-rank structure Figure 5 reports for TwoLevel (~15% of
        singular values suffice).
        """
        return self.counters.reshape(
            self.outer_depth * self.outer_width,
            self.inner_depth * self.inner_width,
        ).copy()

    def load_matrix(self, matrix: np.ndarray) -> None:
        expected = (
            self.outer_depth * self.outer_width,
            self.inner_depth * self.inner_width,
        )
        if matrix.shape != expected:
            raise ConfigError(f"matrix shape {matrix.shape} != {expected}")
        self.counters = (
            matrix.reshape(
                self.outer_depth,
                self.outer_width,
                self.inner_depth,
                self.inner_width,
            )
            .astype(np.float64)
            .copy()
        )

    def matrix_positions(self, flows) -> Positions:
        """Per flow, outer row by outer row, its inner counters: slot
        ``row * inner_depth + inner_row`` is matrix row
        ``row * outer_width + col``, column
        ``inner_row * inner_width + inner_col``."""
        pairs = np.fromiter(
            (key for flow in flows for key in self._keys(flow)),
            np.uint64,
            2 * len(flows),
        ).reshape(-1, 2)
        outer = self._outer_hashes.buckets_array(
            mix64_array(pairs[:, 0]), self.outer_width
        )
        inner = self._inner_hashes.buckets_array(
            mix64_array(pairs[:, 1]), self.inner_width
        )
        outer += (np.arange(self.outer_depth) * self.outer_width)[:, None]
        inner += (np.arange(self.inner_depth) * self.inner_width)[:, None]
        return flow_major(
            np.repeat(outer, self.inner_depth, axis=0),
            np.tile(inner, (self.outer_depth, 1)),
        )

    def memory_bytes(self) -> int:
        inner = (
            self.outer_depth
            * self.outer_width
            * self.inner_depth
            * self.inner_width
            * _COUNTER_BYTES
        )
        return inner + self.candidates.memory_bytes()

    def cost_profile(self) -> CostProfile:
        inner_updates = self.outer_depth * self.inner_depth
        candidate_hashes = (
            self.candidates.depth * self.candidates.num_words
        )
        return CostProfile(
            hashes=self.outer_depth + self.inner_depth + candidate_hashes,
            counter_updates=inner_updates + self.candidates.depth,
        )

    def clone_empty(self) -> "TwoLevelSketch":
        return TwoLevelSketch(
            mode=self.mode,
            outer_width=self.outer_width,
            outer_depth=self.outer_depth,
            inner_width=self.inner_width,
            inner_depth=self.inner_depth,
            seed=self.seed,
        )
