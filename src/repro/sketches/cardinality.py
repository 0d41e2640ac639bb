"""Cardinality estimators: FM [20], kMin [2], Linear Counting [55].

All three estimate the number of distinct flows in an epoch (§2.1).
FM and Linear Counting are kept in *volume form* (§4.2): registers are
byte counters rather than bits, and a register is "set" iff non-zero —
this is what lets the fast path and the compressive-sensing recovery
treat them like any other counter sketch.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey
from repro.common.hashing import HashFamily, mix64, trailing_zeros_array
from repro.sketches.base import (
    CostProfile,
    Positions,
    Sketch,
    flow_major,
    key64_column,
)

_COUNTER_BYTES = 8
_FM_PHI = 0.77351  # Flajolet-Martin correction constant
_FM_REGISTER_BITS = 32


def _trailing_zeros(value: int) -> int:
    if value == 0:
        return 64
    return (value & -value).bit_length() - 1


def _register_cells(
    register_hashes: HashFamily,
    draw_hashes: HashFamily,
    num_registers: int,
    keys64,
) -> np.ndarray:
    """``(depth, n)`` flat ``register * 32 + bit`` cells of a key64
    column: per row, a register by one hash and a bit by the capped
    trailing zeros of another (FM's position, HLL's rank)."""
    registers = register_hashes.buckets_array(keys64, num_registers)
    bits = np.minimum(
        trailing_zeros_array(draw_hashes.hash_values_array(keys64)),
        _FM_REGISTER_BITS - 1,
    )
    return registers * _FM_REGISTER_BITS + bits


class FMSketch(Sketch):
    """Flajolet-Martin probabilistic counting (PCSA) in volume form.

    ``num_registers`` register groups per row; a flow picks a register
    by one hash and a bit position geometrically (trailing zeros of a
    second hash).  The estimate per row is ``m * 2^R / phi`` where ``R``
    averages the position of the lowest *zero* counter per register.
    """

    name = "fm"
    low_rank = False
    key64_updates = True

    def __init__(
        self, num_registers: int = 1024, depth: int = 4, seed: int = 1
    ):
        super().__init__(seed)
        if num_registers < 1 or depth < 1:
            raise ConfigError("num_registers and depth must be >= 1")
        self.num_registers = num_registers
        self.depth = depth
        self._register_hashes = HashFamily(depth, seed)
        self._position_hashes = HashFamily(depth, mix64(seed ^ 0xF1A))
        self.counters = np.zeros(
            (depth, num_registers, _FM_REGISTER_BITS), dtype=np.float64
        )

    def update(self, flow: FlowKey, value: int) -> None:
        self.update_key64(flow.key64, value)

    def update_key64(self, key64: int, value: int) -> None:
        for row in range(self.depth):
            register = self._register_hashes.bucket(
                row, key64, self.num_registers
            )
            position = min(
                _trailing_zeros(
                    self._position_hashes.hash_value(row, key64)
                ),
                _FM_REGISTER_BITS - 1,
            )
            self.counters[row, register, position] += value

    def update_batch(self, keys64, values) -> None:
        """Vectorized register update over a key64 column (bit-identical)."""
        cells = _register_cells(
            self._register_hashes,
            self._position_hashes,
            self.num_registers,
            keys64,
        )
        values = np.asarray(values, dtype=np.float64)
        flat = self.counters.reshape(self.depth, -1)
        for row in range(self.depth):
            np.add.at(flat[row], cells[row], values)

    def estimate(self) -> float:
        """Estimated distinct-key count, averaged across rows.

        Applies the standard small-range correction: the asymptotic
        ``m * 2^R / phi`` formula overestimates badly below ~4 keys per
        register, so while a meaningful fraction of registers is still
        empty, each row estimates by linear counting over its empty
        registers instead (the same hybrid HyperLogLog later adopted).
        """
        estimates = []
        for row in range(self.depth):
            nonzero = self.counters[row] > 0
            empty = int((~nonzero.any(axis=1)).sum())
            m = self.num_registers
            if empty / m > 0.05:
                estimates.append(m * math.log(m / max(empty, 1)))
                continue
            # Position of the lowest zero bit per register.
            total_r = 0.0
            for register in range(m):
                bits = nonzero[register]
                zeros = np.nonzero(~bits)[0]
                total_r += (
                    float(zeros[0]) if len(zeros) else _FM_REGISTER_BITS
                )
            mean_r = total_r / m
            estimates.append(m * (2.0**mean_r) / _FM_PHI)
        return float(np.mean(estimates))

    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, FMSketch)
        if (other.num_registers, other.depth) != (
            self.num_registers,
            self.depth,
        ):
            raise MergeError("FM configurations differ")
        self._fold(other)

    def fold_buffers(self):
        return ((self.counters, np.add),)

    def to_matrix(self) -> np.ndarray:
        return self.counters.reshape(
            self.depth, self.num_registers * _FM_REGISTER_BITS
        ).copy()

    def load_matrix(self, matrix: np.ndarray) -> None:
        expected = (self.depth, self.num_registers * _FM_REGISTER_BITS)
        if matrix.shape != expected:
            raise ConfigError(f"matrix shape {matrix.shape} != {expected}")
        self.counters = (
            matrix.reshape(
                self.depth, self.num_registers, _FM_REGISTER_BITS
            )
            .astype(np.float64)
            .copy()
        )

    def matrix_positions(self, flows) -> Positions:
        return flow_major(
            np.arange(self.depth)[:, None],
            _register_cells(
                self._register_hashes,
                self._position_hashes,
                self.num_registers,
                key64_column(flows),
            ),
        )

    def memory_bytes(self) -> int:
        return (
            self.depth
            * self.num_registers
            * _FM_REGISTER_BITS
            * _COUNTER_BYTES
        )

    def cost_profile(self) -> CostProfile:
        return CostProfile(
            hashes=2 * self.depth, counter_updates=self.depth
        )

    def clone_empty(self) -> "FMSketch":
        return FMSketch(self.num_registers, self.depth, self.seed)


class KMinSketch(Sketch):
    """Bottom-k distinct counting [2]: keep the k smallest hash values.

    The estimate is ``(k - 1) / v_k`` with ``v_k`` the k-th smallest
    normalized hash, averaged over ``depth`` independent rows.  Not a
    counter matrix — recovery reaches it through flow injection
    (``update``), never matrix interpolation.
    """

    name = "kmin"
    low_rank = False
    # Bottom-k state is a running min-set, but insertion order does not
    # change the surviving k minima — the generic scalar fallback batch
    # path applies.
    key64_updates = True

    def __init__(self, k: int = 1024, depth: int = 4, seed: int = 1):
        super().__init__(seed)
        if k < 2 or depth < 1:
            raise ConfigError("k must be >= 2 and depth >= 1")
        self.k = k
        self.depth = depth
        self._hashes = HashFamily(depth, seed)
        # Per row: dict of the k smallest normalized hash values seen.
        self._mins: list[dict[float, None]] = [{} for _ in range(depth)]
        self._thresholds = [float("inf")] * depth

    def update(self, flow: FlowKey, value: int) -> None:
        self.update_key64(flow.key64, value)

    def update_key64(self, key64: int, value: int) -> None:
        for row in range(self.depth):
            draw = self._hashes.uniform01(row, key64)
            if draw >= self._thresholds[row]:
                continue
            row_mins = self._mins[row]
            if draw in row_mins:
                continue
            row_mins[draw] = None
            if len(row_mins) > self.k:
                largest = max(row_mins)
                del row_mins[largest]
                self._thresholds[row] = max(row_mins)

    def estimate(self) -> float:
        estimates = []
        for row in range(self.depth):
            row_mins = self._mins[row]
            if len(row_mins) < self.k:
                estimates.append(float(len(row_mins)))
            else:
                estimates.append((self.k - 1) / max(row_mins))
        return float(np.mean(estimates))

    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, KMinSketch)
        if (other.k, other.depth) != (self.k, self.depth):
            raise MergeError("kMin configurations differ")
        for row in range(self.depth):
            merged = dict(self._mins[row])
            merged.update(other._mins[row])
            smallest = sorted(merged)[: self.k]
            self._mins[row] = dict.fromkeys(smallest)
            self._thresholds[row] = (
                smallest[-1] if len(smallest) == self.k else float("inf")
            )

    def to_matrix(self) -> np.ndarray:
        matrix = np.zeros((self.depth, self.k), dtype=np.float64)
        for row in range(self.depth):
            values = sorted(self._mins[row])
            matrix[row, : len(values)] = values
        return matrix

    def load_matrix(self, matrix: np.ndarray) -> None:
        if matrix.shape != (self.depth, self.k):
            raise ConfigError(
                f"matrix shape {matrix.shape} != {(self.depth, self.k)}"
            )
        for row in range(self.depth):
            values = [float(v) for v in matrix[row] if v > 0]
            self._mins[row] = dict.fromkeys(sorted(values)[: self.k])
            self._thresholds[row] = (
                max(self._mins[row])
                if len(self._mins[row]) == self.k
                else float("inf")
            )

    def memory_bytes(self) -> int:
        return self.depth * self.k * _COUNTER_BYTES

    def cost_profile(self) -> CostProfile:
        return CostProfile(hashes=self.depth, counter_updates=self.depth)

    def clone_empty(self) -> "KMinSketch":
        return KMinSketch(self.k, self.depth, self.seed)

    def reset(self) -> None:
        self._mins = [{} for _ in range(self.depth)]
        self._thresholds = [float("inf")] * self.depth


class HyperLogLog(Sketch):
    """HyperLogLog (Flajolet et al. 2007) — extension beyond Table 1.

    The modern successor to FM: each register keeps only the *maximum*
    leading-zero rank seen, and the estimate is the bias-corrected
    harmonic mean ``alpha_m * m^2 / sum(2^-M_j)``, with linear counting
    below ~2.5m (the small-range regime FM needs its correction for).
    Included because a downstream user reaching for cardinality today
    would expect it; kept out of the Table 1 registry, which mirrors
    the paper exactly.

    Register state is volume-form compatible: the register array holds
    byte counts per (register, rank) cell like FM, so fast-path
    conversion and recovery injection work unchanged.
    """

    name = "hll"
    low_rank = False
    key64_updates = True

    def __init__(
        self, num_registers: int = 1024, depth: int = 1, seed: int = 1
    ):
        super().__init__(seed)
        if num_registers < 16 or depth < 1:
            raise ConfigError("need >= 16 registers and depth >= 1")
        self.num_registers = num_registers
        self.depth = depth
        self._register_hashes = HashFamily(depth, seed)
        self._rank_hashes = HashFamily(depth, mix64(seed ^ 0x417))
        self.counters = np.zeros(
            (depth, num_registers, _FM_REGISTER_BITS), dtype=np.float64
        )

    @staticmethod
    def _alpha(m: int) -> float:
        if m >= 128:
            return 0.7213 / (1.0 + 1.079 / m)
        return {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213)

    def update(self, flow: FlowKey, value: int) -> None:
        self.update_key64(flow.key64, value)

    def update_key64(self, key64: int, value: int) -> None:
        for row in range(self.depth):
            register = self._register_hashes.bucket(
                row, key64, self.num_registers
            )
            rank = min(
                _trailing_zeros(self._rank_hashes.hash_value(row, key64)),
                _FM_REGISTER_BITS - 1,
            )
            self.counters[row, register, rank] += value

    def update_batch(self, keys64, values) -> None:
        """Vectorized register update over a key64 column (bit-identical)."""
        cells = _register_cells(
            self._register_hashes,
            self._rank_hashes,
            self.num_registers,
            keys64,
        )
        values = np.asarray(values, dtype=np.float64)
        flat = self.counters.reshape(self.depth, -1)
        for row in range(self.depth):
            np.add.at(flat[row], cells[row], values)

    def estimate(self) -> float:
        estimates = []
        m = self.num_registers
        for row in range(self.depth):
            nonzero = self.counters[row] > 0
            # Register value = 1 + highest touched rank (0 if empty).
            registers = np.zeros(m)
            touched = nonzero.any(axis=1)
            if touched.any():
                highest = np.argmax(
                    nonzero[:, ::-1], axis=1
                )  # position from the top
                registers[touched] = (
                    _FM_REGISTER_BITS - highest[touched]
                )
            raw = (
                self._alpha(m)
                * m
                * m
                / float(np.sum(2.0 ** (-registers)))
            )
            zeros = int((~touched).sum())
            if raw <= 2.5 * m and zeros > 0:
                estimates.append(m * math.log(m / zeros))
            else:
                estimates.append(raw)
        return float(np.mean(estimates))

    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, HyperLogLog)
        if (other.num_registers, other.depth) != (
            self.num_registers,
            self.depth,
        ):
            raise MergeError("HLL configurations differ")
        self._fold(other)

    def fold_buffers(self):
        return ((self.counters, np.add),)

    def to_matrix(self) -> np.ndarray:
        return self.counters.reshape(
            self.depth, self.num_registers * _FM_REGISTER_BITS
        ).copy()

    def load_matrix(self, matrix: np.ndarray) -> None:
        expected = (self.depth, self.num_registers * _FM_REGISTER_BITS)
        if matrix.shape != expected:
            raise ConfigError(f"matrix shape {matrix.shape} != {expected}")
        self.counters = (
            matrix.reshape(
                self.depth, self.num_registers, _FM_REGISTER_BITS
            )
            .astype(np.float64)
            .copy()
        )

    def matrix_positions(self, flows) -> Positions:
        return flow_major(
            np.arange(self.depth)[:, None],
            _register_cells(
                self._register_hashes,
                self._rank_hashes,
                self.num_registers,
                key64_column(flows),
            ),
        )

    def memory_bytes(self) -> int:
        return (
            self.depth
            * self.num_registers
            * _FM_REGISTER_BITS
            * _COUNTER_BYTES
        )

    def cost_profile(self) -> CostProfile:
        return CostProfile(
            hashes=2 * self.depth, counter_updates=self.depth
        )

    def clone_empty(self) -> "HyperLogLog":
        return HyperLogLog(self.num_registers, self.depth, self.seed)


class LinearCounting(Sketch):
    """Linear counting [55] in volume form.

    Each flow touches one counter per row; the estimate per row is
    ``-m * ln(zero fraction)``, averaged across rows.  Paper config:
    4 rows x 10,000 counters.
    """

    name = "lc"
    low_rank = False
    key64_updates = True

    def __init__(self, width: int = 10_000, depth: int = 4, seed: int = 1):
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
        for row, col in enumerate(self._hashes.buckets(key64, self.width)):
            self.counters[row, col] += value

    def update_batch(self, keys64, values) -> None:
        """Vectorized update over a key64 column (bit-identical)."""
        cols = self._hashes.buckets_array(keys64, self.width)
        values = np.asarray(values, dtype=np.float64)
        for row in range(self.depth):
            np.add.at(self.counters[row], cols[row], values)

    def estimate(self) -> float:
        estimates = []
        for row in range(self.depth):
            zeros = int((self.counters[row] == 0).sum())
            if zeros == 0:
                estimates.append(self.width * math.log(self.width))
            else:
                estimates.append(self.width * math.log(self.width / zeros))
        return float(np.mean(estimates))

    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, LinearCounting)
        if (other.width, other.depth) != (self.width, self.depth):
            raise MergeError("Linear Counting configurations differ")
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
        return CostProfile(hashes=self.depth, counter_updates=self.depth)

    def clone_empty(self) -> "LinearCounting":
        return LinearCounting(self.width, self.depth, self.seed)
