"""Bloom filter and counting Bloom filter substrates.

FlowRadar keeps a Bloom filter in front of its counting table to decide
whether a packet starts a new flow; the counting variant backs the
volume-form conversion of connectivity sketches (§4.2 cites Counting
Bloom Filters [4, 34] for the bits→counters trick).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.hashing import HashFamily


class BloomFilter:
    """A classic Bloom filter over 64-bit keys.

    Parameters
    ----------
    num_bits:
        Filter length (paper's FlowRadar config: 100,000).
    num_hashes:
        Hash functions (paper: 4).
    """

    def __init__(self, num_bits: int, num_hashes: int = 4, seed: int = 1):
        if num_bits < 1 or num_hashes < 1:
            raise ConfigError("num_bits and num_hashes must be >= 1")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.seed = seed
        self._hashes = HashFamily(num_hashes, seed)
        self.bits = np.zeros(num_bits, dtype=bool)

    def add(self, key64: int) -> bool:
        """Insert; returns True when the key was (probably) already present."""
        positions = self._hashes.buckets(key64, self.num_bits)
        present = all(self.bits[pos] for pos in positions)
        if not present:
            for pos in positions:
                self.bits[pos] = True
        return present

    def add_batch(self, keys64) -> None:
        """Vectorized insert of a uint64 key column.

        Bit-setting is idempotent and order-insensitive, so the result
        equals per-key :meth:`add` calls; membership answers are not
        returned (batch callers test separately if they need them).
        """
        positions = self._hashes.buckets_array(keys64, self.num_bits)
        self.bits[positions.reshape(-1)] = True

    def add_ordered(self, keys64) -> np.ndarray:
        """Insert a key column in array order; returns what each
        per-key :meth:`add` would have returned (bool array).

        The answers depend on the order: a false positive needs its
        positions covered by *earlier* inserts.  But after any key is
        processed all of its positions are set — it set them, or it was
        present because they already were — so key ``j`` is present
        exactly when each of its positions was set before the call or
        belongs to some key before ``j`` in the column.
        """
        positions = self._hashes.buckets_array(keys64, self.num_bits).T
        num_keys, num_hashes = positions.shape
        # Key-major flattening: a position's first occurrence belongs
        # to the earliest key that touches it.
        _, first_touch, inverse = np.unique(
            positions.reshape(-1), return_index=True, return_inverse=True
        )
        earliest_key = (first_touch // num_hashes)[inverse].reshape(
            positions.shape
        )
        covered = earliest_key < np.arange(num_keys)[:, None]
        present = (self.bits[positions] | covered).all(axis=1)
        self.bits[positions.reshape(-1)] = True
        return present

    def __contains__(self, key64: int) -> bool:
        return all(
            self.bits[pos]
            for pos in self._hashes.buckets(key64, self.num_bits)
        )

    @property
    def fill_ratio(self) -> float:
        return float(self.bits.mean())

    def false_positive_rate(self) -> float:
        """Current theoretical false-positive probability."""
        return self.fill_ratio**self.num_hashes

    def merge(self, other: "BloomFilter") -> None:
        if (other.num_bits, other.num_hashes, other.seed) != (
            self.num_bits,
            self.num_hashes,
            self.seed,
        ):
            raise MergeError("Bloom filter configurations differ")
        self.bits |= other.bits

    def memory_bytes(self) -> int:
        return (self.num_bits + 7) // 8

    def reset(self) -> None:
        self.bits[:] = False


class CountingBloomFilter:
    """Bloom filter with counters, supporting deletion and volume form.

    Counters are floats so the volume-form conversion of §4.2 (update by
    byte counts instead of setting bits) reuses the same structure.
    """

    def __init__(self, num_counters: int, num_hashes: int = 4, seed: int = 1):
        if num_counters < 1 or num_hashes < 1:
            raise ConfigError("num_counters and num_hashes must be >= 1")
        self.num_counters = num_counters
        self.num_hashes = num_hashes
        self.seed = seed
        self._hashes = HashFamily(num_hashes, seed)
        self.counters = np.zeros(num_counters, dtype=np.float64)

    def add(self, key64: int, value: float = 1.0) -> None:
        for pos in self._hashes.buckets(key64, self.num_counters):
            self.counters[pos] += value

    def add_batch(self, keys64, values=None) -> None:
        """Vectorized volume-form insert: add ``values`` per key.

        ``values=None`` adds 1.0 per key (plain membership counting).
        Bit-identical to per-key :meth:`add` calls: ``np.add.at``
        accumulates in array order.
        """
        positions = self._hashes.buckets_array(keys64, self.num_counters)
        if values is None:
            values = np.ones(positions.shape[1], dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
        for row in range(self.num_hashes):
            np.add.at(self.counters, positions[row], values)

    def remove(self, key64: int, value: float = 1.0) -> None:
        for pos in self._hashes.buckets(key64, self.num_counters):
            self.counters[pos] -= value

    def __contains__(self, key64: int) -> bool:
        return all(
            self.counters[pos] > 0
            for pos in self._hashes.buckets(key64, self.num_counters)
        )

    def merge(self, other: "CountingBloomFilter") -> None:
        if (other.num_counters, other.num_hashes, other.seed) != (
            self.num_counters,
            self.num_hashes,
            self.seed,
        ):
            raise MergeError("counting Bloom filter configurations differ")
        self.counters += other.counters

    def memory_bytes(self) -> int:
        return self.num_counters * 8

    def reset(self) -> None:
        self.counters[:] = 0.0
