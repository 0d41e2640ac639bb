"""Deterministic, seedable hash families.

Sketches need several *independent* hash functions over flow keys.  The
paper's prototype uses the Snort hash; here we use a splitmix64-style
finalizer over (key ^ seed), which passes avalanche tests and — more
importantly for the reproduction — is deterministic across the data plane
and the control plane, so the recovery step can recompute exactly which
counters a flow touched.

All functions operate on Python integers (flow keys fold into 64-bit
integers via :func:`fold_key`) and return non-negative integers.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

# splitmix64 finalizer constants (Steele, Lea & Flood 2014).
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """Finalize a 64-bit integer into a well-mixed 64-bit hash.

    This is the splitmix64 output function: xor-shift / multiply rounds
    with full avalanche (every input bit affects every output bit with
    probability ~0.5).
    """
    value &= _MASK64
    value ^= value >> 30
    value = (value * _C1) & _MASK64
    value ^= value >> 27
    value = (value * _C2) & _MASK64
    value ^= value >> 31
    return value


def mix64_array(values: "np.ndarray", seed: int = 0) -> "np.ndarray":
    """Vectorized :func:`mix64` over a uint64 array (xor'd with ``seed``).

    Used to build reverse-hashing preimage tables (Reversible Sketch)
    where the whole word space is hashed at once.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        v = values.astype(np.uint64) ^ np.uint64(seed & _MASK64)
        v ^= v >> np.uint64(30)
        v *= np.uint64(_C1)
        v ^= v >> np.uint64(27)
        v *= np.uint64(_C2)
        v ^= v >> np.uint64(31)
    return v


def trailing_zeros_array(values: "np.ndarray") -> "np.ndarray":
    """Vectorized count of trailing zero bits per uint64 (64 for zero).

    Mirrors the scalar ``(v & -v).bit_length() - 1`` trick: isolate the
    lowest set bit and take its exact power-of-two log.
    """
    import numpy as np

    v = np.ascontiguousarray(values, dtype=np.uint64)
    lowest = v & (~v + np.uint64(1))
    out = np.full(v.shape, 64, dtype=np.int64)
    nonzero = v != 0
    # Powers of two up to 2**63 are exact in float64, so log2 is exact.
    out[nonzero] = np.log2(lowest[nonzero].astype(np.float64)).astype(
        np.int64
    )
    return out


def fold_key(key: object) -> int:
    """Fold an arbitrary hashable key into a 64-bit integer.

    Integers fold via one mixing round so that sequential IDs (common in
    synthetic traces) do not land in sequential buckets.  Byte strings
    fold 8 bytes at a time.  Tuples fold element-wise.  Anything else
    falls back to Python's ``hash`` (stable within a process, which is
    all the simulation requires — flow keys are ints or tuples of ints).
    """
    if isinstance(key, int):
        return mix64(key)
    if isinstance(key, bytes):
        acc = len(key)
        for offset in range(0, len(key), 8):
            chunk = int.from_bytes(key[offset : offset + 8], "little")
            acc = mix64(acc ^ chunk)
        return acc
    if isinstance(key, tuple):
        acc = len(key)
        for element in key:
            acc = mix64(acc ^ fold_key(element))
        return acc
    return mix64(hash(key) & _MASK64)


class HashFamily:
    """A family of ``depth`` independent hash functions over 64-bit keys.

    Each member ``i`` is ``h_i(key) = mix64(key ^ seed_i)`` with distinct
    per-row seeds derived from the family seed by the golden-ratio
    sequence.  The family also provides ±1 *sign* hashes (for
    CountSketch-style unbiased estimators) derived from a disjoint seed
    stream, so bucket choice and sign are independent.

    Parameters
    ----------
    depth:
        Number of independent hash functions.
    seed:
        Family seed.  Two families with the same ``(depth, seed)`` are
        identical — this is what lets the control plane replay data-plane
        hashing.
    """

    def __init__(self, depth: int, seed: int = 1):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.seed = seed
        base = mix64(seed ^ _GOLDEN)
        self._row_seeds = [
            mix64(base + (i + 1) * _GOLDEN) for i in range(depth)
        ]
        self._sign_seeds = [
            mix64(base ^ ((i + 1) * _C1)) for i in range(depth)
        ]

    def hash_value(self, row: int, key64: int) -> int:
        """Raw 64-bit hash of ``key64`` under row ``row``."""
        return mix64(key64 ^ self._row_seeds[row])

    def bucket(self, row: int, key64: int, width: int) -> int:
        """Bucket index in ``[0, width)`` for ``key64`` under row ``row``."""
        return self.hash_value(row, key64) % width

    def buckets(self, key64: int, width: int) -> list[int]:
        """Bucket indices for all rows at once."""
        return [
            mix64(key64 ^ row_seed) % width for row_seed in self._row_seeds
        ]

    def sign(self, row: int, key64: int) -> int:
        """A ±1 sign hash, independent of the bucket hash of the same row."""
        return 1 if mix64(key64 ^ self._sign_seeds[row]) & 1 else -1

    def signs(self, key64: int) -> list[int]:
        """Sign hashes for all rows at once."""
        return [
            1 if mix64(key64 ^ sign_seed) & 1 else -1
            for sign_seed in self._sign_seeds
        ]

    # ------------------------------------------------------------------
    # Vectorized (NumPy) variants — exact array counterparts of the
    # scalar methods above: ``buckets_array(keys, w)[i, j]`` equals
    # ``bucket(i, int(keys[j]), w)`` for every row and key.  They are
    # what lets the data plane hash a whole chunk of an epoch at once.
    # ------------------------------------------------------------------
    @staticmethod
    def _as_keys(keys64) -> "np.ndarray":
        import numpy as np

        return np.ascontiguousarray(keys64, dtype=np.uint64)

    def hash_values_array(self, keys64) -> "np.ndarray":
        """``(depth, n)`` raw 64-bit hashes of ``keys64`` (uint64)."""
        import numpy as np

        keys = self._as_keys(keys64)
        out = np.empty((self.depth, keys.shape[0]), dtype=np.uint64)
        for row, row_seed in enumerate(self._row_seeds):
            out[row] = mix64_array(keys, seed=row_seed)
        return out

    def buckets_array(self, keys64, width: int) -> "np.ndarray":
        """``(depth, n)`` bucket indices in ``[0, width)`` (int64)."""
        import numpy as np

        keys = self._as_keys(keys64)
        out = np.empty((self.depth, keys.shape[0]), dtype=np.int64)
        for row, row_seed in enumerate(self._row_seeds):
            out[row] = (
                mix64_array(keys, seed=row_seed) % np.uint64(width)
            ).astype(np.int64)
        return out

    def signs_array(self, keys64) -> "np.ndarray":
        """``(depth, n)`` ±1 sign hashes (int64)."""
        import numpy as np

        keys = self._as_keys(keys64)
        out = np.empty((self.depth, keys.shape[0]), dtype=np.int64)
        one = np.uint64(1)
        for row, sign_seed in enumerate(self._sign_seeds):
            out[row] = np.where(
                mix64_array(keys, seed=sign_seed) & one, 1, -1
            )
        return out

    def uniform01(self, row: int, key64: int) -> float:
        """Map the row hash to a uniform float in ``[0, 1)``.

        Used by cardinality estimators (kMin, FM) that need a uniform
        draw per key rather than a bucket index.
        """
        return self.hash_value(row, key64) / 2.0**64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self.depth == other.depth and self.seed == other.seed

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((self.depth, self.seed))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFamily(depth={self.depth}, seed={self.seed})"
