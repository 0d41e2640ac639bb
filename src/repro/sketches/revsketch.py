"""Reversible Sketch [46]: modular hashing + reverse hashing.

The key is partitioned into ``q`` words; each word is hashed by a small
per-row, per-word *modular* hash into a sub-index, and the bucket index
is the concatenation of the sub-indices.  Because the bucket index
factors per word, heavy buckets can be *reversed*: enumerate candidate
values word by word, keeping only partial keys whose sub-index prefix
matches a heavy bucket in every row.

Configurations
--------------
* 32-bit keys (IPs, or 32-bit flow fingerprints): 4 words x 8 bits with
  3-bit sub-indices -> 4096 buckets/row.  This is the paper's DDoS
  configuration and the original RevSketch evaluation setting.
* The paper's 5-tuple runs partition the 104-bit header into 16-bit
  words.  Exhaustive reversal of that configuration is combinatorial,
  so — as documented in DESIGN.md — flow-level tasks apply the sketch
  to a 32-bit fingerprint of the 5-tuple (collision probability 2^-32)
  and report flows by fingerprint, which ground truth mirrors.

The paper measures >95% of RevSketch CPU cycles in hash computations
(q word hashes per row plus key mangling); the cost profile reflects
that.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey
from repro.common.hashing import mix64, mix64_array
from repro.sketches.base import (
    CostProfile,
    Positions,
    Sketch,
    flow_major,
    key64_column,
)

_COUNTER_BYTES = 8
_FINGERPRINT_MASK = 0xFFFFFFFF


def flow_fingerprint(flow: FlowKey) -> int:
    """32-bit fingerprint of a 5-tuple (for reversible flow tracking)."""
    return flow.key64 & _FINGERPRINT_MASK


class ReversibleSketch(Sketch):
    """Reversible Sketch over fixed-width integer keys.

    Parameters
    ----------
    word_bits:
        Bits per key word (key width = ``num_words * word_bits``).
    num_words:
        Number of words ``q`` the key is partitioned into.
    subindex_bits:
        Bits of bucket index contributed per word; the per-row bucket
        count is ``2 ** (num_words * subindex_bits)``.
    depth:
        Number of rows.
    beam_limit:
        Cap on partial candidates kept during reversal; decode raises
        :class:`ConfigError` if exceeded (ambiguous configuration).
    """

    name = "revsketch"
    low_rank = True  # Figure 5: ~50% of singular values for <10% error
    key64_updates = True  # update() reads only flow_fingerprint(flow)

    def __init__(
        self,
        word_bits: int = 8,
        num_words: int = 4,
        subindex_bits: int = 3,
        depth: int = 4,
        seed: int = 1,
        beam_limit: int = 200_000,
    ):
        super().__init__(seed)
        if word_bits < 1 or num_words < 1 or depth < 1:
            raise ConfigError("word_bits, num_words, depth must be >= 1")
        if subindex_bits < 1 or subindex_bits > word_bits:
            raise ConfigError("subindex_bits must be in [1, word_bits]")
        self.word_bits = word_bits
        self.num_words = num_words
        self.subindex_bits = subindex_bits
        self.depth = depth
        self.beam_limit = beam_limit
        self.key_bits = word_bits * num_words
        self.width = 1 << (num_words * subindex_bits)
        self.counters = np.zeros((depth, self.width), dtype=np.float64)
        # Per (row, word) hash seed for the modular hashes.
        self._word_seeds = [
            [
                mix64((seed * 0x9E37 + row) ^ ((word + 1) * 0xC0FFEE))
                for word in range(num_words)
            ]
            for row in range(depth)
        ]
        self._preimages: list[list[list[np.ndarray]]] | None = None

    # ------------------------------------------------------------------
    # Key plumbing
    # ------------------------------------------------------------------
    def _split_words(self, key: int) -> list[int]:
        mask = (1 << self.word_bits) - 1
        return [
            (key >> (self.word_bits * w)) & mask
            for w in range(self.num_words)
        ]

    def _join_words(self, words: tuple[int, ...]) -> int:
        key = 0
        for w, value in enumerate(words):
            key |= value << (self.word_bits * w)
        return key

    def _subindex(self, row: int, word: int, value: int) -> int:
        sub_mask = (1 << self.subindex_bits) - 1
        return mix64(value ^ self._word_seeds[row][word]) & sub_mask

    def _bucket(self, row: int, words: list[int]) -> int:
        index = 0
        for word, value in enumerate(words):
            index = (index << self.subindex_bits) | self._subindex(
                row, word, value
            )
        return index

    # ------------------------------------------------------------------
    # Recording / querying
    # ------------------------------------------------------------------
    def update(self, flow: FlowKey, value: int) -> None:
        self.update_key(flow_fingerprint(flow), value)

    def update_key64(self, key64: int, value: int) -> None:
        """Update by a pre-folded flow key (its 32-bit fingerprint)."""
        self.update_key(key64 & _FINGERPRINT_MASK, value)

    def update_batch(self, keys64, values) -> None:
        """Vectorized update over a key64 column.

        ``np.add.at`` accumulates in array order at the indices of
        :meth:`_buckets_array`, so the counters come out bit-identical
        to the scalar loop.
        """
        values = np.asarray(values, dtype=np.float64)
        for row, index in enumerate(self._buckets_array(keys64)):
            np.add.at(self.counters[row], index, values)

    def _buckets_array(self, keys64) -> np.ndarray:
        """``(depth, n)`` bucket indices of a key64 column.

        One ``mix64_array`` per (row, word) builds the indices of the
        keys' fingerprints exactly as :meth:`_bucket` concatenates its
        sub-indices.
        """
        keys = np.ascontiguousarray(keys64, dtype=np.uint64) & np.uint64(
            _FINGERPRINT_MASK
        )
        word_mask = np.uint64((1 << self.word_bits) - 1)
        sub_mask = np.uint64((1 << self.subindex_bits) - 1)
        shift = np.uint64(self.subindex_bits)
        # Fingerprints have 32 bits: words past them are 0, and a
        # 63-bit shift yields that without an out-of-range shift count.
        words = [
            (keys >> np.uint64(min(self.word_bits * word, 63))) & word_mask
            for word in range(self.num_words)
        ]
        out = np.empty((self.depth, keys.shape[0]), dtype=np.int64)
        for row in range(self.depth):
            index = np.zeros(keys.shape, dtype=np.uint64)
            for word, word_values in enumerate(words):
                index = (index << shift) | (
                    mix64_array(word_values, self._word_seeds[row][word])
                    & sub_mask
                )
            out[row] = index
        return out

    def update_key(self, key: int, value: int) -> None:
        """Record ``value`` for an integer key of ``key_bits`` width."""
        words = self._split_words(key)
        for row in range(self.depth):
            self.counters[row, self._bucket(row, words)] += value

    def estimate_key(self, key: int) -> float:
        words = self._split_words(key)
        return min(
            self.counters[row, self._bucket(row, words)]
            for row in range(self.depth)
        )

    def estimate(self, flow: FlowKey) -> float:
        return self.estimate_key(flow_fingerprint(flow))

    # ------------------------------------------------------------------
    # Reverse hashing
    # ------------------------------------------------------------------
    def _build_preimages(self) -> list[list[list[np.ndarray]]]:
        """preimages[row][word][subindex] -> array of word values."""
        if self._preimages is not None:
            return self._preimages
        word_space = np.arange(1 << self.word_bits, dtype=np.uint64)
        sub_mask = np.uint64((1 << self.subindex_bits) - 1)
        preimages: list[list[list[np.ndarray]]] = []
        for row in range(self.depth):
            row_tables: list[list[np.ndarray]] = []
            for word in range(self.num_words):
                hashed = (
                    mix64_array(word_space, self._word_seeds[row][word])
                    & sub_mask
                )
                table = [
                    word_space[hashed == np.uint64(sub)].astype(np.int64)
                    for sub in range(1 << self.subindex_bits)
                ]
                row_tables.append(table)
            preimages.append(row_tables)
        self._preimages = preimages
        return preimages

    def decode(self, threshold: float) -> dict[int, float]:
        """Recover keys whose row-minimum counter exceeds ``threshold``.

        Returns ``{key: estimate}``.  Candidates are grown word by word
        from the heavy buckets of row 0 and pruned at every step against
        the heavy-bucket prefixes of all rows.
        """
        preimages = self._build_preimages()
        heavy: list[set[int]] = [
            set(np.nonzero(self.counters[row] > threshold)[0].tolist())
            for row in range(self.depth)
        ]
        if not all(heavy):
            # A key above threshold must be heavy in all rows; if any
            # row has no heavy bucket there is nothing to decode.
            return {}
        # prefix_sets[row][word] = heavy-bucket prefixes after `word+1`
        # words (each prefix is the top (word+1)*subindex_bits bits).
        prefix_sets: list[list[set[int]]] = []
        total_words = self.num_words
        for row in range(self.depth):
            row_prefixes = []
            for word in range(total_words):
                shift = (total_words - word - 1) * self.subindex_bits
                row_prefixes.append({b >> shift for b in heavy[row]})
            prefix_sets.append(row_prefixes)

        # Partial candidates: (words_so_far, per-row prefix values).
        partials: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
            ((), (0,) * self.depth)
        ]
        for word in range(total_words):
            extended: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            # Candidate word values must map into a heavy prefix in
            # every row; enumerate from row 0's preimages.
            for words_so_far, prefixes in partials:
                allowed_subs_row0 = {
                    prefix & ((1 << self.subindex_bits) - 1)
                    for prefix in prefix_sets[0][word]
                    if prefix >> self.subindex_bits == prefixes[0]
                }
                for sub0 in allowed_subs_row0:
                    for value in preimages[0][word][sub0]:
                        value = int(value)
                        new_prefixes = []
                        valid = True
                        for row in range(self.depth):
                            sub = self._subindex(row, word, value)
                            new_prefix = (
                                prefixes[row] << self.subindex_bits
                            ) | sub
                            if new_prefix not in prefix_sets[row][word]:
                                valid = False
                                break
                            new_prefixes.append(new_prefix)
                        if valid:
                            extended.append(
                                (
                                    words_so_far + (value,),
                                    tuple(new_prefixes),
                                )
                            )
            if len(extended) > self.beam_limit:
                raise ConfigError(
                    "reverse hashing exceeded beam limit "
                    f"({len(extended)} partial candidates at word {word}); "
                    "use fewer/larger sub-indices or raise beam_limit"
                )
            partials = extended
            if not partials:
                return {}

        results: dict[int, float] = {}
        for words_so_far, _prefixes in partials:
            key = self._join_words(words_so_far)
            estimate = self.estimate_key(key)
            if estimate > threshold:
                results[key] = estimate
        return results

    # ------------------------------------------------------------------
    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, ReversibleSketch)
        if (
            other.word_bits,
            other.num_words,
            other.subindex_bits,
            other.depth,
        ) != (
            self.word_bits,
            self.num_words,
            self.subindex_bits,
            self.depth,
        ):
            raise MergeError("Reversible Sketch configurations differ")
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
            self._buckets_array(key64_column(flows)),
        )

    def memory_bytes(self) -> int:
        return self.depth * self.width * _COUNTER_BYTES

    def cost_profile(self) -> CostProfile:
        # q modular hashes per row, plus key mangling (~2 mixing passes
        # over the header) — hash computations dominate (>95%, §2.2).
        return CostProfile(
            hashes=self.depth * self.num_words + 2,
            counter_updates=self.depth,
        )

    def clone_empty(self) -> "ReversibleSketch":
        return ReversibleSketch(
            word_bits=self.word_bits,
            num_words=self.num_words,
            subindex_bits=self.subindex_bits,
            depth=self.depth,
            seed=self.seed,
            beam_limit=self.beam_limit,
        )
