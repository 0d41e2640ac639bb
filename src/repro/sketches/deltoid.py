"""Deltoid [13]: heavy-hitter sketch with header-encoding counters.

Each bucket holds one *total* counter plus one counter per header bit
(104 bits for a 5-tuple).  A packet adds its size to the total and to
every bit-counter whose header bit is 1.  A bucket containing a single
flow above the threshold can then be *reversed*: bit ``b`` of the flow's
header is 1 iff the 1-side count exceeds the threshold while the 0-side
count does not.

Updating ~53 bit counters per row per packet is exactly the overhead the
paper measures: "Deltoid's main bottleneck is on updating its extra
counters ... more than 86% of CPU cycles" (§2.2), 10,454 cycles/packet.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey, header_words
from repro.common.hashing import HashFamily
from repro.sketches.base import (
    CostProfile,
    Positions,
    Sketch,
    flow_groups,
    flow_major,
    key64_column,
)

HEADER_BITS = 104
_HEADER_BYTES = HEADER_BITS // 8
_COUNTER_BYTES = 8


class Deltoid(Sketch):
    """Deltoid sketch over 104-bit 5-tuple headers.

    Parameters
    ----------
    width:
        Buckets per row (paper: 4000 = 2 / 0.05%-threshold).
    depth:
        Rows (paper: 4, error probability 1/16).
    """

    name = "deltoid"
    low_rank = True  # Figure 5: ~32% of singular values reach <10% error

    def __init__(self, width: int = 4000, depth: int = 4, seed: int = 1):
        super().__init__(seed)
        if width < 1 or depth < 1:
            raise ConfigError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self._hashes = HashFamily(depth, seed)
        # totals[r, j]; bits[r, b, j] for header bit b.
        self.totals = np.zeros((depth, width), dtype=np.float64)
        self.bits = np.zeros((depth, HEADER_BITS, width), dtype=np.float64)

    # ------------------------------------------------------------------
    def update(self, flow: FlowKey, value: int) -> None:
        header = flow.key104
        key64 = flow.key64
        set_bits = [b for b in range(HEADER_BITS) if (header >> b) & 1]
        for row, col in enumerate(self._hashes.buckets(key64, self.width)):
            self.totals[row, col] += value
            for bit in set_bits:
                self.bits[row, bit, col] += value

    def update_trace(self, trace, indices=None) -> None:
        """Batch kernel: the selected packets in one pass per flow.

        Bit-identical to the per-packet loop: see :meth:`_add`.  Flows
        are grouped by their entry in the trace's flow table, so two
        headers that share a ``key64`` fold keep their own bit counters
        while adding to the same buckets.
        """
        flows, keys, group, sizes = flow_groups(trace, indices)
        hi, lo = header_words(
            list(map(trace.table.__getitem__, flows.tolist()))
        )
        self._add(
            keys,
            hi,
            lo,
            np.bincount(group, weights=sizes, minlength=keys.size),
        )

    def inject_columns(self, hi, lo, keys64, values) -> None:
        """:meth:`update` per row, through :meth:`_add` row by row: a
        repeated header adds its rows to the same counters, and integer
        sums do not depend on how they are grouped."""
        self._add(keys64, hi, lo, np.asarray(values, dtype=np.float64))

    def _add(self, keys64, hi, lo, volumes) -> None:
        """Add ``volumes[i]`` for the header ``(hi[i], lo[i])`` with fold
        ``keys64[i]``, to its bucket's total and to the bit counters its
        header sets, in every row.

        Every counter receives a sum of integer byte counts, exact in
        float64 whatever the order, so the result is that of
        :meth:`update` per unit of volume.
        """
        if keys64.size == 0:
            return
        cols, header_bits = self._flow_cells(keys64, hi, lo)
        flow_index, bit_index = np.nonzero(header_bits)
        bit_volumes = volumes[flow_index]
        bit_offsets = bit_index * self.width
        for row in range(self.depth):
            np.add.at(self.totals[row], cols[row], volumes)
            # bits[row] is a C-contiguous (104, width) plane: index its
            # flat view with one 1-D index array.
            np.add.at(
                self.bits[row].reshape(-1),
                bit_offsets + cols[row, flow_index],
                bit_volumes,
            )

    def _flow_cells(self, keys64, hi, lo) -> tuple[np.ndarray, np.ndarray]:
        """The cells a unit of each header ``(hi[i], lo[i])`` adds to.

        Returns the ``(depth, n)`` bucket columns of their ``key64``
        folds ``keys64`` and their ``(n, 104)`` header bit matrix: in
        row ``r``, flow ``i`` adds to ``totals[r, cols[r, i]]`` and to
        ``bits[r, b, cols[r, i]]`` for every ``b`` with
        ``header_bits[i, b]`` set.
        """
        cols = self._hashes.buckets_array(keys64, self.width)
        # Each header's 13 little-endian bytes: lo's eight, then the
        # low five of hi.
        words = np.stack([lo, hi], axis=1).astype("<u8")
        header_bytes = words.view(np.uint8)[:, :_HEADER_BYTES]
        return cols, np.unpackbits(header_bytes, axis=1, bitorder="little")

    def estimate(self, flow: FlowKey) -> float:
        """Count-Min-style upper-bound estimate from the total counters."""
        key64 = flow.key64
        return min(
            self.totals[row, col]
            for row, col in enumerate(
                self._hashes.buckets(key64, self.width)
            )
        )

    def decode(self, threshold: float) -> dict[FlowKey, float]:
        """Recover flows whose byte count exceeds ``threshold``.

        Every bucket with total above the threshold is reversed bit by
        bit: bit ``b`` of its flow's header is 1 iff the 1-side count
        exceeds the threshold while the 0-side count does not.  A
        bucket where the two sides agree on any bit (two heavy flows
        collided, or nothing heavy) yields nothing.  Each row's heavy
        buckets are reversed at once, as one ``(104, heavy)`` slab.
        Candidates are verified by re-hashing (they must map back to
        the bucket they were decoded from) and estimated with the
        row-minimum of their bucket totals, in (row, bucket) order.
        """
        candidates: dict[FlowKey, float] = {}
        for row in range(self.depth):
            heavy = np.flatnonzero(self.totals[row] > threshold)
            one_side = self.bits[row][:, heavy]
            one_heavy = one_side > threshold
            zero_heavy = (self.totals[row, heavy] - one_side) > threshold
            clear = (one_heavy != zero_heavy).all(axis=0)
            headers = np.packbits(
                one_heavy[:, clear].T, axis=1, bitorder="little"
            )
            for col, header in zip(heavy[clear].tolist(), headers):
                flow = FlowKey.from_key104(
                    int.from_bytes(header.tobytes(), "little")
                )
                if self._hashes.bucket(row, flow.key64, self.width) != col:
                    continue  # failed verification: decoded garbage
                estimate = self.estimate(flow)
                if estimate > threshold:
                    candidates[flow] = estimate
        return candidates

    # ------------------------------------------------------------------
    def merge(self, other: Sketch) -> None:
        self._check_mergeable(other)
        assert isinstance(other, Deltoid)
        if (other.width, other.depth) != (self.width, self.depth):
            raise MergeError("Deltoid shapes differ")
        self._fold(other)

    def fold_buffers(self):
        return ((self.totals, np.add), (self.bits, np.add))

    def to_matrix(self) -> np.ndarray:
        """Rows = depth * (1 + HEADER_BITS) counter planes, cols = buckets."""
        planes = [self.totals[row : row + 1] for row in range(self.depth)]
        matrix_rows = []
        for row in range(self.depth):
            matrix_rows.append(planes[row])
            matrix_rows.append(self.bits[row])
        return np.vstack(matrix_rows)

    def load_matrix(self, matrix: np.ndarray) -> None:
        expected = (self.depth * (1 + HEADER_BITS), self.width)
        if matrix.shape != expected:
            raise ConfigError(f"matrix shape {matrix.shape} != {expected}")
        stride = 1 + HEADER_BITS
        for row in range(self.depth):
            block = matrix[row * stride : (row + 1) * stride]
            self.totals[row] = block[0]
            self.bits[row] = block[1:]

    def matrix_positions(self, flows) -> Positions:
        """Per flow and row, its bucket's total, then the bit counters
        its header sets: slot ``row * 105 + j`` is matrix row
        ``row * 105 + j`` (the total for ``j = 0``, header bit ``j - 1``
        otherwise) at the flow's bucket."""
        cols, header_bits = self._flow_cells(
            key64_column(flows), *header_words(flows)
        )
        stride = 1 + HEADER_BITS
        touched = np.ones((len(flows), stride), dtype=bool)
        touched[:, 1:] = header_bits
        return flow_major(
            np.arange(self.depth * stride)[:, None],
            np.repeat(cols, stride, axis=0),
            mask=np.tile(touched, self.depth).T,
        )

    def memory_bytes(self) -> int:
        return self.depth * self.width * (1 + HEADER_BITS) * _COUNTER_BYTES

    def cost_profile(self) -> CostProfile:
        # One hash per row; one total + ~half the header bits set per
        # row (random headers average 52 one-bits of 104).
        return CostProfile(
            hashes=self.depth,
            counter_updates=self.depth * (1 + HEADER_BITS / 2),
        )

    def clone_empty(self) -> "Deltoid":
        return Deltoid(self.width, self.depth, self.seed)
