"""FlowRadar [28]: Bloom filter + XOR-encoded counting table.

Every cell of the counting table holds three fields: ``flow_xor`` (XOR of
the 104-bit headers of all flows hashed there), ``flow_count`` (number of
distinct flows), and ``byte_count`` (total bytes).  A Bloom filter in
front detects new flows.  Decoding peels *pure* cells (``flow_count ==
1``): the cell's XOR field *is* the flow header and its byte count is the
flow's size; removing the flow from its other cells exposes new pure
cells, exactly like erasure decoding of an LT code.

The paper measures FlowRadar at 2,584 cycles/packet with >67% in hash
computations (Bloom filter + cell hashes).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import FlowKey
from repro.common.hashing import HashFamily
from repro.sketches.base import (
    CostProfile,
    FlowUpdates,
    Sketch,
    flow_groups,
)
from repro.sketches.bloom import BloomFilter


class FlowRadar(Sketch):
    """FlowRadar over 5-tuple flows.

    Parameters
    ----------
    bloom_bits:
        Bloom filter length (paper: 100,000).
    num_cells:
        Counting table length (paper: 40,000).
    num_hashes:
        Hash functions for both structures (paper: 4).
    """

    name = "flowradar"
    low_rank = False  # flat counting table: no exploitable rank structure

    def __init__(
        self,
        bloom_bits: int = 100_000,
        num_cells: int = 40_000,
        num_hashes: int = 4,
        seed: int = 1,
        count_packets: bool = False,
    ):
        super().__init__(seed)
        if num_cells < 1:
            raise ConfigError("num_cells must be >= 1")
        #: When True, cells count packets instead of bytes (the original
        #: FlowRadar's PacketCount field) — used by the flow size
        #: distribution task, whose ground truth is in packets.
        self.count_packets = count_packets
        self.bloom = BloomFilter(bloom_bits, num_hashes, seed=seed ^ 0xB100)
        self.num_cells = num_cells
        self.num_hashes = num_hashes
        self._hashes = HashFamily(num_hashes, seed)
        self.flow_xor = [0] * num_cells
        self.flow_count = np.zeros(num_cells, dtype=np.int64)
        self.byte_count = np.zeros(num_cells, dtype=np.float64)

    # ------------------------------------------------------------------
    def _cells(self, key64: int) -> list[int]:
        return self._hashes.buckets(key64, self.num_cells)

    def update(self, flow: FlowKey, value: int) -> None:
        key64 = flow.key64
        cells = self._cells(key64)
        if not self.bloom.add(key64):
            header = flow.key104
            for cell in cells:
                self.flow_xor[cell] ^= header
                self.flow_count[cell] += 1
        increment = 1 if self.count_packets else value
        for cell in cells:
            self.byte_count[cell] += increment

    def update_trace(self, trace, indices=None) -> None:
        """Batch kernel: the selected packets in one pass per flow.

        Bit-identical to the per-packet loop on every field.  Byte (or
        packet) counters are sums of integers, exact in float64, so
        they are accumulated per distinct flow and added per hash row.
        The XOR/count fields change only when the Bloom filter reports
        a new flow, and only a flow's *first* packet can do that (its
        own insert covers every later one), so new-flow detection runs
        over the distinct keys in first-occurrence order — the order
        matters because a Bloom false positive depends on what was
        inserted before (:meth:`BloomFilter.add_ordered`).  Headers are
        read from packet objects for new flows only.
        """
        keys, first, group, sizes = flow_groups(trace, indices)
        if keys.size == 0:
            return
        cells = self._hashes.buckets_array(keys, self.num_cells)
        new = np.flatnonzero(~self.bloom.add_ordered(keys))
        if new.size:
            packets = trace.packets
            flow_xor = self.flow_xor
            new_cells = cells[:, new]
            for position, flow_cells in zip(
                first[new].tolist(), new_cells.T.tolist()
            ):
                header = packets[position].flow.key104
                for cell in flow_cells:
                    flow_xor[cell] ^= header
            np.add.at(self.flow_count, new_cells.reshape(-1), 1)
        increments = np.bincount(
            group,
            weights=None if self.count_packets else sizes,
            minlength=keys.size,
        )
        for row_cells in cells:
            np.add.at(self.byte_count, row_cells, increments)

    def inject(self, flow: FlowKey, value: int) -> None:
        """Recovery injection; converts bytes to packets in packet mode."""
        if not self.count_packets:
            self.update(flow, value)
            return
        key64 = flow.key64
        cells = self._cells(key64)
        if not self.bloom.add(key64):
            header = flow.key104
            for cell in cells:
                self.flow_xor[cell] ^= header
                self.flow_count[cell] += 1
        packets = max(1, round(value / 769.0))
        for cell in cells:
            self.byte_count[cell] += packets

    def inject_batch(self, flows, values) -> None:
        """Bytes mode injects plain updates, so the kernel takes them;
        packet mode converts per flow and keeps the loop."""
        if self.count_packets:
            super().inject_batch(flows, values)
        else:
            self.update_trace(FlowUpdates(flows, values))

    # ------------------------------------------------------------------
    def decode(self) -> tuple[dict[FlowKey, float], bool]:
        """Peel pure cells to recover ``{flow: bytes}``.

        Returns the decoded flows and a flag that is True when the table
        decoded completely (no undecodable residue).  Decoding mutates a
        working copy, never the sketch itself.
        """
        # Plain lists: the peel touches single elements, and NumPy
        # scalar access/arithmetic is several times slower than int and
        # float (same IEEE doubles, so sizes come out identical).
        flow_xor = list(self.flow_xor)
        flow_count = self.flow_count.tolist()
        byte_count = self.byte_count.tolist()
        decoded: dict[FlowKey, float] = {}

        pure = deque(np.flatnonzero(self.flow_count == 1).tolist())
        while pure:
            cell = pure.popleft()
            if flow_count[cell] != 1:
                continue
            header = flow_xor[cell]
            size = byte_count[cell]
            try:
                flow = FlowKey.from_key104(header)
            except ValueError:
                # Corrupted cell (should not happen without bit errors).
                flow_count[cell] = -1
                continue
            key64 = flow.key64
            cells = self._cells(key64)
            if cell not in cells:
                # XOR residue that is not a real flow: decoding is stuck
                # on this cell (a collision signature), mark and move on.
                flow_count[cell] = -1
                continue
            decoded[flow] = decoded.get(flow, 0.0) + size
            for other in cells:
                flow_xor[other] ^= header
                flow_count[other] -= 1
                byte_count[other] -= size
                if flow_count[other] == 1:
                    pure.append(other)
        complete = max(flow_count) <= 0
        return decoded, complete

    def estimate(self, flow: FlowKey) -> float:
        """Count-Min-style upper bound from the byte counters."""
        return min(
            float(self.byte_count[cell])
            for cell in self._cells(flow.key64)
        )

    # ------------------------------------------------------------------
    def merge(self, other: Sketch) -> None:
        """Merge a disjoint-flow FlowRadar (network-wide aggregation).

        Hosts monitor disjoint flow sets (§3.1), so cell-wise XOR /
        addition preserves decode semantics.
        """
        self._check_mergeable(other)
        assert isinstance(other, FlowRadar)
        if (other.num_cells, other.num_hashes, other.count_packets) != (
            self.num_cells,
            self.num_hashes,
            self.count_packets,
        ):
            raise MergeError("FlowRadar configurations differ")
        self.bloom.merge(other.bloom)
        flow_xor = self.flow_xor
        incoming = other.flow_xor
        # A cell holds a header only once a flow was counted into it;
        # XOR with the 0 of every other cell is the identity.
        for cell in np.flatnonzero(other.flow_count).tolist():
            flow_xor[cell] ^= incoming[cell]
        self.flow_count += other.flow_count
        self.byte_count += other.byte_count

    def to_matrix(self) -> np.ndarray:
        return self.byte_count.reshape(1, -1).copy()

    def load_matrix(self, matrix: np.ndarray) -> None:
        if matrix.shape != (1, self.num_cells):
            raise ConfigError(
                f"matrix shape {matrix.shape} != (1, {self.num_cells})"
            )
        self.byte_count = matrix.reshape(-1).astype(np.float64).copy()

    def matrix_positions(
        self, flow: FlowKey
    ) -> list[tuple[int, int, float]]:
        return [(0, cell, 1.0) for cell in self._cells(flow.key64)]

    def memory_bytes(self) -> int:
        # 13-byte XOR field + 4-byte flow count + 8-byte byte count.
        return self.bloom.memory_bytes() + self.num_cells * (13 + 4 + 8)

    def cost_profile(self) -> CostProfile:
        # Bloom hashes + cell hashes every packet; XOR/count writes only
        # on new flows (amortized ~0.1/packet) so counter updates are the
        # per-packet byte-count writes.
        return CostProfile(
            hashes=self.bloom.num_hashes + self.num_hashes,
            counter_updates=self.num_hashes,
            memory_words=self.bloom.num_hashes,
        )

    def clone_empty(self) -> "FlowRadar":
        return FlowRadar(
            bloom_bits=self.bloom.num_bits,
            num_cells=self.num_cells,
            num_hashes=self.num_hashes,
            seed=self.seed,
            count_packets=self.count_packets,
        )

    def reset(self) -> None:
        self.bloom.reset()
        self.flow_xor = [0] * self.num_cells
        self.flow_count[:] = 0
        self.byte_count[:] = 0.0
