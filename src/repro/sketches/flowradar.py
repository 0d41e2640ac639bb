"""FlowRadar [28]: Bloom filter + XOR-encoded counting table.

Every cell of the counting table holds three fields: the XOR of the
104-bit headers of all flows hashed there, ``flow_count`` (number of
distinct flows), and ``byte_count`` (total bytes).  A Bloom filter in
front detects new flows.  Decoding peels *pure* cells (``flow_count ==
1``): the cell's XOR field *is* the flow header and its byte count is the
flow's size; removing the flow from its other cells exposes new pure
cells, exactly like erasure decoding of an LT code.

The XOR field is stored as two ``uint64`` word columns — ``xor_hi``
(header bits 64-103) and ``xor_lo`` (bits 0-63) — so update, merge and
decode are array programs and the payload codec ships the columns as
ordinary sparse buffers.

The paper measures FlowRadar at 2,584 cycles/packet with >67% in hash
computations (Bloom filter + cell hashes).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, MergeError
from repro.common.flow import (
    FlowKey,
    header_flows,
    header_groups,
    header_words,
)
from repro.common.hashing import HashFamily, mix64_array
from repro.sketches.base import (
    CostProfile,
    Positions,
    Sketch,
    flow_groups,
    flow_major,
    key64_column,
)
from repro.sketches.bloom import BloomFilter

_MASK64 = (1 << 64) - 1
#: Header bits 64-103 sit in the low 40 bits of an ``xor_hi`` word.
_HI_BITS = np.uint64((1 << 40) - 1)


def _run_starts(lead: np.ndarray) -> np.ndarray:
    """Per element, the index where its run began (``lead`` marks the
    first element of each run)."""
    return np.maximum.accumulate(np.where(lead, np.arange(lead.size), 0))


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
        self.xor_hi = np.zeros(num_cells, dtype=np.uint64)
        self.xor_lo = np.zeros(num_cells, dtype=np.uint64)
        self.flow_count = np.zeros(num_cells, dtype=np.int64)
        self.byte_count = np.zeros(num_cells, dtype=np.float64)

    def __setstate__(self, state: dict) -> None:
        # The payload codec turns any exception raised while loading an
        # envelope into its CorruptFrameError / CorruptSnapshotError.
        if "xor_hi" not in state or "xor_lo" not in state:
            raise ValueError(
                "FlowRadar state has no xor_hi/xor_lo word columns "
                "(written before the XOR field became two columns)"
            )
        self.__dict__.update(state)

    @property
    def flow_xor(self) -> list[int]:
        """The XOR field as 104-bit ints, one per cell (derived)."""
        return [
            (hi << 64) | lo
            for hi, lo in zip(self.xor_hi.tolist(), self.xor_lo.tolist())
        ]

    # ------------------------------------------------------------------
    def _cells(self, key64: int) -> list[int]:
        return self._hashes.buckets(key64, self.num_cells)

    def _count_flow(self, flow: FlowKey, cells: list[int]) -> None:
        """XOR a new flow's header into ``cells`` and count it there."""
        header = flow.key104
        hi, lo = np.uint64(header >> 64), np.uint64(header & _MASK64)
        for cell in cells:
            self.xor_hi[cell] ^= hi
            self.xor_lo[cell] ^= lo
            self.flow_count[cell] += 1

    def update(self, flow: FlowKey, value: int) -> None:
        key64 = flow.key64
        cells = self._cells(key64)
        if not self.bloom.add(key64):
            self._count_flow(flow, cells)
        increment = 1 if self.count_packets else value
        for cell in cells:
            self.byte_count[cell] += increment

    def update_trace(self, trace, indices=None) -> None:
        """Batch kernel: the selected packets in one pass per flow.

        Bit-identical to the per-packet loop on every field: see
        :meth:`_record`.  Flows are told apart by flow-table entry, and
        headers are read from the table for new flows only.
        """
        flows, keys, group, sizes = flow_groups(trace, indices)
        table = trace.table
        self._record(
            keys,
            group,
            None if self.count_packets else sizes,
            lambda new: header_words(
                list(map(table.__getitem__, flows[new].tolist()))
            ),
        )

    def _record(self, keys, group, weights, words) -> None:
        """Record rows grouped by flow: ``keys`` are the distinct flows'
        ``key64`` folds in order of first occurrence, ``group`` every
        row's index into them, ``weights`` every row's counter
        increment (None: 1 per row) and ``words(new)`` the ``(hi, lo)``
        header words of the distinct flows at positions ``new``.

        Counter increments are sums of integers, exact in float64, so
        they are accumulated per distinct flow and added per hash row.
        The XOR/count fields change only when the Bloom filter reports
        a new flow, and only a flow's *first* row can do that (its own
        insert covers every later one), so new-flow detection runs over
        the distinct flows' keys in first-occurrence order — the order
        matters because a Bloom false positive depends on what was
        inserted before (:meth:`BloomFilter.add_ordered`), and a second
        header with an earlier flow's ``key64`` is "present".
        """
        if keys.size == 0:
            return
        cells = self._hashes.buckets_array(keys, self.num_cells)
        new = np.flatnonzero(~self.bloom.add_ordered(keys))
        if new.size:
            hi, lo = words(new)
            new_cells = cells[:, new]
            for row_cells in new_cells:
                np.bitwise_xor.at(self.xor_hi, row_cells, hi)
                np.bitwise_xor.at(self.xor_lo, row_cells, lo)
            np.add.at(self.flow_count, new_cells.reshape(-1), 1)
        increments = np.bincount(
            group, weights=weights, minlength=keys.size
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
            self._count_flow(flow, cells)
        packets = max(1, round(value / 769.0))
        for cell in cells:
            self.byte_count[cell] += packets

    def inject_columns(self, hi, lo, keys64, values) -> None:
        """:meth:`inject` per row through :meth:`_record`: rows are
        grouped by their full header, so two headers that share a
        ``key64`` stay two flows; packet mode converts each row's bytes
        to packets (``np.rint`` rounds half to even, as ``round``
        does)."""
        first, group = header_groups(hi, lo)
        weights = np.asarray(values, dtype=np.float64)
        if self.count_packets:
            weights = np.maximum(1.0, np.rint(weights / 769.0))
        self._record(
            keys64[first],
            group,
            weights,
            lambda new: (hi[first[new]], lo[first[new]]),
        )

    # ------------------------------------------------------------------
    def decode(
        self, threshold: float | None = None
    ) -> tuple[dict[FlowKey, float], bool]:
        """Peel pure cells to recover ``{flow: bytes}``.

        Returns the decoded flows — only those above ``threshold`` when
        one is given — and a flag that is True when the table decoded
        completely (no undecodable residue).  Decoding mutates a
        working copy, never the sketch itself.

        The peel is a FIFO queue of pure cells.  Each pass takes the
        whole queue as one batch and is bit-identical to serving it one
        cell at a time (``tests/reference_flowradar.py``): a queued
        cell is served from the state the batch started in unless an
        earlier peel of the batch touched it.  If that peel removed the
        cell's own flow, the cell is spent either way; if it removed a
        different flow (only on overlapping merges or corrupted cells)
        the batch ends before that cell and the rest of the queue is
        carried over, so queue order — which fixes the decoded order
        and, for non-integer counters, the subtraction order — is kept.
        """
        num_cells, num_hashes = self.num_cells, self.num_hashes
        count = self.flow_count.copy()
        size = self.byte_count.copy()
        xor_hi = self.xor_hi.copy()
        xor_lo = self.xor_lo.copy()
        peeled: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        queue = np.flatnonzero(count == 1)
        while queue.size:
            # Counts only fall, so a cell queued at 1 and no longer
            # there is spent for good.
            queue = queue[count[queue] == 1]
            head_hi, head_lo = xor_hi[queue], xor_lo[queue]
            # from_key104 reads 104 bits; whatever a corrupted word
            # holds above them is XORed on but names no other flow.
            flow_hi = head_hi & _HI_BITS
            cells = self._hashes.buckets_array(
                mix64_array(flow_hi ^ head_lo), num_cells
            )
            # A cell that is not one of its header's own cells holds
            # XOR residue, not a flow: decoding is stuck on it.
            own = (cells == queue).any(axis=0)
            candidates = np.flatnonzero(own)
            # Peeling a flow spends every pure cell it has, so only the
            # first queued cell of each distinct header peels.
            first, _group = header_groups(
                flow_hi[candidates], head_lo[candidates]
            )
            peel = candidates[first]

            position = np.full(num_cells, -1, dtype=np.intp)
            position[queue] = np.arange(queue.size)
            touched = position[cells[:, peel]]
            clash = (touched > peel) & (
                (flow_hi[touched] != flow_hi[peel])
                | (head_lo[touched] != head_lo[peel])
            )
            stop = queue.size
            if clash.any():
                stop = touched[clash].min()
                peel = peel[peel < stop]
            count[queue[:stop][~own[:stop]]] = -1

            # Every peel's events in queue order: flow-major, hash row
            # minor, a cell hit in two rows counted twice.  ufunc.at
            # applies them one by one in that order.
            events = cells[:, peel].T.reshape(-1)
            sizes = size[queue[peel]]
            np.bitwise_xor.at(
                xor_hi, events, np.repeat(head_hi[peel], num_hashes)
            )
            np.bitwise_xor.at(
                xor_lo, events, np.repeat(head_lo[peel], num_hashes)
            )
            np.subtract.at(size, events, np.repeat(sizes, num_hashes))
            # A cell joins the queue at the event that leaves its count
            # at 1: the one whose rank among the cell's events is
            # count - 2.
            order = np.argsort(events, kind="stable")
            ranked = events[order]
            lead = np.ones(ranked.size, dtype=bool)
            lead[1:] = ranked[1:] != ranked[:-1]
            rank = np.arange(ranked.size) - _run_starts(lead)
            pure = np.empty(ranked.size, dtype=bool)
            pure[order] = count[ranked] - rank == 2
            np.subtract.at(count, events, 1)

            peeled.append((flow_hi[peel], head_lo[peel], sizes))
            queue = np.concatenate([queue[stop:], events[pure]])

        complete = bool(count.max() <= 0)
        if not peeled:
            return {}, complete
        hi, lo, sizes = (np.concatenate(column) for column in zip(*peeled))
        # A header decoded twice sums in decode order, from 0.0.
        first, group = header_groups(hi, lo)
        totals = np.zeros(first.size, dtype=np.float64)
        np.add.at(totals, group, sizes)
        if threshold is not None:
            keep = totals > threshold
            first, totals = first[keep], totals[keep]
        flows = header_flows(hi[first], lo[first])
        return dict(zip(flows, totals.tolist())), complete

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
        self._fold(other)

    def fold_buffers(self):
        return (
            (self.bloom.bits, np.bitwise_or),
            (self.xor_hi, np.bitwise_xor),
            (self.xor_lo, np.bitwise_xor),
            (self.flow_count, np.add),
            (self.byte_count, np.add),
        )

    def to_matrix(self) -> np.ndarray:
        return self.byte_count.reshape(1, -1).copy()

    def load_matrix(self, matrix: np.ndarray) -> None:
        if matrix.shape != (1, self.num_cells):
            raise ConfigError(
                f"matrix shape {matrix.shape} != (1, {self.num_cells})"
            )
        self.byte_count = matrix.reshape(-1).astype(np.float64).copy()

    def matrix_positions(self, flows) -> Positions:
        return flow_major(
            0,
            self._hashes.buckets_array(key64_column(flows), self.num_cells),
        )

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
