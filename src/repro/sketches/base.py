"""Common sketch interface and CPU cost profiles.

The paper's central observation (§2.2) is that sketches are *primitives*:
what makes them expensive in software is the per-packet work — hash
computations, counter updates, heap maintenance — required to keep them
reversible and queryable.  Every sketch here therefore exposes, besides
its measurement interface, a :class:`CostProfile` describing the abstract
per-packet operation counts of its §7.1 configuration.  The data-plane
cost model (:mod:`repro.dataplane.cost_model`) weighs those operations to
reproduce the paper's measured cycles-per-packet (Figures 2a and 15).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.common.errors import MergeError
from repro.common.flow import FlowKey, header_flows
from repro.common.flow import key64_column  # noqa: F401  (re-exported)
from repro.traffic.trace import Trace, first_seen, number_flows


@dataclass(frozen=True)
class CostProfile:
    """Abstract per-packet operation counts for one sketch configuration.

    Attributes
    ----------
    hashes:
        Hash computations per packet (incl. header randomization the
        paper mentions for FlowRadar/RevSketch collision resolution).
    counter_updates:
        Counter read-modify-writes per packet.  Deltoid's header-bit
        counters make this its dominant term (86% of cycles, §2.2).
    heap_ops:
        Heap/priority-structure operations per packet (UnivMon spends
        47% of its cycles here, §2.2).
    memory_words:
        Extra word-sized memory touches (buffer copies, key writes).
    """

    hashes: float = 0.0
    counter_updates: float = 0.0
    heap_ops: float = 0.0
    memory_words: float = 0.0

    def scaled(self, factor: float) -> "CostProfile":
        return CostProfile(
            hashes=self.hashes * factor,
            counter_updates=self.counter_updates * factor,
            heap_ops=self.heap_ops * factor,
            memory_words=self.memory_words * factor,
        )

    def __add__(self, other: "CostProfile") -> "CostProfile":
        return CostProfile(
            hashes=self.hashes + other.hashes,
            counter_updates=self.counter_updates + other.counter_updates,
            heap_ops=self.heap_ops + other.heap_ops,
            memory_words=self.memory_words + other.memory_words,
        )


def trace_columns(trace, indices=None):
    """``(key64, sizes)`` columns of ``trace`` at ``indices`` (None = all)."""
    if indices is None:
        return trace.key64, trace.sizes
    return trace.key64[indices], trace.sizes[indices]


def flow_groups(trace, indices=None):
    """Group the selected packets of ``trace`` by flow.

    Returns ``(flows, keys, group, sizes)``: the distinct flows as
    indices into ``trace.table`` in order of first occurrence, their
    ``key64`` folds, every selected packet's index into ``flows``, and
    the selected ``sizes`` column.  This is what lets the
    header-reading kernels (FlowRadar, Deltoid) hash, and read flow
    headers, once per distinct flow instead of once per packet.  Flows
    are told apart by table entry, so two headers that share a 64-bit
    fold are two groups with equal keys.
    """
    flow, sizes = trace.flow, trace.sizes
    if indices is not None:
        flow, sizes = flow[indices], sizes[indices]
    flows, first, group = first_seen(flow, len(trace.table))
    if indices is not None:
        first = indices[first]
    return flows, trace.key64[first], group, sizes


#: ``(flow_index, rows, cols, coefs)``, see :meth:`Sketch.matrix_positions`.
Positions = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def flow_major(rows, cols, coefs=1.0, mask=None) -> Positions:
    """Flatten per-slot position arrays into :meth:`Sketch.matrix_positions`
    form.

    ``rows``, ``cols`` and ``coefs`` broadcast to ``(slots, flows)``:
    element ``[j, i]`` is flow ``i``'s ``j``-th position.  ``mask``
    (same shape) drops the slots a flow does not touch.  Entries come
    out flow-major and in slot order within a flow, so every row of the
    operator built from them lists its flows in ascending order.
    """
    rows, cols, coefs = np.broadcast_arrays(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(coefs, dtype=np.float64),
    )
    flow_index = np.broadcast_to(np.arange(cols.shape[1]), cols.shape)
    columns = (flow_index, rows, cols, coefs)
    if mask is None:
        return tuple(column.T.reshape(-1) for column in columns)
    keep = np.broadcast_to(np.asarray(mask, dtype=bool), cols.shape).T
    return tuple(column.T[keep] for column in columns)


def flow_updates(flows, values) -> Trace:
    """``(flow, value)`` pairs as a trace, for :meth:`Sketch.update_trace`.

    Flows may repeat; values must be positive byte counts.
    """
    flow, table = number_flows(flows)
    return Trace.from_columns(np.zeros(len(flow)), values, flow, table)


class Sketch(ABC):
    """Base class for every sketch-based measurement solution.

    Subclasses must keep all hash decisions derived from ``seed`` so
    that two sketches constructed with equal parameters are *mergeable*
    (counter-wise addition) and so the control plane can recompute which
    counters a known flow touched during recovery.
    """

    #: Short identifier used in reports and benchmark tables.
    name: str = "sketch"

    #: Whether the sketch matrix has exploitable low-rank structure
    #: (§5.3: Count-Min-like sketches with few rows do not; for those
    #: the recovery drops the nuclear-norm term).
    low_rank: bool = True

    #: True when :meth:`update` depends on the flow only through its
    #: 64-bit fold (``flow.key64``), i.e. when the two-argument
    #: :meth:`update_batch` over a trace's ``key64`` column is exactly
    #: equivalent to per-packet ``update`` calls.  Callers that hold
    #: only ``key64`` and sizes test this flag before calling
    #: ``update_batch``.  Sketches that also read the 104-bit header
    #: (Deltoid, FlowRadar) leave it False and vectorize by overriding
    #: :meth:`update_trace` instead, which sees the flow table; sketches
    #: with order-dependent side state (UnivMon's trackers) leave it
    #: False and inherit the per-packet loop.
    key64_updates: bool = False

    def __init__(self, seed: int = 1):
        self.seed = seed

    def describe(self) -> str:
        """One-line configuration summary for logs and telemetry labels.

        Subclasses get a useful default — class name, registry name,
        seed, and configured memory — without overriding anything.
        """
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"seed={self.seed}, memory={self.memory_bytes()}B)"
        )

    def __repr__(self) -> str:
        return self.describe()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @abstractmethod
    def update(self, flow: FlowKey, value: int) -> None:
        """Record ``value`` bytes for ``flow``."""

    def update_batch(self, keys64, values) -> None:
        """Record many ``(key64, value)`` pairs in one call.

        ``keys64`` is a uint64 array (a :class:`~repro.traffic.trace.Trace`
        ``key64`` column or a slice of one) and ``values`` the matching
        byte counts.  Only valid when :attr:`key64_updates` is True.

        This generic implementation is the scalar fallback — a loop over
        ``update_key64`` — so every key64-pure sketch gets a correct
        batch path for free; the hot sketches override it with true
        NumPy kernels (``np.add.at`` / ``np.bincount``) that are
        bit-identical to the scalar loop because counter state is
        order-insensitive and all values are exact in float64.
        """
        if not self.key64_updates:
            raise NotImplementedError(
                f"{type(self).__name__} updates depend on more than "
                "key64; use update_trace(trace, indices), which falls "
                "back to per-packet update() where no kernel exists"
            )
        update = self.update_key64  # type: ignore[attr-defined]
        for key, value in zip(
            np.asarray(keys64, dtype=np.uint64).tolist(),
            np.asarray(values).tolist(),
        ):
            update(key, value)

    def update_trace(self, trace, indices=None) -> None:
        """Record the packets of ``trace`` at ``indices`` (None = all).

        The one entry point the data-plane engine applies each chunk's
        normal-path packets through.  ``indices`` is an integer array
        of packet positions in arrival order.  The result is always
        bit-identical to calling :meth:`update` per selected packet, in
        order: key64-pure sketches take :meth:`update_batch` on the
        trace's columns, header-reading sketches with a kernel override
        this method, and everything else runs the loop below.
        """
        if self.key64_updates:
            self.update_batch(*trace_columns(trace, indices))
            return
        table, update = trace.table, self.update
        flow, sizes = trace.flow, trace.sizes
        if indices is not None:
            flow, sizes = flow[indices], sizes[indices]
        for index, size in zip(flow.tolist(), sizes.tolist()):
            update(table[index], size)

    def inject(self, flow: FlowKey, value: int) -> None:
        """Re-inject a recovered flow (control-plane recovery, §5).

        Defaults to :meth:`update` — recovery replays the flow as if it
        had been recorded by the normal path.  Sketches whose update
        semantics are per-packet rather than per-byte (MRAC) override
        this to convert the recovered byte volume appropriately.
        """
        self.update(flow, value)

    def inject_columns(self, hi, lo, keys64, values) -> None:
        """Re-inject many recovered flows given as columns: the 104-bit
        headers as ``(hi, lo)`` word columns (see
        :func:`~repro.common.flow.pack_headers`), their ``key64`` folds
        and positive integer byte counts.

        The state is bit-identical to :meth:`inject` per row, in order.
        Where :meth:`inject` is plain :meth:`update`, a key64-pure
        sketch takes :meth:`update_batch`; FlowRadar, Deltoid and MRAC
        override this method with their kernels.  Every other sketch
        rebuilds a :class:`FlowKey` per row and loops.
        """
        if self.key64_updates and type(self).inject is Sketch.inject:
            self.update_batch(keys64, values)
            return
        inject = self.inject
        for flow, value in zip(
            header_flows(hi, lo), np.asarray(values).tolist()
        ):
            inject(flow, value)

    # ------------------------------------------------------------------
    # Aggregation / recovery interface
    # ------------------------------------------------------------------
    @abstractmethod
    def merge(self, other: "Sketch") -> None:
        """Counter-wise add ``other`` into this sketch (same config)."""

    def fold_buffers(self) -> tuple[tuple[np.ndarray, np.ufunc], ...]:
        """The arrays :meth:`merge` combines element by element, each
        with its ufunc: ``np.add`` for counters, ``np.bitwise_xor`` for
        XOR fields, ``np.bitwise_or`` for Bloom bits.

        The order is fixed, so two sketches of one configuration pair
        their buffers up by position.  :meth:`reset` zeroes exactly
        these.  Empty by default.
        """
        return ()

    def _fold(self, other: "Sketch") -> None:
        """Combine ``other``'s :meth:`fold_buffers` into this sketch's,
        each with its ufunc, in place.

        A source that is not an array is a frame's unlanded section
        (:class:`~repro.controlplane.transport.SparseSection`): it
        lands its words at its own indices.  Every shape is checked
        before the first buffer changes.
        """
        pairs = [
            (target, op, source)
            for (target, op), (source, _op) in zip(
                self.fold_buffers(), other.fold_buffers()
            )
        ]
        for target, _op, source in pairs:
            if target.shape != source.shape:
                raise MergeError(
                    f"{type(self).__name__} buffer shapes differ: "
                    f"{target.shape} != {source.shape}"
                )
        for target, op, source in pairs:
            if isinstance(source, np.ndarray):
                op(target, source, out=target)
            else:
                source.land(target, op)

    @abstractmethod
    def to_matrix(self) -> np.ndarray:
        """Flatten all volume counters into a 2-D float matrix.

        The layout is sketch-specific but stable: ``load_matrix``
        inverts it, and :meth:`matrix_positions` indexes into it.
        """

    @abstractmethod
    def load_matrix(self, matrix: np.ndarray) -> None:
        """Replace volume counters from a matrix produced by to_matrix."""

    def matrix_positions(self, flows) -> Positions:
        """Where a unit of each of ``flows`` lands in :meth:`to_matrix`.

        Returns ``(flow_index, rows, cols, coefs)``: entry ``k`` says a
        unit of ``flows[flow_index[k]]`` adds ``coefs[k]`` to matrix
        cell ``(rows[k], cols[k])``.  Entries are flow-major (all of
        flow 0's, then flow 1's, ...; see :func:`flow_major`).

        This is the sketch's linear operator restricted to the given
        flows: the compressive-sensing recovery (§5) uses it to express
        ``sk(x)`` for the flows tracked in the fast path's hash table.
        Sketches with non-linear parts (FlowRadar's XOR fields) expose
        only their *volume* counters here and additionally support exact
        flow injection via :meth:`update`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a linear operator"
        )

    @abstractmethod
    def memory_bytes(self) -> int:
        """Configured memory footprint in bytes."""

    @abstractmethod
    def cost_profile(self) -> CostProfile:
        """Abstract per-packet operation counts for this configuration."""

    @abstractmethod
    def clone_empty(self) -> "Sketch":
        """A zeroed sketch with identical configuration and seeds."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_mergeable(self, other: "Sketch") -> None:
        if type(other) is not type(self):
            raise MergeError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}"
            )
        if other.seed != self.seed:
            raise MergeError("cannot merge sketches with different seeds")

    def reset(self) -> None:
        """Zero every fold buffer in place.  Sketches with state beyond
        their fold buffers extend this."""
        for array, _op in self.fold_buffers():
            array.fill(0)
