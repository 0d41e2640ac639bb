"""The dict-of-entries top-k trackers: the oracles for the column ones.

:class:`MisraGriesTopK` and :class:`SpaceSavingTopK` as they were
written before they became ``miss`` rules over
:class:`~repro.fastpath.topk.TopKTable`'s columns: one Python object
per tracked flow in a dict, which iterates in insertion order.
``tests/test_misra_gries.py`` and ``tests/test_space_saving.py`` check
the column trackers against these, update by update.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.flow import FlowKey
from repro.fastpath.topk import ENTRY_BYTES, UpdateKind


@dataclass
class MGEntry:
    """Misra-Gries keeps one counter per flow."""

    r: float


class MisraGriesTopK:
    """Weighted Misra-Gries tracker with the FastPath interface.

    Parameters
    ----------
    memory_bytes:
        Memory budget; sized with the same 40-byte entries as FastPath
        for an apples-to-apples comparison (the extra two counters of
        Algorithm 1 are charged to it, not to Misra-Gries).
    """

    def __init__(self, memory_bytes: int = 8192):
        capacity = memory_bytes // ENTRY_BYTES
        if capacity < 1:
            raise ConfigError("memory too small for a single entry")
        self.capacity = capacity
        self.memory_bytes = memory_bytes
        self.table: dict[FlowKey, MGEntry] = {}
        self.total_bytes = 0.0  # V
        self.total_decremented = 0.0  # D: shared error bound
        self.num_updates = 0
        self.num_hits = 0
        self.num_inserts = 0
        self.num_kickouts = 0
        self.num_evicted = 0

    def update(self, flow: FlowKey, value: int) -> UpdateKind:
        self.num_updates += 1
        self.total_bytes += value

        entry = self.table.get(flow)
        if entry is not None:
            entry.r += value
            self.num_hits += 1
            return UpdateKind.HIT

        if len(self.table) < self.capacity:
            self.table[flow] = MGEntry(r=float(value))
            self.num_inserts += 1
            return UpdateKind.INSERT

        # Full: subtract the minimum counter from every entry and evict
        # exactly ONE flow — the textbook Misra-Gries step the paper
        # contrasts with: "it performs O(k) operations to update k
        # counters ... for kicking out each flow" (§4.1).  Flows tied at
        # the minimum leave one at a time over subsequent passes, which
        # is precisely the per-flow O(k) cost SketchVisor amortizes.
        self.num_kickouts += 1
        minimum = min(entry.r for entry in self.table.values())
        decrement = min(minimum, float(value))
        evicted_key: FlowKey | None = None
        for key, entry in self.table.items():
            entry.r -= decrement
            if evicted_key is None and entry.r <= 0:
                evicted_key = key
        if evicted_key is not None:
            del self.table[evicted_key]
            self.num_evicted += 1
        remaining = float(value) - decrement
        if remaining > 0 and len(self.table) < self.capacity:
            self.table[flow] = MGEntry(r=remaining)
        self.total_decremented += decrement
        return UpdateKind.KICKOUT

    # ------------------------------------------------------------------
    def bounds(self) -> dict[FlowKey, tuple[float, float]]:
        """Per-flow bounds: ``r <= v <= r + D`` (shared upper slack)."""
        slack = self.total_decremented
        return {
            flow: (entry.r, entry.r + slack)
            for flow, entry in self.table.items()
        }

    def estimates(self) -> dict[FlowKey, float]:
        return {flow: entry.r for flow, entry in self.table.items()}

    def reset(self) -> None:
        self.table.clear()
        self.total_bytes = 0.0
        self.total_decremented = 0.0

    def error_bound(self) -> float:
        return self.total_bytes / (self.capacity + 1)


@dataclass
class SSEntry:
    """Space-Saving counters: estimate and inherited error."""

    count: float  # estimated byte count (overestimates)
    error: float  # inherited counter at takeover (max overestimate)


class SpaceSavingTopK:
    """Space-Saving tracker over flows, byte-weighted.

    Parameters
    ----------
    memory_bytes:
        Budget; entries cost the same 40 bytes as the other trackers.
    """

    def __init__(self, memory_bytes: int = 8192):
        capacity = memory_bytes // ENTRY_BYTES
        if capacity < 1:
            raise ConfigError("memory too small for a single entry")
        self.capacity = capacity
        self.memory_bytes = memory_bytes
        self.table: dict[FlowKey, SSEntry] = {}
        self.total_bytes = 0.0
        self.num_updates = 0
        self.num_hits = 0
        self.num_inserts = 0
        self.num_kickouts = 0  # takeovers: each scans for the minimum
        self.num_evicted = 0

    def update(self, flow: FlowKey, value: int) -> UpdateKind:
        self.num_updates += 1
        self.total_bytes += value

        entry = self.table.get(flow)
        if entry is not None:
            entry.count += value
            self.num_hits += 1
            return UpdateKind.HIT

        if len(self.table) < self.capacity:
            self.table[flow] = SSEntry(count=float(value), error=0.0)
            self.num_inserts += 1
            return UpdateKind.INSERT

        # Replace the minimum entry (the Space-Saving step).
        self.num_kickouts += 1
        victim = min(self.table, key=lambda key: self.table[key].count)
        inherited = self.table[victim].count
        del self.table[victim]
        self.num_evicted += 1
        self.table[flow] = SSEntry(
            count=inherited + value, error=inherited
        )
        return UpdateKind.KICKOUT

    # ------------------------------------------------------------------
    def bounds(self) -> dict[FlowKey, tuple[float, float]]:
        """Per-flow bounds: ``count - error <= v <= count``.

        Space-Saving overestimates: the inherited counter may contain
        other flows' bytes.
        """
        return {
            flow: (entry.count - entry.error, entry.count)
            for flow, entry in self.table.items()
        }

    def estimates(self) -> dict[FlowKey, float]:
        return {
            flow: entry.count for flow, entry in self.table.items()
        }

    def reset(self) -> None:
        self.table.clear()
        self.total_bytes = 0.0

    def error_bound(self) -> float:
        """Classic Space-Saving guarantee: error <= V / k."""
        return self.total_bytes / self.capacity
