"""The bounded FIFO between the kernel module and the normal path.

The prototype implements this as a lock-free circular buffer in shared
memory (§6, [27]).  The simulation only needs, per queued packet, the
cycle timestamp at which it was enqueued — the consumer cannot start
serving a packet before that — so the queue holds those cycles and
nothing else (the packet itself is recorded into the sketch when its
chunk is applied; see :mod:`repro.dataplane.engine`).
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import ConfigError


class BoundedFIFO:
    """A bounded single-producer / single-consumer queue of enqueue cycles.

    Parameters
    ----------
    capacity:
        Maximum queued packets.  The paper sizes it to "hold all packets
        to be processed and absorb any transient spike"; its fullness is
        the (only) signal that diverts traffic to the fast path.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("FIFO capacity must be >= 1")
        self.capacity = capacity
        #: Peak occupancy since the last :meth:`clear` — the buffer
        #: pressure signal the telemetry layer reports per epoch.
        self.high_water = 0
        #: Enqueue cycles, oldest first.  The engine's routing pass
        #: works on this deque directly and maintains ``high_water``.
        self.queue: deque[float] = deque()

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def full(self) -> bool:
        return len(self.queue) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self.queue

    def push(self, enqueue_cycle: float) -> None:
        """Enqueue; caller must check :attr:`full` first."""
        if self.full:
            raise OverflowError("FIFO is full")
        self.queue.append(enqueue_cycle)
        if len(self.queue) > self.high_water:
            self.high_water = len(self.queue)

    def pop(self) -> float:
        """Dequeue the oldest packet's enqueue cycle."""
        return self.queue.popleft()

    def peek_enqueue_cycle(self) -> float:
        """Enqueue cycle of the head packet (queue must be non-empty)."""
        return self.queue[0]

    def clear(self) -> None:
        self.queue.clear()
        self.high_water = 0

    def restore(self, cycles: list[float], high_water: int) -> None:
        """Reload queue contents from a durability checkpoint.

        Replaces the current backlog wholesale; ``high_water`` is the
        recorded peak (always >= the restored length), so a resumed
        epoch reports the same buffer pressure an uninterrupted one
        would.
        """
        if len(cycles) > self.capacity:
            raise ConfigError(
                f"checkpoint holds {len(cycles)} queued packets but the "
                f"FIFO capacity is {self.capacity}"
            )
        self.queue.clear()
        self.queue.extend(cycles)
        self.high_water = max(high_water, len(self.queue))
