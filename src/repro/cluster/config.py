"""Deployment knobs for the real-socket control plane."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.controlplane.transport import DEFAULT_MAX_FRAME_BYTES


@dataclass
class ClusterConfig:
    """How one cluster epoch moves reports from hosts to controller.

    Parameters
    ----------
    aggregators:
        Size of the aggregator tier.  ``0`` (default) auto-sizes to
        ``ceil(sqrt(num_hosts))`` — the fan-in that balances per-
        aggregator connection load against root merge width.
    hierarchical:
        ``True`` (default): each aggregator folds its group's reports
        into one partial as they arrive (bounded memory); ``False``:
        the flat baseline — every decoded report stays resident until
        the root merge, the in-process controller's exact shape.
    listen_host, listen_port:
        Bind address for the aggregator listeners.  Port ``0`` (the
        default) lets the OS pick an ephemeral port per aggregator;
        a fixed port is used for the first aggregator and incremented
        for the rest.
    max_retries:
        Delivery attempts beyond each host's first.
    backoff_base, backoff_factor, backoff_jitter, jitter_seed:
        Exponential-backoff schedule between attempts: this config is
        the :class:`~repro.controlplane.transport.Delivery` policy, so
        the seeded decorrelating jitter is the in-process collector's
        (thundering-herd protection; see
        :meth:`~repro.controlplane.transport.Delivery.backoff`).
    connect_timeout, ack_timeout:
        Client-side deadlines: TCP establishment, and waiting for the
        aggregator's ack after a frame is written.
    idle_timeout:
        Server-side per-connection read deadline — how long an
        aggregator tolerates a stalled peer mid-frame before hanging
        up (what a ``slow_peer`` fault runs into).
    epoch_deadline:
        Whole-epoch collection budget; hosts still undelivered when it
        expires are marked missing (degraded merge input).
    drain_timeout:
        Grace period for in-flight connections when shutting the
        listeners down.
    max_inflight:
        Bound on concurrently connected hosts — the transport's send
        queue.  Hosts beyond it wait for a slot (counted as
        backpressure) so a 1000-host epoch never holds 1000 open
        sockets or encoded frames at once.
    write_buffer_bytes:
        Per-connection socket write-buffer high-watermark; writes past
        it block in ``drain()`` (kernel backpressure, also counted).
    max_frame_bytes:
        Stream-level ceiling on a declared frame length.
    heartbeat_interval:
        How often each live aggregator beats into the controller's
        liveness table.
    aggregator_watchdog:
        Heartbeat staleness at which an aggregator is declared dead.
        Must be at least twice the heartbeat interval; a false
        positive (a live aggregator declared dead under load) is
        safe — its shard is re-shipped to survivors and the dedup
        set makes the merge count every host exactly once.

    A dead aggregator's hosts always fail over: the runner re-shards
    them onto the survivors by rendezvous hashing and redelivers the
    lost reports.  Hosts whose report keeps failing sit out epochs
    behind the :class:`~repro.durability.supervisor.CircuitBreaker`,
    the policy the durability supervisor applies to crash-looping data
    planes.
    """

    aggregators: int = 0
    hierarchical: bool = True
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    max_retries: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    jitter_seed: int = 0
    connect_timeout: float = 2.0
    ack_timeout: float = 5.0
    idle_timeout: float = 0.25
    epoch_deadline: float = 30.0
    drain_timeout: float = 2.0
    max_inflight: int = 64
    write_buffer_bytes: int = 1 << 16
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    heartbeat_interval: float = 0.05
    aggregator_watchdog: float = 0.4

    def __post_init__(self) -> None:
        if self.aggregators < 0:
            raise ConfigError("aggregators must be >= 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ConfigError(
                f"backoff_jitter must be in [0, 1), "
                f"got {self.backoff_jitter}"
            )
        for name in (
            "connect_timeout",
            "ack_timeout",
            "idle_timeout",
            "epoch_deadline",
            "drain_timeout",
            "heartbeat_interval",
            "aggregator_watchdog",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.aggregator_watchdog < 2 * self.heartbeat_interval:
            raise ConfigError(
                "aggregator_watchdog must be >= 2x heartbeat_interval "
                "(one missed beat is jitter, not death)"
            )

    def resolve_aggregators(self, num_hosts: int) -> int:
        """The actual tier size for ``num_hosts`` hosts."""
        if self.aggregators:
            return min(self.aggregators, max(1, num_hosts))
        return max(1, math.ceil(math.sqrt(max(1, num_hosts))))
