"""Deployment knobs for the real-socket control plane."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass
class ClusterConfig:
    """How one cluster epoch moves reports from hosts to controller.

    Parameters
    ----------
    aggregators:
        Size of the aggregator tier.  ``0`` (default) auto-sizes to
        ``ceil(sqrt(num_hosts))`` — the fan-in that balances per-
        aggregator connection load against root merge width.
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

    A dead aggregator's hosts always fail over: the runner re-shards
    them onto the survivors by rendezvous hashing and re-homes the
    lost reports.  Hosts whose report keeps failing sit out epochs
    behind the :class:`~repro.durability.supervisor.CircuitBreaker`,
    the policy the durability supervisor applies to crash-looping data
    planes.  The transport's fixed limits (watchdog latency, in-flight
    hosts, drain grace, write buffer, frame ceiling) are module
    constants, not fields.
    """

    aggregators: int = 0
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

    def __post_init__(self) -> None:
        if self.aggregators < 0:
            raise ConfigError("aggregators must be >= 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
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
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def resolve_aggregators(self, num_hosts: int) -> int:
        """The actual tier size for ``num_hosts`` hosts."""
        if self.aggregators:
            return min(self.aggregators, max(1, num_hosts))
        return max(1, math.ceil(math.sqrt(max(1, num_hosts))))
