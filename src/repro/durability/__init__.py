"""Durable host state: checkpointing, WAL replay, supervised restart.

PR 3 hardened the *report path* (retries, degraded merge); this package
hardens the *data plane*: a host that crashes or hangs mid-epoch no
longer forfeits the epoch.  Three layers compose the guarantee:

* :class:`~repro.durability.codec.StateCodec` — serializes every sketch
  type, the fast-path top-k table (``(e, r, d)`` counters plus the
  ``V``/``E`` globals), and the FIFO backlog into a versioned,
  CRC32-checked binary snapshot with exact round-trip;
* :class:`~repro.durability.checkpoint.Checkpointer` — snapshots a
  :class:`~repro.dataplane.engine.HostEngine` every K packets and
  journals the trace offset in a tiny write-ahead log, so a restarted
  host resumes from the last checkpoint and replays only the journaled
  tail — bit-identical to an uncrashed run;
* :class:`~repro.durability.supervisor.Supervisor` — a simulated
  watchdog for hung workers, bounded restart-with-replay (escalating to
  the degraded merge after R failed restarts), and a circuit breaker
  quarantining flapping hosts.

Everything is **off by default**: a pipeline without ``checkpoint_dir``
never constructs any of it and runs bit-identically to a build without
this package.  See ``docs/robustness.md``.
"""

from repro.durability.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    Checkpointer,
    CheckpointStats,
    WriteAheadLog,
)
from repro.durability.codec import StateCodec
from repro.durability.supervisor import (
    CircuitBreaker,
    HostOutcome,
    Supervisor,
)

__all__ = [
    "Checkpointer",
    "CheckpointStats",
    "DEFAULT_CHECKPOINT_EVERY",
    "CircuitBreaker",
    "HostOutcome",
    "StateCodec",
    "Supervisor",
    "WriteAheadLog",
]
