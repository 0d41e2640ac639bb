"""Supervised data plane: watchdog, restart-with-replay, quarantine.

The :class:`Supervisor` owns the failure policy the checkpoint layer
only enables.  Per host, per epoch it:

1. asks the fault plan for the cell's **mid-epoch schedule**
   (:meth:`~repro.faults.plan.FaultPlan.dataplane_schedule_for`) and
   drives the engine ``stop_at`` each scheduled offset — a ``dp_crash``
   discards the live engine (its state is "lost"), a ``hang`` is
   charged :data:`WATCHDOG_TIMEOUT` simulated seconds before the
   watchdog declares it dead;
2. **restarts** the host from its newest restorable checkpoint and
   replays only the journaled tail, up to :data:`MAX_RESTARTS` times —
   replay is bit-identical, so a recovered epoch's
   :class:`~repro.dataplane.engine.SwitchReport` equals an uncrashed
   run's;
3. past :data:`MAX_RESTARTS` the host **gives up** the epoch and is
   handed to the degraded merge as a missing host;
4. a :class:`CircuitBreaker` counts consecutive gave-up epochs per host
   and quarantines flappers (they sit out entirely — no restart churn,
   straight to degraded merge).

A host runs synchronously in the caller's thread, so its engine is
driven in chunks that end only at checkpoints, at the next scheduled
fault, and at the end of the shard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.dataplane.host import LocalReport
from repro.durability.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    Checkpointer,
)
from repro.faults.plan import FaultKind

#: Restarts allowed per host per epoch before it gives up and falls to
#: the degraded merge.
MAX_RESTARTS = 2

#: Simulated seconds the watchdog waits out one ``hang`` fault before it
#: declares the host dead (charged to :attr:`HostOutcome.watchdog_wait`).
WATCHDOG_TIMEOUT = 1.0


@dataclass
class HostOutcome:
    """What the supervisor did for one host in one epoch."""

    host_id: int
    #: The host's report, or ``None`` when the epoch was forfeited
    #: (quarantined, gave up, or unrecoverable).
    report: LocalReport | None = None
    restarts: int = 0
    crashes: int = 0
    hangs: int = 0
    replayed_packets: int = 0
    checkpoint_writes: int = 0
    checkpoint_bytes: int = 0
    restores: int = 0
    corrupt_snapshots: int = 0
    #: Wall-clock seconds spent restoring + positioning for replay.
    recovery_seconds: float = 0.0
    #: Simulated seconds the watchdog waited out hung runs.
    watchdog_wait: float = 0.0
    quarantined: bool = False
    gave_up: bool = False

    @property
    def recovered(self) -> bool:
        """Did this host crash/hang and still deliver its report?"""
        return self.report is not None and (
            self.crashes + self.hangs
        ) > 0


@dataclass
class CircuitBreaker:
    """Per-peer circuit-breaker state, keyed by epoch.

    :attr:`THRESHOLD` consecutive failed epochs open the breaker for
    :attr:`QUARANTINE_EPOCHS` epochs, during which the peer is skipped
    outright.  Shared by the supervisor (hosts whose data plane keeps
    giving up) and the cluster transport (hosts whose report channel
    keeps failing) so both layers quarantine flapping peers with the
    same policy.
    """

    THRESHOLD = 3
    QUARANTINE_EPOCHS = 2

    streak: int = 0
    open_until: int = 0  # first epoch the peer may run again

    def is_open(self, epoch: int) -> bool:
        """Whether the peer is quarantined for ``epoch``."""
        return epoch < self.open_until

    def record_failure(self, epoch: int) -> bool:
        """Count one failed epoch; returns True when this failure
        trips the breaker (the peer enters quarantine)."""
        self.streak += 1
        if self.streak >= self.THRESHOLD:
            self.open_until = epoch + 1 + self.QUARANTINE_EPOCHS
            self.streak = 0
            return True
        return False

    def record_success(self) -> None:
        self.streak = 0


class Supervisor:
    """Run hosts' epochs under checkpointing with crash recovery.

    Parameters
    ----------
    checkpoint_dir:
        Root directory for per-host checkpoints and WALs.
    plan:
        Optional :class:`~repro.faults.FaultPlan` supplying the
        mid-epoch (data-plane) fault schedule.  ``None`` supervises a
        fault-free run — checkpoints are still written (covering real
        external kills), nothing ever restarts.
    injector:
        Optional :class:`~repro.faults.FaultInjector` whose counters
        record each fired data-plane fault.
    checkpoint_every:
        Snapshot interval in packets (absolute-offset aligned).
    """

    def __init__(
        self,
        checkpoint_dir: str,
        plan=None,
        injector=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ):
        self.checkpoint_dir = checkpoint_dir
        self.plan = plan
        self.injector = injector
        self.checkpoint_every = max(1, int(checkpoint_every))
        self._checkpointers: dict[int, Checkpointer] = {}
        self._breakers: dict[int, CircuitBreaker] = {}

    # ------------------------------------------------------------------
    def checkpointer_for(self, host_id: int) -> Checkpointer:
        """The (lazily created) per-host checkpointer."""
        ckpt = self._checkpointers.get(host_id)
        if ckpt is None:
            ckpt = Checkpointer(
                self.checkpoint_dir,
                host_id,
                every_packets=self.checkpoint_every,
            )
            self._checkpointers[host_id] = ckpt
        return ckpt

    # ------------------------------------------------------------------
    def run_epoch(
        self, hosts, shards, offered_gbps, epoch: int
    ) -> list[HostOutcome]:
        """Run every host's shard for one epoch under supervision."""
        return [
            self.run_host(host, shard, offered_gbps, epoch)
            for host, shard in zip(hosts, shards)
        ]

    def run_host(self, host, shard, offered_gbps, epoch) -> HostOutcome:
        """Run one host's shard for one epoch under supervision."""
        outcome = HostOutcome(host_id=host.host_id)
        breaker = self._breakers.setdefault(
            host.host_id, CircuitBreaker()
        )
        if breaker.is_open(epoch):
            outcome.quarantined = True
            return outcome

        ckpt = self.checkpointer_for(host.host_id)
        writes0 = ckpt.stats.writes
        bytes0 = ckpt.stats.bytes_written
        restores0 = ckpt.stats.restores
        corrupt0 = ckpt.stats.corrupt_snapshots

        switch = host.switch
        engine = switch.engine()

        faults = []
        if self.plan is not None:
            faults = list(
                self.plan.dataplane_schedule_for(
                    epoch, host.host_id, len(shard)
                )
            )

        ckpt.begin_epoch(epoch, engine)
        on_checkpoint = lambda e: ckpt.write(epoch, e)  # noqa: E731

        report = None
        while True:
            stop_at = faults[0].offset if faults else None
            engine.run(
                shard,
                offered_gbps,
                stop_at=stop_at,
                checkpoint_every=self.checkpoint_every,
                on_checkpoint=on_checkpoint,
            )
            if not faults:
                report = engine.finish()
                break

            # The scheduled fault strikes now: the live engine's state
            # is gone (crash) or unreachable (hang until the watchdog
            # shoots it).  Either way recovery is restore + replay.
            fault = faults.pop(0)
            if self.injector is not None:
                self.injector.record(fault.kind)
            if fault.kind is FaultKind.HANG:
                outcome.hangs += 1
                outcome.watchdog_wait += WATCHDOG_TIMEOUT
            else:
                outcome.crashes += 1

            if outcome.restarts >= MAX_RESTARTS:
                outcome.gave_up = True
                break
            outcome.restarts += 1
            lost_offset = engine.offset
            began = time.perf_counter()
            restored = ckpt.restore(epoch, switch.cost_model)
            outcome.recovery_seconds += time.perf_counter() - began
            if restored is None:
                # Every journaled snapshot (baseline included) failed
                # to decode — nothing to replay from.
                outcome.gave_up = True
                break
            outcome.replayed_packets += lost_offset - restored.offset
            restored.profiler = switch.profiler
            engine = restored

        outcome.checkpoint_writes = ckpt.stats.writes - writes0
        outcome.checkpoint_bytes = ckpt.stats.bytes_written - bytes0
        outcome.restores = ckpt.stats.restores - restores0
        outcome.corrupt_snapshots = (
            ckpt.stats.corrupt_snapshots - corrupt0
        )

        if outcome.gave_up:
            breaker.record_failure(epoch)
            return outcome

        breaker.record_success()
        # The restored engine's sketch and fast path, not the host's:
        # a restart replaced them.
        outcome.report = LocalReport.build(
            host.host_id, engine.sketch, engine.fastpath, report
        )
        return outcome
