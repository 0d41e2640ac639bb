"""Supervised data plane: heartbeats, watchdog, restart-with-replay.

The :class:`Supervisor` owns the failure policy the checkpoint layer
only enables.  Per host, per epoch it:

1. asks the fault plan for the cell's **mid-epoch schedule**
   (:meth:`~repro.faults.plan.FaultPlan.dataplane_schedule_for`) and
   drives the engine ``stop_at`` each scheduled offset — a ``dp_crash``
   discards the live engine (its state is "lost"), a ``hang`` first
   burns the watchdog timeout before the watchdog declares it dead;
2. **restarts** the host from its newest restorable checkpoint and
   replays only the journaled tail, up to ``max_restarts`` times —
   replay is bit-identical, so a recovered epoch's
   :class:`~repro.dataplane.engine.SwitchReport` equals an uncrashed
   run's;
3. past ``max_restarts`` the host **gives up** the epoch and is handed
   to PR 3's degraded merge as a missing host;
4. a **circuit breaker** counts consecutive gave-up epochs per host and
   quarantines flappers for ``quarantine_epochs`` epochs (they sit out
   entirely — no restart churn, straight to degraded merge).

Heartbeats (``heartbeat_every`` packets) update a per-host liveness
table that :meth:`Supervisor.stalled_hosts` checks against the watchdog
timeout.
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
from repro.fastpath.topk import FastPath


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

    ``threshold`` consecutive failed epochs open the breaker for
    ``quarantine_epochs`` epochs, during which the peer is skipped
    outright.  Shared by the supervisor (hosts whose data plane keeps
    giving up) and the cluster transport (hosts whose report channel
    keeps failing) so both layers quarantine flapping peers with the
    same policy.
    """

    streak: int = 0
    open_until: int = 0  # first epoch the peer may run again

    def is_open(self, epoch: int) -> bool:
        """Whether the peer is quarantined for ``epoch``."""
        return epoch < self.open_until

    def record_failure(
        self, epoch: int, threshold: int, quarantine_epochs: int
    ) -> bool:
        """Count one failed epoch; returns True when this failure
        trips the breaker (the peer enters quarantine)."""
        self.streak += 1
        if self.streak >= threshold:
            self.open_until = epoch + 1 + quarantine_epochs
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
    heartbeat_every:
        Heartbeat interval in packets.
    watchdog_timeout:
        Seconds without a heartbeat before :meth:`stalled_hosts` flags
        a host; also the simulated wait charged per ``hang`` fault.
    max_restarts:
        Restarts allowed per host per epoch before it gives up and
        falls to the degraded merge.
    quarantine_threshold:
        Consecutive gave-up epochs that trip the circuit breaker.
    quarantine_epochs:
        Epochs a tripped host sits out before being retried.
    """

    def __init__(
        self,
        checkpoint_dir: str,
        plan=None,
        injector=None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        heartbeat_every: int = 2048,
        watchdog_timeout: float = 1.0,
        max_restarts: int = 2,
        quarantine_threshold: int = 3,
        quarantine_epochs: int = 2,
    ):
        self.checkpoint_dir = checkpoint_dir
        self.plan = plan
        self.injector = injector
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.heartbeat_every = max(1, int(heartbeat_every))
        self.watchdog_timeout = watchdog_timeout
        self.max_restarts = max(0, int(max_restarts))
        self.quarantine_threshold = max(1, int(quarantine_threshold))
        self.quarantine_epochs = max(1, int(quarantine_epochs))
        #: host_id → (epoch, offset, wall-clock timestamp) of the last
        #: heartbeat; the watchdog's liveness table.
        self.heartbeats: dict[int, tuple[int, int, float]] = {}
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

    def stalled_hosts(self, now: float | None = None) -> list[int]:
        """Hosts whose last heartbeat is older than the watchdog
        timeout (the liveness view an external monitor would poll)."""
        if now is None:
            now = time.perf_counter()
        return sorted(
            host_id
            for host_id, (_epoch, _offset, seen) in self.heartbeats.items()
            if now - seen > self.watchdog_timeout
        )

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
        self._heartbeat(epoch, engine, host.host_id)

        on_checkpoint = lambda e: ckpt.write(epoch, e)  # noqa: E731
        on_heartbeat = lambda e: self._heartbeat(  # noqa: E731
            epoch, e, host.host_id
        )

        report = None
        while True:
            stop_at = faults[0].offset if faults else None
            engine.run(
                shard,
                offered_gbps,
                stop_at=stop_at,
                checkpoint_every=self.checkpoint_every,
                on_checkpoint=on_checkpoint,
                heartbeat_every=self.heartbeat_every,
                on_heartbeat=on_heartbeat,
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
                outcome.watchdog_wait += self.watchdog_timeout
            else:
                outcome.crashes += 1

            if outcome.restarts >= self.max_restarts:
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
            breaker.record_failure(
                epoch,
                self.quarantine_threshold,
                self.quarantine_epochs,
            )
            return outcome

        breaker.record_success()
        snapshot = (
            engine.fastpath.snapshot()
            if isinstance(engine.fastpath, FastPath)
            else None
        )
        outcome.report = LocalReport(
            host_id=host.host_id,
            sketch=engine.sketch,
            fastpath=snapshot,
            switch=report,
        )
        return outcome

    # ------------------------------------------------------------------
    def _heartbeat(self, epoch, engine, host_id) -> None:
        self.heartbeats[host_id] = (
            epoch, engine.offset, time.perf_counter()
        )
