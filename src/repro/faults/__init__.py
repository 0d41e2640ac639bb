"""Seeded fault injection for the host → controller path.

SketchVisor promises *robust* measurement, so the reproduction must
survive the failure envelope a real deployment sees: lost, delayed,
truncated, bit-flipped, duplicated, and replayed reports, plus hosts
that crash mid-epoch.  This package supplies the chaos side of that
contract:

* :class:`~repro.faults.plan.FaultPlan` — a seeded, deterministic
  schedule of per-epoch, per-host faults (rate-sampled and/or pinned),
  serializable to JSON for ``repro run --chaos plan.json``;
* :class:`~repro.faults.injector.FaultInjector` — applies the plan to
  wire frames (truncation, bit-flips, stale replays) and counts what
  it injected.

The defence side lives where the attacks land:
:class:`~repro.controlplane.transport.Delivery` and
:func:`~repro.controlplane.transport.accept_frame` (retry / backoff /
dedup, behind both report collectors), the controller's degraded-mode
merge, and the durability supervisor's restart-with-replay.  With no
plan configured the whole subsystem is inert — zero-fault runs are
bit-identical to a build without it.  See ``docs/robustness.md``.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    AGGREGATOR_KINDS,
    DATAPLANE_KINDS,
    RETRIABLE_KINDS,
    SOCKET_KINDS,
    AggregatorFault,
    DataPlaneFault,
    FaultKind,
    FaultPlan,
    FaultSpec,
    failover_plan,
    moderate_plan,
    socket_plan,
)

__all__ = [
    "AGGREGATOR_KINDS",
    "AggregatorFault",
    "DATAPLANE_KINDS",
    "DataPlaneFault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RETRIABLE_KINDS",
    "SOCKET_KINDS",
    "failover_plan",
    "moderate_plan",
    "socket_plan",
]
