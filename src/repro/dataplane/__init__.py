"""Data plane (§3.1, §6): software switch with normal path + fast path.

The paper's prototype hooks Open vSwitch's kernel datapath: a kernel
module receives packets and either inserts their headers into a shared
lock-free FIFO (drained by the user-space daemon that runs the sketch)
or, when the FIFO is full, updates the fast path directly.

Here that architecture is reproduced as a two-actor discrete simulation:
a *producer* (kernel module: per-packet receive/dispatch cost, fast-path
updates) and a *consumer* (user-space daemon: per-packet sketch cost),
coupled by a bounded FIFO.  CPU costs come from a cost model calibrated
against the paper's Perf measurements (Figures 2a and 15), so measured
throughput, fast-path traffic share, and buffer behaviour follow from
the simulation rather than curve fitting.
"""

from repro.dataplane.buffer import BoundedFIFO
from repro.dataplane.cost_model import (
    CPU_HZ,
    CostModel,
    PAPER_CYCLES_PER_PACKET,
)
from repro.dataplane.host import Host, LocalReport
from repro.dataplane.switch import SoftwareSwitch, SwitchReport

__all__ = [
    "BoundedFIFO",
    "CPU_HZ",
    "CostModel",
    "Host",
    "LocalReport",
    "PAPER_CYCLES_PER_PACKET",
    "SoftwareSwitch",
    "SwitchReport",
]
