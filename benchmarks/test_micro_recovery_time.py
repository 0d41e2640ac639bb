"""§7.5 microbenchmark: computation time of network-wide recovery.

The paper: solving the compressive-sensing problem takes 0.15 s (MRAC)
to 64 s (Deltoid) on one core, and early termination — stopping once
the flow estimates stabilize even though the unnecessary objective
terms have not converged — cuts Deltoid's recovery from 64 s to 11 s.

We reproduce the two shapes: per-sketch recovery time tracks the
counter count (MRAC cheapest, Deltoid most expensive among the
low-rank sketches), and early termination yields a multi-x speedup on
the nuclear-norm path with no accuracy loss.
"""

from __future__ import annotations

import time

import pytest

from repro.controlplane.lens import LensConfig
from repro.controlplane.recovery import RecoveryMode, recover
from repro.dataplane.host import Host
from repro.sketches.deltoid import Deltoid
from repro.sketches.mrac import MRAC
from repro.sketches.revsketch import ReversibleSketch
from repro.sketches.twolevel import TwoLevelSketch


SKETCHES = {
    "mrac": lambda: MRAC(width=4000),
    "revsketch": lambda: ReversibleSketch(depth=4),
    "twolevel": lambda: TwoLevelSketch(
        outer_width=512, inner_width=64
    ),
    "deltoid": lambda: Deltoid(width=512, depth=4),
}


@pytest.fixture(scope="module")
def host_reports(bench_trace):
    reports = {}
    for name, build in SKETCHES.items():
        host = Host(0, build(), fastpath_bytes=8192)
        reports[name] = host.run_epoch(bench_trace)
    return reports


def _timed_recover(report, config):
    start = time.perf_counter()
    state = recover(
        report.sketch,
        report.fastpath,
        RecoveryMode.SKETCHVISOR,
        lens_config=config,
    )
    return time.perf_counter() - start, state


def test_recovery_time_table(result_table, host_reports):
    table = result_table(
        "micro_recovery_time",
        "§7.5: recovery computation time per sketch (seconds)",
    )
    full = LensConfig(max_iterations=40, x_stability_tolerance=None)
    early = LensConfig(max_iterations=40, x_stability_tolerance=1e-2)
    table.row(
        f"{'sketch':<10} {'full':>8} {'early-stop':>11} {'iters':>6}"
    )
    timings = {}
    for name, report in host_reports.items():
        full_time, _ = _timed_recover(report, full)
        early_time, early_state = _timed_recover(report, early)
        timings[name] = (full_time, early_time)
        table.row(
            f"{name:<10} {full_time:>8.2f} {early_time:>11.2f} "
            f"{early_state.lens_iterations:>6}"
        )

    # Shape: MRAC's recovery is the cheapest (fewest counters; paper
    # 0.15 s), Deltoid the most expensive of the low-rank sketches
    # (paper 64 s) — absolute times differ, ordering holds.
    assert timings["mrac"][0] <= min(
        t for name, (t, _e) in timings.items() if name != "mrac"
    )
    assert timings["deltoid"][0] >= timings["revsketch"][0]


def test_early_termination_speedup(host_reports):
    """§7.5: early termination cuts the nuclear-path solve time
    substantially (paper: 64 s -> 11 s for Deltoid) while the flow
    estimates stay put."""
    report = host_reports["deltoid"]
    full = LensConfig(max_iterations=40, x_stability_tolerance=None)
    early = LensConfig(max_iterations=40, x_stability_tolerance=1e-2)
    full_time, full_state = _timed_recover(report, full)
    early_time, early_state = _timed_recover(report, early)
    assert early_time < 0.7 * full_time
    # Estimates agree within the Lemma 4.1 slack.
    bounds = {
        flow: (r + d, r + d + e)
        for flow, e, r, d in report.fastpath.rows()
    }
    for flow, estimate in early_state.flow_estimates.items():
        lower, upper = bounds[flow]
        assert lower - 1.0 <= estimate <= upper + 1.0
        full_estimate = full_state.flow_estimates[flow]
        # Agreement scale: the Lemma 4.1 box width — within it, both
        # estimates are equally admissible; outside it, something is
        # wrong.
        width = upper - lower
        assert abs(estimate - full_estimate) <= 0.5 * width + 1.0


def test_recovery_timing(benchmark, host_reports):
    report = host_reports["twolevel"]

    def run():
        return recover(
            report.sketch, report.fastpath, RecoveryMode.SKETCHVISOR
        )

    state = benchmark.pedantic(run, rounds=1, iterations=1)
    assert state.flow_estimates
