"""Figure 13: percentage of flows and bytes handled by the fast path.

Paper shape: with everything saturating, the fast path sees a large
share of flows and >50% of bytes for most solutions — but a *small*
share for MRAC, which is cheap enough to keep up.  The 8 KB fast path
table itself only ever *tracks* a fraction of a percent of flows while
covering >20% of bytes (traffic skew).
"""

from __future__ import annotations

import pytest

from repro.dataplane.cost_model import CostModel
from repro.dataplane.switch import SoftwareSwitch
from repro.fastpath.topk import FastPath
from repro.sketches.cardinality import FMSketch, KMinSketch, LinearCounting
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar
from repro.sketches.mrac import MRAC
from repro.sketches.revsketch import ReversibleSketch
from repro.sketches.twolevel import TwoLevelSketch
from repro.sketches.univmon import UnivMon

SOLUTIONS = {
    "deltoid": lambda: Deltoid(width=1024, depth=4),
    "univmon": lambda: UnivMon(
        level_widths=(2048, 1024, 512, 256), heap_size=200
    ),
    "twolevel": lambda: TwoLevelSketch(),
    "revsketch": lambda: ReversibleSketch(depth=6),
    "flowradar": lambda: FlowRadar(bloom_bits=60_000, num_cells=24_000),
    "fm": lambda: FMSketch(),
    "kmin": lambda: KMinSketch(),
    "lc": lambda: LinearCounting(),
    "mrac": lambda: MRAC(),
}


@pytest.fixture(scope="module")
def share_matrix(bench_trace):
    model = CostModel.in_memory()
    shares = {}
    for name, build in SOLUTIONS.items():
        fastpath = FastPath(8192)
        switch = SoftwareSwitch(
            build(), fastpath=fastpath, cost_model=model
        )
        report = switch.process(bench_trace)
        rows = fastpath.rows()
        tracked_bytes = sum(r + d for _flow, _e, r, d in rows)
        shares[name] = (
            report.fastpath_flow_fraction,
            report.fastpath_byte_fraction,
            len(rows) / max(report.flow_count, 1),
            tracked_bytes / max(report.total_bytes, 1),
        )
    return shares


def test_fig13_table(result_table, share_matrix):
    table = result_table(
        "fig13_fastpath_share",
        "Figure 13: traffic share of the fast path (in-memory tester)",
    )
    table.row(
        f"{'solution':<10} {'flows%':>8} {'bytes%':>8} "
        f"{'tracked flows%':>15} {'tracked bytes%':>15}"
    )
    for name, (flows, bytes_, tracked_f, tracked_b) in (
        share_matrix.items()
    ):
        table.row(
            f"{name:<10} {flows:>7.0%} {bytes_:>7.0%} "
            f"{tracked_f:>14.2%} {tracked_b:>14.0%}"
        )


def test_fig13_heavy_sketches_divert_most_bytes(share_matrix):
    for name in ("deltoid", "univmon", "twolevel", "revsketch"):
        assert share_matrix[name][1] > 0.5


def test_fig13_mrac_negligible(share_matrix):
    assert share_matrix["mrac"][1] < max(
        0.5, share_matrix["deltoid"][1] - 0.3
    )


def test_fig13_tiny_table_covers_disproportionate_bytes(share_matrix):
    """~200-entry table tracks few % of flows but a big byte share."""
    flows_tracked = share_matrix["deltoid"][2]
    bytes_tracked = share_matrix["deltoid"][3]
    assert flows_tracked < 0.15
    assert bytes_tracked > 2 * flows_tracked


def test_fig13_top_tracked_flows_dominate(bench_trace):
    """§7.5 text: 'the top 10% of flows tracked by the fast path
    account for over 90% of byte counts' — skew inside the table."""
    fastpath = FastPath(8192)
    switch = SoftwareSwitch(
        Deltoid(width=1024, depth=4),
        fastpath=fastpath,
        cost_model=CostModel.in_memory(),
    )
    switch.process(bench_trace)
    tracked = sorted(
        (r + d for _flow, _e, r, d in fastpath.rows()),
        reverse=True,
    )
    assert tracked, "fast path tracked nothing"
    top = max(1, len(tracked) // 10)
    share = sum(tracked[:top]) / max(sum(tracked), 1.0)
    assert share > 0.5  # paper: >0.9 on CAIDA's deeper heavy tail


def test_fig13_timing(benchmark, bench_trace):
    model = CostModel.in_memory()

    def run():
        switch = SoftwareSwitch(
            UnivMon(level_widths=(1024, 512, 256), heap_size=100),
            fastpath=FastPath(8192),
            cost_model=model,
        )
        return switch.process(bench_trace)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.total_packets == len(bench_trace)
