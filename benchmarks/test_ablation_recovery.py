"""Ablations of the recovery design (DESIGN.md).

What does each ingredient of the network-wide recovery buy?

* **box constraints (Eq. 3)** — drop the Lemma 4.1 bounds and the
  per-flow estimates lose their anchor;
* **volume constraint (Eq. 2)** — determines the small-flow mass;
* **sparse y realization** — synthetic-flow injection vs nothing
  (cardinality collapses without it);
* **count anchoring** — the insert/evict-counter extension vs the
  mass-only Pareto estimate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.controlplane.lens import LensConfig, lens_interpolate
from repro.controlplane.recovery import (
    RecoveryMode,
    _inject_synthetic_small_flows,
    _tracking_boundary,
    recover,
)
from repro.dataplane.host import Host
from repro.metrics import recall
from repro.sketches.cardinality import LinearCounting
from repro.sketches.deltoid import Deltoid


@pytest.fixture(scope="module")
def deltoid_report(bench_trace):
    host = Host(0, Deltoid(width=512, depth=4, seed=9), fastpath_bytes=8192)
    return host.run_epoch(bench_trace), bench_trace


@pytest.fixture(scope="module")
def lc_report(bench_trace):
    host = Host(0, LinearCounting(seed=9), fastpath_bytes=8192)
    return host.run_epoch(bench_trace), bench_trace


def test_ablation_box_constraints(result_table, deltoid_report):
    """Without Eq. 3 the solver has no per-flow anchor: estimates for
    tracked flows drift far from truth."""
    report, trace = deltoid_report
    truth = trace.flow_sizes()
    snapshot = report.fastpath
    flows = [flow for flow, *_ in snapshot.rows()]
    positions = report.sketch.matrix_positions(flows)
    tight_lower = snapshot.r + snapshot.d
    tight_upper = tight_lower + snapshot.e
    loose_lower = np.zeros(len(flows))
    loose_upper = np.full(len(flows), snapshot.total_bytes)

    config = LensConfig(max_iterations=15)
    table = result_table(
        "ablation_box",
        "Ablation: Eq. 3 box constraints on tracked-flow estimates",
    )
    table.row(f"{'constraints':<10} {'mean rel. estimate error':>25}")
    errors = {}
    for label, lower, upper in (
        ("tight", tight_lower, tight_upper),
        ("loose", loose_lower, loose_upper),
    ):
        result = lens_interpolate(
            report.sketch.to_matrix(),
            positions,
            lower,
            upper,
            snapshot.total_bytes,
            low_rank=True,
            config=config,
        )
        # Score the top-50 tracked flows — small tracked flows carry
        # Lemma 4.1 slack comparable to their size by construction.
        ranked = sorted(
            zip(flows, result.x, tight_lower),
            key=lambda item: item[2],
            reverse=True,
        )[:50]
        per_flow = [
            abs(estimate - truth.get(flow, 0.0))
            / max(truth.get(flow, 1.0), 1.0)
            for flow, estimate, _low in ranked
        ]
        errors[label] = float(np.mean(per_flow))
        table.row(f"{label:<10} {errors[label]:>25.2%}")
    assert errors["tight"] < errors["loose"]
    assert errors["tight"] < 0.2


def test_ablation_sparse_y(result_table, lc_report):
    """Cardinality with vs without the synthetic small-flow component."""
    report, trace = lc_report
    true_cardinality = len(trace.flows())
    snapshot = report.fastpath

    with_y = recover(report.sketch, snapshot, RecoveryMode.SKETCHVISOR)
    # Without y: inject tracked flows only (the LR arm).
    without_y = recover(report.sketch, snapshot, RecoveryMode.LOWER)

    table = result_table(
        "ablation_sparse_y",
        f"Ablation: small-flow realization "
        f"(true cardinality {true_cardinality})",
    )
    rows = {
        "with synthetic y": with_y.sketch.estimate(),
        "without y (LR)": without_y.sketch.estimate(),
        "NR": report.sketch.estimate(),
    }
    table.row(f"{'variant':<18} {'estimate':>9} {'rel.err':>9}")
    errs = {}
    for label, estimate in rows.items():
        errs[label] = abs(estimate - true_cardinality) / true_cardinality
        table.row(f"{label:<18} {estimate:>9.0f} {errs[label]:>8.1%}")
    assert errs["with synthetic y"] < errs["without y (LR)"]
    assert errs["with synthetic y"] < errs["NR"]


def test_ablation_count_anchor(result_table, lc_report):
    """Count-anchored injection (insert/evict counters) vs the
    mass-anchored Pareto estimate."""
    report, trace = lc_report
    true_cardinality = len(trace.flows())
    snapshot = report.fastpath
    boundary = _tracking_boundary(snapshot)
    remaining = max(
        0.0,
        snapshot.total_bytes
        - sum(r + d + e / 2.0 for _flow, e, r, d in snapshot.rows()),
    )

    def rebuild(count):
        sketch = report.sketch.clone_empty()
        sketch.merge(report.sketch)
        for flow, e, r, d in snapshot.rows():
            sketch.inject(flow, int(round(r + d + e / 2.0)))
        _inject_synthetic_small_flows(
            sketch, remaining, boundary, count=count
        )
        return sketch.estimate()

    from repro.controlplane.recovery import _missing_flow_count

    anchored = rebuild(_missing_flow_count(snapshot))
    mass_only = rebuild(None)
    table = result_table(
        "ablation_count_anchor",
        f"Ablation: count anchoring (true cardinality "
        f"{true_cardinality})",
    )
    table.row(f"{'variant':<14} {'estimate':>9} {'rel.err':>9}")
    for label, estimate in (
        ("count-anchored", anchored),
        ("mass-only", mass_only),
    ):
        error = abs(estimate - true_cardinality) / true_cardinality
        table.row(f"{label:<14} {estimate:>9.0f} {error:>8.1%}")
    anchored_error = abs(anchored - true_cardinality) / true_cardinality
    assert anchored_error < 0.25


def test_ablation_timing(benchmark, deltoid_report):
    report, _trace = deltoid_report

    def run():
        return recover(
            report.sketch,
            report.fastpath,
            RecoveryMode.SKETCHVISOR,
            lens_config=LensConfig(max_iterations=10),
        )

    state = benchmark.pedantic(run, rounds=1, iterations=1)
    assert state.flow_estimates
