"""``run.py --compare A.json B.json``: do two sets of runs agree?

A is the base (the parent commit, or the first of two sets of the same
commit), B what is judged against it.  Per workload and end-to-end
metric the table gives both medians, B/A, and a verdict against the
bound ``BENCHMARK.json`` fixes for the metric:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is, and the run-to-run spread is inside the bound;
``unresolved``  the spread (distance between the quartiles over the
                median, the wider of the two sides) exceeds the bound,
                and not every run of B reads better than every run of A.

Counts that must repeat exactly (the pinned per-input counts, failed
operations) are compared for identity.
"""

from __future__ import annotations

import json
import statistics

import spec


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def values_of(result: dict, workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload][0]["metrics"][metric]["value"]
        for run in result["runs"]
    ]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if lower_is_better else min(b) > max(a)
        )
        return "ok" if all_better else "unresolved"
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    return "regressed" if worse_by > bound else "ok"


def exact_counts(result: dict) -> dict:
    """seed -> workload -> what must repeat exactly, per pass."""
    return {
        run["seed"]: {
            name: [
                (
                    p["counts"],
                    p["failed"],
                    {
                        key: metric["value"]
                        for key, metric in p["metrics"].items()
                        if key in spec.EXACT
                    },
                )
                for p in passes
            ]
            for name, passes in run["workloads"].items()
        }
        for run in result["runs"]
    }


def main(path_a: str, path_b: str, benchmark: dict) -> int:
    a, b = load(path_a), load(path_b)
    disagreements = 0
    print(
        f"{'workload':14s} {'metric':16s} {'A median':>12s} "
        f"{'B median':>12s} {'B/A':>7s} {'spread A':>9s} "
        f"{'spread B':>9s} {'bound':>6s}  verdict"
    )
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va = values_of(a, workload, name)
            vb = values_of(b, workload, name)
            outcome = verdict(
                va, vb, metric["bound"], metric["better"] == "lower"
            )
            disagreements += outcome != "ok"
            ma, mb = statistics.median(va), statistics.median(vb)
            print(
                f"{workload:14s} {name:16s} {ma:12.5g} {mb:12.5g} "
                f"{mb / ma:7.3f} {spread(va):9.3f} {spread(vb):9.3f} "
                f"{metric['bound']:6.2f}  {outcome}"
            )
    print(f"base of every ratio: A = {path_a} ({len(a['runs'])} runs)")
    counts_a, counts_b = exact_counts(a), exact_counts(b)
    for seed in sorted(counts_a.keys() & counts_b.keys()):
        for workload, passes in counts_a[seed].items():
            # zip: one side may have run the traced pass and the other not.
            if any(
                pa != pb for pa, pb in zip(passes, counts_b[seed][workload])
            ):
                disagreements += 1
                print(f"counts differ: seed {seed} {workload}")
    if not counts_a.keys() & counts_b.keys():
        print("no seed in common: exact counts not compared")
    return 1 if disagreements else 0
