"""Names, units and owners of every metric and workload the harness prints.

``BENCHMARK.json`` at the repository root carries the same names (plus
direction, bound and the one-line reason per workload); :func:`check_benchmark_json`
compares the two at start-up so the file and the program cannot drift.
"""

from __future__ import annotations

import json
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
OUT_DIR = E2E_DIR / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = E2E_DIR / "expected.json"

DEFAULT_SEED = 2017

BATCH = ("dp_overload", "dp_underload", "dp_durable", "cp_fanin")
SERVE = "serve_stream"
WORKLOADS = (*BATCH, SERVE)

#: End-to-end metric -> unit.  Every workload emits every one of them.
END_TO_END = {
    "setup_s": "s",
    "pkts_per_s": "pkt/s",
    "epoch_s_p50": "s",
    "cpu_s_per_mpkt": "s/Mpkt",
    "peak_rss_mb": "MB",
}

_ALL = WORKLOADS
_FANIN = ("cp_fanin",)
_DURABLE = ("dp_durable",)
_SERVE = (SERVE,)

#: Per-layer metric -> (unit, workloads that owe it).  A workload whose
#: path never enters the layer does not owe the metric; the driver line
#: reports it as 0 there because the contract wants every name.
PER_LAYER = {
    "traffic.generate_s": ("s", _ALL),
    "traffic.groundtruth_s": ("s", _ALL),
    "traffic.partition_s": ("s", BATCH),
    "dataplane.build_hosts_s": ("s", BATCH),
    "dataplane.host_epoch_s": ("s", BATCH),
    "dataplane.ns_per_pkt": ("ns/pkt", BATCH),
    "dataplane.fastpath_pkt_frac": ("ratio", _ALL),
    "dataplane.fastpath_byte_frac": ("ratio", _ALL),
    "dataplane.sim_gbps": ("Gbps", _ALL),
    "sketches.update_batch_ns_per_pkt": ("ns/pkt", BATCH),
    "sketches.batch_kernel": ("count", BATCH),
    "sketches.memory_bytes": ("bytes", BATCH),
    "fastpath.update_ns_per_pkt": ("ns/pkt", BATCH),
    "fastpath.hits": ("count", _ALL),
    "fastpath.inserts": ("count", _ALL),
    "fastpath.kickouts": ("count", _ALL),
    "fastpath.tracked": ("count", _ALL),
    "transport.encode_s": ("s", BATCH),
    "transport.decode_s": ("s", BATCH),
    "transport.frame_bytes": ("bytes", BATCH),
    "merge.sketches_s": ("s", BATCH),
    "merge.snapshots_s": ("s", BATCH),
    "recovery.recover_s": ("s", BATCH),
    "recovery.lens_iterations": ("count", _ALL),
    "tasks.answer_s": ("s", BATCH),
    "tasks.score_s": ("s", BATCH),
    "tasks.answer_err": ("ratio", _ALL),
    "cluster.collect_s": ("s", _FANIN),
    "cluster.frames": ("count", _FANIN),
    "cluster.retries": ("count", _FANIN),
    "cluster.backpressure_waits": ("count", _FANIN),
    "cluster.vs_inprocess_ratio": ("ratio", _FANIN),
    "durability.overhead_ratio": ("ratio", _DURABLE),
    "durability.snapshot_s": ("s", _DURABLE),
    "durability.snapshot_bytes": ("bytes", _DURABLE),
    "durability.checkpoints_written": ("count", _DURABLE),
    "serve.window_advance_s_p50": ("s", _SERVE),
    "serve.window_advance_s_p90": ("s", _SERVE),
    "serve.http_metrics_s_p50": ("s", _SERVE),
    "serve.http_metrics_s_p90": ("s", _SERVE),
    "serve.http_query_s_p50": ("s", _SERVE),
    "serve.http_query_s_p90": ("s", _SERVE),
    "serve.http_dash_s_p50": ("s", _SERVE),
    "serve.http_requests": ("count", _SERVE),
    "serve.http_non200": ("count", _SERVE),
    "serve.metrics_bytes": ("bytes", _SERVE),
    "serve.rss_kb_per_window": ("KB/window", _SERVE),
    "telemetry.overhead_ratio": ("ratio", ("dp_overload",)),
    "telemetry.prometheus_text_s": ("s", ("dp_overload", SERVE)),
    "telemetry.series": ("count", ("dp_overload", SERVE)),
    "pipeline.unattributed_frac": ("ratio", BATCH),
    "pipeline.trace_overhead_ratio": ("ratio", BATCH),
    "machine.speed_factor": ("ratio", _ALL),
}

PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}

#: The per-epoch counts :func:`harness.epoch_counts` reads off an
#: ``EpochResult``.  They repeat exactly for a given seed, so
#: ``expected.json`` pins them.
PINNED = (
    "dataplane.fastpath_pkt_frac",
    "dataplane.fastpath_byte_frac",
    "dataplane.sim_gbps",
    "fastpath.hits",
    "fastpath.inserts",
    "fastpath.kickouts",
    "fastpath.tracked",
    "recovery.lens_iterations",
    "tasks.answer_err",
    "durability.checkpoints_written",
)

#: Layer metrics that repeat exactly for a given seed; two sets of runs
#: of one commit must agree on them to the last digit.
EXACT = (
    *PINNED,
    "sketches.batch_kernel",
    "sketches.memory_bytes",
    "transport.frame_bytes",
    "durability.snapshot_bytes",
    "cluster.frames",
)


def owed(workload: str, trace: bool) -> dict[str, str]:
    """Metric -> unit for what ``workload`` must emit in one pass."""
    if not trace:
        return dict(END_TO_END)
    return {
        name: unit
        for name, (unit, owners) in PER_LAYER.items()
        if workload in owners
    }


def check_benchmark_json() -> dict:
    """Return ``BENCHMARK.json`` after checking it names what we print."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        document = json.load(handle)
    problems = []
    found = tuple(w["name"] for w in document["workloads"])
    if found != WORKLOADS:
        problems.append(f"workloads {found} != {WORKLOADS}")
    for key, ours in (
        ("end_to_end", END_TO_END),
        ("per_layer", PER_LAYER_UNITS),
    ):
        theirs = {m["name"]: m["unit"] for m in document[key]}
        if theirs != ours:
            differing = sorted(
                name
                for name in theirs.keys() | ours.keys()
                if theirs.get(name) != ours.get(name)
            )
            problems.append(f"{key} differs on {differing}")
    if problems:
        raise SystemExit(
            "BENCHMARK.json and benchmarks/e2e/spec.py disagree: "
            + "; ".join(problems)
        )
    return document
