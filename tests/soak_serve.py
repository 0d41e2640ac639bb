"""Soak ``repro serve``: an endless daemon under chaos must hold flat.

Starts ``python -m repro serve`` with no window limit and a moderate
fault plan (``--chaos``, :func:`repro.faults.moderate_plan`).  With
``--cluster N`` the daemon ships its reports over an N-host socket
tier under :func:`repro.faults.failover_plan` instead, so aggregators
crash and hang while it runs.  Once per window (read as
``sketchvisor_serve_windows_total`` off ``/metrics``) it samples the
daemon's VmRSS, its open descriptors (``/proc/<pid>/fd``) and its
threads (``/proc/<pid>/task``).  After ``--seconds`` it sends SIGTERM
and checks that

- RSS is flat after warm-up: the least-squares slope over the windows
  past the first third is at most ``MAX_KB_PER_WINDOW``;
- descriptor and thread counts past warm-up stay within ``SLACK`` of
  their warm-up median (of their warm-up peak under ``--cluster``: a
  cluster window holds its tier's sockets and event-loop thread while
  it runs, so a sample lands on either phase, and a socket leaked per
  window still lifts the peak by one a window);
- the daemon exits 0 and its last flight-recorder dump has reason
  ``shutdown``;
- it drops nothing it should have kept: a host-epoch is left
  unrecovered (``sketchvisor_aggregator_unrecovered_host_epochs_total``)
  only in a window that failed quorum
  (``sketchvisor_serve_quorum_failures_total``), and under
  ``--cluster`` a window fails quorum only when the
  :func:`~repro.faults.failover_plan` schedule struck every aggregator
  of its epoch.  Both counters are sampled with the series; a sample
  covers the epochs since the one before it (windows recovered plus
  windows that failed quorum).

It writes the series and the verdicts as JSON (``--out``) and exits 1
if any check failed.  ``tests/test_serve.py`` runs a short leg, CI's
``serve-smoke`` job a ~3-minute one and a ~2-minute fail-over one
(``--seconds 3600`` makes either an hour-long soak)::

    PYTHONPATH=src python tests/soak_serve.py --seconds 180 \\
        --out soak_serve.json
    PYTHONPATH=src python tests/soak_serve.py --seconds 120 \\
        --cluster 8 --out soak_serve_cluster.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from statistics import median

import numpy as np

from repro.cluster import ClusterConfig
from repro.cluster.aggregator import assign_aggregator
from repro.faults import failover_plan, moderate_plan

ROOT = Path(__file__).resolve().parent.parent
#: Series key -> the /metrics counter it samples (0 until published).
COUNTERS = {
    "windows": "sketchvisor_serve_windows_total",
    "quorum_failures": "sketchvisor_serve_quorum_failures_total",
    "unrecovered_host_epochs": (
        "sketchvisor_aggregator_unrecovered_host_epochs_total"
    ),
}
_PORT = re.compile(r"serving on http://[^:]+:(\d+)")
#: Flows in the daemon's synthetic trace.
FLOWS = 2000
#: Seed of the fault plan the daemon runs under.
CHAOS_SEED = 7
#: Largest settled RSS slope that still counts as flat.
MAX_KB_PER_WINDOW = 64.0
#: Descriptors / threads allowed above their warm-up median.
SLACK = 2


def _proc_sample(pid: int) -> tuple[int, int, int]:
    """``(VmRSS KB, open fds, threads)`` of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        rss_kb = next(
            int(line.split()[1])
            for line in handle
            if line.startswith("VmRSS:")
        )
    return (
        rss_kb,
        len(os.listdir(f"/proc/{pid}/fd")),
        len(os.listdir(f"/proc/{pid}/task")),
    )


def _counters(port: int) -> dict[str, int] | None:
    """The :data:`COUNTERS` off ``/metrics``, or ``None`` if unreadable."""
    url = f"http://127.0.0.1:{port}/metrics"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode()
    except OSError:
        return None
    values = {}
    for key, name in COUNTERS.items():
        match = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
        values[key] = int(float(match.group(1))) if match else 0
    return values


def _wait_for_port(process, log: Path, deadline: float) -> int:
    while time.monotonic() < deadline:
        match = _PORT.search(log.read_text(errors="replace"))
        if match:
            return int(match.group(1))
        if process.poll() is not None:
            break
        time.sleep(0.1)
    raise RuntimeError(f"daemon never bound:\n{log.read_text()}")


def soak(
    seconds: float, workdir: Path, window_packets: int, cluster: int = 0
) -> dict:
    """Run the daemon for ``seconds`` (over a ``cluster``-host socket
    tier if nonzero); the per-window series plus how the daemon shut
    down."""
    plan = workdir / "soak_plan.json"
    make_plan = failover_plan if cluster else moderate_plan
    make_plan(seed=CHAOS_SEED).save(str(plan))
    log = workdir / "soak_serve.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    with open(log, "w", encoding="utf-8") as out:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--flows", str(FLOWS),
                "--window-packets", str(window_packets),
                "--port", "0",
                "--chaos", str(plan),
                "--recorder-out", "soak_recorder.json",
                *(["--cluster", str(cluster)] if cluster else []),
            ],
            cwd=workdir,
            env=env,
            stdout=out,
            stderr=subprocess.STDOUT,
        )  # fmt: skip
    series: dict[str, list] = {
        key: []
        for key in ("elapsed_s", *COUNTERS, "rss_kb", "fds", "threads")
    }
    try:
        started = time.monotonic()
        port = _wait_for_port(process, log, started + 120)
        last = 0
        while time.monotonic() - started < seconds:
            if process.poll() is not None:
                raise RuntimeError(f"daemon died:\n{log.read_text()}")
            counters = _counters(port)
            if counters is not None and counters["windows"] > last:
                last = counters["windows"]
                for key, value in zip(
                    ("rss_kb", "fds", "threads"), _proc_sample(process.pid)
                ):
                    series[key].append(value)
                for key, value in counters.items():
                    series[key].append(value)
                series["elapsed_s"].append(time.monotonic() - started)
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        exit_code = process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    dumps = sorted(workdir.glob("soak_recorder-*.json"))
    reason = json.loads(dumps[-1].read_text())["reason"] if dumps else None
    return {
        **series,
        "cluster": cluster,
        "exit_code": exit_code,
        "recorder_reason": reason,
        "log_tail": log.read_text(errors="replace")[-2000:],
    }


def _spares_an_aggregator(hosts: int):
    """``epoch -> bool``: whether the daemon's ``failover_plan()``
    leaves at least one aggregator of a ``hosts``-host tier unstruck."""
    plan = failover_plan(seed=CHAOS_SEED)
    aggregators = ClusterConfig().resolve_aggregators(hosts)
    groups = [0] * aggregators
    for host in range(hosts):
        groups[assign_aggregator(host, aggregators)] += 1
    return lambda epoch: any(
        not plan.aggregator_schedule_for(epoch, aggregator, size)
        for aggregator, size in enumerate(groups)
    )


def _losses(run: dict) -> tuple[int, int]:
    """``(unrecovered host-epochs in samples without a quorum failure,
    quorum failures in samples whose every epoch had an aggregator the
    fail-over schedule spared)``; the second is 0 without a cluster."""
    hosts = run["cluster"]
    spared = _spares_an_aggregator(hosts) if hosts else None
    stray_unrecovered = stray_failures = 0
    epochs = failures = unrecovered = 0
    for windows, failed, lost in zip(
        run["windows"], run["quorum_failures"], run["unrecovered_host_epochs"]
    ):
        first, epochs = epochs, windows + failed
        new_failures, failures = failed - failures, failed
        new_lost, unrecovered = lost - unrecovered, lost
        if new_lost and not new_failures:
            stray_unrecovered += new_lost
        if (
            spared is not None
            and new_failures
            and all(spared(epoch) for epoch in range(first, epochs))
        ):
            stray_failures += new_failures
    return stray_unrecovered, stray_failures


def verdicts(run: dict) -> dict[str, bool]:
    """Each check by name -> passed; the fitted RSS slope is stored in
    ``run["rss_kb_per_window"]``, and what the loss checks counted in
    ``run["unrecovered_outside_quorum_failures"]`` and
    ``run["quorum_failures_with_a_spared_aggregator"]``."""
    count = len(run["windows"])
    settled = slice(count // 3, None)
    stray_unrecovered, stray_failures = _losses(run)
    run["unrecovered_outside_quorum_failures"] = stray_unrecovered
    run["quorum_failures_with_a_spared_aggregator"] = stray_failures
    checks = {
        "enough windows": count >= 9,
        "exit 0": run["exit_code"] == 0,
        "shutdown flush": run["recorder_reason"] == "shutdown",
        "unrecovered only in quorum failures": stray_unrecovered == 0,
        "quorum failures only with every aggregator struck": (
            stray_failures == 0
        ),
    }
    if not checks["enough windows"]:
        return checks
    slope = np.polyfit(
        run["windows"][settled], run["rss_kb"][settled], 1
    )[0]
    run["rss_kb_per_window"] = float(slope)
    checks["flat rss"] = bool(slope <= MAX_KB_PER_WINDOW)
    for key in ("fds", "threads"):
        warm = run[key][: count // 3]
        bound = max(warm) if run["cluster"] else median(warm)
        checks[f"stable {key}"] = max(run[key][settled]) <= bound + SLACK
    return checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=180.0)
    parser.add_argument("--window-packets", type=int, default=2000)
    parser.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="serve an N-host socket cluster under failover_plan() "
        "(default 0: in-process reports under moderate_plan())",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="soak_serve_") as workdir:
        run = soak(
            args.seconds, Path(workdir), args.window_packets, args.cluster
        )
    checks = verdicts(run)
    run["checks"] = checks
    if args.out is not None:
        args.out.write_text(json.dumps(run, indent=1) + "\n")
    print(
        json.dumps(
            {
                "windows": run["windows"][-1] if run["windows"] else 0,
                "rss_kb": run["rss_kb"][-1] if run["rss_kb"] else None,
                "rss_kb_per_window": run.get("rss_kb_per_window"),
                "quorum_failures": (
                    run["quorum_failures"][-1] if run["quorum_failures"] else 0
                ),
                "unrecovered_host_epochs": (
                    run["unrecovered_host_epochs"][-1]
                    if run["unrecovered_host_epochs"]
                    else 0
                ),
                "checks": checks,
            }
        )
    )
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
