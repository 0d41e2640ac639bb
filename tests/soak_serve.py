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
  ``shutdown``.

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

from repro.faults import failover_plan, moderate_plan

ROOT = Path(__file__).resolve().parent.parent
_WINDOWS = re.compile(
    r"^sketchvisor_serve_windows_total (\S+)$", re.MULTILINE
)
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


def _windows(port: int) -> int | None:
    url = f"http://127.0.0.1:{port}/metrics"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode()
    except OSError:
        return None
    match = _WINDOWS.search(text)
    return int(float(match.group(1))) if match else 0


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
        key: [] for key in ("elapsed_s", "windows", "rss_kb", "fds", "threads")
    }
    try:
        started = time.monotonic()
        port = _wait_for_port(process, log, started + 120)
        last = 0
        while time.monotonic() - started < seconds:
            if process.poll() is not None:
                raise RuntimeError(f"daemon died:\n{log.read_text()}")
            windows = _windows(port)
            if windows is not None and windows > last:
                last = windows
                for key, value in zip(
                    ("rss_kb", "fds", "threads"), _proc_sample(process.pid)
                ):
                    series[key].append(value)
                series["windows"].append(windows)
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


def verdicts(run: dict) -> dict[str, bool]:
    """Each check by name -> passed; the fitted RSS slope is stored in
    ``run["rss_kb_per_window"]``."""
    count = len(run["windows"])
    settled = slice(count // 3, None)
    checks = {
        "enough windows": count >= 9,
        "exit 0": run["exit_code"] == 0,
        "shutdown flush": run["recorder_reason"] == "shutdown",
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
                "checks": checks,
            }
        )
    )
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
