#!/usr/bin/env python3
"""End-to-end benchmark with a per-layer ledger.

    python3 benchmarks/e2e/run.py                      # all workloads, untraced
    python3 benchmarks/e2e/run.py --trace              # ... plus the traced pass
    python3 benchmarks/e2e/run.py --smoke --trace      # small and quick, no bounds
    python3 benchmarks/e2e/run.py --repeat 10 --output A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload dp_overload --seed 7 --seconds 12 --trace 0

The last form is one pass over one workload in this process; it is what
the driver calls and what the other forms run once per workload in a
fresh child process.  Its last line of output is one JSON object.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import spec


def prepare_process() -> None:
    """What must hold before NumPy and ``repro`` are imported."""
    # One BLAS thread, so the LENS SVD does not take the second core
    # from the driver thread; and none of the REPRO_* switches that
    # PipelineConfig would otherwise read from the environment.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    package = spec.ROOT / "src" / "repro"
    if not package.is_dir():
        raise SystemExit(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(spec.ROOT / "src"))


#: Set-up is repeated so that ``setup_s`` is a median; the traces the
#: repeats generate are the inputs the measured phase cycles through.
SETUP_REPEATS = 3
#: ``--smoke``: quarter-size traces, one set-up, 3 epochs or 10 windows.
SMOKE_SCALE = 0.25
SMOKE_EPOCHS = 3
SMOKE_WINDOWS = 10
#: ``serve_stream`` measures at most this many windows per second of its
#: budget (it does ~5 on the reference box), so that a run normally ends
#: on the window count and its peak RSS, which grows per window, is read
#: at the same point every time.
SERVE_WINDOWS_PER_SECOND = 4


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One pass over one workload; returns the detail document."""
    import batch
    import ledger
    import serve
    from harness import Budget, Gate

    started = time.perf_counter()
    repeats = 1 if smoke else SETUP_REPEATS
    scale = SMOKE_SCALE if smoke else 1.0
    gate = Gate(name, seed, full_size=not smoke)
    spec.OUT_DIR.mkdir(exist_ok=True)
    trace_path = spec.OUT_DIR / f"trace-{name}.json"
    with tempfile.TemporaryDirectory(dir=spec.OUT_DIR) as workdir:
        workdir = Path(workdir)
        if name == spec.SERVE:
            windows = (
                SMOKE_WINDOWS if smoke else SERVE_WINDOWS_PER_SECOND * seconds
            )
            # Two more windows than are measured: the first is warm-up,
            # and the service stops before asking past the last.
            setup = serve.set_up(seed, repeats, scale, windows + 2)
            measured = serve.measure(
                setup, gate, 600 if smoke else seconds, trace_path
            )
            layers = measured.pop("layers")
        else:
            setup = batch.set_up(
                batch.SPECS[name], seed, repeats, scale, workdir
            )
            budget = Budget(seconds, repeats, SMOKE_EPOCHS if smoke else None)
            if trace:
                measured = ledger.trace_batch(
                    name, setup, gate, budget, workdir, trace_path
                )
                layers = measured["metrics"]
            else:
                measured = batch.measure(setup, gate, budget)
                layers = {}
    if trace:
        layers["traffic.generate_s"] = median(setup.timings.generate_s)
        layers["traffic.groundtruth_s"] = median(setup.timings.groundtruth_s)
        values, units = layers, spec.owed(name, trace=True)
    else:
        values = dict(measured["metrics"])
        values["setup_s"] = median(setup.timings.total_s)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        units = spec.owed(name, trace=False)
    if values.keys() != units.keys():
        raise SystemExit(
            f"{name} owes {sorted(units)} but measured {sorted(values)}"
        )
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "violations": gate.violations,
        "samples": measured["samples"],
        "epoch_s": measured["epoch_s"],
        # As measured, before being taken to reference speed.
        "raw": {
            "speed_factor": measured.get("speed_factor"),
            "epoch_s": measured.get("raw_epoch_s"),
            "setup_s": setup.timings.raw_total_s,
        },
        "setup_samples": repeats,
        "counts": measured.get("counts", []),
        "wall_s": time.perf_counter() - started,
        "metrics": {
            key: {"value": values[key], "unit": units[key]} for key in units
        },
    }


def print_table(detail: dict) -> None:
    kind = "per-layer" if detail["trace"] else "end-to-end"
    print(
        f"== {detail['workload']} ({kind}, seed {detail['seed']}, "
        f"{detail['samples']} samples, {detail['setup_samples']} set-ups, "
        f"{detail['failed']}/{detail['attempted']} operations failed)"
    )
    for key, metric in detail["metrics"].items():
        print(f"  {key:36s} {metric['value']:>16.6g} {metric['unit']}")
    raw = detail["raw"]
    if not detail["trace"]:
        print(
            f"  as measured: epoch_s_p50 "
            f"{median(raw['epoch_s']):.6g} s, setup_s "
            f"{median(raw['setup_s']):.6g} s, machine at "
            f"{raw['speed_factor']:.3f}x the reference time"
        )
    for violation in detail["violations"]:
        print(f"  GATE: {violation}", file=sys.stderr)


def driver_line(detail: dict) -> str:
    """The contract's last line: every metric of the pass by name.  A
    per-layer metric the workload does not owe reads 0."""
    names = spec.PER_LAYER_UNITS if detail["trace"] else spec.END_TO_END
    metrics = {
        name: detail["metrics"].get(name, {"value": 0, "unit": unit})
        for name, unit in names.items()
    }
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics,
        }
    )


def run_child(name: str, seed: int, seconds: int, trace: bool, smoke: bool):
    """One workload, one pass, in a fresh process; returns its detail."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = done.stdout.splitlines()
    marker = "detail "
    details = [line for line in lines if line.startswith(marker)]
    sys.stdout.write(
        "".join(
            line + "\n"
            for line in lines[:-1]
            if not line.startswith(marker)
        )
    )
    sys.stdout.flush()
    if not details:
        raise SystemExit(
            f"{name}: child exited {done.returncode} without a result"
        )
    return json.loads(details[-1][len(marker):])


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(spec.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )  # fmt: skip
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def load_average() -> float:
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(
            f"warning: 1-minute load average {load:.2f} exceeds the "
            f"{os.cpu_count()} cores; timings will be noisy",
            file=sys.stderr,
        )
    return load


def run_all(args) -> int:
    import numpy

    provenance = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "load_1m_start": load_average(),
    }
    runs = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        workloads = {}
        for name in spec.WORKLOADS:
            passes = [run_child(name, seed, args.seconds, False, args.smoke)]
            if args.trace:
                passes.append(
                    run_child(name, seed, args.seconds, True, args.smoke)
                )
            workloads[name] = passes
        runs.append({"seed": seed, "workloads": workloads})
    provenance["load_1m_end"] = load_average()
    result = {"provenance": provenance, "runs": runs}

    output = args.output or spec.OUT_DIR / time.strftime(
        "result-%Y%m%dT%H%M%S.json"
    )
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"result written to {output}")
    if args.write_expected:
        write_expected(runs[0])
    passes = [
        p for run in runs for ps in run["workloads"].values() for p in ps
    ]
    bad = [p for p in passes if not p["correct"] or p["failed"]]
    for p in bad:
        print(
            f"FAILED {p['workload']} seed {p['seed']}: "
            + "; ".join(p["violations"]),
            file=sys.stderr,
        )
    return 1 if bad else 0


def write_expected(run: dict) -> None:
    """Pin this run's exact counts as the default seed's expectation."""
    pins = {
        name: [
            {key: counts[key] for key in spec.PINNED if key in counts}
            for counts in passes[0]["counts"]
        ]
        for name, passes in run["workloads"].items()
    }
    with open(spec.EXPECTED_JSON, "w", encoding="utf-8") as handle:
        json.dump({"seed": run["seed"], "workloads": pins}, handle, indent=1)
        handle.write("\n")
    print(f"pinned counts written to {spec.EXPECTED_JSON}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=int, help="length of each measured phase"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also (with --workload: instead) run the traced per-layer pass",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="run everything N times, seeds SEED..SEED+N-1, into one file",
    )  # fmt: skip
    parser.add_argument("--output", help="result file (default: out/)")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="pin the first run's counts into expected.json",
    )  # fmt: skip
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    prepare_process()
    document = spec.check_benchmark_json()
    if args.compare:
        import compare

        return compare.main(*args.compare, document)
    if args.seconds is None:
        args.seconds = document["run_seconds"]
    if args.workload is None:
        return run_all(args)
    detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print_table(detail)
    print("detail " + json.dumps(detail))
    print(driver_line(detail))
    return 0 if detail["correct"] and not detail["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
