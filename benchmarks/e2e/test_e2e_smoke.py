"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs ``run.py --smoke --trace`` once (about half a minute) and checks
that every workload emits every metric it owes, finite and with the
unit ``spec.py`` and ``BENCHMARK.json`` give it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    output = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [*RUN, "--smoke", "--trace", "--output", str(output)],
        capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    with open(output, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_every_owed_metric_is_emitted(smoke_result, workload):
    (run,) = smoke_result["runs"]
    untraced, traced = run["workloads"][workload]
    for detail, trace in ((untraced, False), (traced, True)):
        owed = spec.owed(workload, trace)
        assert detail["metrics"].keys() == owed.keys()
        for name, metric in detail["metrics"].items():
            assert metric["unit"] == owed[name], name
            assert math.isfinite(metric["value"]), name
        assert detail["correct"] and detail["failed"] == 0
        assert detail["attempted"] >= detail["samples"] >= 1
    for name in spec.END_TO_END:
        assert untraced["metrics"][name]["value"] > 0, name


def test_provenance_is_stamped(smoke_result):
    provenance = smoke_result["provenance"]
    for key in ("python", "numpy", "nproc", "seed", "load_1m_start", "load_1m_end"):
        assert provenance[key] is not None, key
    assert "git_sha" in provenance


def test_driver_line_names_every_metric():
    done = subprocess.run(
        [*RUN, "--workload", "dp_durable", "--seed", "5", "--seconds", "1",
         "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["metrics"].keys() == spec.PER_LAYER.keys()
    for name, (unit, _) in spec.PER_LAYER.items():
        assert line["metrics"][name]["unit"] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )  # fmt: skip
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "dp_overload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""
