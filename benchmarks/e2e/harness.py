"""Pieces both kinds of workload share: the measurement budget, order
statistics, the per-epoch counts, the span recorder and the correctness
gate."""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import fmean

from repro.telemetry.publish import fastpath_stats

import spec


@dataclass
class Budget:
    """How long a measured phase runs: until ``seconds`` have passed and
    at least ``min_items`` are done, or ``max_items`` are (smoke runs)."""

    seconds: float
    min_items: int
    max_items: int | None = None
    started: float = field(default_factory=time.perf_counter)

    def more(self, done: int) -> bool:
        if self.max_items is not None:
            return done < self.max_items
        return (
            done < self.min_items
            or time.perf_counter() - self.started < self.seconds
        )


#: What :func:`calibrate` takes on the box the workloads were sized on
#: when nothing else runs.  It only fixes the unit of normalised times.
CALIBRATION_REFERENCE_S = 0.025


def calibrate() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The box this runs on changes speed by tens of percent for seconds
    to minutes at a time (a busy neighbour on the same core), which no
    statistic over one 12-second run removes.  The kernel is the same
    kind of work as the program's hot loops — dictionary updates in the
    interpreter — and tracks their slow-downs closely.  It belongs to
    the harness, so no change to the program moves it; it allocates
    nothing the garbage collector tracks, so neither does the size of
    the program's heap; and it is short enough to bracket every
    measured item.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(150_000):
        key = (i * 2654435761) & 65535
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """How slow the machine was between two calibrations: their mean
    over the reference (1.0 is the reference box undisturbed, 1.3 is
    30% slower).  Dividing an item's wall and CPU time by it gives the
    time the item would have taken at reference speed."""
    return (before + after) / 2 / CALIBRATION_REFERENCE_S


class Speedometer:
    """Brackets measured items with calibrations: :meth:`factor` is
    called after each item and returns its :func:`speed_factor`."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.factors: list[float] = []

    def factor(self) -> float:
        now = calibrate()
        factor = speed_factor(self.last, now)
        self.last = now
        self.factors.append(factor)
        return factor


@dataclass
class SetupTimings:
    """One entry per set-up repeat; ``total_s`` at reference speed,
    the others as measured."""

    total_s: list[float] = field(default_factory=list)
    raw_total_s: list[float] = field(default_factory=list)
    generate_s: list[float] = field(default_factory=list)
    groundtruth_s: list[float] = field(default_factory=list)

    def add(self, total, factor, generate_s, groundtruth_s) -> None:
        self.total_s.append(total / factor)
        self.raw_total_s.append(total)
        self.generate_s.append(generate_s)
        self.groundtruth_s.append(groundtruth_s)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def count_series(prometheus_text: str) -> int:
    """Sample lines of a Prometheus text exposition."""
    return sum(
        1
        for line in prometheus_text.splitlines()
        if line and not line.startswith("#")
    )


def answer_err(score) -> float:
    """``1 - F1`` for detection tasks, MRD for distributions."""
    if score.mrd is not None:
        return score.mrd
    total = score.recall + score.precision
    f1 = 2.0 * score.recall * score.precision / total if total else 0.0
    return 1.0 - f1


def epoch_counts(result) -> dict[str, float]:
    """The seeded, exactly repeating numbers of one ``EpochResult``."""
    switches = [report.switch for report in result.reports]
    fast = [
        fastpath_stats(report.fastpath)
        for report in result.reports
        if report.fastpath is not None
    ]
    counts = {
        "dataplane.fastpath_pkt_frac": (
            sum(s.fastpath_packets for s in switches)
            / sum(s.total_packets for s in switches)
        ),
        "dataplane.fastpath_byte_frac": result.fastpath_byte_fraction,
        "dataplane.sim_gbps": result.throughput_gbps,
        "recovery.lens_iterations": result.network.lens_iterations,
        "tasks.answer_err": answer_err(result.score),
    }
    for key in ("hits", "inserts", "kickouts", "tracked"):
        counts[f"fastpath.{key}"] = sum(stats[key] for stats in fast)
    if result.durability is not None:
        counts["durability.checkpoints_written"] = sum(
            outcome.checkpoint_writes for outcome in result.durability
        )
    return counts


def mean_counts(per_input: list[dict]) -> dict[str, float]:
    """Mean of each count over the pinned inputs (not over epochs, whose
    number depends on how fast the machine is)."""
    return {
        name: fmean(counts[name] for counts in per_input)
        for name in per_input[0]
    }


class Gate:
    """The correctness gate of one workload.

    For the default seed at full size every input's counts must equal
    ``expected.json``; for any seed the invariants must hold.
    ``violations`` makes the run incorrect, ``failed`` counts operations
    (epochs, windows, HTTP requests) that did not complete cleanly.
    """

    def __init__(self, workload: str, seed: int, full_size: bool):
        self.workload = workload
        self.violations: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.pins = None
        if full_size and spec.EXPECTED_JSON.exists():
            with open(spec.EXPECTED_JSON, encoding="utf-8") as handle:
                expected = json.load(handle)
            if expected["seed"] == seed:
                self.pins = expected["workloads"].get(workload)

    def operation(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.violations.append(why)

    def epoch(self, result, index: int) -> dict[str, float]:
        """Check one ``EpochResult``; ``index`` names its pinned input."""
        counts = epoch_counts(result)
        score = result.score
        where = f"{self.workload}[{index}]"
        self.operation(
            result.degraded is None, f"{where}: degraded epoch"
        )
        if score.recall is not None and min(
            score.recall, score.precision
        ) < 0.9:
            self.violations.append(
                f"{where}: recall {score.recall:.3f} / precision "
                f"{score.precision:.3f} below 0.9"
            )
        share = counts["dataplane.fastpath_byte_frac"]
        if self.workload == "dp_underload" and share != 0:
            self.violations.append(
                f"{where}: fast-path share {share} under no overload"
            )
        if self.workload == "dp_overload" and share <= 0.5:
            self.violations.append(
                f"{where}: fast-path share {share} is not an overload"
            )
        if self.pins is not None and index < len(self.pins):
            for name, want in self.pins[index].items():
                got = counts.get(name)
                if got is None or not math.isclose(
                    got, want, rel_tol=1e-9, abs_tol=1e-12
                ):
                    self.violations.append(
                        f"{where}: {name} is {got}, pinned {want}"
                    )
        return counts

    @property
    def correct(self) -> bool:
        return not self.violations


class SpanRecorder:
    """In-memory spans: name, start, end, parent span and epoch id.

    Single-threaded nesting goes through :meth:`span`; spans observed
    from timestamps (serve windows, scraper requests) through
    :meth:`add`.  Nothing is written until :meth:`write_chrome_trace`.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, epoch: int):
        index = len(self.spans)
        record = {
            "name": name,
            "epoch": epoch,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "lane": 0,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(
        self, name: str, start: float, end: float, epoch: int, lane: int
    ) -> None:
        self.spans.append(
            {
                "name": name,
                "epoch": epoch,
                "parent": None,
                "start": start,
                "end": end,
                "lane": lane,
            }
        )

    def self_times(self) -> dict[int, dict[str, float]]:
        """epoch -> span name -> summed self time (duration minus the
        part child spans cover)."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += (
                    record["end"] - record["start"]
                )
        table: dict[int, dict[str, float]] = {}
        for record, child_time in zip(self.spans, covered):
            row = table.setdefault(record["epoch"], {})
            row[record["name"]] = (
                row.get(record["name"], 0.0)
                + record["end"]
                - record["start"]
                - child_time
            )
        return table

    def write_chrome_trace(self, path) -> None:
        origin = min(
            (record["start"] for record in self.spans), default=0.0
        )
        events = [
            {
                "name": record["name"],
                "ph": "X",
                "pid": 1,
                "tid": record["lane"],
                "ts": (record["start"] - origin) * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "args": {
                    "id": index,
                    "parent": record["parent"],
                    "epoch": record["epoch"],
                },
            }
            for index, record in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
