"""The ``serve_stream`` workload: the measurement daemon under a scraper.

Closed loop, two clients in one process: the replay source hands the
service its next chunk as soon as the previous one is consumed
(``rate_pps=None``), and one scraper thread cycles the HTTP endpoints
with 20 ms think time.  Ingest and HTTP share the interpreter lock.

All timing comes from outside the service: the source timestamps the
hand-over of each window-closing chunk and the request for the next
one, the scraper timestamps its own requests.  The traced and untraced
passes therefore run the same way and differ only in what they report.

Between windows the source runs the harness's calibration kernel in
the ingest thread, with the scraper held off, so that each window's
times can be taken to reference speed like a batch epoch's.  The
calibration is outside every interval that is reported.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from repro.framework.pipeline import PipelineConfig
from repro.serve import MeasurementService, ReplaySource, ServeConfig
from repro.tasks.cardinality import CardinalityTask
from repro.tasks.distribution import FlowSizeDistributionTask
from repro.tasks.heavy_hitter import HeavyHitterTask

from batch import HH_SHARE, generate_input
from harness import (
    Gate,
    SetupTimings,
    SpanRecorder,
    calibrate,
    count_series,
    mean_counts,
    percentile,
    speed_factor,
)

FLOWS = 10_000
WINDOW_PACKETS = 4096
THINK_S = 0.020
SCRAPE_CYCLE = (
    "/metrics",
    "/query/heavy-hitters",
    "/metrics",
    "/query/cardinality",
    "/dash",
)
#: Measured windows whose counts ``expected.json`` pins.
PINNED_WINDOWS = 8
#: The RSS slope skips the windows in which the process is still
#: reaching its working set.
SLOPE_FROM_WINDOW = 20
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def rss_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_KB


@dataclass
class Mark:
    """The clocks around one window-closing chunk."""

    handed: float
    asked: float
    cpu_asked: float
    calibration_s: float
    resumed: float
    cpu_resumed: float


class TimedReplay(ReplaySource):
    """A looping replay that notes, for each chunk that closes a window,
    when it was handed over and when the service came back for more,
    and then calibrates before handing over the next chunk."""

    def __init__(self, trace):
        super().__init__(trace, loop=True, rate_pps=None)
        self.marks: list[Mark] = []
        #: Held while calibrating; the scraper takes it per request, so
        #: no request runs beside a calibration.
        self.quiet = threading.Lock()

    def __iter__(self):
        packets = 0
        for chunk in super().__iter__():
            windows_before = packets // WINDOW_PACKETS
            packets += len(chunk)
            handed = time.perf_counter()
            yield chunk
            # A pass of the trace ends on a short chunk, so window
            # boundaries drift against chunk boundaries.
            if packets // WINDOW_PACKETS > windows_before:
                asked, cpu = time.perf_counter(), time.process_time()
                with self.quiet:
                    calibration = calibrate()
                self.marks.append(
                    Mark(
                        handed, asked, cpu, calibration,
                        time.perf_counter(), time.process_time(),
                    )
                )  # fmt: skip


@dataclass
class Request:
    path: str
    start: float
    end: float
    status: int
    size: int
    windows: int
    rss_kb: int


@dataclass
class Scraper:
    """One client thread reading the HTTP plane until told to stop."""

    service: MeasurementService
    port: int
    quiet: threading.Lock
    log: list[Request] = field(default_factory=list)
    _stop: threading.Event = field(default_factory=threading.Event)
    _thread: threading.Thread | None = None

    def get(self, path: str) -> tuple[int, bytes]:
        url = f"http://127.0.0.1:{self.port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, b""
        except OSError:
            return 0, b""

    def _loop(self) -> None:
        for path in itertools.cycle(SCRAPE_CYCLE):
            if self._stop.is_set():
                return
            with self.quiet:
                start = time.perf_counter()
                status, body = self.get(path)
                end = time.perf_counter()
            self.log.append(
                Request(
                    path,
                    start,
                    end,
                    status,
                    len(body),
                    self.service.windows_processed,
                    rss_kb(),
                )
            )
            self._stop.wait(THINK_S)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="bench-scraper", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("scraper thread did not stop")


@dataclass
class Setup:
    service: MeasurementService | None = None
    source: TimedReplay | None = None
    scraper: Scraper | None = None
    timings: SetupTimings = field(default_factory=SetupTimings)


def _start_service(seed: int, scale: float, max_windows: int | None):
    """Generate, build, bind and wait for ``/readyz``; returns the
    running service and ``(total, generation, ground-truth)`` seconds."""
    start = time.perf_counter()
    epoch_input, generate_s, groundtruth_s = generate_input(
        int(FLOWS * scale), seed
    )
    trace, truth = epoch_input.trace, epoch_input.truth
    window_share = WINDOW_PACKETS / len(trace)
    source = TimedReplay(trace)
    service = MeasurementService(
        [
            HeavyHitterTask(
                "flowradar",
                threshold=HH_SHARE * truth.total_bytes * window_share,
            ),
            CardinalityTask("lc"),
            FlowSizeDistributionTask("mrac"),
        ],
        source,
        ServeConfig(
            window_packets=WINDOW_PACKETS, max_windows=max_windows
        ),
        pipeline_config=PipelineConfig(num_hosts=2, batch=True),
    )
    scraper = Scraper(service, service.start(), source.quiet)
    deadline = start + 120
    while scraper.get("/readyz")[0] != 200:
        if time.perf_counter() > deadline:
            service.stop()
            raise RuntimeError("service never became ready")
        time.sleep(0.005)
    total = time.perf_counter() - start
    return service, source, scraper, (total, generate_s, groundtruth_s)


def set_up(seed: int, repeats: int, scale: float, max_windows: int) -> Setup:
    """Bring the service up ``repeats`` times (trace seed ``seed + k``);
    all but the last are stopped again."""
    setup = Setup()
    for k in range(repeats):
        last = k == repeats - 1
        before = calibrate()
        setup.service, setup.source, setup.scraper, timing = _start_service(
            seed + k, scale, max_windows if last else None
        )
        # The calibration on the far side is the ingest thread's own,
        # taken right after the window that made the service ready: one
        # in this thread would share the interpreter lock with ingest.
        while not setup.source.marks:
            time.sleep(0.001)
        factor = speed_factor(before, setup.source.marks[0].calibration_s)
        if not last:
            setup.service.stop()
        setup.timings.add(timing[0], factor, *timing[1:])
    return setup


def measure(setup: Setup, gate: Gate, seconds: float, trace_path) -> dict:
    """Scrape while windows advance — until the service has done its
    ``max_windows`` or ``seconds`` have passed — then stop it and read
    the clocks."""
    service, source, scraper = setup.service, setup.source, setup.scraper
    scraper.start()
    service.wait(timeout=seconds)
    scraper.stop()
    exit_code = service.stop()

    # marks[0] closes the warm-up window that made the service ready.
    # A window runs from the end of the calibration before it to the
    # service asking past its last chunk, and is taken to reference
    # speed by the calibrations on either side.
    marks = source.marks
    factors, raw_advance, advance, walls, cpus = [], [], [], [], []
    for before, mark in zip(marks, marks[1:]):
        factor = speed_factor(before.calibration_s, mark.calibration_s)
        factors.append(factor)
        raw_advance.append(mark.asked - mark.handed)
        advance.append(raw_advance[-1] / factor)
        walls.append((mark.asked - before.resumed) / factor)
        cpus.append((mark.cpu_asked - before.cpu_resumed) / factor)
    windows = len(walls)
    history = service.monitor.history[1 : windows + 1]
    gate.operation(exit_code == 0, "serve_stream: ingest loop failed")
    for _ in range(service.quorum_failures):
        gate.operation(False, "serve_stream: window failed quorum")
    per_window = [
        gate.epoch(summary.results["heavy_hitter"], index)
        for index, summary in enumerate(history)
    ]
    for request in scraper.log:
        gate.operation(
            request.status == 200,
            f"serve_stream: {request.path} answered {request.status}",
        )

    def latency(prefix: str) -> list[float]:
        return [
            r.end - r.start
            for r in scraper.log
            if r.path.startswith(prefix)
        ]

    settled = [
        r for r in scraper.log if r.windows >= SLOPE_FROM_WINDOW
    ]
    if len({r.windows for r in settled}) < 10:
        settled = scraper.log
    slope = np.polyfit(
        [r.windows for r in settled], [r.rss_kb for r in settled], 1
    )[0]
    renders = []
    for _ in range(5):
        started = time.perf_counter()
        text = service.metrics_text()
        renders.append(time.perf_counter() - started)
    metrics_sizes = [r.size for r in scraper.log if r.path == "/metrics"]

    rec = SpanRecorder()
    for index, mark in enumerate(marks):
        rec.add(
            "serve.window_advance", mark.handed, mark.asked, index, lane=0
        )
        rec.add(
            "harness.calibrate", mark.asked, mark.resumed, index, lane=0
        )
    for request in scraper.log:
        rec.add(
            f"serve.http {request.path}",
            request.start,
            request.end,
            request.windows,
            lane=1,
        )
    rec.write_chrome_trace(trace_path)

    packets = windows * WINDOW_PACKETS
    return {
        "samples": windows,
        "epoch_s": advance,
        "raw_epoch_s": raw_advance,
        "speed_factor": median(factors),
        "counts": per_window[:PINNED_WINDOWS],
        "metrics": {
            "pkts_per_s": median(WINDOW_PACKETS / wall for wall in walls),
            "epoch_s_p50": median(advance),
            "cpu_s_per_mpkt": sum(cpus) / (packets / 1e6),
        },
        "layers": {
            **mean_counts(per_window[:PINNED_WINDOWS]),
            "machine.speed_factor": median(factors),
            "serve.window_advance_s_p50": median(raw_advance),
            "serve.window_advance_s_p90": percentile(raw_advance, 90),
            "serve.http_metrics_s_p50": median(latency("/metrics")),
            "serve.http_metrics_s_p90": percentile(
                latency("/metrics"), 90
            ),
            "serve.http_query_s_p50": median(latency("/query/")),
            "serve.http_query_s_p90": percentile(latency("/query/"), 90),
            "serve.http_dash_s_p50": median(latency("/dash")),
            "serve.http_requests": len(scraper.log),
            "serve.http_non200": sum(
                1 for r in scraper.log if r.status != 200
            ),
            "serve.metrics_bytes": max(metrics_sizes, default=0),
            "serve.rss_kb_per_window": float(slope),
            "telemetry.prometheus_text_s": median(renders),
            "telemetry.series": count_series(text),
        },
    }
