"""The measurement service: windows in, observability out.

:class:`MeasurementService` glues the streaming pieces together: a
packet source feeds the
:class:`~repro.serve.windows.WindowScheduler`, every closed
window runs through the unchanged batch pipeline (one
:class:`~repro.framework.monitor.ContinuousMonitor` epoch per window,
so SLO evaluation, shadow sampling, and the flight recorder all run
online), and the results land in a bounded ring of
:class:`WindowRecord` objects that the HTTP plane serves with
window-id/timestamp provenance.

Threading model: ingest runs in one thread (the main thread under the
CLI, so signals deliver), the HTTP server answers on daemon threads,
and the two meet only at the window ring (mutex) and the metrics
registry (internally locked).  Shutdown is graceful — SIGTERM stops
the source, drains the in-flight partial window through the pipeline,
flushes the flight recorder, and exits 0.
"""

from __future__ import annotations

import logging
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.common.errors import ConfigError, QuorumError
from repro.common.flow import FlowKey
from repro.controlplane.recovery import RecoveryMode
from repro.dash import epoch_row, html_report
from repro.framework.modes import DataPlaneMode
from repro.framework.monitor import ContinuousMonitor
from repro.framework.pipeline import PipelineConfig
from repro.serve.sources import PacketSource
from repro.serve.windows import Window, WindowScheduler
from repro.tasks.base import MeasurementTask
from repro.telemetry import Telemetry
from repro.telemetry.exporters import prometheus_text
from repro.telemetry.publish import (
    publish_serve_quorum_failure,
    publish_serve_window,
)

logger = logging.getLogger(__name__)

#: Query endpoint name -> task name serving it.
QUERY_ENDPOINTS: dict[str, str] = {
    "heavy-hitters": "heavy_hitter",
    "cardinality": "cardinality",
    "fsd": "flow_size_distribution",
}


@dataclass
class ServeConfig:
    """Service-mode parameters (the CLI's ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Close a window every N packets (deterministic; replay-identical
    #: to batch epochs).  At least one of the two bounds must be set.
    window_packets: int | None = None
    #: Close a window after this many wall-clock seconds.
    window_seconds: float | None = None
    #: Stop after this many windows (bounded soak); ``None`` runs
    #: until SIGTERM.
    max_windows: int | None = None
    #: Recent windows retained for the query endpoints and ``/dash``.
    #: An endless run (``max_windows is None``) also keeps only this
    #: many monitor summaries.
    ring_windows: int = 8
    #: Seconds without a window advance before ``/healthz`` flips
    #: unhealthy; ``None`` derives 5 x window_seconds (wall-clock
    #: windows) or disables staleness (packet-count windows, whose
    #: cadence depends on the offered rate).
    stale_after: float | None = None
    #: Rotated flight-recorder dumps kept on disk (see
    #: :class:`~repro.telemetry.recorder.FlightRecorder`).
    recorder_max_dumps: int = 8


def _format_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _key_string(key) -> str:
    """A stable, human-readable string for any answer key."""
    if isinstance(key, FlowKey):
        return (
            f"{_format_ip(key.src_ip)}:{key.src_port}->"
            f"{_format_ip(key.dst_ip)}:{key.dst_port}/{key.proto}"
        )
    return str(key)


def serialize_answer(task_name: str, answer) -> dict:
    """One task answer -> the JSON body a query endpoint serves."""
    if task_name == "cardinality":
        return {"estimate": float(answer)}
    if task_name == "flow_size_distribution":
        return {
            "distribution": [
                {"size": int(size), "flows": float(flows)}
                for size, flows in sorted(answer.items())
            ]
        }
    # Heavy hitters (and any other {key: magnitude} answer): largest
    # first, keys rendered stably.
    items = sorted(
        answer.items(), key=lambda kv: (-float(kv[1]), _key_string(kv[0]))
    )
    return {
        "heavy_hitters": [
            {"flow": _key_string(key), "estimate": float(value)}
            for key, value in items
        ]
    }


@dataclass
class WindowRecord:
    """One recovered window as the query endpoints serve it."""

    window_id: int
    opened_at: float
    closed_at: float
    packets: int
    bytes: int
    #: endpoint name -> serialized answer body.
    queries: dict[str, dict] = field(default_factory=dict)
    degraded: bool = False
    slo_breaches: int = 0
    #: The primary task's dashboard row (:func:`repro.dash.epoch_row`);
    #: ``None`` when the primary task had no answer this window.
    epoch_row: dict | None = None

    def provenance(self) -> dict:
        return {
            "window_id": self.window_id,
            "opened_at": self.opened_at,
            "closed_at": self.closed_at,
            "packets": self.packets,
            "bytes": self.bytes,
            "degraded": self.degraded,
            "slo_breaches": self.slo_breaches,
        }

    def query_body(self, endpoint: str) -> dict:
        body = self.provenance()
        body.update(self.queries.get(endpoint, {}))
        return body


class MeasurementService:
    """A long-running SketchVisor measurement daemon.

    Parameters
    ----------
    tasks:
        Measurement tasks run on every window.  The first task is the
        *primary* one (its scores feed the dash rows); tasks named in
        :data:`QUERY_ENDPOINTS` serve the matching query endpoint.
    source:
        The packet stream (:class:`~repro.serve.sources.PacketSource`).
    config:
        Service-mode parameters.
    pipeline_config:
        Deployment parameters shared by every per-task pipeline;
        telemetry is forced on (the service *is* the observability
        plane).
    """

    def __init__(
        self,
        tasks: list[MeasurementTask],
        source: PacketSource,
        config: ServeConfig,
        dataplane: DataPlaneMode = DataPlaneMode.SKETCHVISOR,
        recovery: RecoveryMode = RecoveryMode.SKETCHVISOR,
        pipeline_config: PipelineConfig | None = None,
    ):
        if not tasks:
            raise ConfigError("need at least one task")
        if config.ring_windows < 1:
            raise ConfigError("ring_windows must be >= 1")
        self.config = config
        self.source = source
        pipeline_config = pipeline_config or PipelineConfig()
        if pipeline_config.telemetry is None:
            pipeline_config.telemetry = Telemetry()
        self.telemetry: Telemetry = pipeline_config.telemetry
        if pipeline_config.recorder_path is not None:
            # Long-running service under repeated SLO breaches: rotate
            # dump artifacts instead of overwriting one fixed path.
            self.telemetry.recorder.max_dumps = config.recorder_max_dumps
        self.monitor = ContinuousMonitor(
            tasks,
            dataplane=dataplane,
            recovery=recovery,
            config=pipeline_config,
        )
        self.tasks = tasks
        self.scheduler = WindowScheduler(
            window_packets=config.window_packets,
            window_seconds=config.window_seconds,
        )
        self._lock = threading.Lock()
        self._ring: deque[WindowRecord] = deque(
            maxlen=config.ring_windows
        )
        self._shutdown = threading.Event()
        self._done = threading.Event()
        self._ingest_thread: threading.Thread | None = None
        self._httpd = None
        self._http_thread: threading.Thread | None = None
        self._started_at = time.monotonic()
        self._last_advance: float | None = None
        self._last_quorum_failed = False
        self._ingest_error: str | None = None
        self.windows_processed = 0
        self.quorum_failures = 0
        self.exit_code = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            raise ConfigError("HTTP server not started")
        return self._httpd.server_address[1]

    def start_http(self) -> int:
        """Bind and start the HTTP plane; returns the bound port."""
        from repro.serve.httpd import ObservabilityServer

        self._httpd = ObservabilityServer(
            (self.config.host, self.config.port), self
        )
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()
        return self.port

    def start(self) -> int:
        """Start HTTP + ingest on background threads (embedded use).

        The CLI calls :meth:`run` instead, keeping ingest on the main
        thread so POSIX signals deliver.
        """
        port = self.start_http()
        self._ingest_thread = threading.Thread(
            target=self._ingest, name="serve-ingest", daemon=True
        )
        self._ingest_thread.start()
        return port

    def run(self, install_signals: bool = True) -> int:
        """Serve until SIGTERM/SIGINT or ``max_windows``; returns the
        process exit code (0 for a graceful run)."""
        if self._httpd is None:
            self.start_http()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(
                    signum, lambda _sig, _frm: self.request_shutdown()
                )
        try:
            self._ingest()
        finally:
            self.shutdown_http()
        return self.exit_code

    def request_shutdown(self) -> None:
        """Ask the ingest loop to stop (signal handler safe)."""
        self._shutdown.set()

    def shutdown_http(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the ingest loop finishes."""
        return self._done.wait(timeout)

    def stop(self, timeout: float = 30.0) -> int:
        """Graceful embedded shutdown: drain, join, stop HTTP."""
        self.request_shutdown()
        self.wait(timeout)
        if self._ingest_thread is not None:
            self._ingest_thread.join(timeout)
        self.shutdown_http()
        return self.exit_code

    # -- ingest --------------------------------------------------------
    def _ingest(self) -> None:
        self.source.stop_event = self._shutdown
        drained = False
        try:
            for chunk in self.source:
                for window in self.scheduler.offer(chunk):
                    self._advance(window)
                for window in self.scheduler.poll():
                    self._advance(window)
                if self._shutdown.is_set():
                    break
            # Shutdown drains: the in-flight partial window runs
            # through the pipeline instead of being discarded.
            if not self._bounded_run_complete():
                final = self.scheduler.flush()
                if final is not None:
                    self._advance(final, draining=True)
            drained = True
        except Exception:
            logger.exception("ingest loop failed")
            self._ingest_error = "ingest loop failed"
            self.exit_code = 1
        finally:
            self._flush_recorder(
                "shutdown" if drained else "ingest_error"
            )
            self._shutdown.set()
            self._done.set()

    def _bounded_run_complete(self) -> bool:
        return (
            self.config.max_windows is not None
            and self.windows_processed >= self.config.max_windows
        )

    def _flush_recorder(self, reason: str) -> None:
        recorder_path = self.monitor.config.recorder_path
        if recorder_path is None:
            return
        try:
            self.telemetry.recorder.dump(recorder_path, reason=reason)
        except OSError:
            logger.exception("final flight-recorder flush failed")

    def _advance(self, window: Window, draining: bool = False) -> None:
        """Run one closed window through the pipeline and publish it."""
        registry = self.telemetry.registry
        # Spans are kept for the window being run, not for every window
        # the daemon has run.
        self.telemetry.tracer.reset()
        start = time.perf_counter()
        try:
            summary = self.monitor.process_epoch(window.trace)
        except QuorumError as exc:
            self.quorum_failures += 1
            self._last_quorum_failed = True
            self.windows_processed += 1
            self._last_advance = time.monotonic()
            publish_serve_quorum_failure(registry)
            self.telemetry.recorder.record(
                "window_quorum_failed",
                epoch=window.index,
                error=str(exc),
            )
            logger.warning("window %d failed quorum: %s", window.index, exc)
            if self._bounded_run_complete() and not draining:
                self._shutdown.set()
            return
        if self.config.max_windows is None:
            # An endless run keeps the ring's worth of summaries; a
            # bounded run is bounded already and keeps them all.
            del self.monitor.history[: -self.config.ring_windows]
        queries: dict[str, dict] = {}
        degraded = False
        breaches = 0
        for endpoint, task_name in QUERY_ENDPOINTS.items():
            result = summary.results.get(task_name)
            if result is None:
                continue
            queries[endpoint] = serialize_answer(
                task_name, result.answer
            )
            degraded = degraded or result.degraded is not None
            breaches += len(result.slo_breaches)
        primary = summary.results.get(self.tasks[0].name)
        record = WindowRecord(
            window_id=window.index,
            opened_at=window.opened_at,
            closed_at=window.closed_at,
            packets=len(window.trace),
            bytes=window.trace.total_bytes,
            queries=queries,
            degraded=degraded,
            slo_breaches=breaches,
            epoch_row=(
                None if primary is None else epoch_row(primary)
            ),
        )
        with self._lock:
            self._ring.append(record)
        self.windows_processed += 1
        self._last_quorum_failed = False
        self._last_advance = time.monotonic()
        publish_serve_window(
            registry, record, time.perf_counter() - start
        )
        if self._bounded_run_complete() and not draining:
            self._shutdown.set()

    # -- HTTP views ----------------------------------------------------
    def metrics_text(self) -> str:
        return prometheus_text(self.telemetry.registry)

    def dash_html(self) -> str:
        primary = self.tasks[0]
        with self._lock:
            rows = [
                record.epoch_row
                for record in self._ring
                if record.epoch_row is not None
            ]
        return html_report(
            rows,
            self.telemetry.registry,
            title=(
                f"SketchVisor serve — "
                f"{primary.name}/{primary.solution}"
            ),
            subtitle=(
                f"{self.windows_processed} window(s), "
                f"{self.quorum_failures} quorum failure(s), "
                f"ring of {self.config.ring_windows}"
            ),
        )

    def _stale_after(self) -> float | None:
        if self.config.stale_after is not None:
            return self.config.stale_after
        if self.config.window_seconds is not None:
            return max(5.0 * self.config.window_seconds, 10.0)
        return None

    def health(self) -> tuple[int, dict]:
        """Liveness: the ingest loop is running and windows advance."""
        now = time.monotonic()
        body: dict = {
            "status": "ok",
            "windows": self.windows_processed,
            "quorum_failures": self.quorum_failures,
            "uptime_seconds": round(now - self._started_at, 3),
        }
        if self._ingest_error is not None:
            body["status"] = "ingest_failed"
            return 503, body
        stale_after = self._stale_after()
        last = self._last_advance
        if (
            stale_after is not None
            and not self._done.is_set()
            and (last or self._started_at) + stale_after < now
        ):
            body["status"] = "stalled"
            body["seconds_since_window"] = round(
                now - (last or self._started_at), 3
            )
            return 503, body
        return 200, body

    def ready(self) -> tuple[int, dict]:
        """Readiness: at least one recovered window, quorum holding."""
        code, body = self.health()
        with self._lock:
            have_window = bool(self._ring)
            last_id = self._ring[-1].window_id if self._ring else None
        body["last_window_id"] = last_id
        if code != 200:
            return code, body
        if not have_window:
            body["status"] = "no_window_yet"
            return 503, body
        if self._last_quorum_failed:
            body["status"] = "quorum_failed"
            return 503, body
        return 200, body

    def query(self, endpoint: str) -> tuple[int, dict]:
        """One query endpoint: latest window + the recent ring."""
        task_name = QUERY_ENDPOINTS.get(endpoint)
        if task_name is None:
            return 404, {"error": f"unknown query {endpoint!r}"}
        if task_name not in {task.name for task in self.tasks}:
            return 404, {
                "error": f"task {task_name!r} not configured",
                "tasks": sorted(task.name for task in self.tasks),
            }
        with self._lock:
            records = [
                record
                for record in self._ring
                if endpoint in record.queries
            ]
        if not records:
            return 503, {
                "error": "no recovered window yet",
                "windows": self.windows_processed,
            }
        newest_first = list(reversed(records))
        return 200, {
            "task": task_name,
            "window": newest_first[0].query_body(endpoint),
            "recent": [
                record.query_body(endpoint)
                for record in newest_first
            ],
        }

    def index(self) -> tuple[int, dict]:
        return 200, {
            "service": "sketchvisor-serve",
            "endpoints": [
                "/metrics",
                "/dash",
                "/healthz",
                "/readyz",
                *(
                    f"/query/{endpoint}"
                    for endpoint in QUERY_ENDPOINTS
                ),
            ],
            "windows": self.windows_processed,
        }
