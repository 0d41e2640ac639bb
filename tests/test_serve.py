"""Streaming service mode: scheduler, sources, HTTP plane, CLI."""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.request
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.serve import (
    PROMETHEUS_CONTENT_TYPE,
    MeasurementService,
    ReplaySource,
    ServeConfig,
    SyntheticSource,
    Window,
    WindowScheduler,
    serialize_answer,
)
from repro.tasks.cardinality import CardinalityTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.io import save_trace
from repro.traffic.trace import Trace
from tests.soak_serve import _spares_an_aggregator, verdicts


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(num_flows=400, seed=23))


def _windows_as_packet_tuples(windows):
    return [window.trace.packets for window in windows]


class TestWindowScheduler:
    def test_requires_a_bound(self):
        with pytest.raises(ConfigError):
            WindowScheduler()
        with pytest.raises(ConfigError):
            WindowScheduler(window_packets=0)
        with pytest.raises(ConfigError):
            WindowScheduler(window_seconds=0.0)

    def test_packet_windows_deterministic_under_chunking(self, trace):
        """Any chunking of the same stream closes identical windows."""
        reference = None
        for chunk_size in (1, 7, 64, len(trace)):
            scheduler = WindowScheduler(window_packets=100)
            windows = []
            packets = trace.packets
            for start in range(0, len(packets), chunk_size):
                windows.extend(
                    scheduler.offer(packets[start:start + chunk_size])
                )
            final = scheduler.flush()
            if final is not None:
                windows.append(final)
            shape = _windows_as_packet_tuples(windows)
            assert all(
                len(window.trace) == 100 for window in windows[:-1]
            )
            if reference is None:
                reference = shape
            else:
                assert shape == reference
        assert [w for shape in [reference] for w in shape]

    def test_one_big_chunk_closes_many_windows(self, trace):
        scheduler = WindowScheduler(window_packets=100)
        windows = scheduler.offer(trace)
        assert len(windows) == len(trace) // 100
        assert scheduler.pending_packets == len(trace) % 100
        assert [window.index for window in windows] == list(
            range(len(windows))
        )

    def test_flush_drains_partial_window(self, trace):
        scheduler = WindowScheduler(window_packets=10 ** 9)
        assert scheduler.offer(trace) == []
        final = scheduler.flush()
        assert final is not None
        assert final.trace.packets == trace.packets
        assert scheduler.flush() is None

    def test_wall_clock_deadline_with_fake_clock(self, trace):
        now = [0.0]
        scheduler = WindowScheduler(
            window_seconds=5.0, clock=lambda: now[0]
        )
        assert scheduler.offer(trace.packets[:10]) == []
        assert scheduler.poll() == []
        now[0] = 5.1
        windows = scheduler.poll()
        assert len(windows) == 1
        assert windows[0].trace.packets == trace.packets[:10]
        # The next packets open a fresh window on the new clock.
        assert scheduler.offer(trace.packets[10:20]) == []
        now[0] = 7.0
        assert scheduler.poll() == []
        now[0] = 10.2
        assert len(scheduler.poll()) == 1


class TestSources:
    def test_replay_first_pass_is_bit_identical(self, trace):
        source = ReplaySource(trace, chunk_packets=97)
        replayed = tuple(
            packet for chunk in source for packet in chunk
        )
        assert replayed == trace.packets

    def test_replay_rejects_empty_trace(self):
        with pytest.raises(ConfigError):
            ReplaySource(Trace([]))

    def test_looped_replay_stays_monotonic(self, trace):
        source = ReplaySource(trace, chunk_packets=256, loop=True)
        seen = []
        for chunk in source:
            seen.extend(packet.timestamp for packet in chunk)
            if len(seen) >= 2 * len(trace):
                source.stop_event = threading.Event()
                source.stop_event.set()
        assert all(a <= b for a, b in zip(seen, seen[1:]))
        assert len(seen) >= 2 * len(trace)

    def test_synthetic_segments_are_monotonic_and_bounded(self):
        config = TraceConfig(num_flows=150, seed=5)
        source = SyntheticSource(
            config, chunk_packets=500, max_segments=3
        )
        stamps = [
            packet.timestamp
            for chunk in source
            for packet in chunk
        ]
        single = len(generate_trace(config))
        assert len(stamps) > single  # more than one segment arrived
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))


class TestSerializeAnswer:
    def test_cardinality(self):
        assert serialize_answer("cardinality", 41.5) == {
            "estimate": 41.5
        }

    def test_fsd_sorted_by_size(self):
        body = serialize_answer(
            "flow_size_distribution", {3: 2.0, 1: 5.0}
        )
        assert body == {
            "distribution": [
                {"size": 1, "flows": 5.0},
                {"size": 3, "flows": 2.0},
            ]
        }

    def test_heavy_hitters_largest_first(self, trace):
        truth = GroundTruth.from_trace(trace)
        sizes = dict(
            list(trace.flow_sizes().items())[:4]
        )
        body = serialize_answer("heavy_hitter", sizes)
        estimates = [
            entry["estimate"] for entry in body["heavy_hitters"]
        ]
        assert estimates == sorted(estimates, reverse=True)
        assert truth.cardinality >= 4


def _get(port: int, path: str):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), (
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _service(
    trace, *, window_packets, max_windows, tasks=None, **config
):
    truth = GroundTruth.from_trace(trace)
    tasks = tasks or [
        HeavyHitterTask(
            "deltoid", threshold=0.02 * truth.total_bytes
        ),
        CardinalityTask("lc"),
    ]
    return MeasurementService(
        tasks,
        ReplaySource(
            trace, chunk_packets=173, loop=max_windows is None
        ),
        ServeConfig(
            window_packets=window_packets,
            max_windows=max_windows,
            **config,
        ),
        pipeline_config=PipelineConfig(num_hosts=2),
    )


class TestMeasurementService:
    def test_not_ready_before_first_window(self, trace):
        service = _service(trace, window_packets=200, max_windows=2)
        port = service.start_http()
        try:
            code, _, body = _get(port, "/readyz")
            assert code == 503
            assert json.loads(body)["status"] == "no_window_yet"
            code, _, body = _get(port, "/query/heavy-hitters")
            assert code == 503
            assert "no recovered window" in json.loads(body)["error"]
            # Liveness is fine — the loop just hasn't advanced yet.
            code, _, _ = _get(port, "/healthz")
            assert code == 200
        finally:
            service.shutdown_http()

    def test_unknown_and_unconfigured_queries_404(self, trace):
        service = _service(trace, window_packets=200, max_windows=1)
        port = service.start_http()
        try:
            assert _get(port, "/query/bogus")[0] == 404
            assert _get(port, "/query/fsd")[0] == 404  # not configured
            assert _get(port, "/nope")[0] == 404
        finally:
            service.shutdown_http()

    def test_live_run_serves_every_surface(self, trace):
        """All endpoints answer 200 with live data during a run, and
        /metrics stays scrape-consistent while windows advance."""
        window_packets = len(trace) // 4
        service = _service(
            trace, window_packets=window_packets, max_windows=4
        )
        port = service.start()
        scrape_results = []
        stop_scraping = threading.Event()

        def scrape_loop():
            while not stop_scraping.is_set():
                code, headers, body = _get(port, "/metrics")
                scrape_results.append((code, headers, body))

        scrapers = [
            threading.Thread(target=scrape_loop) for _ in range(3)
        ]
        for thread in scrapers:
            thread.start()
        try:
            assert service.wait(120)
        finally:
            stop_scraping.set()
            for thread in scrapers:
                thread.join(10)
        assert service.stop() == 0
        assert service.windows_processed == 4

        assert scrape_results
        for code, headers, body in scrape_results:
            assert code == 200
            assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            # A torn snapshot would truncate mid-family; every scrape
            # must parse as complete TYPE/sample blocks.
            text = body.decode()
            assert not text.strip() or text.rstrip().splitlines()[
                -1
            ].startswith(("sketchvisor_", "repro_"))
        # Server is shut down now; the in-process view must agree.
        assert "sketchvisor_serve_windows_total 4" in (
            service.metrics_text()
        )

    def test_query_provenance_and_ring(self, trace):
        window_packets = len(trace) // 3
        service = _service(
            trace, window_packets=window_packets, max_windows=3
        )
        port = service.start()
        assert service.wait(120)
        try:
            code, _, body = _get(port, "/query/heavy-hitters")
            assert code == 200
            document = json.loads(body)
            assert document["task"] == "heavy_hitter"
            newest = document["window"]
            assert newest["window_id"] == 2
            assert newest["packets"] == window_packets
            assert newest["closed_at"] >= newest["opened_at"]
            assert newest["heavy_hitters"]
            ids = [
                entry["window_id"] for entry in document["recent"]
            ]
            assert ids == [2, 1, 0]
            # Provenance is stable across repeated queries.
            again = json.loads(_get(port, "/query/heavy-hitters")[2])
            assert again["window"] == newest

            code, _, body = _get(port, "/query/cardinality")
            assert code == 200
            assert json.loads(body)["window"]["estimate"] > 0

            code, _, body = _get(port, "/readyz")
            assert code == 200
            assert json.loads(body)["last_window_id"] == 2

            code, _, body = _get(port, "/dash")
            assert code == 200
            assert b"<html" in body.lower()

            code, _, body = _get(port, "/")
            assert code == 200
            assert "/query/heavy-hitters" in json.loads(body)[
                "endpoints"
            ]
        finally:
            service.stop()


def _agg_crash_plan():
    """Aggregator 0 dies on the first frame of epoch (window) 1."""
    from repro.faults import FaultKind, FaultPlan, FaultSpec

    return FaultPlan(
        seed=0,
        specs=[
            FaultSpec(FaultKind.AGG_CRASH, epoch=1, host=0, packet_offset=1)
        ],
    )


def _light_tasks(trace):
    return [
        HeavyHitterTask(
            "flowradar", threshold=0.02 * trace.total_bytes
        ),
        CardinalityTask("lc"),
    ]


class TestBoundedState:
    """A daemon's memory is the ring, not its uptime."""

    def test_endless_run_keeps_a_ring_of_summaries(self, trace):
        service = _service(
            trace,
            window_packets=300,
            max_windows=None,
            tasks=_light_tasks(trace),
            ring_windows=2,
        )
        service.start()
        deadline = time.monotonic() + 60
        while service.windows_processed < 6:
            assert time.monotonic() < deadline, "windows stopped"
            time.sleep(0.01)
        assert service.stop() == 0
        history = service.monitor.history
        assert 1 <= len(history) <= 2
        assert history[-1].epoch == service.windows_processed - 1
        assert len(service._ring) == 2
        # /dash renders the ring's rows, one per retained window.
        dash = service.dash_html()
        assert "<tr><td>1</td>" in dash
        assert "<tr><td>2</td>" not in dash

    def test_bounded_run_keeps_every_summary(self, trace):
        service = _service(
            trace,
            window_packets=300,
            max_windows=4,
            tasks=_light_tasks(trace),
            ring_windows=2,
        )
        service.start()
        assert service.wait(120)
        assert service.stop() == 0
        history = service.monitor.history
        assert [summary.epoch for summary in history] == [0, 1, 2, 3]
        assert len(service._ring) == 2
        for summary in history[:-1]:
            for result in summary.results.values():
                assert result.network.sketch is None
                assert result.reports and all(
                    report.sketch is None and report.switch.total_packets
                    for report in result.reports
                )
        assert history[-1].results["heavy_hitter"].network.sketch

    def test_tracer_keeps_only_the_current_window(self, trace):
        service = _service(
            trace,
            window_packets=300,
            max_windows=3,
            tasks=_light_tasks(trace),
        )
        service.start()
        assert service.wait(120)
        assert service.stop() == 0
        roots = [
            span.attrs.get("epoch")
            for span in service.telemetry.tracer.roots()
            if span.name == "monitor.epoch"
        ]
        assert roots == [2]

    def test_per_window_growth_is_bounded(self, trace):
        """Thirty in-process windows: after the ring fills, traced
        allocations stop growing with the window count."""
        service = _service(
            trace,
            window_packets=300,
            max_windows=None,
            tasks=_light_tasks(trace),
            ring_windows=4,
        )
        packets = trace.packets

        def advance(index):
            low = (300 * index) % (len(packets) - 300)
            service._advance(
                Window(index, Trace(packets[low:low + 300]), 0.0, 0.0)
            )

        tracemalloc.start()
        try:
            for index in range(10):
                advance(index)
            gc.collect()
            settled = tracemalloc.get_traced_memory()[0]
            for index in range(10, 30):
                advance(index)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - settled
        finally:
            tracemalloc.stop()
        assert len(service.monitor.history) == 4
        assert grown / 20 < 4 * 1024, grown


class TestWindowSeries:
    """The serve window series, each by its full name."""

    def test_window_series_census(self, trace, monkeypatch):
        """Four windows over four hosts: window 1 loses one host to a
        data-plane crash (degraded merge), the last window loses three
        (below the 50% quorum), windows 0 and 2 are clean."""
        from repro.faults import FaultKind, FaultPlan, FaultSpec

        # Unsupervised, so a crashed host loses its window.
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        crashes = [(1, 0), (3, 0), (3, 1), (3, 2)]
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(
                    FaultKind.DATAPLANE_CRASH,
                    epoch=epoch,
                    host=host,
                    packet_offset=1,
                )
                for epoch, host in crashes
            ],
        )
        window_packets = len(trace) // 4
        service = MeasurementService(
            _light_tasks(trace),
            ReplaySource(trace, chunk_packets=173, loop=False),
            ServeConfig(window_packets=window_packets, max_windows=4),
            pipeline_config=PipelineConfig(num_hosts=4, faults=plan),
        )
        service.start()
        assert service.wait(120)
        service.stop()
        assert service.windows_processed == 4
        recovered = [0, 1, 2]
        windows = [
            trace[index * window_packets:(index + 1) * window_packets]
            for index in recovered
        ]
        registry = service.telemetry.registry
        assert registry.value("sketchvisor_serve_packets_total") == sum(
            len(window) for window in windows
        )
        assert registry.value("sketchvisor_serve_bytes_total") == sum(
            window.total_bytes for window in windows
        )
        assert registry.value("sketchvisor_serve_window_id") == 2
        assert registry.value(
            "sketchvisor_serve_last_window_unix_seconds"
        ) > 0
        text = service.metrics_text()
        assert "sketchvisor_serve_window_seconds_count 3" in text
        assert registry.value(
            "sketchvisor_serve_degraded_windows_total"
        ) == 1
        assert registry.value(
            "sketchvisor_serve_quorum_failures_total"
        ) == 1


    def test_aggregator_failover_series(self, trace, tmp_path):
        """Three windows through a four-host, two-core socket cluster
        with durable host state: each task's pipeline loses aggregator
        0 in window 1, and the four fail-over series equal the sums
        over the windows' collections."""
        from repro.cluster import ClusterConfig

        service = MeasurementService(
            _light_tasks(trace),
            ReplaySource(trace, chunk_packets=173, loop=False),
            ServeConfig(window_packets=len(trace) // 3, max_windows=3),
            pipeline_config=PipelineConfig(
                num_hosts=4,
                cores=2,
                checkpoint_dir=str(tmp_path),
                faults=_agg_crash_plan(),
                cluster=ClusterConfig(),
            ),
        )
        service.start()
        assert service.wait(120)
        assert service.stop() == 0
        assert service.windows_processed == 3
        collections = [
            result.collection
            for summary in service.monitor.history
            for result in summary.results.values()
        ]
        failovers = [
            record for collection in collections
            for record in collection.failovers
        ]
        assert [record.kind for record in failovers] == ["agg_crash"] * 2
        registry = service.telemetry.registry
        assert registry.value(
            "sketchvisor_aggregator_failovers_total", kind="agg_crash"
        ) == 2
        redeliveries = sum(c.stats.redeliveries for c in collections)
        assert redeliveries > 0
        assert registry.value(
            "sketchvisor_aggregator_redeliveries_total"
        ) == redeliveries
        assert registry.value(
            "sketchvisor_aggregator_redelivery_dups_total"
        ) == sum(c.stats.redelivery_dups for c in collections)
        assert registry.value(
            "sketchvisor_aggregator_unrecovered_host_epochs_total"
        ) == sum(len(record.unrecovered_hosts) for record in failovers)
        assert not any(record.unrecovered_hosts for record in failovers)


class TestBatchEquivalence:
    def test_serve_windows_match_batch_epochs(self, trace):
        """`repro serve --windows 3` over a replayed trace recovers
        per-window heavy-hitter sets bit-identical to the same trace
        run as 3 batch epochs."""
        truth = GroundTruth.from_trace(trace)
        threshold = 0.02 * truth.total_bytes
        window_packets = -(-len(trace) // 3)  # ceil

        service = _service(
            trace,
            window_packets=window_packets,
            max_windows=3,
            tasks=[HeavyHitterTask("deltoid", threshold=threshold)],
        )
        service.start()
        assert service.wait(120)
        assert service.stop() == 0

        batch = SketchVisorPipeline(
            HeavyHitterTask("deltoid", threshold=threshold),
            config=PipelineConfig(num_hosts=2),
        )
        slices = [
            Trace(trace.packets[start:start + window_packets])
            for start in range(0, len(trace), window_packets)
        ]
        assert len(slices) == 3
        batch_answers = [
            serialize_answer(
                "heavy_hitter", batch.run_epoch(piece).answer
            )
            for piece in slices
        ]
        served = [
            record.queries["heavy-hitters"]
            for record in service._ring
        ]
        assert served == batch_answers
        for answer in batch_answers:
            assert answer["heavy_hitters"]


class TestServeCLI:
    def _spawn(self, tmp_path, *extra):
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(root / "src")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--flows", "200", "--hosts", "1",
                "--port", "0", *extra,
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def _port_from(self, process):
        line = process.stdout.readline()
        assert "serving on http://" in line, line
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1].rstrip(")"))

    def _wait_ready(self, port, deadline=60.0):
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            try:
                if _get(port, "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.1)
        raise AssertionError("service never became ready")

    def test_sigterm_drains_and_flushes_recorder(self, tmp_path):
        process = self._spawn(
            tmp_path,
            "--window-packets", "400",
            "--recorder-out", "serve_recorder.json",
        )
        try:
            port = self._port_from(process)
            self._wait_ready(port)
            code, headers, body = _get(port, "/metrics")
            assert code == 200
            assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        dumps = sorted(tmp_path.glob("serve_recorder-*.json"))
        assert dumps, list(tmp_path.iterdir())
        document = json.loads(dumps[-1].read_text())
        assert document["reason"] == "shutdown"

    def test_bounded_run_exits_zero(self, tmp_path, trace):
        trace_file = tmp_path / "trace.npz"
        save_trace(trace, trace_file)
        process = self._spawn(
            tmp_path,
            "--trace-file", str(trace_file),
            "--windows", "2",
            "--no-aux",
        )
        out, _ = process.communicate(timeout=120)
        assert process.returncode == 0, out
        assert "served 2 window(s)" in out

    def test_cluster_composes_with_cores_chaos_and_checkpoints(
        self, tmp_path
    ):
        """``serve --cluster`` takes the other pipeline flags: two
        cores per host, durable host state and a plan that kills an
        aggregator in window 1, and every window still makes quorum."""
        plan = tmp_path / "plan.json"
        _agg_crash_plan().save(plan)
        checkpoints = tmp_path / "ckpt"
        process = self._spawn(
            tmp_path,
            "--cluster", "4",
            "--cores", "2",
            "--checkpoint-dir", str(checkpoints),
            "--chaos", str(plan),
            "--windows", "3",
        )
        out, _ = process.communicate(timeout=180)
        assert process.returncode == 0, out
        assert "served 3 window(s), 0 quorum failure(s)" in out
        # One checkpoint directory per cell: 4 hosts x 2 cores.
        assert sorted(path.name for path in checkpoints.iterdir()) == [
            f"host_{cell:04d}" for cell in range(8)
        ]

    @staticmethod
    def _soak_run(samples) -> dict:
        """A calm cluster soak whose ``(windows, quorum failures,
        unrecovered host-epochs)`` samples are ``samples``."""
        windows, failures, lost = (list(column) for column in zip(*samples))
        flat = [1] * len(samples)
        return {
            "cluster": 8,
            "windows": windows,
            "quorum_failures": failures,
            "unrecovered_host_epochs": lost,
            "rss_kb": flat,
            "fds": flat,
            "threads": flat,
            "exit_code": 0,
            "recorder_reason": "shutdown",
        }

    def test_soak_verdicts_count_what_is_dropped(self):
        """A host-epoch left unrecovered outside a failed-quorum window,
        or a window that failed quorum while the fail-over schedule
        spared an aggregator, fails the soak."""
        spared = _spares_an_aggregator(8)
        calm = next(e for e in range(9, 10_000) if spared(e) and spared(e + 1))
        doomed = next(e for e in range(9, 10_000) if not spared(e))
        steady = [(w, 0, 0) for w in range(1, calm + 1)]
        assert all(verdicts(self._soak_run(steady)).values())

        lost = verdicts(self._soak_run(steady + [(calm + 1, 0, 2)]))
        assert not lost["unrecovered only in quorum failures"]

        failed = verdicts(self._soak_run(steady + [(calm + 1, 1, 0)]))
        assert not failed["quorum failures only with every aggregator struck"]

        quiet = [(w, 0, 0) for w in range(1, doomed + 1)]
        both = verdicts(self._soak_run(quiet + [(doomed + 1, 1, 8)]))
        assert all(both.values())

    def test_soak_leg(self, tmp_path):
        """A short leg of the soak script CI runs for minutes: an
        endless run under chaos holds RSS, fds and threads flat and
        drains cleanly on SIGTERM."""
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [
                sys.executable, str(root / "tests" / "soak_serve.py"),
                "--seconds", "15", "--window-packets", "500",
                "--out", str(tmp_path / "soak.json"),
            ],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=300,
        )  # fmt: skip
        assert done.returncode == 0, done.stdout + done.stderr[-2000:]
        run = json.loads((tmp_path / "soak.json").read_text())
        assert all(run["checks"].values())
        assert len(run["windows"]) >= 9
