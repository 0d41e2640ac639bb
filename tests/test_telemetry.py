"""Telemetry subsystem: registry, tracer, exporters, and pipeline wiring."""

from __future__ import annotations

import json
import math

import pytest

from repro import PipelineConfig, SketchVisorPipeline, Telemetry
from repro.common.errors import ConfigError
from repro.dataplane.switch import SoftwareSwitch
from repro.fastpath.topk import FastPath
from repro.framework.monitor import ContinuousMonitor
from repro.reporting import ascii_bar_chart, span_tree
from repro.sketches.countmin import CountMinSketch
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry import trace_span
from repro.telemetry.exporters import (
    json_snapshot,
    prometheus_text,
    write_chrome_trace,
    write_json_snapshot,
    write_prometheus,
)
from repro.telemetry.publish import (
    fastpath_stats,
    publish_fastpath_epoch,
    publish_switch_epoch,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import Tracer
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from tests.reference_engine import reference_reports


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(num_flows=600, seed=5))


@pytest.fixture(scope="module")
def truth(trace):
    return GroundTruth.from_trace(trace)


def _pipeline(trace, truth, telemetry, *, hosts=2, **config):
    task = HeavyHitterTask("univmon", threshold=0.01 * truth.total_bytes)
    return SketchVisorPipeline(
        task,
        config=PipelineConfig(
            num_hosts=hosts, telemetry=telemetry, **config
        ),
    )


# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "help text")
        counter.inc(2, host="0")
        counter.inc(3, host="0")
        counter.inc(1, host="1")
        assert registry.value("requests_total", host="0") == 5
        assert registry.value("requests_total", host="1") == 1
        assert registry.total("requests_total") == 6

    def test_unknown_metric_reads_as_none_or_zero(self):
        registry = MetricsRegistry()
        assert registry.value("nope") is None
        assert registry.total("nope") == 0.0
        registry.counter("known").inc(1, host="0")
        assert registry.value("known", host="9") is None

    def test_children_cached_by_label_set(self):
        registry = MetricsRegistry()
        family = registry.counter("cached_total")
        child = family.labels(host="0", path="normal")
        # Keyword order must not matter; same set -> same child object.
        assert family.labels(path="normal", host="0") is child

    def test_counters_reject_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.counter("mono_total").inc(-1)

    def test_gauge_set_and_high_water(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("occupancy")
        gauge.set(7, host="0")
        gauge.set(3, host="0")
        assert registry.value("occupancy", host="0") == 3
        gauge.set_max(10, host="0")
        gauge.set_max(4, host="0")  # lower: ignored
        assert registry.value("occupancy", host="0") == 10

    def test_histogram_buckets_and_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.1, 0.5, 20.0):
            histogram.observe(value)
        child = histogram.labels()
        # 0.05 and 0.1 land in le=0.1 (upper bounds are inclusive).
        assert child.bucket_counts == [2, 1, 0, 1]
        assert child.count == 4
        assert child.sum == pytest.approx(20.65)
        assert child.value == pytest.approx(20.65 / 4)

    def test_histogram_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.histogram("bad", buckets=(1.0, 1.0, 2.0))

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("same_total", "help")
        assert registry.counter("same_total") is first

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("taken")
        with pytest.raises(ConfigError):
            registry.gauge("taken")

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "h").inc(2, host="0")
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["c_total"]["kind"] == "counter"
        assert snapshot["c_total"]["samples"][0] == {
            "labels": {"host": "0"},
            "value": 2.0,
        }
        histogram = snapshot["h_seconds"]["samples"][0]
        assert histogram["count"] == 1
        assert histogram["buckets"][-1]["le"] == float("inf")
        registry.reset()
        assert registry.snapshot() == {}


# ----------------------------------------------------------------------
class TestPrometheusText:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("pkts_total", "packet count").inc(
            5, host="0", path="normal"
        )
        text = prometheus_text(registry)
        assert "# HELP pkts_total packet count" in text
        assert "# TYPE pkts_total counter" in text
        assert 'pkts_total{host="0",path="normal"} 5' in text
        assert text.endswith("\n")

    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = prometheus_text(registry)
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum" in text
        assert "lat_count 3" in text


# ----------------------------------------------------------------------
class TestPrometheusHardening:
    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        hostile = 'a\\b"c\nd'
        registry.counter("esc_total").inc(1, path=hostile)
        text = prometheus_text(registry)
        assert 'esc_total{path="a\\\\b\\"c\\nd"} 1' in text
        # The raw newline must not split the sample across lines.
        sample_lines = [
            line for line in text.splitlines() if "esc_total{" in line
        ]
        assert len(sample_lines) == 1
        assert sample_lines[0].endswith("} 1")

    def test_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter("weird_total", "multi\nline \\ help").inc(1)
        text = prometheus_text(registry)
        assert "# HELP weird_total multi\\nline \\\\ help" in text

    def test_help_and_type_emitted_exactly_once(self):
        registry = MetricsRegistry()
        counter = registry.counter("multi_total", "help")
        counter.inc(1, host="0")
        counter.inc(2, host="1")
        registry.counter("multi_total")  # re-registration is idempotent
        text = prometheus_text(registry)
        assert text.count("# HELP multi_total") == 1
        assert text.count("# TYPE multi_total") == 1

    def test_invalid_metric_names_rejected_at_registration(self):
        registry = MetricsRegistry()
        for bad in ("2leading_digit", "has space", "dash-ed", ""):
            with pytest.raises(ConfigError):
                registry.counter(bad)
        # Colons are legal in metric names (recording-rule style).
        registry.counter("ns:sub:total").inc(1)

    def test_invalid_label_names_rejected_at_export(self):
        registry = MetricsRegistry()
        registry.counter("ok_total").inc(1, **{"bad-name": "x"})
        with pytest.raises(ConfigError):
            prometheus_text(registry)


# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_interpolated_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat", buckets=(10.0, 20.0, 40.0)
        )
        for value in range(1, 21):  # uniform over (0, 20]
            histogram.observe(float(value))
        child = histogram.labels()
        assert child.quantile(0.5) == pytest.approx(10.0)
        # p95: rank 19 of 20 -> 9/10 into the (10, 20] bucket.
        assert child.quantile(0.95) == pytest.approx(19.0)
        assert child.quantile(0.0) == pytest.approx(0.0)
        assert child.quantile(1.0) == pytest.approx(20.0)

    def test_overflow_bucket_clamps_to_last_finite_bound(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        histogram.observe(100.0)
        assert histogram.labels().quantile(0.99) == pytest.approx(2.0)

    def test_empty_histogram_and_bad_q(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0,))
        assert histogram.labels().quantile(0.5) == 0.0
        with pytest.raises(ConfigError):
            histogram.labels().quantile(1.5)

    def test_snapshot_carries_quantiles_for_histograms_only(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(1)
        registry.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        snapshot = registry.snapshot()
        assert set(snapshot["h"]["samples"][0]["quantiles"]) == {
            "p50", "p95", "p99",
        }
        # Counter/gauge sample dicts keep their exact legacy shape.
        assert set(snapshot["c_total"]["samples"][0]) == {
            "labels", "value",
        }


# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("epoch", task="hh"):
            with tracer.span("dataplane"):
                pass
            with tracer.span("task.answer"):
                pass
        names = [span.name for span in tracer.spans]
        assert names == ["epoch", "dataplane", "task.answer"]
        epoch, dataplane, answer = tracer.spans
        assert (epoch.depth, dataplane.depth, answer.depth) == (0, 1, 1)
        assert dataplane.parent == 0 and answer.parent == 0
        assert epoch.parent is None
        assert epoch.attrs == {"task": "hh"}
        assert epoch.duration >= dataplane.duration + answer.duration
        assert tracer.roots() == [epoch]
        assert tracer.children(epoch) == [dataplane, answer]

    def test_tree_rows_match_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b", k=1):
                pass
        rows = tracer.tree_rows()
        assert [(d, n) for d, n, _s, _a in rows] == [(0, "a"), (1, "b")]
        assert rows[1][3] == {"k": 1}

    def test_chrome_trace_format(self):
        tracer = Tracer()
        with tracer.span("epoch", task="hh"):
            with tracer.span("dataplane"):
                pass
        payload = tracer.chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"pid", "tid", "name", "args"} <= set(event)
        assert events[0]["args"] == {"task": "hh"}
        # Child lies inside the parent on the microsecond timeline.
        parent, child = events
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1

    def test_trace_span_without_telemetry_is_noop(self):
        with trace_span(None, "anything", attr=1):
            pass  # must not raise or record

    def test_reset_clears_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.spans == []


# ----------------------------------------------------------------------
class TestExporters:
    def test_json_snapshot_includes_spans(self):
        telemetry = Telemetry()
        telemetry.registry.counter("c_total").inc(1)
        with telemetry.span("epoch"):
            pass
        snapshot = telemetry.json_snapshot()
        assert snapshot["metrics"]["c_total"]["kind"] == "counter"
        assert snapshot["spans"][0]["name"] == "epoch"
        json.dumps(snapshot)  # must be serializable as-is

    def test_writers_round_trip(self, tmp_path):
        telemetry = Telemetry()
        telemetry.registry.counter("c_total").inc(3, host="0")
        with telemetry.span("epoch"):
            pass
        prom = tmp_path / "metrics.txt"
        snap = tmp_path / "snapshot.json"
        chrome = tmp_path / "trace.json"
        write_prometheus(telemetry.registry, prom)
        write_json_snapshot(telemetry.registry, snap, telemetry.tracer)
        write_chrome_trace(telemetry.tracer, chrome)
        assert 'c_total{host="0"} 3' in prom.read_text()
        loaded = json.loads(snap.read_text())
        assert loaded["spans"][0]["name"] == "epoch"
        trace_doc = json.loads(chrome.read_text())
        assert trace_doc["traceEvents"][0]["name"] == "epoch"


# ----------------------------------------------------------------------
class TestSwitchIntegration:
    def _switch(self):
        return SoftwareSwitch(
            CountMinSketch(seed=3),
            fastpath=FastPath(4096),
            buffer_packets=256,
        )

    def test_counters_match_report(self, trace):
        # The switch publishes nothing itself; the central publishers
        # map its report and fast-path snapshot into the registry.
        switch = self._switch()
        report = switch.process(trace)
        snapshot = switch.fastpath.snapshot()
        registry = MetricsRegistry()
        publish_switch_epoch(registry, report, host="7")
        publish_fastpath_epoch(registry, fastpath_stats(snapshot), host="7")
        assert registry.value(
            "sketchvisor_switch_packets_total", host="7", path="normal"
        ) == report.normal_packets
        assert registry.value(
            "sketchvisor_switch_packets_total", host="7", path="fastpath"
        ) == report.fastpath_packets
        assert registry.value(
            "sketchvisor_switch_bytes_total", host="7", path="fastpath"
        ) == report.fastpath_bytes
        assert registry.value(
            "sketchvisor_switch_buffer_high_water", host="7"
        ) == report.buffer_high_water
        assert registry.value(
            "sketchvisor_switch_throughput_gbps", host="7"
        ) == pytest.approx(report.throughput_gbps)
        assert registry.value(
            "sketchvisor_fastpath_bytes_total", host="7"
        ) == switch.fastpath.total_bytes

    def test_describe_and_repr(self, trace):
        switch = self._switch()
        text = switch.describe()
        assert repr(switch) == text
        assert "mode=sketchvisor" in text
        assert "engine=" not in text  # one engine: nothing to name
        assert "telemetry=" not in text  # metrics publish centrally
        assert "CountMinSketch" in text


# ----------------------------------------------------------------------
class TestPipelineIntegration:
    def test_default_config_has_no_telemetry(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        # REPRO_PROFILE implies telemetry, so it must be cleared too.
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert PipelineConfig().telemetry is None

    def test_per_host_counters_published(self, trace, truth):
        telemetry = Telemetry()
        pipeline = _pipeline(trace, truth, telemetry, hosts=2)
        result = pipeline.run_epoch(trace, truth)
        registry = telemetry.registry
        for report in result.reports:
            host = str(report.host_id)
            assert registry.value(
                "sketchvisor_switch_packets_total", host=host, path="normal"
            ) == report.switch.normal_packets
            assert registry.value(
                "sketchvisor_switch_packets_total", host=host, path="fastpath"
            ) == report.switch.fastpath_packets
            assert registry.value(
                "sketchvisor_switch_bytes_total", host=host, path="fastpath"
            ) == report.switch.fastpath_bytes
            assert registry.value(
                "sketchvisor_switch_buffer_high_water", host=host
            ) == report.switch.buffer_high_water
            assert registry.value(
                "sketchvisor_switch_throughput_gbps", host=host
            ) == pytest.approx(report.switch.throughput_gbps)
            assert registry.value(
                "sketchvisor_fastpath_bytes_total", host=host
            ) == report.fastpath.total_bytes
        assert registry.total(
            "sketchvisor_switch_packets_total"
        ) == len(trace)
        assert registry.total("sketchvisor_controller_reports_total") == 2
        assert registry.value(
            "sketchvisor_lens_solves_total", converged="true"
        ) == 1

    def test_loop_fed_counters_match_reports(self, trace, truth):
        """The routing loop's outputs — both clocks, every kick-out
        threshold and every rejected pass — reach telemetry as the
        host's own report and snapshot hold them."""
        telemetry = Telemetry()
        # A 16-entry fast path: the hosts' ~150 flows each kick out.
        pipeline = _pipeline(
            trace, truth, telemetry, hosts=4, fastpath_bytes=16 * 40
        )
        result = pipeline.run_epoch(trace, truth)
        registry = telemetry.registry
        sketch = pipeline.task.create_sketch(seed=0).name
        assert len(result.reports) == 4
        for report in result.reports:
            host = str(report.host_id)
            switch, fastpath = report.switch, report.fastpath
            assert registry.value(
                "sketchvisor_fastpath_decremented_bytes_total", host=host
            ) == fastpath.total_decremented
            assert registry.value(
                "sketchvisor_fastpath_rejected_total", host=host
            ) == fastpath.reject_count
            for actor, cycles in (
                ("producer", switch.producer_cycles),
                ("consumer", switch.consumer_cycles),
            ):
                assert registry.value(
                    "sketchvisor_switch_cycles_total",
                    host=host,
                    sketch=sketch,
                    actor=actor,
                ) == cycles
        # Every counter above is live: the hosts kicked out, some pass
        # admitted nobody, and both actors ran.
        assert registry.total(
            "sketchvisor_fastpath_decremented_bytes_total"
        ) > 0
        assert registry.total("sketchvisor_fastpath_rejected_total") > 0
        assert all(
            report.switch.consumer_cycles > 0 for report in result.reports
        )

    def test_span_tree_covers_epoch_walltime(self, trace, truth):
        telemetry = Telemetry()
        pipeline = _pipeline(trace, truth, telemetry, hosts=2)
        pipeline.run_epoch(trace, truth)
        (root,) = telemetry.tracer.roots()
        assert root.name == "epoch"
        children = telemetry.tracer.children(root)
        assert {span.name for span in children} >= {
            "dataplane",
            "controlplane.merge",
            "task.answer",
            "task.score",
        }
        covered = sum(span.duration for span in children)
        # The instrumented stages account for (nearly) the whole epoch.
        assert covered <= root.duration * 1.001
        assert covered >= root.duration * 0.9

    def test_engine_counter_totals_match(self, trace, truth, tmp_path):
        # Whoever drives the engine — Host.run_epoch or the durability
        # supervisor — the published data-plane counters are the
        # per-packet oracle's, host by host (CI runs this `-k engine`).
        plain, supervised = Telemetry(), Telemetry()
        pipeline = _pipeline(trace, truth, plain)
        pipeline.run_epoch(trace, truth)
        _pipeline(
            trace,
            truth,
            supervised,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=256,
        ).run_epoch(trace, truth)
        oracle = reference_reports(pipeline.task, trace, pipeline.config)
        assert sum(r.switch.fastpath_packets for r in oracle) > 0
        for registry in (plain.registry, supervised.registry):
            for report in oracle:
                host = str(report.host_id)
                switch, fastpath = report.switch, report.fastpath

                def value(name, **labels):
                    return registry.value(name, host=host, **labels)

                for path, packets, volume in (
                    ("normal", switch.normal_packets, switch.normal_bytes),
                    (
                        "fastpath",
                        switch.fastpath_packets,
                        switch.fastpath_bytes,
                    ),
                ):
                    assert value(
                        "sketchvisor_switch_packets_total", path=path
                    ) == packets
                    assert value(
                        "sketchvisor_switch_bytes_total", path=path
                    ) == volume
                assert value("sketchvisor_switch_epochs_total") == 1
                for kind, count in (
                    ("hit", fastpath.hit_count),
                    ("insert", fastpath.insert_count),
                    ("kickout", fastpath.kickout_count),
                ):
                    assert value(
                        "sketchvisor_fastpath_updates_total", kind=kind
                    ) == count
                assert value(
                    "sketchvisor_fastpath_evictions_total"
                ) == fastpath.evict_count
                assert value(
                    "sketchvisor_fastpath_bytes_total"
                ) == fastpath.total_bytes
                assert value(
                    "sketchvisor_fastpath_tracked_flows"
                ) == fastpath.tracked

    def test_pipeline_describe(self, trace, truth):
        # ``batch=`` is still accepted (and selects nothing).
        pipeline = _pipeline(trace, truth, None, batch=True)
        text = pipeline.describe()
        assert repr(pipeline) == text
        assert "task='heavy_hitter'" in text
        assert "engine=" not in text


# ----------------------------------------------------------------------
class TestMonitorTelemetry:
    def test_monitor_publishes_alerts_and_epochs(self, trace, truth):
        telemetry = Telemetry()
        monitor = ContinuousMonitor(
            [
                HeavyHitterTask(
                    "univmon", threshold=0.01 * truth.total_bytes
                )
            ],
            config=PipelineConfig(num_hosts=1, telemetry=telemetry),
        )
        first = monitor.process_epoch(trace)
        second = monitor.process_epoch(trace)
        registry = telemetry.registry
        assert registry.total("sketchvisor_monitor_epochs_total") == 2
        expected_alerts = len(first.alerts) + len(second.alerts)
        assert expected_alerts > 0
        assert registry.value(
            "sketchvisor_monitor_alerts_total", kind="heavy_hitter"
        ) == expected_alerts
        seconds = registry.histogram(
            "sketchvisor_monitor_epoch_seconds"
        ).labels()
        assert seconds.count == 2
        root_names = [
            span.name for span in telemetry.tracer.roots()
        ]
        assert root_names == ["monitor.epoch", "monitor.epoch"]


# ----------------------------------------------------------------------
class TestReporting:
    def test_bar_chart_annotates_bad_values(self):
        chart = ascii_bar_chart(
            {
                "ok": 10.0,
                "neg": -5.0,
                "nan": float("nan"),
                "inf": float("inf"),
            },
            width=10,
        )
        lines = dict(
            (line.split()[0], line) for line in chart.splitlines()
        )
        assert "██████████" in lines["ok"]
        assert "(< 0)" in lines["neg"] and "█" not in lines["neg"]
        assert "(non-finite)" in lines["nan"]
        assert "(non-finite)" in lines["inf"]
        # Non-finite values must not flatten the auto-computed peak.
        assert lines["ok"].count("█") == 10

    def test_bar_chart_clamps_above_explicit_peak(self):
        chart = ascii_bar_chart({"big": 100.0}, width=8, max_value=10.0)
        assert chart.count("█") == 8

    def test_span_tree_renders_fractions(self):
        rows = [
            (0, "epoch", 0.2, {}),
            (1, "dataplane", 0.15, {"host": 0}),
            (1, "task.score", 0.001, {}),
        ]
        text = span_tree(rows)
        assert "epoch" in text and "100.0%" in text
        assert "75.0%" in text and "[host=0]" in text
        filtered = span_tree(rows, min_fraction=0.05)
        assert "task.score" not in filtered
        assert "dataplane" in filtered
        assert span_tree([]) == "(no spans)"

    def test_bar_chart_handles_all_nonpositive(self):
        chart = ascii_bar_chart({"a": -1.0, "b": float("nan")}, width=5)
        assert "(< 0)" in chart and "(non-finite)" in chart
        assert not math.isnan(len(chart))


# ----------------------------------------------------------------------
class TestMetricsSummary:
    def test_summary_prefers_quantiles_over_buckets(self):
        from repro.reporting import metrics_summary

        registry = MetricsRegistry()
        registry.counter("sketchvisor_x_total", "h").inc(7)
        histogram = registry.histogram(
            "sketchvisor_epoch_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        text = metrics_summary(registry)
        assert "sketchvisor_x_total" in text and "7" in text
        assert "p50" in text and "n=4" in text
        assert "le=" not in text  # no raw bucket dumps

    def test_summary_prefix_filter_and_empty(self):
        from repro.reporting import metrics_summary

        registry = MetricsRegistry()
        registry.counter("keep_total").inc(1)
        registry.counter("drop_total").inc(1)
        text = metrics_summary(registry, prefix="keep")
        assert "keep_total" in text and "drop_total" not in text
        assert metrics_summary(MetricsRegistry()) == "(no metrics)"

    def test_dashboard_frame_sparklines(self):
        from repro.reporting import dashboard_frame

        rows = [
            {"epoch": 0, "throughput_gbps": 1.0, "slo_breaches": 0},
            {"epoch": 1, "throughput_gbps": 2.0, "slo_breaches": 1},
        ]
        frame = dashboard_frame(rows, width=10)
        assert "epoch 1" in frame
        assert "throughput_gbps" in frame
        assert "▁" in frame and "█" in frame
