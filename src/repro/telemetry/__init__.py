"""First-class telemetry for the SketchVisor pipeline.

Three pieces, all optional and all off by default:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters,
  gauges, and fixed-bucket histograms with per-host label support,
  published into by the software switch, fast path, controller, and
  monitor loop (the catalogue lives in
  :mod:`repro.telemetry.publish` and ``docs/observability.md``);
* :class:`~repro.telemetry.tracer.Tracer` — wall-time spans with
  nesting for every pipeline stage, renderable as a stage-timing tree
  or exported as ``chrome://tracing`` JSON;
* exporters (:mod:`repro.telemetry.exporters`) — Prometheus text
  exposition and JSON snapshots;
* :class:`~repro.telemetry.recorder.FlightRecorder` — a bounded ring
  of structured events dumped to a JSON artifact on crash, quarantine,
  or accuracy-SLO breach;
* accuracy observability (:mod:`repro.telemetry.accuracy`) —
  theoretical error envelopes from live sketch state, an empirical
  shadow ground-truth sampler, and the declarative SLO engine.

Usage::

    from repro import PipelineConfig, Telemetry

    telemetry = Telemetry()
    config = PipelineConfig(telemetry=telemetry)
    ...  # run epochs
    print(telemetry.prometheus_text())

``telemetry=None`` (the default) keeps every hot path untouched; the
environment variable ``REPRO_TELEMETRY=1`` turns telemetry on for any
pipeline constructed without an explicit instance (used by CI to run
the tier-1 suite fully instrumented).
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.telemetry.exporters import (
    json_snapshot,
    prometheus_text,
    write_chrome_trace,
    write_json_snapshot,
    write_prometheus,
)
from repro.telemetry.registry import (
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
)
from repro.telemetry.profiling import ProfileConfig, Profiler
from repro.telemetry.recorder import FlightRecorder, RecorderEvent
from repro.telemetry.tracer import Span, Tracer

__all__ = [
    "Counter",
    "CounterFamily",
    "FlightRecorder",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "ProfileConfig",
    "Profiler",
    "RecorderEvent",
    "Span",
    "Telemetry",
    "Tracer",
    "json_snapshot",
    "prometheus_text",
    "trace_span",
    "write_chrome_trace",
    "write_json_snapshot",
    "write_prometheus",
]


class Telemetry:
    """One metrics registry plus one tracer — the unit of wiring.

    Pass an instance as ``PipelineConfig(telemetry=...)``; every
    instrumented component it reaches publishes into the same registry
    and tracer.
    """

    def __init__(
        self, profile: ProfileConfig | bool | None = None
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.recorder = FlightRecorder()
        #: Cycle-level profiler; ``None`` keeps every trace_span site a
        #: plain tracer span with zero extra cost.
        self.profiler: Profiler | None = None
        if profile:
            self.enable_profiling(
                profile if isinstance(profile, ProfileConfig) else None
            )

    def enable_profiling(
        self, config: ProfileConfig | None = None
    ) -> Profiler:
        """Attach a :class:`Profiler`: every span site becomes a
        wall+CPU stage timer and the stack sampler arms itself for the
        next stage window."""
        if self.profiler is None:
            self.profiler = Profiler(self, config)
        return self.profiler

    def span(self, name: str, **attrs):
        """Context manager timing one pipeline stage."""
        if self.profiler is not None:
            return self.profiler.stage(name, **attrs)
        return self.tracer.span(name, **attrs)

    # -- export conveniences -------------------------------------------
    def prometheus_text(self) -> str:
        return prometheus_text(self.registry)

    def json_snapshot(self) -> dict:
        return json_snapshot(self.registry, self.tracer)

    def chrome_trace(self) -> dict:
        return self.tracer.chrome_trace()

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()
        self.recorder.clear()
        if self.profiler is not None:
            self.profiler.close()
            self.profiler = Profiler(self, self.profiler.config)


def trace_span(telemetry: Telemetry | None, name: str, **attrs):
    """``telemetry.span(...)`` that degrades to a no-op for ``None``.

    The instrumented modules all call this, so running without
    telemetry costs one ``is None`` check per *stage* (never per
    packet).  With a profiler attached the same call sites become
    wall+CPU stage timers — existing instrumentation upgrades with no
    call-site changes.
    """
    if telemetry is None:
        return nullcontext()
    if telemetry.profiler is not None:
        return telemetry.profiler.stage(name, **attrs)
    return telemetry.tracer.span(name, **attrs)

