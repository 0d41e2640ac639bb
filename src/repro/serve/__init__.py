"""Streaming service mode: ``repro serve``.

Turns the batch experiment runner into a long-running measurement
daemon: a packet source (trace replay or synthetic generator) feeds
sliding windows through the unchanged pipeline, and the whole
observability stack — Prometheus metrics, the HTML dashboard, health
probes, and per-window JSON query endpoints — is served live over one
HTTP port.  See ``docs/observability.md`` ("Service mode").
"""

from repro.serve.httpd import (
    PROMETHEUS_CONTENT_TYPE,
    ObservabilityServer,
)
from repro.serve.service import (
    QUERY_ENDPOINTS,
    MeasurementService,
    ServeConfig,
    WindowRecord,
    serialize_answer,
)
from repro.serve.sources import (
    DEFAULT_CHUNK_PACKETS,
    PacketSource,
    ReplaySource,
    SyntheticSource,
)
from repro.serve.windows import Window, WindowScheduler

__all__ = [
    "DEFAULT_CHUNK_PACKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "QUERY_ENDPOINTS",
    "MeasurementService",
    "ObservabilityServer",
    "PacketSource",
    "ReplaySource",
    "ServeConfig",
    "SyntheticSource",
    "Window",
    "WindowRecord",
    "WindowScheduler",
    "serialize_answer",
]
