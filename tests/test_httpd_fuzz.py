"""The HTTP plane under hostile clients: malformed bytes, random paths,
slow readers.  None may earn a 500, mint a metric series, or stall
window advance."""

from __future__ import annotations

import http.client
import random
import re
import socket
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework.pipeline import PipelineConfig
from repro.serve import MeasurementService, ReplaySource, ServeConfig
from repro.serve.httpd import ROUTES, ObservabilityHandler
from repro.tasks.cardinality import CardinalityTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry.exporters import prometheus_text
from repro.traffic.generator import TraceConfig, generate_trace

HTTP_SERIES = "sketchvisor_serve_http_requests_total"
#: Characters random request targets are drawn from: no spaces or
#: control bytes, which would split the request line itself.
PATH_ALPHABET = (
    string.ascii_letters + string.digits + "-._~%/?#&=;:@!$'()*+,[]"
)


@pytest.fixture(scope="module")
def service():
    """An endless paced daemon: a window every ~0.1 s for the module."""
    trace = generate_trace(TraceConfig(num_flows=300, seed=29))
    service = MeasurementService(
        [
            HeavyHitterTask(
                "flowradar", threshold=0.02 * trace.total_bytes
            ),
            CardinalityTask("lc"),
        ],
        ReplaySource(trace, chunk_packets=100, rate_pps=3000, loop=True),
        ServeConfig(window_packets=300, ring_windows=2),
        pipeline_config=PipelineConfig(num_hosts=2),
    )
    service.start()
    deadline = time.monotonic() + 60
    while not service.windows_processed:
        assert time.monotonic() < deadline, "no window in 60 s"
        time.sleep(0.01)
    yield service
    assert service.stop() == 0


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw``, close our half, and read until the server closes
    (a server that rejects a request before reading all of it may reset
    the connection instead)."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def status_of(response: bytes) -> int | None:
    match = re.match(rb"HTTP/1\.[01] (\d{3}) ", response)
    return int(match.group(1)) if match else None


def get(port: int, target: str) -> int:
    status = status_of(
        exchange(
            port,
            f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode(),
        )
    )
    assert status is not None, target
    return status


def http_path_labels(service) -> set[str]:
    family = service.telemetry.registry.counter(HTTP_SERIES)
    return {labels["path"] for labels, _child in family.samples()}


def series_count(service) -> int:
    return sum(
        1
        for line in prometheus_text(service.telemetry.registry).splitlines()
        if line and not line.startswith("#")
    )


class TestRandomPaths:
    @settings(max_examples=150, deadline=None)
    @given(path=st.text(PATH_ALPHABET, max_size=40))
    def test_no_path_earns_a_500(self, service, path):
        assert get(service.port, "/" + path) in (200, 404, 503)

    def test_unparsable_target_is_a_404(self, service):
        assert get(service.port, "http://[oops/metrics") == 404

    def test_a_thousand_paths_mint_no_series(self, service):
        rng = random.Random(27)
        assert get(service.port, "/no-such-route") == 404
        before = series_count(service)
        for _ in range(1000):
            path = "/" + "".join(
                rng.choices(PATH_ALPHABET, k=rng.randint(1, 30))
            )
            assert get(service.port, path) != 500, path
        assert http_path_labels(service) <= ROUTES | {"other"}
        # Only windows advancing may add series (e.g. a new LENS
        # fallback rung); never one per client path.
        assert series_count(service) - before < 20

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_query_strings_on_every_endpoint(self, service, route):
        plain = get(service.port, route)
        assert plain != 500
        for query in ("?", "?a=1", "?a=1&a=2&b", "?%zz=%00", "?" + "q" * 4000):
            assert get(service.port, route + query) == plain, query


#: Malformed or hostile requests; each must end in a 4xx, a closed
#: connection, or an ordinary answer — never a 500 or a dead server.
HOSTILE = {
    "empty": b"",
    "bare newline": b"\r\n",
    "garbage": b"GARBAGE\r\n\r\n",
    "no target": b"GET\r\n\r\n",
    "unknown method": b"BREW /metrics HTTP/1.1\r\n\r\n",
    "bad version": b"GET / HTTP/9.9\r\n\r\n",
    "extra words": b"GET /metrics HTTP/1.1 extra\r\n\r\n",
    "binary": b"\x00\xff\xfe\x80 /\x00 HTTP/1.1\r\n\r\n",
    "http 0.9": b"GET /metrics\r\n",
    "absolute form": b"GET http://x/metrics HTTP/1.1\r\nHost: x\r\n\r\n",
    "bad ipv6 authority": b"GET http://[oops/ HTTP/1.1\r\n\r\n",
    "long target": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
    "oversized header": (
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * 70_000 + b"\r\n\r\n"
    ),
    "too many headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-%d: 1\r\n" % i for i in range(150))
        + b"\r\n"
    ),
    "partial request line": b"GET /metr",
    "partial headers": b"GET /metrics HTTP/1.1\r\nHost:",
    "bad content length": (
        b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
    ),
}


class TestRawBytes:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_request(self, service, name):
        response = exchange(service.port, HOSTILE[name])
        assert status_of(response) != 500, response[:200]
        assert get(service.port, "/healthz") == 200

    @settings(max_examples=100, deadline=None)
    @given(raw=st.binary(max_size=300))
    def test_random_bytes(self, service, raw):
        assert status_of(exchange(service.port, raw)) != 500


class TestSlowClients:
    def test_windows_advance_while_a_client_stalls(
        self, service, monkeypatch
    ):
        assert 0 < ObservabilityHandler.timeout <= 60
        monkeypatch.setattr(ObservabilityHandler, "timeout", 0.5)
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=30
        ) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost:")
            windows = service.windows_processed
            deadline = time.monotonic() + 30
            while service.windows_processed < windows + 3:
                assert time.monotonic() < deadline, "windows stalled"
                time.sleep(0.01)
            assert get(service.port, "/healthz") == 200
            # The stalled connection is dropped, not held forever.
            assert sock.recv(65536) == b""

    def test_idle_keep_alive_is_dropped(self, service, monkeypatch):
        monkeypatch.setattr(ObservabilityHandler, "timeout", 0.5)
        connection = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30
        )
        try:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
            started = time.monotonic()
            assert connection.sock.recv(1) == b""
            assert time.monotonic() - started < 10
        finally:
            connection.close()


class TestKeepAlive:
    def test_keep_alive_requests_do_not_wait_for_delayed_acks(self, service):
        """A response is a header write then a body write.  With Nagle
        on, each body waits out the client's delayed ACK (~40 ms on
        Linux loopback), so 40 keep-alive requests took ~1.7 s."""
        assert ObservabilityHandler.disable_nagle_algorithm
        connection = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30
        )
        try:
            start = time.perf_counter()
            for _ in range(40):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status in (200, 503)
                assert not response.will_close
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.6, elapsed
