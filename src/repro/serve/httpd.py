"""The HTTP observability plane: stdlib only, one port, all surfaces.

Routes (all ``GET``):

``/metrics``
    Prometheus text exposition of the live registry
    (``text/plain; version=0.0.4``), scrape-safe while windows
    advance — the registry locks its family/children dicts.
``/dash``
    The self-contained HTML dashboard re-rendered from the window
    ring on every request.
``/healthz`` / ``/readyz``
    Liveness (ingest loop running, windows advancing) and readiness
    (first window recovered, quorum holding) as JSON.
``/query/heavy-hitters`` / ``/query/cardinality`` / ``/query/fsd``
    The latest recovered window plus the recent ring, each entry
    stamped with window-id/timestamp provenance.  ``503`` until the
    first window closes.

Served by :class:`http.server.ThreadingHTTPServer` with daemon
threads; request handling never blocks ingest beyond the window-ring
mutex.  A client can neither grow the plane nor pin it: requests are
counted under their route's name (every unknown path is ``other``),
and a connection that sends nothing for :data:`REQUEST_TIMEOUT_S` is
dropped.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.serve.service import QUERY_ENDPOINTS
from repro.telemetry.publish import publish_http_request

logger = logging.getLogger(__name__)

#: The content type Prometheus expects from a text-format scrape.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a connection may sit idle mid-request or between keep-alive
#: requests before its handler thread drops it (slow-loris clients).
REQUEST_TIMEOUT_S = 10.0

#: Every path the plane answers; requests to anything else are counted
#: as ``other``, so no client can add a metric series.
ROUTES = frozenset(
    {"/", "/metrics", "/dash", "/healthz", "/readyz"}
    | {f"/query/{endpoint}" for endpoint in QUERY_ENDPOINTS}
)


def _request_path(target: str) -> str:
    """A request target's path without query string or trailing slash;
    ``""`` for a target that does not parse as a URL."""
    try:
        path = urlsplit(target).path
    except ValueError:
        return ""
    return path.rstrip("/") or "/"


class ObservabilityHandler(BaseHTTPRequestHandler):
    server_version = "sketchvisor-serve/1"
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S
    # A response goes out as a header write and a body write; with
    # Nagle on, the body waits for the client's delayed ACK of the
    # header on every keep-alive request.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _respond(
        self, code: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
        publish_http_request(
            self.server.service.telemetry.registry, self.route, code
        )

    def _respond_json(self, code: int, document: dict) -> None:
        body = (json.dumps(document, indent=2) + "\n").encode()
        self._respond(code, body, "application/json; charset=utf-8")

    # -- routing -------------------------------------------------------
    def do_HEAD(self) -> None:  # noqa: N802 (stdlib handler name)
        """HEAD mirrors GET minus the body (`curl -I` health checks)."""
        self.do_GET()

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler name)
        service = self.server.service
        path = _request_path(self.path)
        self.route = path if path in ROUTES else "other"
        try:
            if path == "/metrics":
                self._respond(
                    200,
                    service.metrics_text().encode(),
                    PROMETHEUS_CONTENT_TYPE,
                )
            elif path == "/dash":
                self._respond(
                    200,
                    service.dash_html().encode(),
                    "text/html; charset=utf-8",
                )
            elif path == "/healthz":
                self._respond_json(*service.health())
            elif path == "/readyz":
                self._respond_json(*service.ready())
            elif path.startswith("/query/"):
                endpoint = path[len("/query/"):]
                self._respond_json(*service.query(endpoint))
            elif path == "/":
                self._respond_json(*service.index())
            else:
                self._respond_json(
                    404, {"error": f"no route {path!r}"}
                )
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception:
            logger.exception("request handler failed for %s", path)
            try:
                self._respond_json(
                    500, {"error": "internal server error"}
                )
            except OSError:
                pass


class ObservabilityServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`MeasurementService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service):
        super().__init__(address, ObservabilityHandler)
        self.service = service
