"""Pull-based metrics endpoint for long-running watches.

A stdlib ``ThreadingHTTPServer`` on a daemon thread (``repro watch
--serve-metrics``), serving:

* ``GET /metrics`` (and ``/``) — the Prometheus text a render callable
  returns (the watch daemon renders its run totals and loop counters
  with :func:`~repro.obs.metrics.render_prometheus`);
* ``GET /healthz`` — a JSON liveness payload from an injectable callable
  (the watch loop reports cycle counters and drain state through it).

Both callables run on the server's request threads, so they must be
safe to call while the daemon works: ``render_prometheus`` reads the
run totals under their lock, so a scrape concurrent with an outcome
folding in never sees a half-added record.
A handler that raises (say, a failing health callable) answers 500 and
the server keeps serving.  If the requested port is taken, the server
falls back to an ephemeral port (``port == 0``) and exposes the actual
one via :attr:`port` — a daemon that outlives a stale predecessor should
come up scrapeable, not crash.
"""

from __future__ import annotations

import errno
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE

__all__ = ["MetricsServer", "parse_bind", "PROMETHEUS_CONTENT_TYPE"]


def parse_bind(spec: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """Parse ``PORT``, ``:PORT``, or ``HOST:PORT`` into ``(host, port)``.

    An empty host binds loopback, not all interfaces: the endpoint
    should not be network-visible unless asked for explicitly.
    """
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        port_text = spec
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid bind address {spec!r} (want [HOST]:PORT)")
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid port {port} (want 0-65535)")
    return host or default_host, port


class MetricsServer:
    """Serve ``render()`` (Prometheus text) and ``health()`` (a JSON
    payload) over HTTP from a daemon thread.

    Usable as a context manager; :meth:`close` shuts the listener down
    cleanly (pending requests finish, the socket is released).  If the
    requested port is taken, an ephemeral port is bound instead and
    :attr:`fell_back` is set — the actual address is always
    :attr:`host`::attr:`port`.
    """

    def __init__(
        self,
        render,
        host: str = "127.0.0.1",
        port: int = 0,
        health=None,
    ) -> None:
        self.render = render
        self.health = health if health is not None else (lambda: {"status": "ok"})
        self.requested_port = port
        #: True when ``port`` was taken and an ephemeral one was bound.
        self.fell_back = False
        handler = self._make_handler()
        try:
            self._server = ThreadingHTTPServer((host, port), handler)
        except OSError as exc:
            if port == 0 or exc.errno not in (errno.EADDRINUSE, errno.EACCES):
                raise
            self._server = ThreadingHTTPServer((host, 0), handler)
            self.fell_back = True
        self._server.daemon_threads = True
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics-server", daemon=True
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "MetricsServer":
        self._thread.start()
        return self

    def close(self) -> None:
        # shutdown() blocks on serve_forever()'s exit handshake, which
        # never happens for a server that was constructed but not
        # started — skip it then (server_close alone frees the socket).
        if self._thread.is_alive():
            self._server.shutdown()
            self._thread.join(timeout=5)
        self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- requests -----------------------------------------------------------

    def handle(self, path: str) -> tuple[int, str, bytes]:
        """Map one GET ``path`` (query string stripped) to
        ``(status, content_type, body)``."""
        if path in ("/metrics", "/"):
            payload = self.render().encode()
            return 200, PROMETHEUS_CONTENT_TYPE, payload
        if path == "/healthz":
            payload = (json.dumps(self.health(), sort_keys=True) + "\n").encode()
            return 200, "application/json", payload
        return 404, "text/plain; charset=utf-8", b"not found\n"

    def _make_handler(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    status, content_type, body = outer.handle(self.path.split("?", 1)[0])
                except Exception as exc:  # noqa: BLE001 - server must survive
                    status, content_type = 500, "application/json"
                    error = {"error": f"{type(exc).__name__}: {exc}"}
                    body = (json.dumps(error, sort_keys=True) + "\n").encode()
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                try:
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client went away mid-response

            def log_message(self, format: str, *args) -> None:  # noqa: A002
                pass  # request traffic must not spam the daemon's stderr

        return Handler
