"""The stdlib HTTP/1.1 layer over :class:`~repro.serve.service.ServeApp`.

:class:`http.server.ThreadingHTTPServer` reads each connection on its
own daemon thread, which calls :meth:`ServeApp.handle` directly, so
``/healthz`` answers while another connection waits on a cold engine
build.  The threads share one interpreter lock: they interleave rather
than run in parallel.  Keep-alive is supported so a replayed trace pays
one TCP handshake.

``POST /<endpoint>`` and ``GET /<endpoint>`` both dispatch to
``ServeApp.handle(endpoint, body)``; GETs carry an empty payload, which
is all the introspection endpoints need.  Every client mistake the
transport sees (a malformed request line or body, a method other than
GET and POST) answers a JSON 400 and closes the connection.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.serve.service import ServeApp

__all__ = ["ServeServer", "start_server_in_thread"]

_MAX_BODY = 8 * 1024 * 1024  # bytes; a polite bound, not a schema
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Error"}


def _render(status: int, body: dict[str, Any]) -> bytes:
    # the reserved "_raw_text" key (the /metricsz Prometheus exposition)
    # ships as text/plain — scrapers do not parse JSON
    raw = body.get("_raw_text") if isinstance(body, dict) else None
    if isinstance(raw, str):
        payload = raw.encode()
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        payload = json.dumps(body).encode()
        content_type = "application/json"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"\r\n"
    ).encode()
    return head + payload


class _Handler(BaseHTTPRequestHandler):
    """One connection: its requests are answered in order on its thread."""

    protocol_version = "HTTP/1.1"  # keep-alive unless "Connection: close"

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client went away mid-request

    def do_POST(self) -> None:
        try:
            body = self._body()
        except ValueError as exc:
            self.send_error(400, str(exc))
            return
        endpoint = self.path.lstrip("/").split("?", 1)[0]
        self.wfile.write(_render(*self.server.app.handle(endpoint, body)))

    do_GET = do_POST

    def _body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0 or length > _MAX_BODY:
            raise ValueError(f"unreasonable content-length {length}")
        if not length:
            return {}
        try:
            body = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not JSON: {exc}") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        # the stdlib's own refusals (a malformed request line or header:
        # 400, 414, 431; an unknown method: 501) are client mistakes too
        self.close_connection = True
        self.wfile.write(_render(400, {"error": message or "bad request"}))

    def log_message(self, format: str, *args: Any) -> None:
        pass  # no per-request stderr line


class ServeServer(ThreadingHTTPServer):
    """``app`` on ``(host, port)``: one daemon thread per connection.

    Binds on construction, so a busy port or an unresolvable host
    raises :class:`OSError` here; ``port=0`` lets the OS pick one
    (read it back from ``server_address[1]``).
    """

    allow_reuse_address = True  # a restart rebinds a port in TIME_WAIT
    daemon_threads = True  # an idle keep-alive client never blocks exit

    def __init__(self, app: ServeApp, host: str, port: int):
        self.app = app
        # the host's first address picks IPv4 or IPv6 ("" is any address)
        self.address_family = socket.getaddrinfo(
            host or None, port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )[0][0]
        super().__init__((host, port), _Handler)


def start_server_in_thread(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> tuple[int, Callable[[], None]]:
    """Serve from a daemon thread; returns ``(port, stop)``.

    ``stop()`` ends the accept loop, closes the listening socket and
    joins the thread — tests and the QPS benchmark wrap the whole
    lifetime in ``try/finally stop()``.
    """
    server = ServeServer(app, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def stop() -> None:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)

    return server.server_address[1], stop
