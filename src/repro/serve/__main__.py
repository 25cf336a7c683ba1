"""``python -m repro.serve`` — run the query service on a socket.

::

    python -m repro.serve [--host H] [--port P] [--cache-bytes N]
                          [--views STORE_DIR ...]

``--views`` registers campaign store directories whose results back the
``poa`` endpoint; repeat it per store.  ``--cache-bytes 0`` disables the
warm-engine registry (every request builds cold — the benchmark's
baseline arm).  A host or port that cannot be bound is one stderr line
and exit status 1.  SIGTERM/SIGINT shut the server down cleanly.

Observability: ``GET /metricsz`` exposes the :mod:`repro.obs` registries
in Prometheus text format; setting ``REPRO_TRACE=<path>`` before start
streams trace spans (one JSON line per request / engine build) there.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.serve.http import ServeServer
from repro.serve.service import ServeApp
from repro.serve.views import MaterialisedViews


def _bounded_int(low: int, high: int | None = None):
    """An argparse type: an int in ``[low, high]`` (``high=None``: no cap)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(
                f"must be an int {span}, got {text!r}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Always-on query service over warm game engines.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=_bounded_int(0, 65535), default=8080,
        help="TCP port (0 picks a free one)",
    )
    parser.add_argument(
        "--cache-bytes", type=_bounded_int(0), default=256 * 1024 * 1024,
        help="warm-engine byte budget (0 disables caching)",
    )
    parser.add_argument(
        "--views", action="append", default=[], metavar="STORE_DIR",
        help="campaign store to materialise for the poa endpoint "
        "(repeatable)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    views = MaterialisedViews()
    for root in args.views:
        info = views.add_store(root)
        print(
            f"view {info['campaign']}: {info['indexed']}/{info['trials']} "
            f"trials materialised from {info['source']}",
            file=sys.stderr,
        )
    app = ServeApp(cache_bytes=args.cache_bytes, views=views)
    try:
        server = ServeServer(app, args.host, args.port)
    except OSError as exc:
        print(
            f"cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr
        )
        return 1
    # SIGTERM ends serve_forever at once, as SIGINT does
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with server:
            port = server.server_address[1]
            print(f"serving on http://{args.host}:{port}", file=sys.stderr)
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    print("shut down cleanly", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
