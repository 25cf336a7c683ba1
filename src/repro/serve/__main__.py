"""``python -m repro.serve`` — run the query service on a socket.

::

    python -m repro.serve [--host H] [--port P] [--cache-bytes N]
                          [--threads N] [--views STORE_DIR ...]

``--views`` registers campaign store directories whose results back the
``poa`` endpoint; repeat it per store.  ``--cache-bytes 0`` disables the
warm-engine registry (every request builds cold — the benchmark's
baseline arm).  SIGTERM/SIGINT shut the loop down cleanly.

Observability: ``GET /metricsz`` exposes the :mod:`repro.obs` registries
in Prometheus text format; setting ``REPRO_TRACE=<path>`` before start
streams trace spans (one JSON line per request / engine build) there.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.serve.http import serve_forever
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
        "--threads", type=_bounded_int(1), default=4,
        help="worker threads for request handling",
    )
    parser.add_argument(
        "--views", action="append", default=[], metavar="STORE_DIR",
        help="campaign store to materialise for the poa endpoint "
        "(repeatable)",
    )
    return parser


async def _main(args: argparse.Namespace) -> int:
    views = MaterialisedViews()
    for root in args.views:
        info = views.add_store(root)
        print(
            f"view {info['campaign']}: {info['indexed']}/{info['trials']} "
            f"trials materialised from {info['source']}",
            file=sys.stderr,
        )
    app = ServeApp(cache_bytes=args.cache_bytes, views=views)
    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, shutdown.set)

    def ready(port: int) -> None:
        print(f"serving on http://{args.host}:{port}", file=sys.stderr)

    await serve_forever(
        app, args.host, args.port, threads=args.threads,
        ready=ready, shutdown=shutdown,
    )
    print("shut down cleanly", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    return asyncio.run(_main(build_parser().parse_args(argv)))


if __name__ == "__main__":
    raise SystemExit(main())
