"""Start ``repro.serve`` with the benchmark's tracing wrappers installed.

Usage: ``python3 perfbench/serve_entry.py TRACE_PATH [repro.serve args]``.
The spans are written to ``TRACE_PATH`` when the server shuts down.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    trace_path, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
