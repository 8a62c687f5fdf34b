"""The analysis server of the ``serve`` workload, as its own process.

Usage: ``python3 serve_entry.py --out RESULT.json [--trace]``.  Starts
``repro.serve.AnalysisServer`` with the default ``ServerConfig`` (any free
port), prints ``{"port": p}`` once it listens, and serves until SIGTERM.
On the way out it writes its peak RSS and, with ``--trace``, the per-layer
totals of the timing wrappers to ``RESULT.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

import common


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    common.product_environment()
    common.use_checkout_src()
    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = layers.install(Tracer(), serve=True)
    from repro.serve import AnalysisServer, ServerConfig

    async def serve() -> None:
        server = AnalysisServer(ServerConfig())
        await server.start()
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        print(json.dumps({"port": server.port}), flush=True)
        try:
            await stop.wait()
        finally:
            await server.stop()

    asyncio.run(serve())
    extra = {"peak_rss_mb": common.peak_rss_mb()}
    if tracer is not None:
        tracer.dump(Path(args.out), extra)
    else:
        Path(args.out).write_text(json.dumps(extra))


if __name__ == "__main__":
    main(sys.argv[1:])
