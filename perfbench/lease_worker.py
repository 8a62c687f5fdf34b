"""One lease worker of the ``stability_map`` workload, as its own process.

Usage: ``python3 lease_worker.py STORE [--trace OUT]``.  The process
imports the library, prints ``{"ready": t}`` and waits for a line on
stdin, so that every worker starts draining at the same moment.  It then
calls :func:`repro.campaign.run_worker` on the shared store and prints one
JSON line with its report, its end time and its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import common

#: Seconds between claim attempts when nothing is claimable.  The library
#: default (ttl/5 = 6 s, capped at 1 s) would let an idle worker oversleep
#: the end of a 3-second campaign by up to a second.
POLL_INTERVAL = 0.1


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("store")
    parser.add_argument("--trace", default=None, help="write layer totals here")
    args = parser.parse_args(argv)

    common.use_checkout_src()
    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = layers.install(Tracer())
    from repro.campaign import run_worker
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    sys.stdin.readline()
    report = run_worker(args.store, poll_interval=POLL_INTERVAL)
    end = time.monotonic()
    rss = common.peak_rss_mb()
    if tracer is not None:
        tracer.dump(Path(args.trace))
    print(json.dumps({
        "end": end,
        "peak_rss_mb": rss,
        "points_done": report.points_done,
        "points_failed": report.points_failed,
        "reclaims": report.reclaims,
        "complete": report.complete,
    }), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
