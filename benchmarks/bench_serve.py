"""Serving-layer latency and coalescing — the ``repro.serve`` bench.

Starts a real :class:`~repro.serve.AnalysisServer` on a loopback socket and
fires waves of concurrent requests at it: a mix of ``/v1/response`` grid
requests over a handful of designs (so the micro-batcher sees both
coalescible and distinct fingerprints) plus ``/v1/margins`` scalar
requests.  Reports client-observed p50/p95 latency, total wall time, and
the coalescing ratio / underlying-call count scraped from ``/v1/statz`` —
the figures that tell you whether cross-request micro-batching is actually
collapsing concurrent work.

``--smoke`` (CI) shrinks the run to 50 requests and asserts the mechanism
works at all: every request succeeds and at least one was coalesced.
``main()`` prints a human summary plus one machine-readable JSON line
(``kind: "bench_serve"``) consumed by ``repro bench compare`` against
``BENCH_baseline.json``.  The gated metrics are ``wall_seconds`` and
``coalesce_speedup`` (requests per underlying evaluation — structural, so
stable across machines); the latency percentiles are reported as
``p50_ms``/``p95_ms`` because single-run percentiles of a concurrent
server jitter far beyond any sane gate tolerance.  Run with
``PYTHONPATH=src python benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.serve import AnalysisServer, ServerConfig

DESIGNS = (
    {"ratio": 0.08, "separation": 4.0, "points": 300},
    {"ratio": 0.10, "separation": 4.0, "points": 300},
    {"ratio": 0.12, "separation": 5.0, "points": 300},
)


@dataclass(frozen=True)
class ServeBenchResult:
    """Client-observed latency plus server-side batching counters."""

    requests: int
    concurrency: int
    errors: int
    wall_seconds: float
    p50_ms: float
    p95_ms: float
    coalescing_ratio: float
    underlying_calls: int
    cache_hits: int

    @property
    def coalesce_speedup(self) -> float:
        """Requests served per underlying evaluation (batching + cache)."""
        return self.requests / max(self.underlying_calls, 1)

    def summary(self) -> str:
        return (
            f"serve ({self.requests} requests, {self.concurrency} concurrent): "
            f"wall {self.wall_seconds:.2f} s, p50 {self.p50_ms:.1f} ms, "
            f"p95 {self.p95_ms:.1f} ms, "
            f"{self.underlying_calls} underlying call(s) "
            f"({self.coalesce_speedup:.1f}x collapse), "
            f"coalescing {self.coalescing_ratio:.2f}, "
            f"{self.cache_hits} cache hit(s), {self.errors} error(s)"
        )

    def json_line(self) -> str:
        return json.dumps(
            {
                "kind": "bench_serve",
                "requests": self.requests,
                "concurrency": self.concurrency,
                "errors": self.errors,
                "wall_seconds": round(self.wall_seconds, 4),
                "p50_ms": round(self.p50_ms, 2),
                "p95_ms": round(self.p95_ms, 2),
                "coalesce_speedup": round(self.coalesce_speedup, 2),
                "coalescing_ratio": round(self.coalescing_ratio, 3),
                "underlying_calls": self.underlying_calls,
                "cache_hits": self.cache_hits,
            },
            sort_keys=True,
        )


async def _request(port: int, method: str, path: str, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: b\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(rest) if rest else None


def _request_body(i: int) -> tuple[str, dict]:
    """Deterministic request mix: mostly grid responses, some margins."""
    design = DESIGNS[i % len(DESIGNS)]
    if i % 5 == 4:
        return "/v1/margins", {"design": design}
    omega = np.linspace(0.5, 3.0, 16 + 4 * (i % 3))
    return "/v1/response", {"design": design, "grid": {"omega": list(omega)}}


async def _drive(
    port: int, requests: int, concurrency: int
) -> tuple[list[float], int]:
    semaphore = asyncio.Semaphore(concurrency)
    latencies: list[float] = []
    errors = 0

    async def one(i: int) -> None:
        nonlocal errors
        path, body = _request_body(i)
        async with semaphore:
            start = time.perf_counter()
            status, _ = await _request(port, "POST", path, body)
            latencies.append(time.perf_counter() - start)
            if status != 200:
                errors += 1

    await asyncio.gather(*(one(i) for i in range(requests)))
    return latencies, errors


def measure(requests: int = 200, concurrency: int = 32) -> ServeBenchResult:
    """Run the request mix against a fresh in-process server."""

    async def scenario() -> ServeBenchResult:
        server = AnalysisServer(
            ServerConfig(port=0, max_inflight=max(2 * concurrency, 64))
        )
        await server.start()
        try:
            # Warm the executor threads and numeric kernels with a design
            # that is NOT in the measured mix, so the timed pass still sees
            # a cold cache for every fingerprint it requests.
            await _request(
                server.port,
                "POST",
                "/v1/margins",
                {"design": {"ratio": 0.2, "separation": 3.0, "points": 100}},
            )
            start = time.perf_counter()
            latencies, errors = await _drive(server.port, requests, concurrency)
            wall = time.perf_counter() - start
            _, statz = await _request(server.port, "GET", "/v1/statz")
        finally:
            await server.stop()
        lat = np.asarray(latencies)
        return ServeBenchResult(
            requests=requests,
            concurrency=concurrency,
            errors=errors,
            wall_seconds=wall,
            p50_ms=float(np.percentile(lat, 50)) * 1e3,
            p95_ms=float(np.percentile(lat, 95)) * 1e3,
            coalescing_ratio=float(statz["batcher"]["coalescing_ratio"]),
            underlying_calls=int(statz["batcher"]["underlying_calls"]),
            cache_hits=int(statz["cache"]["hits"]),
        )

    return asyncio.run(scenario())


# -- pytest entry point ------------------------------------------------------------


def test_serve_bench_smoke():
    """Mechanism check: all requests succeed, and batching actually batched."""
    result = measure(requests=50, concurrency=16)
    assert result.errors == 0, result.summary()
    assert result.coalescing_ratio > 0 or result.cache_hits > 0, result.summary()
    assert result.underlying_calls < result.requests, result.summary()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (50 requests); asserts coalescing happened at all",
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="append the machine-readable JSON result line to FILE",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        result = measure(requests=50, concurrency=16)
        assert result.errors == 0, result.summary()
        assert (
            result.coalescing_ratio > 0 or result.cache_hits > 0
        ), result.summary()
    else:
        result = measure()
    print(result.summary())
    print(result.json_line())
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        with args.json_out.open("a") as fh:
            fh.write(result.json_line() + "\n")


if __name__ == "__main__":
    main()
