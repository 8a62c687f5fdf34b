"""Workload ``serve``: an open-loop client against the analysis server.

The server is ``serve_entry.py`` (default ``ServerConfig``) in its own
process.  One asyncio client sends requests on a seeded schedule built up
front — a Poisson process with a fixed request count per phase, so each
phase sends exactly ``rate x duration`` requests — over at most ``nproc``
keep-alive connections.  Latency runs from each request's due time, so a
stall delays every request behind it; a request waiting for a free
connection is waiting for the server.  Every phase has the same endpoint
mix (60% margins, 30% response on 16-64-point baseband grids, 10% noise)
and only designs inside the stable region:

* ``cold``: 20 req/s, unique designs; nothing is in flight, so the batch
  window is pure cost.
* ``busy``: 60 req/s, unique designs; queueing sets in.  It fills the cache
  but almost never reads it.
* ``hot``: 150 req/s over 8 designs x 3 fixed grids, warmed untimed first;
  it reads the cache and coalesces, bypassing the math.

The endpoint mix, the grid sizes and the hot set are sizing choices: the
repository has no recorded serve traffic to take them from, so they are
not verified as representative.  The rates are sized from measured
capacity (on a 2-vCPU VM the busy phase runs at about 60% of it).
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import subprocess
import time
from pathlib import Path
from typing import Any

import common
from wl_margins import stratum

#: (phase, requests per second, share of the run's seconds)
PHASES = (("cold", 20.0, 0.40), ("busy", 60.0, 0.27), ("hot", 150.0, 0.20))
MIX = (("margins", 0.6), ("response", 0.3), ("noise", 0.1))
HOT_DESIGNS = 8
HOT_GRIDS = (16, 40, 64)
RATIO_RANGE = (0.02, 0.20)  # inside the stable region at every separation
SEPARATION_RANGE = (2.5, 8.0)
CHECK_SHARE = 0.08
REQUEST_TIMEOUT = 5.0
#: Largest relative disagreement allowed between a served scalar metric and
#: the in-process library (JSON round trip only).
METRICS_TOL = 1e-12
#: One untimed request per endpoint completes the server's set-up, so the
#: first timed request of each kind pays no lazy import.
WARMUP_BODY = {"design": {"ratio": 0.1, "separation": 4.0},
               "grid": {"kind": "baseband", "points": 16}}


def _design(rng: random.Random, ratio: float | None = None) -> dict[str, float]:
    if ratio is None:
        ratio = rng.uniform(*RATIO_RANGE)
    return {"ratio": round(ratio, 9), "separation": round(rng.uniform(*SEPARATION_RANGE), 9)}


def _body(endpoint: str, design: dict[str, float], points: int) -> dict[str, Any]:
    body: dict[str, Any] = {"design": design}
    if endpoint == "response":
        body["grid"] = {"kind": "baseband", "points": points}
    return body


def hot_set(seed: int) -> list[tuple[str, dict[str, Any]]]:
    """Every distinct hot-phase request: 8 designs x (margins, noise, 3 grids)."""
    rng = random.Random(f"serve-hot:{seed}")
    designs = [_design(rng) for _ in range(HOT_DESIGNS)]
    out = []
    for design in designs:
        out.append(("margins", _body("margins", design, 0)))
        out.append(("noise", _body("noise", design, 0)))
        out.extend(("response", _body("response", design, g)) for g in HOT_GRIDS)
    return out


def schedule(seed: int, seconds: float) -> list[dict[str, Any]]:
    """The whole run's requests, built up front from the seed.

    Each phase holds ``round(rate * duration)`` requests at uniformly drawn,
    sorted offsets: a Poisson process conditioned on its count.  The
    endpoint mix is exact and the unique designs' ratios are stratified, so
    the work a phase asks for does not vary from seed to seed.
    """
    rng = random.Random(f"serve:{seed}")
    hot = hot_set(seed)
    phases = []
    for name, rate, share in PHASES:
        duration = seconds * share
        count = round(rate * duration)
        offsets = sorted(rng.uniform(0.0, duration) for _ in range(count))
        endpoints = [e for e, w in MIX[1:] for _ in range(round(w * count))]
        endpoints = [MIX[0][0]] * (count - len(endpoints)) + endpoints
        rng.shuffle(endpoints)
        if name == "hot":
            bodies = [rng.choice([b for e, b in hot if e == endpoint]) for endpoint in endpoints]
        else:
            ratios = [stratum(rng, *RATIO_RANGE, count, k) for k in range(count)]
            rng.shuffle(ratios)
            bodies = [_body(endpoint, _design(rng, ratio), rng.randint(16, 64))
                      for endpoint, ratio in zip(endpoints, ratios)]
        requests = [
            {"due": offset, "endpoint": endpoint, "body": body,
             "check": rng.random() < CHECK_SHARE}
            for offset, endpoint, body in zip(offsets, endpoints, bodies)
        ]
        phases.append({"name": name, "rate": rate, "duration": duration, "requests": requests})
    return phases


# -- a minimal HTTP/1.1 keep-alive client -------------------------------------------


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


class Pool:
    """At most ``size`` keep-alive connections; a request waits for one.

    A broken connection (timeout, reset) is closed and replaced on demand,
    so the count never exceeds ``size``.
    """

    def __init__(self, port: int, size: int):
        self.port = port
        self.slots = asyncio.Semaphore(size)
        self.idle: list[Connection] = []
        self.closing: set[asyncio.Task] = set()

    async def acquire(self) -> Connection:
        await self.slots.acquire()
        try:
            return self.idle.pop() if self.idle else await Connection.open(self.port)
        except BaseException:
            self.slots.release()
            raise

    def release(self, conn: Connection, broken: bool) -> None:
        if broken:
            task = asyncio.get_running_loop().create_task(conn.close())
            self.closing.add(task)
            task.add_done_callback(self.closing.discard)
        else:
            self.idle.append(conn)
        self.slots.release()

    async def close(self) -> None:
        while self.idle:
            await self.idle.pop().close()
        await asyncio.gather(*self.closing, return_exceptions=True)


async def send(pool: Pool, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    conn = await pool.acquire()
    broken = True
    try:
        result = await asyncio.wait_for(conn.request(method, path, body), REQUEST_TIMEOUT)
        broken = False
        return result
    finally:
        pool.release(conn, broken)


async def run_phase(pool: Pool, phase: dict[str, Any]) -> list[dict[str, Any]]:
    """Send one phase open loop; returns one result per request."""
    loop = asyncio.get_running_loop()
    results: list[dict[str, Any]] = []
    tasks = []

    async def issue(req: dict[str, Any], due: float) -> None:
        sent = loop.time()
        status, payload = 0, b""
        try:
            status, payload = await send(pool, "POST", "/v1/" + req["endpoint"],
                                         json.dumps(req["body"]).encode())
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            status = 0  # refused, reset or timed out: a failure
        done = loop.time()
        results.append({
            "endpoint": req["endpoint"], "status": status, "latency": done - due,
            "late": sent - due, "body": req["body"],
            "payload": payload if req["check"] and status == 200 else None,
        })

    start = loop.time() + 0.05
    for req in phase["requests"]:
        due = start + req["due"]
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(issue(req, due)))
    await asyncio.gather(*tasks)
    return results


async def get_json(pool: Pool, path: str) -> dict[str, Any]:
    status, payload = await send(pool, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}")
    return json.loads(payload)


# -- server lifecycle ---------------------------------------------------------------


def start_server(work: Path, tag: str, traced: bool) -> tuple[subprocess.Popen, int, float, Path]:
    """Spawn the server and wait until it answers; returns its set-up time.

    Set-up runs from spawn to the first 200 of ``/v1/healthz`` plus one
    untimed warm-up request per endpoint.
    """
    out = work / f"serve-{tag}.json"
    cmd = common.script("serve_entry.py") + ["--out", str(out)] + (["--trace"] if traced else [])
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                            env=common.child_env(), cwd=common.ROOT)
    try:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before listening")
        port = json.loads(line)["port"]

        async def ready() -> None:
            pool = Pool(port, 1)
            try:
                while True:
                    try:
                        status, _ = await send(pool, "GET", "/v1/healthz")
                    except OSError:
                        status = 0
                    if status == 200:
                        break
                    await asyncio.sleep(0.005)
                for endpoint, _share in MIX:
                    status, _ = await send(pool, "POST", "/v1/" + endpoint,
                                           json.dumps(WARMUP_BODY).encode())
                    if status != 200:
                        raise RuntimeError(f"warm-up {endpoint} -> {status}")
            finally:
                await pool.close()

        asyncio.run(ready())
    except BaseException:
        common.stop_process(proc)
        raise
    return proc, port, time.monotonic() - spawned, out


def stop_server(proc: subprocess.Popen, out: Path) -> dict[str, Any]:
    common.stop_process(proc)
    proc.stdout.close()
    return json.loads(out.read_text())


# -- one pass -------------------------------------------------------------------------


#: Each phase is sent in this many rounds, interleaved with the other
#: phases, so its samples span the whole run instead of one stretch of it,
#: and the latency medians can leave out the rounds in which the host took
#: the most CPU from this machine (``metrics.quiet_median_ms``).
ROUNDS = 16
#: ``/v1/statz`` counters whose per-phase deltas the per-layer metrics use.
COUNTERS = (("batcher", "requests"), ("batcher", "coalesced"), ("batcher", "underlying_calls"),
            ("cache", "hits"), ("cache", "misses"))


def rounds(phase: dict[str, Any], n: int) -> list[dict[str, Any]]:
    """Split a phase into ``n`` consecutive slices of its schedule, each
    with due times counted from the slice's own start."""
    width = phase["duration"] / n
    slices: list[dict[str, Any]] = [{"name": phase["name"], "requests": []} for _ in range(n)]
    for req in phase["requests"]:
        k = min(int(req["due"] // width), n - 1)
        slices[k]["requests"].append(dict(req, due=req["due"] - k * width))
    return slices


async def drive(port: int, seed: int, phases: list[dict[str, Any]]) -> dict[str, Any]:
    """Send every phase in interleaved rounds; scrape ``/v1/statz`` around
    each slice (untimed) to attribute the server's counters to phases.

    Each slice also records its OK latencies and the CPU seconds stolen
    from this machine per wall second while it ran."""
    pool = Pool(port, common.nproc())
    results = {p["name"]: {"items": [], "wall": 0.0, "rounds": [],
                           "counters": dict.fromkeys(COUNTERS, 0)}
               for p in phases}
    sliced = [rounds(p, ROUNDS) for p in phases]
    try:
        for k in range(ROUNDS):
            for slices in sliced:
                chunk = slices[k]
                if chunk["name"] == "hot" and k == 0:  # untimed warm-up of the hot set
                    for endpoint, body in hot_set(seed):
                        await send(pool, "POST", "/v1/" + endpoint, json.dumps(body).encode())
                result = results[chunk["name"]]
                before = await get_json(pool, "/v1/statz")
                stolen = common.steal_seconds()
                began = time.monotonic()
                items = await run_phase(pool, chunk)
                wall = time.monotonic() - began
                result["items"] += items
                result["wall"] += wall
                result["rounds"].append({
                    "steal": (common.steal_seconds() - stolen) / wall,
                    "latency": [i["latency"] for i in items if i["status"] == 200],
                })
                after = await get_json(pool, "/v1/statz")
                for section, key in COUNTERS:
                    result["counters"][section, key] += after[section][key] - before[section][key]
        final = await get_json(pool, "/v1/statz")
        return {"results": results, "cache": final["cache"]}
    finally:
        await pool.close()


def one_pass(seed: int, seconds: float, work: Path, traced: bool, setups: int,
             check: bool) -> dict[str, Any]:
    """Set the server up ``setups`` times, keep the last, drive every phase."""
    setup_times = []
    for i in range(setups - 1):
        proc, _port, took, out = start_server(work, f"setup{i}", False)
        stop_server(proc, out)
        setup_times.append(took)
    proc, port, took, out = start_server(work, "main", traced)
    setup_times.append(took)
    try:
        driven = asyncio.run(drive(port, seed, schedule(seed, seconds)))
    finally:
        server = stop_server(proc, out)
    driven["setup_times"] = setup_times
    driven["server"] = server
    if check:
        driven["problems"] = check_responses(driven["results"])
    return driven


# -- output checks ----------------------------------------------------------------------


def compare_response(payload: dict[str, Any], expected) -> bool:
    """``/v1/response`` must equal the library's ``H00`` bit for bit."""
    h00 = payload["h00"]
    got = [complex(re if re is not None else math.nan, im if im is not None else math.nan)
           for re, im in zip(h00["re"], h00["im"])]
    if len(got) != len(expected):
        return False
    return all(
        (g.real == e.real or (math.isnan(g.real) and not math.isfinite(e.real)))
        and (g.imag == e.imag or (math.isnan(g.imag) and not math.isfinite(e.imag)))
        for g, e in zip(got, expected)
    )


def compare_metrics(payload: dict[str, Any], expected: dict[str, float]) -> bool:
    """Scalar metrics must match the library; JSON ``null`` stands for a
    non-finite value."""
    got = payload["metrics"]
    return set(got) == set(expected) and all(
        not math.isfinite(float(want)) if got[k] is None
        else common.rel_diff(got[k], float(want)) <= METRICS_TOL
        for k, want in expected.items()
    )


def expected_for(endpoint: str, body: dict[str, Any]):
    """The in-process library's answer to one request."""
    from repro.campaign.tasks import design_from_params, get_task
    from repro.core.grid import FrequencyGrid
    from repro.pll.closedloop import ClosedLoopHTM

    design = dict(body["design"])
    if endpoint == "response":
        pll = design_from_params(design)
        grid = FrequencyGrid.baseband(pll.omega0, points=body["grid"]["points"])
        return ClosedLoopHTM(pll).frequency_response(grid.omega)
    return get_task("margins" if endpoint == "margins" else "noise_summary")(design)


def check_responses(results: dict[str, Any]) -> list[str]:
    problems = []
    for phase, result in results.items():
        for item in result["items"]:
            if item["payload"] is None:
                continue
            payload = json.loads(item["payload"])
            expected = expected_for(item["endpoint"], item["body"])
            same = (compare_response(payload, expected) if item["endpoint"] == "response"
                    else compare_metrics(payload, expected))
            if not same:
                problems.append(f"{phase} {item['endpoint']} {item['body']['design']}: "
                                "response differs from the library")
    return problems
