"""Workload ``stability_map``: a lease-drained ``stability_cell`` grid.

Each repetition initialises a fresh store and lease plan with the CLI
(``python -m repro campaign init``) and drains it with one
``lease_worker.py`` process per CPU, telemetry on (``REPRO_OBS=1``,
streaming, heartbeats) as a monitored production campaign runs.  The grid
is seeded separations x ratios in [0.03, 0.40], which straddles the
z-domain stability limit (about 0.27), so a large share of the cells are
unstable.

Every cell is checked twice: its ``z_stable`` against the library's own
``stability_limit_ratio`` bisection, and its ``z_stable`` and
``z_pole_radius`` against :func:`pole_radius`, a closed form derived here
without the library, so a defect in ``repro.baselines.zdomain`` that moves
both the cell and the bisection still fails the run.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import common
from wl_margins import stratum

SEPARATIONS = 16
RATIOS = 40
RATIO_RANGE = (0.03, 0.40)
SEPARATION_RANGE = (2.5, 8.0)
#: Cells this close to the bisected limit are not checked against it.
LIMIT_TOL = 2e-3
#: Largest relative disagreement of a cell's pole radius with
#: :func:`pole_radius`; cells whose radius is this close to 1 are not
#: checked for ``z_stable``.
RADIUS_TOL = 1e-9
TELEMETRY_ENV = {"REPRO_OBS": "1", "REPRO_OBS_STREAM": "1"}


def grid(seed: int) -> dict[str, list[float]]:
    """Seeded separations x ratios, one draw per stratum of each range."""
    rng = random.Random(f"stability_map:{seed}")
    return {
        "separation": [round(stratum(rng, *SEPARATION_RANGE, SEPARATIONS, k), 4)
                       for k in range(SEPARATIONS)],
        "ratio": [round(stratum(rng, *RATIO_RANGE, RATIOS, k), 5) for k in range(RATIOS)],
    }


def spec_json(seed: int) -> dict[str, Any]:
    return {
        "name": "stability_map",
        "task": "stability_cell",
        "space": {"kind": "grid", "axes": grid(seed)},
    }


def pole_radius(ratio: float, separation: float) -> float:
    """Largest closed-loop z-pole radius of the typical loop, in closed form.

    The design (``omega0 = 2 pi``, so ``T = 1``; ``w = ratio omega0``,
    ``wz = w / s``, ``wp = w s``) has ``A(s) = K (1 + s/wz) / (s^2 (1 + s/wp))``
    with ``|A(jw)| = 1``, i.e. ``K = w^2 / s``.  Sampling ``F = T A`` gives::

        F(s) = T C (a/s^2 + b/s + c/(s + wp)),  C = K wp/wz, a = wz/wp,
                                                c = (wz - wp)/wp^2, b = -c
        G(z) = T C (a T z/(z-1)^2 + b z/(z-1) + c z/(z-d)),  d = exp(-wp T)

    and the closed loop ``G/(1+G)`` has the roots of
    ``(z-1)^2 (z-d) + T C z (a T (z-d) + b (z-1)(z-d) + c (z-1)^2)``.
    """
    import numpy as np

    period = 1.0
    w = ratio * 2 * math.pi
    wz, wp = w / separation, w * separation
    gain = period * (w * w / separation) * wp / wz
    a, c = wz / wp, (wz - wp) / wp**2
    b = -c
    d = math.exp(-wp * period)
    one, pole, z = np.array([1.0, -1.0]), np.array([1.0, -d]), np.array([1.0, 0.0])
    den = np.polymul(np.polymul(one, one), pole)
    num = a * period * np.polymul(z, pole)
    num = np.polyadd(num, b * np.polymul(np.polymul(z, one), pole))
    num = np.polyadd(num, c * np.polymul(z, np.polymul(one, one)))
    return float(np.max(np.abs(np.roots(np.polyadd(den, gain * num)))))


def check_cells(records: list[dict[str, Any]], limits: dict[float, float]) -> list[str]:
    """Each cell's ``z_stable`` must agree with its separation's bisected
    stability limit, except within ``LIMIT_TOL`` of the limit, and its
    ``z_stable`` and ``z_pole_radius`` with :func:`pole_radius`."""
    problems = []
    for record in records:
        params = record["params"]
        if record["status"] != "ok":
            problems.append(f"cell {params}: {record['status']}")
            continue
        ratio, separation = float(params["ratio"]), float(params["separation"])
        stable = record["metrics"]["z_stable"] == 1.0
        limit = limits[separation]
        if abs(ratio - limit) > LIMIT_TOL and stable != (ratio < limit):
            problems.append(f"cell {params}: z_stable={stable} but limit is {limit:.5f}")
        radius = pole_radius(ratio, separation)
        got = record["metrics"]["z_pole_radius"]
        if common.rel_diff(got, radius) > RADIUS_TOL:
            problems.append(f"cell {params}: z_pole_radius {got!r}, closed form {radius!r}")
        elif abs(radius - 1.0) > RADIUS_TOL and stable != (radius < 1.0):
            problems.append(f"cell {params}: z_stable={stable} but pole radius is {radius:.6f}")
    return problems


def limits_for(separations: list[float]) -> dict[float, float]:
    """Bisected z-domain stability limit of every separation."""
    from repro.baselines.zdomain import stability_limit_ratio
    from repro.pll.design import design_typical_loop

    out = {}
    for sep in separations:
        out[float(sep)] = stability_limit_ratio(
            lambda r, s=sep: design_typical_loop(omega0=2 * math.pi, omega_ug=r * 2 * math.pi,
                                                 separation=s),
            tol=1e-4,
        )
    return out


def one_rep(seed: int, work: Path, index: int, traced: bool, check: bool) -> dict[str, Any]:
    spec_path = work / f"map-{index}.json"
    store = work / f"map-{index}.jsonl"
    spec_path.write_text(json.dumps(spec_json(seed)))
    env = common.child_env(TELEMETRY_ENV)
    started = time.monotonic()
    init = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "init", str(spec_path), "--out", str(store)],
        capture_output=True, text=True, timeout=120, env=env, cwd=common.ROOT,
    )
    if init.returncode != 0:
        raise RuntimeError(f"campaign init failed: {init.stderr[-2000:]}")
    procs = []
    try:
        for i in range(common.nproc()):
            cmd = common.script("lease_worker.py") + [str(store)]
            if traced:
                cmd += ["--trace", str(work / f"map-{index}.worker{i}.trace.json")]
            procs.append(subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE, text=True, env=env,
                                          cwd=common.ROOT))
        readies = [json.loads(p.stdout.readline())["ready"] for p in procs]
        setup = max(readies) - started  # CLOCK_MONOTONIC is system-wide on Linux
        go = time.monotonic()
        for p in procs:
            p.stdin.write("go\n")
            p.stdin.flush()
        reports = []
        for p in procs:
            out, err = p.communicate(timeout=150)
            if p.returncode != 0:
                raise RuntimeError(f"lease worker exited {p.returncode}: {err[-2000:]}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for p in procs:
            common.stop_process(p)
    from repro.campaign.store import ResultStore

    records = ResultStore.open(store).merged_point_records()
    rep: dict[str, Any] = {
        "setup_s": setup,
        "wall_s": max(r["end"] for r in reports) - go,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "points": len(records),
        "ok": sum(r["status"] == "ok" for r in records),
        "unexpected": sum(r["status"] != "ok" for r in records),
        "ok_latency_s": [r["elapsed"] for r in records if r["status"] == "ok"],
        "reclaims": sum(r["reclaims"] for r in reports),
        "footprint": common.footprint(store),
    }
    expected = len(grid(seed)["separation"]) * len(grid(seed)["ratio"])
    if len(records) != expected:
        rep["problems"] = [f"{len(records)} records for {expected} cells"]
    elif check:
        rep["problems"] = check_cells(records, limits_for(grid(seed)["separation"]))
    if traced:
        rep["trace"] = [
            json.loads((work / f"map-{index}.worker{i}.trace.json").read_text())
            for i in range(len(procs))
        ]
    return rep
