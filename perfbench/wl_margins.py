"""Workload ``margins_sweep``: a serial in-process margins campaign.

Each repetition is a fresh process (``python3 wl_margins.py ...``) that
imports the library, builds the seeded design list and runs
``run_campaign(..., scheduler="serial")`` of the ``margins`` task into a
JSONL store with product defaults (telemetry off, vectorize on).  The
orchestrating side (:func:`run`) repeats it for the run's time budget.

Designs: ratio in [0.01, 0.35] and separation in [2.5, 8], so about a
fifth lie past the z-domain stability limit, where the current program
ends the point as a ``ConvergenceError`` (the effective gain never
crosses unity).  Design 0 is the fixed ratio-0.1 point of claim C3.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import common

RATIO_STRATA = 40
SEPARATION_STRATA = 20
DESIGNS = 1 + RATIO_STRATA * SEPARATION_STRATA
CHECK_SAMPLE = 40
#: Largest relative disagreement allowed with bare ``compare_margins``.
CHECK_TOL = 1e-9
#: Past-limit designs end this way today: lambda never crosses unity.  Any
#: other error, or this one below every separation's z-domain stability
#: limit (0.273-0.290 over separations 2.5-8), is a failure.
EXPECTED_ERROR = "ConvergenceError"
PAST_LIMIT_RATIO = 0.25
C3_DESIGN = {"ratio": 0.1, "separation": 4.0}
C3_RANGE = (0.06, 0.15)
MARGIN_KEYS = (
    "omega_ug_lti",
    "phase_margin_lti_deg",
    "omega_ug_eff",
    "phase_margin_eff_deg",
    "bandwidth_extension",
    "margin_degradation",
)


def stratum(rng: random.Random, lo: float, hi: float, n: int, k: int) -> float:
    """A uniform draw from the ``k``-th of ``n`` equal strata of ``[lo, hi]``.

    Drawing inputs stratum by stratum keeps every seed's inputs spread
    evenly over the range, so the mix of cheap and costly inputs, and with
    it the timings, does not change from seed to seed as plain uniform
    draws would.
    """
    return lo + (k + rng.random()) * (hi - lo) / n


def designs(seed: int) -> list[dict[str, float]]:
    """The seeded design list: the claim-C3 point, then one design in each
    cell of a ratio x separation grid over the plane, in shuffled order."""
    rng = random.Random(f"margins_sweep:{seed}")
    plane = [
        {"ratio": stratum(rng, 0.01, 0.35, RATIO_STRATA, r),
         "separation": stratum(rng, 2.5, 8.0, SEPARATION_STRATA, s)}
        for r in range(RATIO_STRATA)
        for s in range(SEPARATION_STRATA)
    ]
    rng.shuffle(plane)
    return [dict(C3_DESIGN)] + plane


def check_records(records: list[dict[str, Any]], oracle: dict[int, Any]) -> list[str]:
    """Compare campaign records with bare ``compare_margins`` results.

    ``oracle`` maps a record index to the oracle's metrics dict or to the
    exception it raised.  Returns the list of disagreements; record 0 must
    also satisfy claim C3.
    """
    problems: list[str] = []
    for index, expected in oracle.items():
        record = records[index]
        if isinstance(expected, BaseException):
            kind = (record.get("error") or {}).get("type")
            if record["status"] != "failed" or kind != type(expected).__name__:
                problems.append(f"design {index}: oracle raised {type(expected).__name__}, "
                                f"campaign gave {record['status']}/{kind}")
            continue
        if record["status"] != "ok":
            problems.append(f"design {index}: oracle ok, campaign {record['status']}")
            continue
        for key in MARGIN_KEYS:
            got, want = record["metrics"][key], expected[key]
            if common.rel_diff(got, want) > CHECK_TOL:
                problems.append(f"design {index}: {key} {got!r} != {want!r}")
    first = records[0]
    degradation = (first.get("metrics") or {}).get("margin_degradation")
    if degradation is None or not C3_RANGE[0] <= degradation <= C3_RANGE[1]:
        problems.append(f"claim C3: degradation at ratio 0.1 is {degradation}, "
                        f"outside {C3_RANGE}")
    return problems


def unexpected(record: dict[str, Any]) -> bool:
    """Whether a record failed in a way the plane's geometry does not explain."""
    if record["status"] == "ok":
        return False
    kind = (record.get("error") or {}).get("type")
    return kind != EXPECTED_ERROR or record["params"]["ratio"] < PAST_LIMIT_RATIO


def _oracle(points: list[dict[str, float]], seed: int) -> dict[int, Any]:
    from repro.campaign.tasks import design_from_params
    from repro.pll.margins import compare_margins

    rng = random.Random(f"margins_check:{seed}")
    sample = sorted({0, *rng.sample(range(len(points)), CHECK_SAMPLE)})
    out: dict[int, Any] = {}
    for index in sample:
        try:
            m = compare_margins(design_from_params(points[index]))
        except Exception as exc:  # the campaign must have failed the same way
            out[index] = exc
        else:
            out[index] = {key: getattr(m, key) for key in MARGIN_KEYS}
    return out


def rep_main(argv: list[str]) -> None:
    """One repetition in a fresh process; prints one JSON line."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", default=None, help="write layer totals here")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    common.product_environment()
    common.use_checkout_src()
    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = layers.install(Tracer())
    from repro.campaign import CampaignSpec, ListSpace, run_campaign
    points = designs(args.seed)
    spec = CampaignSpec.create(name="margins_sweep", space=ListSpace(points), task="margins")
    ready = time.monotonic()
    result = run_campaign(spec, args.store, scheduler="serial")
    wall = time.monotonic() - ready
    rss = common.peak_rss_mb()
    if tracer is not None:
        tracer.dump(Path(args.trace))
    records = list(result.records)
    out = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "points": len(records),
        "ok": sum(r["status"] == "ok" for r in records),
        "unexpected": sum(map(unexpected, records)),
        "ok_latency_s": [r["elapsed"] for r in records if r["status"] == "ok"],
        "footprint": common.footprint(Path(args.store)),
    }
    if args.check:
        out["problems"] = check_records(records, _oracle(points, args.seed))
    print(json.dumps(out))


def one_rep(seed: int, work: Path, index: int, traced: bool, check: bool) -> dict[str, Any]:
    store = work / f"margins-{index}.jsonl"
    cmd = common.script("wl_margins.py") + ["--seed", str(seed), "--store", str(store)]
    trace_path = work / f"margins-{index}.trace.json"
    if traced:
        cmd += ["--trace", str(trace_path)]
    if check:
        cmd.append("--check")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          env=common.child_env(), cwd=common.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"margins repetition failed: {proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["ready"] - spawned  # CLOCK_MONOTONIC is system-wide on Linux
    if traced:
        rep["trace"] = [json.loads(trace_path.read_text())]
    return rep


if __name__ == "__main__":
    rep_main(sys.argv[1:])
