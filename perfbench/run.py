"""Run one workload of the benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload margins_sweep --seed 7 --seconds 30 --trace 0

Workloads, metrics and bounds are defined in ``BENCHMARK.json``.  With
``--trace 0`` the run prints every end-to-end metric, measured untraced;
with ``--trace 1`` it prints every per-layer metric, from repetitions with
timing wrappers installed, together with the tracing overhead against
untraced repetitions of the same run.  Every repetition of a campaign
workload is a fresh process, and the run repeats them until ``--seconds``
have been measured; a traced ``serve`` run makes one untraced and one
traced pass of ``--seconds`` each.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit status is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import common
import metrics
from tracing import merge_totals

MIN_PLAIN = 3  # untraced repetitions in an untraced run
MIN_SPLIT = 2  # untraced and traced repetitions each in a traced run


def unwrapped(parts: list[dict[str, Any]]) -> list[str]:
    """One problem per timing target that a traced process could not find.

    A renamed or removed function would otherwise read as a layer with no
    calls and no time, which looks like a gain.
    """
    missing = sorted({name for part in parts for name in part["missing"]})
    return [f"traced target not found: {name}" for name in missing]


def repeat(one_rep: Callable[..., dict[str, Any]], seed: int, seconds: float, trace: bool,
           work: Path) -> tuple[list[dict], list[dict]]:
    """Run fresh-process repetitions until ``seconds`` have passed.

    Repetition 0 is untraced and also runs the output checks; a traced run
    alternates untraced and traced repetitions.
    """
    deadline = time.monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    index = 0
    while True:
        is_traced = trace and index % 2 == 1
        rep = one_rep(seed, work, index, is_traced, index == 0)
        (traced if is_traced else plain).append(rep)
        print(f"repetition {index}{' traced' if is_traced else ''}: setup {rep['setup_s']:.3f} s, "
              f"{rep['points'] / rep['wall_s']:.1f} points/s", file=sys.stderr)
        index += 1
        enough = (len(plain) >= MIN_SPLIT and len(traced) >= MIN_SPLIT) if trace \
            else len(plain) >= MIN_PLAIN
        if enough and time.monotonic() >= deadline:
            return plain, traced


def campaign_workload(one_rep) -> Callable[..., dict[str, Any]]:
    def run(seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
        plain, traced = repeat(one_rep, seed, seconds, trace, work)
        reps = plain + traced
        out = {
            "e2e": metrics.campaign_e2e(plain),
            "problems": [p for r in reps for p in r.get("problems", [])],
            "attempted": sum(r["points"] for r in reps),
            "failed": sum(r["unexpected"] for r in reps),
        }
        if trace:
            dumps = [t for r in traced for t in r["trace"]]  # one per traced process
            out["problems"] += unwrapped(dumps)
            parts = [t["layers"] for t in dumps]
            fp = {k: sum(r["footprint"][k] for r in traced) / len(traced)
                  for k in traced[0]["footprint"]}
            fp["points"] = sum(r["points"] for r in traced) / len(traced)
            out["layers"] = metrics.layer_metrics(
                merge_totals(parts), len(traced), footprint=fp,
                reclaims=sum(r.get("reclaims", 0) for r in traced),
            )
            out["layers"].update(metrics.overhead(out["e2e"], metrics.campaign_e2e(traced)))
        return out

    return run


def serve_workload(seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
    import wl_serve

    if not trace:
        driven = wl_serve.one_pass(seed, seconds, work, traced=False, setups=5, check=True)
        passes = [driven]
        out = {"e2e": metrics.serve_e2e(driven), "problems": driven["problems"]}
    else:
        plain = wl_serve.one_pass(seed, seconds, work, traced=False, setups=1, check=True)
        traced = wl_serve.one_pass(seed, seconds, work, traced=True, setups=1, check=False)
        passes = [plain, traced]
        out = {"e2e": metrics.serve_e2e(plain),
               "problems": plain["problems"] + unwrapped([traced["server"]])}
        out["layers"] = metrics.layer_metrics(
            traced["server"]["layers"], 1, serve=metrics.serve_layer_inputs(traced, plain)
        )
        out["layers"].update(metrics.overhead(out["e2e"], metrics.serve_e2e(traced)))
    items = [i for p in passes for r in p["results"].values() for i in r["items"]]
    out["attempted"] = len(items)
    out["failed"] = sum(i["status"] != 200 for i in items)
    return out


def runners() -> dict[str, Callable[..., dict[str, Any]]]:
    import wl_margins
    import wl_stability

    return {
        "margins_sweep": campaign_workload(wl_margins.one_rep),
        "stability_map": campaign_workload(wl_stability.one_rep),
        "serve": serve_workload,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.use_checkout_src()
    common.product_environment()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    table = runners()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(table)}")
    common.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK))
    try:
        result = table[args.workload](args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    values = result["layers"] if args.trace else result["e2e"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out: dict[str, dict[str, Any]] = {}
    for metric in wanted:
        value = values[metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<44} {value:>14.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
