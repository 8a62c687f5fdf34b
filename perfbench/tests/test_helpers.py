"""Tests of the benchmark's own helpers (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import common
import metrics
import run
import wl_margins
import wl_serve
import wl_stability
from tracing import Span, Tracer, covered, layer_totals, self_times


# -- the "ten samples beyond" percentile rule --------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (10_000, 99.9)],
)
def test_supported_tail_needs_ten_samples_beyond(n, expected):
    assert common.supported_tail(n) == expected


def test_supported_tail_rejects_tiny_samples():
    with pytest.raises(ValueError):
        common.supported_tail(19)


def test_tail_ms_refuses_an_unsupported_percentile():
    assert metrics.tail_ms([0.001] * 200, 95) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        metrics.tail_ms([0.001] * 199, 95)


def test_quiet_median_drops_the_rounds_with_most_steal():
    rounds = [
        {"steal": 0.0, "latency": [0.010, 0.012]},
        {"steal": 0.2, "latency": [0.030, 0.031]},
        {"steal": 0.0, "latency": [0.011, 0.013]},
        {"steal": 0.1, "latency": [0.020, 0.021]},
    ]
    # median steal 0.05: the two rounds without steal are kept
    assert metrics.quiet_median_ms(rounds) == pytest.approx(11.5)
    no_steal = [dict(r, steal=0.0) for r in rounds]
    assert metrics.quiet_median_ms(no_steal) == pytest.approx(16.5)
    # a slower program stays slower: rounds are chosen by steal, not latency
    slower = [dict(r, latency=[2 * x for x in r["latency"]]) for r in rounds]
    assert metrics.quiet_median_ms(slower) == pytest.approx(23.0)


def test_percentile_matches_numpy_linear_rule():
    values = [3.0, 1.0, 7.0, 2.0, 9.0, 4.0]
    for pct in (0, 25, 50, 90, 95, 100):
        assert common.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


# -- self time ------------------------------------------------------------------------------


def test_covered_takes_the_union_of_overlapping_children():
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(7.0)
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        Span(1, 0, "a", "outer", 0.0, 10.0),
        Span(2, 1, "b", "x", 1.0, 4.0),
        Span(3, 1, "b", "y", 3.0, 6.0),  # overlaps span 2 (another thread)
        Span(4, 2, "c", "z", 2.0, 3.0),  # nested below span 2
        Span(5, 1, "b", "w", 8.0, 12.0),  # runs past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(3.0)  # 10 - union{[1,6], [8,10]}
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["a"]["busy_s"] == pytest.approx(3.0)
    assert totals["b"]["busy_s"] == pytest.approx(2.0 + 3.0 + 4.0)
    assert totals["b"]["calls"] == 3


def test_calls_count_only_entries_into_a_layer_and_wait_is_separate():
    spans = [
        Span(1, 0, "a", "outer", 0.0, 4.0),
        Span(2, 1, "a", "inner", 1.0, 2.0),  # the layer calling itself
        Span(3, 1, "a", "queue", 2.0, 3.0, "wait"),
        Span(4, 1, "a", "batch", 3.0, 3.5, "shared"),
    ]
    totals = layer_totals(spans)["a"]
    assert totals["calls"] == 1
    assert totals["op.inner"] == 1
    assert totals["wait_s"] == pytest.approx(1.0)
    assert totals["busy_s"] == pytest.approx(1.5 + 1.0)


def test_tracer_links_nested_calls_and_isolates_concurrent_tasks():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "math", "inner")
    traced_outer = tracer.wrap(lambda x: traced_inner(x) * 2, "app", "outer")
    assert traced_outer(1) == 4
    by_op = {s.op: s for s in tracer.spans}
    assert by_op["inner"].parent == by_op["outer"].sid

    async def request(i):
        await asyncio.sleep(0.01 * (3 - i))
        return traced_inner(i)

    traced_request = tracer.wrap(request, "serve", "request")

    async def main():
        return await asyncio.gather(*(traced_request(i) for i in range(3)))

    assert asyncio.run(main()) == [1, 2, 3]
    requests = {s.sid for s in tracer.spans if s.op == "request"}
    inners = [s for s in tracer.spans if s.op == "inner" and s.parent in requests]
    assert len(inners) == 3 and len({s.parent for s in inners}) == 3


def test_tracer_marks_raising_calls_as_failures():
    tracer = Tracer()

    def boom():
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "x", "boom")()
    assert layer_totals(tracer.spans)["x"]["failures"] == 1


# -- seeded inputs ---------------------------------------------------------------------------


def test_serve_schedule_is_deterministic_per_seed():
    first = wl_serve.schedule(7, 30.0)
    assert first == wl_serve.schedule(7, 30.0)
    assert first != wl_serve.schedule(8, 30.0)
    for phase, (name, rate, share) in zip(first, wl_serve.PHASES):
        assert phase["name"] == name
        assert len(phase["requests"]) == round(rate * 30.0 * share)
        dues = [r["due"] for r in phase["requests"]]
        assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] <= phase["duration"]
    hot_bodies = {json.dumps(b, sort_keys=True) for _e, b in wl_serve.hot_set(7)}
    hot = first[2]["requests"]
    assert all(json.dumps(r["body"], sort_keys=True) in hot_bodies for r in hot)
    cold = {json.dumps(r["body"]["design"], sort_keys=True) for r in first[0]["requests"]}
    assert len(cold) == len(first[0]["requests"])  # unique designs
    for phase in first:
        slices = wl_serve.rounds(phase, wl_serve.ROUNDS)
        assert len(slices) == wl_serve.ROUNDS
        width = phase["duration"] / wl_serve.ROUNDS
        assert sum(len(s["requests"]) for s in slices) == len(phase["requests"])
        assert all(0.0 <= r["due"] <= width for s in slices for r in s["requests"])


def test_campaign_inputs_are_deterministic_per_seed():
    assert wl_margins.designs(7) == wl_margins.designs(7)
    assert wl_margins.designs(7) != wl_margins.designs(8)
    assert wl_margins.designs(7)[0] == wl_margins.C3_DESIGN
    assert len(wl_margins.designs(7)) == wl_margins.DESIGNS
    assert wl_stability.grid(7) == wl_stability.grid(7)
    assert wl_stability.grid(7) != wl_stability.grid(8)


# -- store footprint ------------------------------------------------------------------------


def test_footprint_counts_the_store_and_every_sidecar(tmp_path):
    store = tmp_path / "run.jsonl"
    store.write_bytes(b"x" * 100)
    (tmp_path / "run.jsonl.shards").mkdir()
    (tmp_path / "run.jsonl.shards" / "w1.jsonl").write_bytes(b"x" * 40)
    (tmp_path / "run.jsonl.leases").mkdir()
    (tmp_path / "run.jsonl.leases" / "plan.json").write_bytes(b"x" * 10)
    (tmp_path / "run.jsonl.heartbeats").mkdir()
    (tmp_path / "run.jsonl.heartbeats" / "w1.json").write_bytes(b"x" * 7)
    (tmp_path / "run.jsonl.stream.jsonl").write_bytes(b"x" * 5)
    (tmp_path / "run.jsonl.manifest.json").write_bytes(b"x" * 3)
    (tmp_path / "other.jsonl").write_bytes(b"x" * 1000)  # not this store's
    fp = common.footprint(store)
    assert fp == {"bytes": 165, "files": 6, "obs_bytes": 15, "obs_files": 3}
    layer = metrics.layer_metrics({}, 1, footprint={**fp, "points": 5})
    assert layer["campaign.store.bytes_per_point"] == pytest.approx(33.0)
    assert layer["campaign.store.files_per_point"] == pytest.approx(1.2)
    assert layer["obs.bytes_per_point"] == pytest.approx(3.0)


# -- the output checks reject perturbed results ----------------------------------------------


def _margins(scale: float = 1.0) -> dict[str, float]:
    values = dict(zip(wl_margins.MARGIN_KEYS, (0.63, 61.9, 0.66, 55.5, 1.05, 0.104)))
    values["margin_degradation"] *= scale
    return values


def test_margins_check_accepts_agreement_and_rejects_perturbation():
    records = [
        {"status": "ok", "metrics": _margins()},
        {"status": "failed", "error": {"type": "ConvergenceError"}},
    ]
    convergence_error = type("ConvergenceError", (Exception,), {})
    oracle = {0: _margins(), 1: convergence_error()}
    assert wl_margins.check_records(records, oracle) == []
    perturbed = [{"status": "ok", "metrics": _margins(1 + 1e-8)}, records[1]]
    assert wl_margins.check_records(perturbed, oracle)
    wrong_error = [records[0], {"status": "failed", "error": {"type": "ValueError"}}]
    assert wl_margins.check_records(wrong_error, oracle)


def test_margins_check_enforces_claim_c3():
    records = [{"status": "ok", "metrics": _margins(2.0)}]
    problems = wl_margins.check_records(records, {0: _margins(2.0)})
    assert problems and "C3" in problems[0]


def test_only_past_limit_convergence_errors_are_expected_failures():
    def record(status, kind=None, ratio=0.3):
        return {"status": status, "error": {"type": kind}, "params": {"ratio": ratio}}

    assert not wl_margins.unexpected(record("ok"))
    assert not wl_margins.unexpected(record("failed", "ConvergenceError", 0.3))
    assert wl_margins.unexpected(record("failed", "ConvergenceError", 0.1))
    assert wl_margins.unexpected(record("failed", "ValueError", 0.3))


def _cell(ratio: float, stable: bool, radius: float | None = None) -> dict:
    if radius is None:
        radius = wl_stability.pole_radius(ratio, 4.0)
    return {"status": "ok", "params": {"separation": 4.0, "ratio": ratio},
            "metrics": {"z_stable": float(stable), "z_pole_radius": radius}}


def test_stability_check_rejects_a_flipped_cell():
    limits = {4.0: 0.276}
    records = [_cell(0.2, True), _cell(0.3, False)]
    assert wl_stability.check_cells(records, limits) == []
    assert wl_stability.check_cells([_cell(0.3, True)], limits)
    assert wl_stability.check_cells([_cell(0.2, True, radius=0.9)], limits)


def test_stability_check_catches_a_defect_the_bisection_shares():
    # A z-domain defect that moves the limit to 0.35 flips the cell at 0.3
    # and the bisection alike; only the closed form still disagrees.
    moved = {4.0: 0.35}
    assert wl_stability.check_cells([_cell(0.3, True, radius=0.99)], moved)


def test_closed_form_pole_radius_matches_the_library(library):
    from repro.baselines.zdomain import closed_loop_z, sampled_open_loop
    from repro.campaign.tasks import design_from_params

    for ratio in (0.03, 0.15, 0.27, 0.29, 0.4):
        for separation in (2.5, 4.0, 8.0):
            poles = closed_loop_z(sampled_open_loop(
                design_from_params({"ratio": ratio, "separation": separation}))).poles()
            radius = float(np.max(np.abs(poles)))
            assert common.rel_diff(wl_stability.pole_radius(ratio, separation), radius) < 1e-11


def test_rel_diff_treats_non_finite_values_as_disagreement():
    assert common.rel_diff(1.0, 1.0) == 0.0
    assert common.rel_diff(math.nan, math.nan) == 0.0
    assert common.rel_diff(math.inf, 1.0) == math.inf
    assert common.rel_diff(math.nan, 1.0) == math.inf
    assert common.rel_diff(2.0, 1.0) == 0.5


@pytest.fixture(scope="module")
def library():
    common.use_checkout_src()
    from repro.serve.protocol import dumps_bytes

    return dumps_bytes


def test_serve_checks_match_the_library_and_reject_perturbation(library):
    dumps_bytes = library
    body = {"design": {"ratio": 0.1, "separation": 4.0}, "grid": {"kind": "baseband", "points": 24}}
    h00 = wl_serve.expected_for("response", body)
    payload = json.loads(dumps_bytes({"h00": h00}))
    assert wl_serve.compare_response(payload, h00)
    nudged = np.array(h00)
    nudged[5] = complex(np.nextafter(nudged[5].real, math.inf), nudged[5].imag)
    assert not wl_serve.compare_response(json.loads(dumps_bytes({"h00": nudged})), h00)

    metrics_body = {"design": {"ratio": 0.1, "separation": 4.0}}
    expected = wl_serve.expected_for("margins", metrics_body)
    served = json.loads(dumps_bytes({"metrics": expected}))
    assert wl_serve.compare_metrics(served, expected)
    served["metrics"]["phase_margin_eff_deg"] *= 1 + 1e-9
    assert not wl_serve.compare_metrics(served, expected)


def test_every_timing_target_exists_in_the_checkout():
    # In a child process: installing patches the library for good.
    code = ("import json, common, layers, tracing; common.use_checkout_src(); "
            "print(json.dumps(layers.install(tracing.Tracer(), serve=True).missing))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=common.HERE, env=common.child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_a_missing_target_fails_the_traced_run():
    problems = run.unwrapped([{"missing": []}, {"missing": ["RationalFunction.gone"]}])
    assert problems == ["traced target not found: RationalFunction.gone"]


# -- the benchmark definition ---------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_metrics_the_run_computes():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    layer_names = set(metrics.layer_metrics({}, 1)) | {
        f"trace.overhead.{name}" for name in metrics.OVERHEAD
    }
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert set(metrics.OVERHEAD) <= e2e
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bound["setup_s"] == max(bound.values())


def test_every_layer_metric_has_a_prediction():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    plan = json.loads((common.HERE / "plan.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for metric in spec["per_layer"]:
        prefixes = [p for p in plan["predictions"] if metric["name"].startswith(p)]
        assert len(prefixes) == 1, metric["name"]
    for entry in plan["predictions"].values():
        for target in entry["moves"] + entry["unchanged"]:
            name, workload = target.split("@")
            assert name in e2e and workload in workloads, target
    assert set(plan["seeds"]) - {"note"} == workloads
