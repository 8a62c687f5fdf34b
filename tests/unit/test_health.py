"""Numerical-health layer: events, probes, CLI gate, trace/CSV export.

Covers the PR acceptance criteria: near-singular ``1 + lambda(s)`` points
produce warning events that surface through ``repro obs health`` (and fail
the ``--fail-on warning`` gate), and ``repro obs export --trace`` writes
valid Chrome Trace Event Format.
"""

import csv
import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.memo import grid_cache
from repro.obs import health
from repro.obs import spans as obs
from repro.obs.registry import MAX_EVENT_BUCKETS, ObsRegistry, snapshot_delta
from repro.obs.report import to_chrome_trace, to_csv


@pytest.fixture(autouse=True)
def _isolated_obs():
    was_enabled = obs.enabled()
    obs.disable()
    obs.reset()
    grid_cache.clear()
    yield
    (obs.enable if was_enabled else obs.disable)()
    obs.reset()
    grid_cache.clear()


def _events(snapshot):
    return list(snapshot["events"].values())


# -- registry event buckets --------------------------------------------------------


def test_record_event_aggregates_count_and_worst():
    reg = ObsRegistry()
    reg.record_event("health.x", "warning", 3.0, 1.0, {"op": "A"})
    reg.record_event("health.x", "warning", 9.0, 1.0, {"op": "A"})
    reg.record_event("health.x", "warning", 5.0, 1.0, {"op": "A"})
    snap = reg.snapshot()
    (entry,) = _events(snap)
    assert entry["count"] == 3
    assert entry["worst"] == 9.0
    assert entry["severity"] == "warning"
    assert entry["tags"] == {"op": "A"}


def test_record_event_direction_below_keeps_smallest():
    reg = ObsRegistry()
    reg.record_event("health.m", "warning", 1e-7, 1e-6, {}, direction="below")
    reg.record_event("health.m", "warning", 1e-9, 1e-6, {}, direction="below",
                     message="worse")
    reg.record_event("health.m", "warning", 1e-8, 1e-6, {}, direction="below")
    (entry,) = _events(reg.snapshot())
    assert entry["worst"] == 1e-9
    assert entry["message"] == "worse"


def test_same_name_different_severity_are_distinct_buckets():
    reg = ObsRegistry()
    reg.record_event("health.x", "warning", 1.0, 0.5, {})
    reg.record_event("health.x", "error", 2.0, 0.5, {})
    assert len(_events(reg.snapshot())) == 2


def test_event_bucket_cap_counts_overflow():
    reg = ObsRegistry()
    for i in range(MAX_EVENT_BUCKETS + 5):
        reg.record_event("health.x", "info", 1.0, 0.0, {"i": i})
    snap = reg.snapshot()
    assert len(snap["events"]) == MAX_EVENT_BUCKETS
    assert snap["events_dropped"] == 5
    # Existing buckets still record past the cap.
    reg.record_event("health.x", "info", 2.0, 0.0, {"i": 0})
    entry = reg.snapshot()["events"]["health.x[i=0]#info"]
    assert entry["count"] == 2


def test_events_merge_like_span_deltas():
    a = ObsRegistry()
    a.record_event("health.x", "warning", 3.0, 1.0, {})
    b = ObsRegistry()
    b.record_event("health.x", "warning", 7.0, 1.0, {})
    b.record_event("health.y", "error", 1.0, 0.0, {})
    merged = ObsRegistry()
    merged.merge(a.snapshot())
    merged.merge(b.snapshot())
    snap = merged.snapshot()
    assert snap["events"]["health.x#warning"]["count"] == 2
    assert snap["events"]["health.x#warning"]["worst"] == 7.0
    assert snap["events"]["health.y#error"]["count"] == 1


def test_event_delta_subtracts_counts_keeps_worst():
    reg = ObsRegistry()
    reg.record_event("health.x", "warning", 3.0, 1.0, {})
    before = reg.snapshot()
    reg.record_event("health.x", "warning", 9.0, 1.0, {})
    delta = snapshot_delta(before, reg.snapshot())
    (entry,) = _events(delta)
    assert entry["count"] == 1
    assert entry["worst"] == 9.0
    # No event activity -> no event section noise.
    quiet = snapshot_delta(reg.snapshot(), reg.snapshot())
    assert quiet["events"] == {}
    assert quiet["events_dropped"] == 0


def test_health_event_is_noop_while_disabled_and_tags_path_when_on():
    obs.health_event("health.x", 1.0, 0.0)
    assert obs.registry().is_empty()
    obs.enable()
    with obs.span("outer"):
        with obs.span("inner"):
            obs.health_event("health.x", 1.0, 0.0, severity="error", op="A")
    (entry,) = _events(obs.snapshot())
    assert entry["path"] == "outer/inner"
    assert entry["tags"] == {"op": "A"}
    assert entry["severity"] == "error"


# -- CheckResult compatibility ----------------------------------------------------


def test_check_result_behaves_like_float_and_bool():
    ok = health.CheckResult("c", 1e-12, 1e-9, True)
    assert ok
    assert float(ok) == 1e-12
    assert ok < 1e-9
    assert ok <= 1e-12
    assert ok > 1e-15
    assert ok == 1e-12
    bad = health.CheckResult("c", 2.0, 1.0, False)
    assert not bad
    assert bad >= 1.0
    assert bad.to_dict() == {
        "name": "c", "value": 2.0, "threshold": 1.0, "passed": False,
    }


def test_check_finite_counts_bad_elements():
    clean = np.ones(4, dtype=complex)
    obs.enable()
    assert health.check_finite("health.t", clean)
    assert obs.registry().is_empty()
    dirty = np.array([1.0, np.nan, np.inf, 2.0])
    assert not health.check_finite("health.t", dirty, op="X")
    (entry,) = _events(obs.snapshot())
    assert entry["worst"] == 2.0  # two poisoned elements
    assert entry["severity"] == "error"


def test_smw_probe_enabled_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_OBS_SMW_CHECK", raising=False)
    assert not health.smw_probe_enabled()
    monkeypatch.setenv("REPRO_OBS_SMW_CHECK", "1")
    assert health.smw_probe_enabled()
    monkeypatch.setenv("REPRO_OBS_SMW_CHECK", "off")
    assert not health.smw_probe_enabled()


# -- snapshot analysis ------------------------------------------------------------


def _snapshot_with(*events):
    reg = ObsRegistry()
    for (name, severity, value, threshold, direction) in events:
        reg.record_event(name, severity, value, threshold, {},
                         direction=direction)
    return reg.snapshot()


def test_severity_counts_and_max_severity():
    snap = _snapshot_with(
        ("a", "info", 1.0, 0.0, "above"),
        ("b", "warning", 1.0, 0.5, "above"),
        ("b", "warning", 2.0, 0.5, "above"),
        ("c", "error", 1.0, 0.0, "above"),
    )
    assert health.severity_counts(snap) == {"info": 1, "warning": 2, "error": 1}
    assert health.max_severity(snap) == "error"
    assert health.max_severity(None) is None
    assert health.severity_counts({}) == {}


def test_worst_events_ranks_severity_then_badness():
    snap = _snapshot_with(
        ("noise", "info", 1.0, 2.0, "above"),
        ("mild", "warning", 1.1, 1.0, "above"),
        ("severe", "warning", 100.0, 1.0, "above"),
        ("fatal", "error", 1.0, 0.5, "above"),
    )
    ranked = health.worst_events(snap, n=10)
    assert [e["name"] for e in ranked] == ["fatal", "severe", "mild", "noise"]
    # min_severity keeps events at-or-above the floor; n truncates after ranking.
    at_least_warning = health.worst_events(snap, n=10, min_severity="warning")
    assert [e["name"] for e in at_least_warning] == ["fatal", "severe", "mild"]
    assert len(health.worst_events(snap, n=2, min_severity="warning")) == 2


def test_format_health_reports_counts_and_relation():
    assert health.format_health({}) == "health: no events recorded"
    snap = _snapshot_with(("health.m", "warning", 1e-8, 1e-6, "below"))
    text = health.format_health(snap)
    assert "1 warning" in text
    assert "< 1e-06" in text


# -- core probes ------------------------------------------------------------------


def test_smw_solve_emits_near_singular_warning():
    from repro.core.rank_one import smw_closed_loop

    column = np.zeros(5, dtype=complex)
    column[2] = -1.0 + 1e-8
    row = np.zeros(5, dtype=complex)
    row[2] = 1.0
    obs.enable()
    smw_closed_loop(column, row)
    entry = obs.snapshot()["events"][
        "health.rank_one.near_singular[size=5]#warning"
    ]
    assert entry["direction"] == "below"
    assert entry["worst"] == pytest.approx(1e-8)


def test_smw_identity_check_structured_and_compatible():
    from repro.core.rank_one import smw_identity_check

    column = np.array([0.3, 1.0, 0.3], dtype=complex)
    row = np.array([0.1, 0.2, 0.1], dtype=complex)
    result = smw_identity_check(column, row)
    assert isinstance(result, health.CheckResult)
    assert result
    assert result < 1e-12  # the historical bare-float comparison idiom
    # A failing tolerance emits a warning event when obs is on.
    obs.enable()
    failing = smw_identity_check(column, row, rtol=0.0)
    assert not failing
    assert "health.rank_one.smw_residual[size=3]#warning" in (
        obs.snapshot()["events"]
    )


def test_smw_opt_in_probe_runs_identity_check(monkeypatch):
    from repro.core.rank_one import smw_inverse_apply

    monkeypatch.setenv("REPRO_OBS_SMW_CHECK", "1")
    obs.enable()
    column = np.array([0.3, 1.0, 0.3], dtype=complex)
    row = np.array([0.1, 0.2, 0.1], dtype=complex)
    out = smw_inverse_apply(column, row, np.ones(3, dtype=complex))
    assert np.all(np.isfinite(out))
    # The healthy residual stays below tolerance: no event, no crash.
    assert "events" in obs.snapshot()


def test_truncation_convergence_and_tail_growth_events():
    from repro.core.truncation import choose_truncation_order

    def probe(operator, omega, order):
        # rel changes: 2->4 ~0.17, 4->8 ~0.33 (growth), 8->16 ~0.03 (accept).
        values = {2: 1.0, 4: 1.2, 8: 1.8, 16: 1.85}
        return np.full(omega.size, values[order], dtype=complex)

    obs.enable()
    report = choose_truncation_order(
        None, [1.0], rtol=0.1, initial_order=2, max_order=16, probe=probe
    )
    assert report.order == 16
    events = obs.snapshot()["events"]
    assert "health.truncation.tail_growth[order=8]#warning" in events
    assert "health.truncation.converged[order=16]#info" in events


def test_truncation_no_convergence_emits_error_event():
    from repro._errors import ConvergenceError
    from repro.core.truncation import choose_truncation_order

    def probe(operator, omega, order):
        return np.full(omega.size, float(order), dtype=complex)

    obs.enable()
    with pytest.raises(ConvergenceError):
        choose_truncation_order(
            None, [1.0], rtol=1e-9, initial_order=2, max_order=8, probe=probe
        )
    events = obs.snapshot()["events"]
    assert "health.truncation.no_convergence[order=8]#error" in events


def test_truncation_error_estimate_emits_event():
    from repro.core.truncation import truncation_error_estimate
    from repro.lti.transfer import TransferFunction
    from repro.core.operators import LTIOperator

    op = LTIOperator(TransferFunction([1.0], [1.0, 1.0]), omega0=2 * np.pi)
    obs.enable()
    estimate = truncation_error_estimate(op, [0.5, 1.0], order=2)
    events = obs.snapshot()["events"]
    key = next(k for k in events if k.startswith("health.truncation.error_estimate"))
    assert events[key]["worst"] == pytest.approx(estimate)


def test_is_periodic_check_structured_result():
    from repro.core.aliasing import AliasedSum
    from repro.lti.transfer import TransferFunction

    omega0 = 2 * np.pi
    alias = AliasedSum.of(TransferFunction([1.0], [1.0, 2.0, 1.0]), omega0)
    result = alias.is_periodic_check(0.17j * omega0)
    assert isinstance(result, health.CheckResult)
    assert result  # the historical `assert alias.is_periodic_check(s)` idiom
    assert float(result) >= 0.0
    assert result.threshold == 1e-8


def test_dense_grid_nonfinite_guard():
    from repro.core.operators import HarmonicOperator
    from repro.core.structured import StructuredGrid

    class PoisonedOperator(HarmonicOperator):
        def _structured_grid(self, s_arr, order):
            n = 2 * order + 1
            out = np.zeros((s_arr.size, n, n), dtype=complex)
            out[:, 0, 0] = np.nan
            return StructuredGrid.dense(out, order=order)

        def fingerprint(self):
            return ("poisoned", id(self))

    obs.enable()
    PoisonedOperator(1.0).dense_grid(np.array([1j]), 1)
    events = obs.snapshot()["events"]
    key = "health.dense_grid.nonfinite[op=PoisonedOperator]#error"
    assert events[key]["worst"] == 1.0


def test_feedback_condition_sentinel():
    from repro.core.operators import FeedbackOperator, HarmonicOperator
    from repro.core.structured import StructuredGrid

    class IllConditioned(HarmonicOperator):
        def _structured_grid(self, s_arr, order):
            n = 2 * order + 1
            out = np.zeros((s_arr.size, n, n), dtype=complex)
            out[:, 0, -1] = 1e15
            return StructuredGrid.dense(out, order=order)

        def fingerprint(self):
            return ("ill", id(self))

    obs.enable()
    FeedbackOperator(IllConditioned(1.0)).dense_grid(np.array([1j]), 1)
    events = obs.snapshot()["events"]
    key = "health.feedback.condition[order=1]#warning"
    assert events[key]["worst"] > health.CONDITION_LIMIT


def test_effective_gain_near_pole_emits_lambda_singular_warning():
    from repro.pll.closedloop import ClosedLoopHTM
    from repro.pll.design import design_typical_loop
    from repro.pll.poles import find_closed_loop_poles

    omega0 = 2 * np.pi
    pll = design_typical_loop(omega0=omega0, omega_ug=0.1 * omega0)
    pole = find_closed_loop_poles(pll)[0]
    closed = ClosedLoopHTM(pll)
    obs.enable()
    closed.effective_gain(pole.s)
    events = obs.snapshot()["events"]
    key = "health.closedloop.lambda_singular[method=closed]#warning"
    assert key in events
    assert events[key]["worst"] < health.LAMBDA_SINGULAR_TOL


# -- CLI: health report and gate --------------------------------------------------


def _write_snapshot(path, snapshot):
    path.write_text(json.dumps(snapshot, indent=2))
    return str(path)


def test_cli_obs_health_reports_and_gates(tmp_path, capsys):
    snap = _snapshot_with(("health.m", "warning", 1e-8, 1e-6, "below"))
    source = _write_snapshot(tmp_path / "snap.json", snap)

    assert main(["obs", "health", source]) == 0
    out = capsys.readouterr().out
    assert "health.m" in out
    assert "1 warning" in out

    assert main(["obs", "health", source, "--fail-on", "warning"]) == 1
    assert "health gate" in capsys.readouterr().err
    assert main(["obs", "health", source, "--fail-on", "error"]) == 0


def test_cli_obs_health_clean_snapshot_passes_gate(tmp_path, capsys):
    obs.enable()
    with obs.span("work"):
        pass
    source = _write_snapshot(tmp_path / "snap.json", obs.snapshot())
    assert main(["obs", "health", source, "--fail-on", "warning"]) == 0
    assert "no events" in capsys.readouterr().out


def test_cli_obs_health_severity_filter(tmp_path, capsys):
    snap = _snapshot_with(
        ("quiet", "info", 1.0, 2.0, "above"),
        ("loud", "warning", 3.0, 1.0, "above"),
    )
    source = _write_snapshot(tmp_path / "snap.json", snap)
    assert main(["obs", "health", source, "--severity", "warning"]) == 0
    out = capsys.readouterr().out
    assert "loud" in out
    assert "quiet" not in out


# -- exports: CSV and Chrome trace ------------------------------------------------


def _full_snapshot():
    obs.enable()
    with obs.span("core.dense_grid", op="LTIOperator"):
        pass
    obs.add("memo.hit", 3.0)
    obs.observe("residual", 1e-9)
    obs.health_event("health.m", 1e-8, 1e-6, severity="warning",
                     direction="below", message="margin")
    snap = obs.snapshot()
    obs.disable()
    obs.reset()
    return snap


def test_to_csv_emits_one_row_per_bucket():
    rows = list(csv.DictReader(io.StringIO(to_csv(_full_snapshot()))))
    kinds = sorted(r["kind"] for r in rows)
    assert kinds == ["counter", "health", "histogram", "span"]
    (span_row,) = [r for r in rows if r["kind"] == "span"]
    assert span_row["name"] == "core.dense_grid"
    assert span_row["tags"] == "op=LTIOperator"
    (health_row,) = [r for r in rows if r["kind"] == "health"]
    assert health_row["severity"] == "warning"
    assert float(health_row["threshold"]) == 1e-6


def test_chrome_trace_is_valid_trace_event_format():
    trace = json.loads(to_chrome_trace(_full_snapshot()))
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events, "trace must contain events"
    for event in events:
        assert isinstance(event["name"], str)
        assert event["ph"] in ("X", "C", "i")
        assert isinstance(event["ts"], (int, float))
        assert event["ts"] >= 0
        assert isinstance(event["pid"], int)
        if event["ph"] == "X":
            assert event["dur"] > 0
        if event["ph"] == "i":
            assert event["s"] in ("g", "p", "t")
    phases = {e["ph"] for e in events}
    assert phases == {"X", "C", "i"}


def test_cli_obs_export_csv_and_trace(tmp_path, capsys):
    source = _write_snapshot(tmp_path / "snap.json", _full_snapshot())

    assert main(["obs", "export", source, "--csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("kind,name,tags")

    trace_path = tmp_path / "trace.json"
    assert main(["obs", "export", source, "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    trace = json.loads(trace_path.read_text())
    assert isinstance(trace["traceEvents"], list)


# -- campaign acceptance: near-singular point surfaces through the store ----------


@pytest.mark.campaign
def test_campaign_near_singular_point_fails_health_gate(tmp_path, capsys):
    """A grid containing a near-singular 1 + lambda(s) point must produce a
    warning HealthEvent visible via `repro obs health <store>`, and
    `--fail-on warning` must exit nonzero."""
    from repro.campaign import CampaignSpec, GridSpace, run_campaign
    from repro.campaign.tasks import _REGISTRY, register_task

    name = "_health_near_singular_probe"

    @register_task(name)
    def probe_task(params):
        """Evaluate lambda(s) on a micro-grid through a closed-loop pole."""
        from repro.campaign.tasks import design_from_params
        from repro.pll.closedloop import ClosedLoopHTM
        from repro.pll.poles import find_closed_loop_poles

        pll = design_from_params(params)
        closed = ClosedLoopHTM(pll)
        pole = find_closed_loop_poles(pll)[0]
        lam = closed.effective_gain(np.array([pole.s, pole.s + 1.0]))
        return {"min_margin": float(np.min(np.abs(1.0 + lam)))}

    try:
        obs.enable()
        spec = CampaignSpec.create(
            name="health-acceptance",
            space=GridSpace.of(ratio=[0.05, 0.1]),
            task=name,
        )
        store = tmp_path / "run.jsonl"
        result = run_campaign(spec, store, workers=1)
        assert result.telemetry.processed == 2
        assert result.telemetry.health_counts().get("warning", 0) >= 1
        obs.disable()

        assert main(["obs", "health", str(store)]) == 0
        assert "lambda_singular" in capsys.readouterr().out
        assert main(["obs", "health", str(store), "--fail-on", "warning"]) == 1
    finally:
        _REGISTRY.pop(name, None)
