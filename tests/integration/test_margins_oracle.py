"""Margins against a committed golden file and an independent scan + Brent oracle.

Two checks that do not trust the margin path under test:

* ``margins_golden.json`` holds :func:`compare_margins` results for about
  60 seeded designs over the whole plane (ratio 0.01-0.45, separation
  2.5-8), past-limit designs included with the exception each raised.  It
  was produced by an earlier, independently written margin path (a scan
  followed by scalar Brent refinement and a second phase grid), so a drift
  that moved both :func:`compare_margins` and the batch path at once still
  shows here.  Regenerate only on purpose::

      PYTHONPATH=src python tests/integration/test_margins_oracle.py --write

* :func:`brent_margins` re-implements that algorithm inside this file and
  checks the refinement on designs outside the golden set.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.campaign.tasks import design_from_params
from repro.pll.closedloop import ClosedLoopHTM
from repro.pll.margins import compare_margins, compare_margins_batch
from repro.pll.openloop import open_loop_callable

GOLDEN = Path(__file__).with_name("margins_golden.json")
REL_TOL = 1e-9
FIELDS = ("omega_ug_lti", "phase_margin_lti_deg", "omega_ug_eff", "phase_margin_eff_deg")


def seeded_designs(seed: int, ratio_strata: int, separation_strata: int) -> list[dict]:
    """One design per cell of a ratio x separation grid, uniform in its cell.

    Every fifth design scans 2000 points (the stability-map cell count), the
    rest the 4000-point default.
    """
    rng = random.Random(f"margins_oracle:{seed}")
    out = []
    for r in range(ratio_strata):
        for s in range(separation_strata):
            ratio = 0.01 + (r + rng.random()) * (0.45 - 0.01) / ratio_strata
            separation = 2.5 + (s + rng.random()) * (8.0 - 2.5) / separation_strata
            out.append({"ratio": ratio, "separation": separation})
    rng.shuffle(out)
    for i, params in enumerate(out):
        params["points"] = 2000 if i % 5 == 4 else 4000
    return out


def run_design(params: dict) -> dict:
    """``compare_margins`` on one design as a JSON-ready record."""
    pll = design_from_params(params)
    try:
        m = compare_margins(pll, points=params["points"])
    except Exception as exc:
        return {"params": params, "error": type(exc).__name__, "message": str(exc)}
    return {"params": params, "margins": {k: getattr(m, k) for k in FIELDS}}


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


# -- the independent oracle: scan, then scalar Brent refinement ------------------------


def _brent_crossover(response, grid: np.ndarray) -> float:
    mags = np.abs(response(grid))
    logmag = np.log(np.where(mags > 0, mags, np.finfo(float).tiny))
    idx = np.nonzero(np.diff(np.sign(logmag)) != 0)[0]
    if idx.size == 0:
        raise LookupError("no unity crossing")
    pick = idx[-1]

    def objective(lw: float) -> float:
        return float(np.log(np.abs(response(np.array([math.exp(lw)]))[0])))

    lo, hi = math.log(grid[pick]), math.log(grid[pick + 1])
    return math.exp(brentq(objective, lo, hi, xtol=1e-13))


def _brent_phase_margin(response, w_lo: float, w_ug: float, points: int) -> float:
    grid = np.logspace(math.log10(w_lo), math.log10(w_ug), max(points // 2, 64))
    return 180.0 + math.degrees(np.unwrap(np.angle(response(grid)))[-1])


def brent_margins(pll, points: int = 4000) -> tuple[float, float, float, float]:
    """LTI and effective margins by scan + ``brentq``: the reference algorithm."""
    a_fn = open_loop_callable(pll)
    lam = ClosedLoopHTM(pll).effective_gain_response

    def a(omega):
        return np.asarray(a_fn(1j * np.asarray(omega, dtype=float)), dtype=complex)

    w_lo, w_hi = 1e-3 * pll.omega0, 0.499 * pll.omega0
    grid = np.logspace(math.log10(w_lo), math.log10(w_hi), points)
    out = []
    for response in (a, lam):
        w_ug = _brent_crossover(response, grid)
        out += [w_ug, _brent_phase_margin(response, w_lo, w_ug, points)]
    return tuple(out)


# -- tests ------------------------------------------------------------------------------


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())["designs"]


# Parametrization needs the count at collection; ``--write`` runs without the file.
GOLDEN_COUNT = len(_golden()) if GOLDEN.exists() else 0


def test_golden_covers_the_plane():
    records = _golden()
    assert len(records) >= 50
    ratios = [r["params"]["ratio"] for r in records]
    assert min(ratios) < 0.05 and max(ratios) > 0.4
    failed = [r for r in records if "error" in r]
    assert failed, "the golden set must include past-limit designs"
    assert all(r["params"]["ratio"] > 0.25 for r in failed)


@pytest.mark.parametrize("index", range(GOLDEN_COUNT))
def test_compare_margins_matches_golden(index):
    expected = _golden()[index]
    got = run_design(dict(expected["params"]))
    if "error" in expected:
        assert (got.get("error"), got.get("message")) == (expected["error"], expected["message"])
        return
    assert "margins" in got, got.get("message")
    for key in FIELDS:
        assert rel_diff(got["margins"][key], expected["margins"][key]) <= REL_TOL, key


def test_batch_matches_golden():
    records = _golden()
    by_points: dict[int, list[dict]] = {}
    for record in records:
        by_points.setdefault(record["params"]["points"], []).append(record)
    for points, group in by_points.items():
        plls = [design_from_params(r["params"]) for r in group]
        for record, outcome in zip(group, compare_margins_batch(plls, points=points)):
            if "error" in record:
                assert type(outcome).__name__ == record["error"]
                continue
            assert not isinstance(outcome, Exception), outcome
            for key in FIELDS:
                assert rel_diff(getattr(outcome, key), record["margins"][key]) <= REL_TOL


@pytest.mark.parametrize("params", seeded_designs(seed=11, ratio_strata=4, separation_strata=3)[:10])
def test_refinement_matches_brent_oracle(params):
    pll = design_from_params(params)
    points = params["points"]
    try:
        expected = brent_margins(pll, points)
    except LookupError:
        with pytest.raises(Exception) as info:
            compare_margins(pll, points=points)
        assert type(info.value).__name__ == "ConvergenceError"
        return
    m = compare_margins(pll, points=points)
    for key, want in zip(FIELDS, expected):
        assert rel_diff(getattr(m, key), want) <= REL_TOL, key


def _write() -> None:
    designs = seeded_designs(seed=7, ratio_strata=6, separation_strata=10)
    payload = {
        "about": "compare_margins on seeded designs; see test_margins_oracle.py",
        "designs": [run_design(p) for p in designs],
    }
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_margins_oracle.py --write")
    _write()
