"""Batch independence of the margin path.

``compare_margins_batch`` refines all rows of a stack together but freezes
each row once it converges, so a design's margins must not depend on which
other designs share its batch, or where: slot ``i`` is bitwise the one-row
``compare_margins(plls[i])`` (the value, or the exception type and message).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.chargepump import ChargePump
from repro.blocks.pfd import SampleHoldPFD
from repro.pll.architecture import PLL
from repro.pll.design import design_typical_loop
from repro.pll.margins import compare_margins, compare_margins_batch

W0 = 1.0
#: Small scans keep the examples fast; the path is the same at any size.
POINTS = 400


def _sample_hold(ratio: float) -> PLL:
    base = design_typical_loop(omega0=W0, omega_ug=ratio * W0)
    return PLL(
        pfd=SampleHoldPFD(W0),
        charge_pump=ChargePump(base.charge_pump.current),
        filter_impedance=base.filter_impedance,
        vco=base.vco,
    )


#: Closed-form rows over the plane, past-limit rows (no effective crossover)
#: and one sample-and-hold row (truncated lambda, secant refinement).
POOL = [
    design_typical_loop(omega0=W0, omega_ug=ratio * W0, separation=separation)
    for ratio, separation in [
        (0.02, 4.0), (0.1, 4.0), (0.1, 2.5), (0.2, 7.5), (0.27, 4.0), (0.3, 4.0), (0.42, 3.0),
    ]
] + [_sample_hold(0.1)]


def _outcome(value):
    if isinstance(value, Exception):
        return (type(value).__name__, str(value))
    return value


def _single(index):
    try:
        return compare_margins(POOL[index], points=POINTS)
    except Exception as exc:  # the batch slot must carry the same one
        return exc


SINGLES = [_outcome(_single(i)) for i in range(len(POOL))]


def test_pool_has_failing_and_passing_rows():
    kinds = {isinstance(s, tuple) for s in SINGLES}
    assert kinds == {True, False}


@given(order=st.permutations(range(len(POOL))), size=st.integers(1, len(POOL)))
@settings(max_examples=20, deadline=None)
def test_batch_slot_equals_one_row_call(order, size):
    picked = order[:size]
    outcomes = compare_margins_batch([POOL[i] for i in picked], points=POINTS)
    assert len(outcomes) == size
    for i, outcome in zip(picked, outcomes):
        assert _outcome(outcome) == SINGLES[i], (i, picked)


def test_duplicate_rows_agree():
    outcomes = compare_margins_batch([POOL[1], POOL[1], POOL[5], POOL[1]], points=POINTS)
    assert _outcome(outcomes[0]) == _outcome(outcomes[1]) == _outcome(outcomes[3]) == SINGLES[1]
    assert _outcome(outcomes[2]) == SINGLES[5]


@pytest.mark.parametrize("index", range(len(POOL)))
def test_single_call_is_deterministic(index):
    assert _outcome(_single(index)) == SINGLES[index]
