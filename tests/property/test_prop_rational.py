"""Property-based tests for RationalFunction algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import ValidationError
from repro.lti.rational import _PF_LADDER, RationalFunction

finite_coeff = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
).map(lambda c: 0.0 if abs(c) < 1e-3 else c)


@st.composite
def rationals(draw, max_degree=3):
    num_deg = draw(st.integers(0, max_degree))
    den_deg = draw(st.integers(0, max_degree))
    num = [draw(finite_coeff) for _ in range(num_deg + 1)]
    den = [draw(finite_coeff) for _ in range(den_deg + 1)]
    # Ensure non-degenerate leading denominator coefficient.
    if abs(den[0]) < 1e-3:
        den[0] = 1.0
    return RationalFunction(num, den)


@st.composite
def eval_points(draw):
    re = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    im = draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    return complex(re, im)


def safe(rf, s):
    """Evaluation point far enough from poles for stable comparison."""
    den_val = abs(np.polyval(rf.den, s))
    return den_val > 1e-4


class TestFieldAxioms:
    @given(a=rationals(), b=rationals(), s=eval_points())
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes(self, a, b, s):
        if not (safe(a, s) and safe(b, s)):
            return
        lhs = (a + b)(s)
        rhs = (b + a)(s)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    @given(a=rationals(), b=rationals(), s=eval_points())
    @settings(max_examples=60, deadline=None)
    def test_multiplication_commutes(self, a, b, s):
        if not (safe(a, s) and safe(b, s)):
            return
        assert (a * b)(s) == pytest.approx((b * a)(s), rel=1e-8, abs=1e-8)

    @given(a=rationals(), b=rationals(), c=rationals(), s=eval_points())
    @settings(max_examples=40, deadline=None)
    def test_distributivity(self, a, b, c, s):
        if not (safe(a, s) and safe(b, s) and safe(c, s)):
            return
        lhs = (a * (b + c))(s)
        rhs = (a * b + a * c)(s)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-7

    @given(a=rationals(), s=eval_points())
    @settings(max_examples=60, deadline=None)
    def test_additive_inverse(self, a, s):
        if not safe(a, s):
            return
        assert (a - a)(s) == pytest.approx(0.0, abs=1e-9)


class TestTransformProperties:
    @given(a=rationals(), s=eval_points(), offset=eval_points())
    @settings(max_examples=60, deadline=None)
    def test_shift_consistency(self, a, s, offset):
        if not safe(a, s + offset):
            return
        assert a.shifted(offset)(s) == pytest.approx(a(s + offset), rel=1e-6, abs=1e-6)

    @given(a=rationals(), s=eval_points())
    @settings(max_examples=60, deadline=None)
    def test_scale_consistency(self, a, s):
        factor = 2.5
        if not safe(a, s / factor):
            return
        assert a.scaled_frequency(factor)(s) == pytest.approx(
            a(s / factor), rel=1e-8, abs=1e-8
        )

    @given(a=rationals())
    @settings(max_examples=40, deadline=None)
    def test_simplified_preserves_values(self, a):
        if a.is_zero():
            return
        simple = a.simplified()
        for s in (0.37 + 1.1j, -2.3 + 0.9j):
            if safe(a, s) and safe(simple, s):
                assert simple(s) == pytest.approx(a(s), rel=1e-5, abs=1e-6)


class TestPartialFractionReconstruction:
    @given(
        poles=st.lists(
            st.tuples(
                st.floats(min_value=-3.0, max_value=-0.2, allow_nan=False),
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        gain=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_reconstruction(self, poles, gain):
        pole_list = [complex(re, im) for re, im in poles]
        # Snap nearly-coincident poles together: separating a multiple root
        # from a neighbour a hair away is inherently ill-conditioned in
        # double precision (root error ~eps^(1/m)), which is a property of
        # the problem, not of the expansion algorithm under test.
        snapped: list[complex] = []
        for p in pole_list:
            for q in snapped:
                if abs(p - q) < 0.05:
                    p = q
                    break
            snapped.append(p)
        pole_list = snapped
        rf = RationalFunction.from_zpk([], pole_list, gain)
        direct, terms = rf.partial_fractions()
        for s in (1.0 + 0.5j, 0.2 + 2.2j):
            recon = complex(np.polyval(direct, s)) + sum(t(s) for t in terms)
            assert recon == pytest.approx(rf(s), rel=1e-4, abs=1e-7)


def full_ladder(rf):
    """The partial-fraction tolerance ladder without deduplication: expand
    and score every tolerance, keep the first best score."""
    best = None
    num_scale = float(np.max(np.abs(rf.num))) or 1.0
    for tol in _PF_LADDER:
        try:
            expansion = rf._partial_fractions_at_tol(tol)
        except ValidationError:
            continue
        err = rf._reconstruction_error(expansion)
        residue_scale = max((abs(t.residue) for t in expansion[1]), default=0.0)
        score = err + 1e-14 * residue_scale / num_scale
        if best is None or score < best[0]:
            best = (score, expansion)
    if best is None:
        raise ValidationError("partial-fraction expansion failed at every tolerance")
    return best[1]


def _expansion_key(expansion):
    direct, terms = expansion
    return (direct.tobytes(), [(t.pole, t.order, t.residue) for t in terms])


def _settled(build):
    """The ladder's outcome on a fresh instance: the expansion or the error."""
    try:
        return _expansion_key(build().partial_fractions())
    except ValidationError as exc:
        return ("error", str(exc))


def _full(build):
    try:
        return _expansion_key(full_ladder(build()))
    except ValidationError as exc:
        return ("error", str(exc))


@st.composite
def near_multiple_rationals(draw):
    """Strictly proper rationals whose poles include near-multiple pairs split
    by 1e-8..1e-4, so the ladder's tolerances cluster them differently."""
    poles: list[complex] = []
    for _ in range(draw(st.integers(1, 3))):
        base = complex(
            draw(st.floats(min_value=-3.0, max_value=0.0)),
            draw(st.floats(min_value=-2.0, max_value=2.0)),
        )
        poles.append(base)
        for _ in range(draw(st.integers(0, 2))):
            split = 10.0 ** draw(st.floats(min_value=-8.0, max_value=-4.0))
            angle = draw(st.floats(min_value=0.0, max_value=6.28))
            poles.append(base + split * complex(np.cos(angle), np.sin(angle)))
    zeros = [
        complex(draw(st.floats(min_value=-3.0, max_value=3.0)), 0.0)
        for _ in range(draw(st.integers(0, len(poles) - 1)))
    ]
    gain = draw(st.floats(min_value=0.1, max_value=5.0))
    num = gain * np.poly(zeros) if zeros else np.array([gain])
    den = np.poly(poles)
    return lambda: RationalFunction(num, den)


class TestProductCoefficients:
    @given(a=rationals(), b=rationals())
    @settings(max_examples=60, deadline=None)
    def test_products_match_polymul_bitwise(self, a, b):
        """Arithmetic convolves the stored coefficients exactly as np.polymul does."""
        pm = np.polymul
        product = RationalFunction(pm(a.num, b.num), pm(a.den, b.den))
        total = RationalFunction(np.polyadd(pm(a.num, b.den), pm(b.num, a.den)), pm(a.den, b.den))
        for got, want in ((a * b, product), (a + b, total)):
            assert np.array_equal(got.num, want.num) and np.array_equal(got.den, want.den)


class TestToleranceLadderDedupe:
    @given(build=near_multiple_rationals())
    @settings(max_examples=80, deadline=None)
    def test_dedupe_equals_full_ladder(self, build):
        assert _settled(build) == _full(build)

    def test_differing_clusterings_still_scored(self):
        # A double pole split by 1e-6: tolerances 1e-9/1e-7 keep two simple
        # poles, 1e-5/1e-3 merge them, so two expansions compete.
        def build():
            return RationalFunction([1.0, 2.0], np.poly([-1.0, -1.0 + 1e-6, -3.0]))

        clusterings = {tuple(build().pole_multiplicities(tol)) for tol in _PF_LADDER}
        assert len(clusterings) == 2
        assert _settled(build) == _full(build)

    @given(build=near_multiple_rationals())
    @settings(max_examples=20, deadline=None)
    def test_mutating_poles_does_not_corrupt_the_memo(self, build):
        rf = build()
        first = rf.poles()
        first[:] = 12345.0
        assert not np.any(rf.poles() == 12345.0)
        assert np.array_equal(rf.poles(), build().poles())
        assert _settled(lambda: rf) == _settled(build)
