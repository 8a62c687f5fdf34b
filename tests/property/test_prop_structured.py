"""Property: ``evaluate()`` (structured, symbolically composed) equals a
brute-force dense reference for every operator class, across random
compositions — series, parallel, feedback, scaled.

The reference is built here by walking the operator tree over dense stacks,
so no composite node's structured tag algebra takes part in it; only the
primitives' own ``dense_grid`` stacks do."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memo import clear_cache
from repro.core.operators import (
    FeedbackOperator,
    IdentityOperator,
    LTIOperator,
    ParallelOperator,
    SamplingOperator,
    ScaledOperator,
    SeriesOperator,
)
from repro.core.structured import StructuredGrid
from repro.lti.transfer import TransferFunction
from repro.obs import spans as obs
from tests.property.test_prop_grid_eval import (
    W0,
    operator_trees,
    primitive_operators,
    s_grids,
)

#: Structured kernels reorder the same float ops the dense path performs,
#: so agreement is round-off-grade: 1e-12 relative on well-conditioned
#: draws (the ISSUE's equivalence bar), not mere 1e-9.
RTOL = 1e-12


def _dense_reference(op, s_arr, order):
    """Dense ``(L, N, N)`` stack of ``op`` composed from its leaves' stacks.

    Series is the stacked matmul, parallel the sum, scaled the scalar
    multiple and feedback the stacked solve; only the primitive leaves are
    evaluated by the library (their ``dense_grid``).
    """
    if isinstance(op, SeriesOperator):
        return np.matmul(
            _dense_reference(op.second, s_arr, order),
            _dense_reference(op.first, s_arr, order),
        )
    if isinstance(op, ParallelOperator):
        return _dense_reference(op.left, s_arr, order) + _dense_reference(
            op.right, s_arr, order
        )
    if isinstance(op, ScaledOperator):
        return op.scalar * _dense_reference(op.inner, s_arr, order)
    if isinstance(op, FeedbackOperator):
        g = _dense_reference(op.open_loop, s_arr, order)
        eye = np.eye(g.shape[-1], dtype=complex)
        return np.linalg.solve(eye[None, :, :] + g, g)
    return np.asarray(op.dense_grid(s_arr, order))


def _assert_structured_matches_dense(op, s_arr, order, rtol=RTOL):
    clear_cache()
    structured = op.evaluate(s_arr, order)
    assert isinstance(structured, StructuredGrid)
    assert structured.kind in ("diagonal", "banded", "rank_one", "dense")
    stack = np.asarray(structured.to_dense())
    assert stack.shape == (s_arr.size, 2 * order + 1, 2 * order + 1)
    clear_cache()
    reference = _dense_reference(op, s_arr, order)
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    assert np.allclose(stack, reference, rtol=rtol, atol=rtol * scale)


class TestStructuredEquivalenceProperty:
    @given(op=primitive_operators(), s=s_grids(), order=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_primitives(self, op, s, order):
        _assert_structured_matches_dense(op, s, order)

    @given(op=operator_trees(), s=s_grids(), order=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_nested_composites(self, op, s, order):
        _assert_structured_matches_dense(op, s, order)

    @given(op=operator_trees(depth=1), s=s_grids(), order=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_feedback_closures(self, op, s, order):
        closed = FeedbackOperator(op)
        # Skip draws where I + G is effectively singular at a grid point:
        # the SMW scalar closure and the dense solve then both amplify
        # round-off and the comparison is meaningless.  Conditioning also
        # bounds how much of the 1e-12 budget the solve itself eats, so
        # feedback gets a correspondingly relaxed tolerance.
        size = 2 * order + 1
        worst = 1.0
        for si in s:
            g = op.dense(complex(si), order)
            cond = np.linalg.cond(np.eye(size) + g)
            if cond > 1e8:
                return
            worst = max(worst, cond)
        _assert_structured_matches_dense(closed, s, order, rtol=RTOL * worst)

    @given(
        eps=st.floats(1e-6, 1e-2),
        s=s_grids(),
        order=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_feedback_near_singular_diagonal(self, eps, s, order):
        """``I + G = eps * I``: near-singular but exactly conditioned — the
        diagonal closure and the dense solve must still agree."""
        near = ScaledOperator(IdentityOperator(W0), eps - 1.0)
        _assert_structured_matches_dense(FeedbackOperator(near), s, order)

    @given(
        gain=st.floats(-0.999, 4.0),
        s=s_grids(),
        order=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_feedback_rank_one_vs_dense(self, gain, s, order):
        """The paper's own closure: a scaled sampler closes through SMW."""
        loop = ScaledOperator(SamplingOperator(W0), gain * 2 * np.pi / W0)
        closed = FeedbackOperator(loop)
        assert closed.evaluate(s, order).kind == "rank_one"
        _assert_structured_matches_dense(closed, s, order, rtol=1e-11)


def test_reference_bypasses_the_structured_algebra():
    """The reference of a composite records no structured composition."""
    lti = LTIOperator(TransferFunction([1.0], [1.0, 1.0]), W0)
    op = FeedbackOperator(SeriesOperator(lti, SamplingOperator(W0)) + lti)
    s_arr = np.array([0.3 + 0.5j, 0.2 - 1.0j])
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        clear_cache()
        _dense_reference(op, s_arr, 2)
        counters = obs.snapshot()["counters"]
    finally:
        (obs.enable if was_enabled else obs.disable)()
        obs.reset()
    assert not [name for name in counters if name.startswith("core.structured.")]
