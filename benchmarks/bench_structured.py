"""Structured-vs-dense closed-loop evaluation — the ``evaluate()`` bench.

Evaluates the closed-loop operator ``(I + G)^{-1} G`` of a typical loop
(ratio 0.2, truncation order 8) over a 200-point baseband grid two ways:

* ``dense_stack`` — the brute-force oracle: one :meth:`dense_grid` call,
  which assembles the full ``(L, N, N)`` open-loop stack and solves a
  dense ``N x N`` system per point;
* ``structured_stack`` — one :meth:`evaluate` call: the rank-one
  structure of the sampled loop closes through the Sherman-Morrison
  scalar formula, O(N) per point, and densifies only at the end.

The bench asserts the two stacks agree (the closures are independent:
:meth:`FeedbackOperator._dense_grid` solves the stacked system instead of
the SMW scalar, on the densified open-loop stack) and reports the speedup
plus the structure tag the evaluation produced.  ``main()`` prints a human summary and one
machine-readable JSON line (``kind: "bench_structured"``) for the
``repro bench compare`` gate, like the sibling benches.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.grid import FrequencyGrid
from repro.core.memo import grid_cache
from repro.core.operators import FeedbackOperator, HarmonicOperator
from repro.pll.design import design_typical_loop
from repro.pll.openloop import open_loop_operator

RATIO = 0.2
POINTS = 200
ORDER = 8


def closed_loop_operator(
    ratio: float = RATIO, omega0: float = 2 * np.pi
) -> tuple[HarmonicOperator, float]:
    """The closed-loop operator of a typical loop, plus its ``omega0``."""
    pll = design_typical_loop(omega0=omega0, omega_ug=ratio * omega0)
    return FeedbackOperator(open_loop_operator(pll)), pll.omega0


def dense_stack(op: HarmonicOperator, s_arr: np.ndarray, order: int) -> np.ndarray:
    """The brute-force oracle: full dense assembly + per-point solve."""
    grid_cache.clear()
    return np.asarray(op.dense_grid(s_arr, order))


def structured_stack(op: HarmonicOperator, s_arr: np.ndarray, order: int):
    """One cold structured evaluation (memoization defeated)."""
    grid_cache.clear()
    return op.evaluate(s_arr, order)


@dataclass(frozen=True)
class StructuredBenchResult:
    """Timing comparison of the structured path against the dense oracle."""

    points: int
    order: int
    structure: str
    dense_seconds: float
    structured_seconds: float
    max_rel_err: float

    @property
    def speedup(self) -> float:
        return self.dense_seconds / self.structured_seconds

    def summary(self) -> str:
        return (
            f"structured eval ({self.points} points, order {self.order}, "
            f"kind {self.structure!r}): dense {self.dense_seconds * 1e3:.1f} ms, "
            f"structured {self.structured_seconds * 1e3:.1f} ms "
            f"-> {self.speedup:.1f}x, max rel err {self.max_rel_err:.2e}"
        )

    def json_line(self) -> str:
        return json.dumps(
            {
                "kind": "bench_structured",
                "points": self.points,
                "order": self.order,
                "structure": self.structure,
                "dense_seconds": round(self.dense_seconds, 6),
                "structured_seconds": round(self.structured_seconds, 6),
                "speedup": round(self.speedup, 3),
                "max_rel_err": self.max_rel_err,
            },
            sort_keys=True,
        )


def measure(
    points: int = POINTS,
    order: int = ORDER,
    repeats: int = 3,
    ratio: float = RATIO,
) -> StructuredBenchResult:
    """Time both paths (best of ``repeats``) and cross-check the oracle.

    The relative error is the scaled residual ``max|S - D| / max|D|`` —
    well-defined at the stack's structural zeros.
    """
    op, omega0 = closed_loop_operator(ratio)
    grid = FrequencyGrid.baseband(omega0, points=points)
    s_arr = grid.s

    structured = structured_stack(op, s_arr, order)
    reference = dense_stack(op, s_arr, order)
    max_rel_err = float(
        np.max(np.abs(np.asarray(structured.to_dense()) - reference))
        / np.max(np.abs(reference))
    )

    t_dense = min(
        _timed(dense_stack, op, s_arr, order) for _ in range(repeats)
    )
    t_structured = min(
        _timed(structured_stack, op, s_arr, order) for _ in range(repeats)
    )
    return StructuredBenchResult(
        points=points,
        order=order,
        structure=structured.kind,
        dense_seconds=t_dense,
        structured_seconds=t_structured,
        max_rel_err=max_rel_err,
    )


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# -- pytest entry points ---------------------------------------------------------


def test_structured_speedup_and_agreement():
    """The tentpole target: >= 5x over the dense oracle, agreement to 1e-9."""
    result = measure()
    assert result.structure == "rank_one", result.summary()
    assert result.max_rel_err < 1e-9, result.summary()
    assert result.speedup >= 5.0, result.summary()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI-sized run (40 points, order 4, 1 repeat) — exercises "
        "the bench path without asserting the full-size speedup",
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="append the machine-readable JSON result line to FILE",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        result = measure(points=40, order=4, repeats=1)
    else:
        result = measure()
    print(result.summary())
    print(result.json_line())
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        with args.json_out.open("a") as fh:
            fh.write(result.json_line() + "\n")


if __name__ == "__main__":
    main()
