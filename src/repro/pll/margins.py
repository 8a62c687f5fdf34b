"""Effective stability margins of the time-varying loop (paper Fig. 7).

Classical analysis reads bandwidth and phase margin off ``A(j omega)``.  The
paper's point is that the *effective* open-loop gain
``lambda(s) = sum_m A(s + j m w0)`` is what the closed loop actually divides
by (eq. 38), so margins must be measured on ``lambda``:

* the effective unity-gain frequency ``w_UG,eff`` grows above ``w_UG`` as
  ``w_UG / w0`` increases (closed-loop bandwidth extends);
* the effective phase margin collapses — "for w_UG/w0 = 0.1 this phase
  margin is already 9% worse than predicted by LTI analysis" (sec. 5).

:func:`compare_margins` measures both on one loop; :func:`margin_sweep`
produces the Fig. 7 series over a range of ``w_UG / w0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro._errors import ValidationError
from repro.core.grid import FrequencyGrid
from repro.lti.bode import ResponseStack, _log_grid, gain_crossover, phase_margin
from repro.pll.architecture import PLL
from repro.pll.closedloop import ClosedLoopHTM


@dataclass(frozen=True)
class EffectiveMargins:
    """LTI versus effective (time-varying) loop margins.

    Attributes
    ----------
    omega_ug_lti / phase_margin_lti_deg:
        Unity-gain frequency and phase margin of the classical ``A(s)``.
    omega_ug_eff / phase_margin_eff_deg:
        Same quantities measured on the effective gain ``lambda(s)``.
    """

    omega_ug_lti: float
    phase_margin_lti_deg: float
    omega_ug_eff: float
    phase_margin_eff_deg: float

    @property
    def bandwidth_extension(self) -> float:
        """``w_UG,eff / w_UG`` — the upper Fig. 7 quantity."""
        return self.omega_ug_eff / self.omega_ug_lti

    @property
    def margin_degradation(self) -> float:
        """Fractional phase-margin loss relative to the LTI prediction."""
        return 1.0 - self.phase_margin_eff_deg / self.phase_margin_lti_deg

    def summary(self) -> str:
        """Human-readable comparison line."""
        return (
            f"LTI: wUG={self.omega_ug_lti:.4g} PM={self.phase_margin_lti_deg:.2f} deg | "
            f"effective: wUG={self.omega_ug_eff:.4g} PM={self.phase_margin_eff_deg:.2f} deg "
            f"({100 * self.margin_degradation:.1f}% worse)"
        )


def _effective_closed_loop(pll: PLL, **closed_loop_kwargs) -> ClosedLoopHTM:
    """The closed loop whose ``lambda`` the margins are measured on (see
    :func:`effective_open_loop`)."""
    if "method" not in closed_loop_kwargs:
        from repro.blocks.pfd import SampleHoldPFD

        needs_truncated = (
            pll.has_delay
            or pll.pfd.sampling_offset != 0.0
            or isinstance(pll.pfd, SampleHoldPFD)
        )
        if needs_truncated:
            closed_loop_kwargs["method"] = "truncated"
            closed_loop_kwargs.setdefault("harmonics", 400)
    return ClosedLoopHTM(pll, **closed_loop_kwargs)


def effective_open_loop(pll: PLL, **closed_loop_kwargs) -> Callable[[np.ndarray], np.ndarray]:
    """The effective gain ``lambda(j omega)`` as a margin-tool-ready callable.

    Loops the coth closed form cannot express (sample-and-hold PFD, delay,
    sampling offset) automatically fall back to the truncated sum.
    """
    return _effective_closed_loop(pll, **closed_loop_kwargs).effective_gain_response


def compare_margins(
    pll: PLL,
    omega_min_factor: float = 1e-3,
    omega_max_factor: float | None = None,
    points: int = 4000,
    grid: FrequencyGrid | None = None,
    **closed_loop_kwargs,
) -> EffectiveMargins:
    """Measure LTI and effective margins of one loop design.

    The one-row case of :func:`compare_margins_batch`, raising the
    exception that batch would carry in the design's slot.
    """
    outcome = compare_margins_batch(
        [pll],
        omega_min_factor,
        omega_max_factor,
        points,
        grid=grid,
        **closed_loop_kwargs,
    )[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _scan_window(
    pll: PLL,
    omega_min_factor: float,
    omega_max_factor: float | None,
    grid: FrequencyGrid | None,
) -> tuple[float, float]:
    if grid is not None:
        w_lo, w_hi = float(grid.omega[0]), float(grid.omega[-1])
        if not 0 < w_lo < w_hi:
            raise ValidationError("margin scan grid must be positive and increasing")
        return w_lo, w_hi
    if omega_max_factor is None:
        omega_max_factor = 0.499
    if not 0 < omega_min_factor < omega_max_factor:
        raise ValidationError("need 0 < omega_min_factor < omega_max_factor")
    return omega_min_factor * pll.omega0, omega_max_factor * pll.omega0


def compare_margins_batch(
    plls: Sequence[PLL],
    omega_min_factor: float = 1e-3,
    omega_max_factor: float | None = None,
    points: int = 4000,
    grid: FrequencyGrid | None = None,
    **closed_loop_kwargs,
) -> list[EffectiveMargins | Exception]:
    """LTI and effective margins of many loop designs, one slot per design.

    The scan range is expressed relative to each design's reference
    frequency: from ``omega_min_factor * w0`` up to ``omega_max_factor *
    w0`` (default just below the ``w0/2`` alias symmetry point, beyond
    which lambda repeats).  Passing a :class:`~repro.core.grid.FrequencyGrid`
    instead pins the scan to that grid's bounds and point count.

    Each design's ``A(j omega)`` and ``lambda(j omega)`` are evaluated once
    on the log scan grid.  Designs sharing a scan window are stacked into
    :class:`~repro.lti.bode.ResponseStack` rows: the last unity crossing of
    every row is refined together (Newton steps on the exact derivative of
    the closed-form ``lambda``, secant steps otherwise), and each phase
    margin is unwrapped from the same scan samples.  A row's refinement
    never depends on the other rows, so every slot is bitwise the
    :func:`compare_margins` result for that design.

    One failing design never poisons the batch: its slot carries the
    exception (``ConvergenceError``, ``ValidationError``, ...) that
    :func:`compare_margins` raises for it, and the other slots complete.
    """
    if grid is not None:
        points = len(grid)
    windows = [_scan_window(pll, omega_min_factor, omega_max_factor, grid) for pll in plls]

    from repro.pll.openloop import open_loop_callable

    results: list[EffectiveMargins | Exception] = [None] * len(plls)  # type: ignore[list-item]
    # Rows stack by scan window, and by whether lambda has an exact derivative.
    groups: dict[tuple[float, float, bool], list[tuple[int, Callable, ClosedLoopHTM]]] = {}
    for i, pll in enumerate(plls):
        try:
            # The exact callable covers irrational loop elements (ZOH hold,
            # delay) that the rational A(s) cannot represent.
            a_fn = open_loop_callable(pll)

            def a(omega, _fn=a_fn):
                return np.asarray(_fn(1j * np.asarray(omega, dtype=float)), dtype=complex)

            closed = _effective_closed_loop(pll, **closed_loop_kwargs)
        except Exception as exc:  # captured per slot
            results[i] = exc
            continue
        key = (*windows[i], closed.method == "closed")
        groups.setdefault(key, []).append((i, a, closed))

    for (w_lo, w_hi, exact), members in groups.items():
        scan = _log_grid(w_lo, w_hi, points)
        live, rows_a, rows_lam, samples_a, samples_lam = [], [], [], [], []
        for i, a, closed in members:
            try:
                sample_a = np.asarray(a(scan), dtype=complex)
                sample_lam = np.asarray(closed.effective_gain_response(scan), dtype=complex)
            except Exception as exc:
                results[i] = exc
                continue
            live.append((i, closed))
            rows_a.append(a)
            rows_lam.append(closed.effective_gain_response)
            samples_a.append(sample_a)
            samples_lam.append(sample_lam)
        if not live:
            continue
        derivatives = None
        if exact:
            derivatives = [
                lambda omega, _c=closed: _c.effective_gain_derivative(1j * omega)
                for _, closed in live
            ]
        stack_a = ResponseStack(rows_a, grid=scan, samples=np.array(samples_a))
        stack_lam = ResponseStack(
            rows_lam, derivatives, grid=scan, samples=np.array(samples_lam)
        )
        w_lti = gain_crossover(stack_a, w_lo, w_hi, points)
        pm_lti = phase_margin(stack_a, w_lo, w_hi, points, w_ug=w_lti)
        w_eff = gain_crossover(stack_lam, w_lo, w_hi, points)
        pm_eff = phase_margin(stack_lam, w_lo, w_hi, points, w_ug=w_eff)
        for row, (i, _) in enumerate(live):
            values = (w_lti[row], pm_lti[row], w_eff[row], pm_eff[row])
            failure = next((v for v in values if isinstance(v, Exception)), None)
            results[i] = failure if failure is not None else EffectiveMargins(*values)
    return results


def margin_sweep(
    ratios: Sequence[float] | np.ndarray,
    designer: Callable[[float], PLL],
    points: int = 3000,
    **closed_loop_kwargs,
) -> list[EffectiveMargins]:
    """Sweep ``w_UG / w0`` and collect margins — the Fig. 7 data series.

    Parameters
    ----------
    ratios:
        Target ``w_UG / w0`` values (each must lie in (0, 0.5)).
    designer:
        Callable mapping a ratio to a :class:`PLL` (typically
        :func:`repro.pll.design.design_typical_loop` with everything else
        fixed).

    All designs go through one :func:`compare_margins_batch` call; the
    first failing design's exception is raised.
    """
    plls = []
    for ratio in np.asarray(ratios, dtype=float):
        if not 0.0 < ratio < 0.5:
            raise ValidationError(
                f"w_UG/w0 ratio must lie in (0, 0.5) below the alias fold, got {ratio}"
            )
        plls.append(designer(float(ratio)))
    out = compare_margins_batch(plls, points=points, **closed_loop_kwargs)
    for outcome in out:
        if isinstance(outcome, Exception):
            raise outcome
    return out
