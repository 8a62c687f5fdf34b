"""Bode-domain analysis: crossover frequencies, phase/gain margins, peaking.

All routines work on a *frequency response*, i.e. any object that can be
evaluated on the imaginary axis.  Accepted forms:

* :class:`~repro.lti.transfer.TransferFunction` /
  :class:`~repro.lti.rational.RationalFunction` (rational systems), or
* any callable ``f(omega_array) -> complex array`` — which is how the
  *non-rational* effective open-loop gain ``lambda(j omega)`` of the paper
  (an infinite aliasing sum) is analysed with exactly the same tooling.

That last point is the paper's selling pitch: "being a frequency-domain
description, it allows us to recover powerful tools and concepts from the
theory of LTI systems, like transfer functions and phase margin, for
analyzing PLL time-varying behavior" (sec. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro._errors import ConvergenceError, ValidationError

ResponseLike = Callable[[np.ndarray], np.ndarray]


def as_response(system) -> ResponseLike:
    """Normalise a system object into a vectorized ``omega -> H(j omega)`` callable."""
    if hasattr(system, "eval_jomega"):
        return system.eval_jomega
    if hasattr(system, "frequency_response"):
        return system.frequency_response
    if callable(system):
        return lambda omega: np.asarray(system(np.asarray(omega, dtype=float)), dtype=complex)
    raise ValidationError(f"cannot interpret {type(system).__name__} as a frequency response")


@dataclass(frozen=True)
class BodePoint:
    """One point of a Bode characteristic."""

    omega: float
    magnitude_db: float
    phase_deg: float


@dataclass(frozen=True)
class MarginReport:
    """Stability margins of an open-loop frequency response.

    Attributes
    ----------
    gain_crossover_omega:
        Unity-gain frequency ``omega_UG`` (rad/s), ``nan`` if none found.
    phase_margin_deg:
        ``180 + arg H(j omega_UG)`` in degrees, ``nan`` if no crossover.
    phase_crossover_omega:
        Frequency where the phase crosses -180 degrees, ``nan`` if none.
    gain_margin_db:
        ``-20 log10 |H|`` at the phase crossover, ``nan`` if none.
    """

    gain_crossover_omega: float
    phase_margin_deg: float
    phase_crossover_omega: float
    gain_margin_db: float


def bode_points(system, omega: Sequence[float] | np.ndarray) -> list[BodePoint]:
    """Sample a system into :class:`BodePoint` records with unwrapped phase."""
    omega_arr = np.asarray(omega, dtype=float)
    response = as_response(system)(omega_arr)
    mags = 20.0 * np.log10(np.abs(response))
    phases = np.degrees(np.unwrap(np.angle(response)))
    return [BodePoint(float(w), float(m), float(p)) for w, m, p in zip(omega_arr, mags, phases)]


def _log_grid(omega_min: float, omega_max: float, points: int) -> np.ndarray:
    """The read-only log scan grid; the margin path asks for one grid
    several times per design, so recent grids are kept."""
    if omega_min <= 0 or omega_max <= omega_min:
        raise ValidationError(
            f"need 0 < omega_min < omega_max, got [{omega_min}, {omega_max}]"
        )
    return _cached_log_grid(float(omega_min), float(omega_max), int(points))


@lru_cache(maxsize=32)
def _cached_log_grid(omega_min: float, omega_max: float, points: int) -> np.ndarray:
    grid = np.logspace(math.log10(omega_min), math.log10(omega_max), points)
    grid.flags.writeable = False
    return grid


#: A refinement step below ``_XTOL + _RTOL * |x|`` (in log-frequency) ends a row.
_XTOL = 1e-13
_RTOL = 4.0 * np.finfo(float).eps
_MAX_STEPS = 100


def _refine(evaluate, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Roots of ``K`` scalar functions at once, one per sign-changing bracket.

    ``evaluate(x, rows)`` returns ``(f, slope)`` of the listed rows at ``x``;
    ``slope`` is ``None`` when no derivative is known, and the rows then take
    secant steps instead of Newton steps.  The first step is the secant
    through the bracket ends, a step that leaves the shrinking bracket is
    replaced by bisection, and a row stops once its step is within
    tolerance (or it hits an exact zero).  A stopped row is never evaluated
    again, and every operation is elementwise, so a row's root depends only
    on its own function, never on the other rows.  Rows that meet a
    non-finite value or do not converge come back as NaN.
    """
    roots = np.full(lo.size, np.nan)
    at_lo = f_lo == 0
    at_hi = f_hi == 0
    roots[at_hi] = hi[at_hi]
    roots[at_lo] = lo[at_lo]
    rows = np.nonzero(~(at_lo | at_hi))[0]
    a, b, fa, fb = lo[rows], hi[rows], f_lo[rows], f_hi[rows]
    with np.errstate(all="ignore"):
        x = a - fa * (b - a) / (fb - fa)
    # A comparison with NaN is false, so a non-finite step also bisects.
    x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
    nearer_a = np.abs(fa) < np.abs(fb)
    x_prev, f_prev = np.where(nearer_a, a, b), np.where(nearer_a, fa, fb)
    for _ in range(_MAX_STEPS):
        if rows.size == 0:
            break
        f, slope = evaluate(x, rows)
        left = np.sign(f) == np.sign(fa)
        a, fa = np.where(left, x, a), np.where(left, f, fa)
        b, fb = np.where(left, b, x), np.where(left, fb, f)
        with np.errstate(all="ignore"):
            new = x - (f / slope if slope is not None else f * (x - x_prev) / (f - f_prev))
        new = np.where((new > a) & (new < b), new, 0.5 * (a + b))
        tol = _XTOL + _RTOL * np.abs(x)
        bad = ~np.isfinite(f)
        stop = bad | (f == 0) | (np.abs(new - x) <= tol) | (b - a <= tol)
        found = np.where(bad, np.nan, np.where(f == 0, x, new))
        if stop.all():
            roots[rows] = found
            break
        roots[rows[stop]] = found[stop]
        keep = ~stop
        x_prev, f_prev, x = x[keep], f[keep], new[keep]
        a, b, fa, fb, rows = a[keep], b[keep], fa[keep], fb[keep], rows[keep]
    return roots


def _refine_crossing(
    func: Callable[[float], float], w_lo: float, w_hi: float
) -> float:
    """Refine one sign change of ``func`` between two frequencies (log-spaced)."""

    def evaluate(x: np.ndarray, _rows: np.ndarray):
        return np.array([func(math.exp(x[0]))]), None

    lo, hi = math.log(w_lo), math.log(w_hi)
    root = _refine(
        evaluate, np.array([lo]), np.array([hi]), np.array([func(w_lo)]), np.array([func(w_hi)])
    )[0]
    if not math.isfinite(root):
        raise ConvergenceError(f"crossing refinement failed on [{w_lo}, {w_hi}]")
    return math.exp(root)


class ResponseStack:
    """``K`` frequency responses scanned and refined together, one per row.

    ``rows[k]`` evaluates row ``k`` on a frequency array (``omega ->
    H(j omega)``).  ``derivatives``, when given, holds every row's ``dH/ds``
    at ``s = j omega`` in the same form; the crossover refinement then
    takes Newton steps instead of secant steps.  :meth:`scan` keeps the
    samples of the last grid (``grid``/``samples`` may seed them), so
    :func:`gain_crossover` and :func:`phase_margin` on one stack evaluate
    the grid once.
    """

    def __init__(
        self,
        rows: Sequence[ResponseLike],
        derivatives: Sequence[ResponseLike] | None = None,
        grid: np.ndarray | None = None,
        samples: np.ndarray | None = None,
    ):
        self.rows = list(rows)
        self.derivatives = None if derivatives is None else list(derivatives)
        self._grid = grid
        self._samples = samples

    def scan(self, grid: np.ndarray) -> np.ndarray:
        """``(K, N)`` samples of every row on ``grid``."""
        if self._grid is not grid and (self._grid is None or not np.array_equal(self._grid, grid)):
            self._samples = np.array([np.asarray(r(grid), dtype=complex) for r in self.rows])
            self._grid = grid
        return self._samples

    def __call__(self, omega: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row ``rows[i]`` at ``omega[i]``, for every ``i``."""
        return _pointwise(self.rows, omega, rows)

    def derivative(self, omega: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
        """``dH/ds`` of row ``rows[i]`` at ``j omega[i]``; ``None`` when unknown."""
        if self.derivatives is None:
            return None
        return _pointwise(self.derivatives, omega, rows)


def _pointwise(fns: list[ResponseLike], omega: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.array(
        [complex(fns[r](omega[i : i + 1])[0]) for i, r in enumerate(rows)], dtype=complex
    )


def _log_magnitude(mags: np.ndarray) -> np.ndarray:
    return np.log(np.where(mags > 0, mags, np.finfo(float).tiny))


def _crossovers(
    stack: ResponseStack,
    grid: np.ndarray,
    mags: np.ndarray,
    omega_min: float,
    omega_max: float,
    which: str,
) -> list[float | ConvergenceError]:
    """Per-row unity crossings of a ``(K, N)`` magnitude stack, refined together."""
    # sign(log |H|) is sign(|H| - 1); the log is taken only at the brackets.
    change = np.diff(np.sign(mags - 1.0), axis=1) != 0
    if which == "last":
        pick = change.shape[1] - 1 - np.argmax(change[:, ::-1], axis=1)
    else:
        pick = np.argmax(change, axis=1)
    crosses = change.any(axis=1)
    out: list[float | ConvergenceError] = [
        ConvergenceError(
            f"|H| never crosses unity on [{omega_min}, {omega_max}] "
            f"(range [{mags[k].min():.3g}, {mags[k].max():.3g}])"
        )
        if not crosses[k]
        else None
        for k in range(mags.shape[0])
    ]
    live = np.nonzero(crosses)[0]
    if live.size == 0:
        return out
    pick = pick[live]

    def evaluate(x: np.ndarray, idx: np.ndarray):
        omega = np.exp(x)
        rows = live[idx]
        value = stack(omega, rows)
        f = _log_magnitude(np.abs(value))
        dvalue = stack.derivative(omega, rows)
        if dvalue is None:
            return f, None
        # d/du log|H(j e^u)| = Re(j omega H'(j omega) / H(j omega))
        with np.errstate(all="ignore"):
            return f, np.real(1j * omega * dvalue / value)

    roots = _refine(
        evaluate,
        np.log(grid[pick]),
        np.log(grid[pick + 1]),
        _log_magnitude(mags[live, pick]),
        _log_magnitude(mags[live, pick + 1]),
    )
    for k, root in zip(live, roots):
        out[k] = (
            float(math.exp(root))
            if math.isfinite(root)
            else ConvergenceError(
                f"unity-crossing refinement failed on [{omega_min}, {omega_max}]"
            )
        )
    return out


def crossover_from_samples(
    response,
    grid: np.ndarray,
    mags: np.ndarray,
    omega_min: float,
    omega_max: float,
    which: str = "last",
) -> float | list[float | ConvergenceError]:
    """Unity-gain crossover given precomputed ``|H|`` samples on ``grid``.

    This is the scan+refine core of :func:`gain_crossover`, split out so
    callers that already evaluated the response on the grid reuse the
    samples.  The bracket is the ``which`` (``'last'`` or ``'first'``) sign
    change of ``log |H|``; the refinement is a bracketed secant iteration,
    or Newton when the response knows its derivative.

    ``mags`` of shape ``(N,)`` takes a vectorized ``response`` and returns
    the crossover, raising :class:`ConvergenceError` when there is none.
    ``mags`` of shape ``(K, N)`` takes a :class:`ResponseStack` and
    returns one entry per row — the crossover, or the
    :class:`ConvergenceError` the one-row call would raise — with all rows
    refined together.
    """
    if np.ndim(mags) == 2:
        return _crossovers(response, grid, np.asarray(mags), omega_min, omega_max, which)
    out = _crossovers(
        ResponseStack([response]), grid, np.asarray(mags)[None, :], omega_min, omega_max, which
    )[0]
    if isinstance(out, ConvergenceError):
        raise out
    return out


def gain_crossover(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
    which: str = "last",
) -> float | list[float | ConvergenceError]:
    """Frequency where ``|H(j omega)|`` crosses unity.

    Scans a logarithmic grid, then refines the bracketing interval (see
    :func:`crossover_from_samples`).  ``which`` selects ``'first'`` or
    ``'last'`` crossing (``'last'`` is the conservative choice for margin
    analysis of gain characteristics with ripple, such as the aliased
    ``lambda``).  A :class:`ResponseStack` gives one entry per row, a
    crossover or a :class:`ConvergenceError`.

    Raises
    ------
    ConvergenceError
        If the magnitude never crosses unity on the scanned range.
    """
    grid = _log_grid(omega_min, omega_max, points)
    if isinstance(system, ResponseStack):
        mags = np.abs(system.scan(grid))
        return crossover_from_samples(system, grid, mags, omega_min, omega_max, which)
    response = as_response(system)
    mags = np.abs(response(grid))
    return crossover_from_samples(response, grid, mags, omega_min, omega_max, which)


def phase_at(system, omega: float) -> float:
    """Phase of ``H(j omega)`` in degrees, principal value in (-180, 180]."""
    value = as_response(system)(np.array([float(omega)]))[0]
    return math.degrees(math.atan2(value.imag, value.real))


def phase_margin(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
    w_ug: float | Sequence[float | Exception] | None = None,
) -> float | list[float | Exception]:
    """Phase margin in degrees: ``180 + arg H(j omega_UG)``.

    The phase is unwrapped along the scan grid up to the bracket of the
    gain crossover, then the principal-value phase at ``omega_UG`` is
    added, so loops whose phase dips below -180 degrees (the fast-PLL
    failure mode the paper quantifies) report a *negative* margin instead
    of a wrapped-around positive one.

    A caller that already knows the gain crossover (from
    :func:`gain_crossover` on the same response and range) passes it as
    ``w_ug``; it must lie in the scanned range.  A :class:`ResponseStack`
    reuses its scan and gives one entry per row, where ``w_ug`` is the
    per-row list :func:`gain_crossover` returned (a row's error passes
    through).
    """
    grid = _log_grid(omega_min, omega_max, points)
    stacked = isinstance(system, ResponseStack)
    stack = system if stacked else ResponseStack([as_response(system)])
    if w_ug is None:
        w_ug = gain_crossover(stack, omega_min, omega_max, points)
    elif not stacked:
        w_ug = [w_ug]
    samples = stack.scan(grid)
    out: list = list(w_ug)
    live = [k for k, w in enumerate(w_ug) if not isinstance(w, Exception)]
    if live:
        omega = np.array([w_ug[k] for k in live], dtype=float)
        # A crossover refined onto a grid end may sit an ulp outside it.
        if np.any(omega < grid[0] * (1 - 1e-12)) or np.any(omega > grid[-1] * (1 + 1e-12)):
            raise ValidationError(
                f"w_ug must lie in the scanned range [{omega_min}, {omega_max}]"
            )
        theta = np.angle(stack(omega, np.array(live)))
        picks = np.clip(np.searchsorted(grid, omega, side="right") - 1, 0, grid.size - 1)
        for k, pick, th in zip(live, picks, theta):
            phase = _unwrapped_end(np.append(np.angle(samples[k, : pick + 1]), th))
            out[k] = 180.0 + math.degrees(phase)
    if stacked:
        return out
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


def _unwrapped_end(phases: np.ndarray) -> float:
    """``np.unwrap(phases)[-1]``, correcting only at the jumps of at least pi.

    The same corrections, summed in the same order, as :func:`np.unwrap`;
    the steps in between contribute exact zeros there.
    """
    steps = np.diff(phases)
    jumps = steps[np.abs(steps) >= math.pi]
    wrapped = np.mod(jumps + math.pi, 2 * math.pi) - math.pi
    wrapped[(wrapped == -math.pi) & (jumps > 0)] = math.pi
    total = 0.0
    for correction in wrapped - jumps:
        total += correction
    return float(phases[-1] + total)


def phase_crossover(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
) -> float:
    """Frequency where the unwrapped phase crosses -180 degrees.

    Raises :class:`ConvergenceError` when the phase never reaches -180 on the
    scanned range (infinite gain margin).
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    phases = np.unwrap(np.angle(response(grid))) + math.pi
    signs = np.sign(phases)
    idx = np.nonzero(np.diff(signs) != 0)[0]
    if idx.size == 0:
        raise ConvergenceError(f"phase never crosses -180 deg on [{omega_min}, {omega_max}]")
    w_lo, w_hi = grid[idx[0]], grid[idx[0] + 1]
    base = phases[idx[0]] - math.pi

    def objective(w: float) -> float:
        value = response(np.array([w]))[0]
        # Local principal-value phase relative to the bracketing sample keeps
        # the unwrap consistent inside the narrow refinement interval.
        raw = math.atan2(value.imag, value.real)
        while raw - base > math.pi:
            raw -= 2 * math.pi
        while raw - base < -math.pi:
            raw += 2 * math.pi
        return raw + math.pi

    return _refine_crossing(objective, w_lo, w_hi)


def gain_margin(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
) -> float:
    """Gain margin in dB at the -180 degree phase crossover."""
    w_pc = phase_crossover(system, omega_min, omega_max, points)
    mag = abs(as_response(system)(np.array([w_pc]))[0])
    return -20.0 * math.log10(mag)


def stability_margins(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
) -> MarginReport:
    """Compute all classical margins in one report; missing ones become NaN."""
    try:
        w_ug = gain_crossover(system, omega_min, omega_max, points)
        pm = phase_margin(system, omega_min, omega_max, points, w_ug=w_ug)
    except ConvergenceError:
        w_ug, pm = math.nan, math.nan
    try:
        w_pc = phase_crossover(system, omega_min, omega_max, points)
        gm = gain_margin(system, omega_min, omega_max, points)
    except ConvergenceError:
        w_pc, gm = math.nan, math.nan
    return MarginReport(
        gain_crossover_omega=w_ug,
        phase_margin_deg=pm,
        phase_crossover_omega=w_pc,
        gain_margin_db=gm,
    )


def bandwidth_3db(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
    reference: str = "dc",
) -> float:
    """-3 dB bandwidth of a (closed-loop) lowpass response.

    ``reference='dc'`` measures relative to the response at the lowest
    scanned frequency; ``reference='unity'`` measures relative to 1.  The
    *last* downward crossing is returned so in-band peaking (the Fig. 6
    behaviour) does not truncate the bandwidth estimate.
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    mags = np.abs(response(grid))
    if reference == "dc":
        ref = mags[0]
    elif reference == "unity":
        ref = 1.0
    else:
        raise ValidationError(f"reference must be 'dc' or 'unity', got {reference!r}")
    threshold = ref / math.sqrt(2.0)
    above = mags >= threshold
    if not above[0]:
        raise ConvergenceError("response is already below -3 dB at omega_min")
    crossings = np.nonzero(above[:-1] & ~above[1:])[0]
    if crossings.size == 0:
        raise ConvergenceError("response never falls 3 dB below the reference on the scanned range")
    pick = crossings[-1]

    def objective(w: float) -> float:
        return float(abs(response(np.array([w]))[0]) - threshold)

    return _refine_crossing(objective, grid[pick], grid[pick + 1])


def modulus_margin(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 4000,
) -> float:
    """Modulus (disk) margin: ``min over omega of |1 + L(j omega)|``.

    The distance of the Nyquist curve from the critical point — a single
    number bounding gain and phase margins simultaneously
    (``GM >= 1/(1-m)``, ``PM >= 2 asin(m/2)``).  For the sampled loop this
    is evaluated directly on the effective gain ``lambda``, whose
    periodicity makes the scan over one alias band ``[~0, w0/2]``
    sufficient.
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    distances = np.abs(1.0 + response(grid))
    idx = int(np.argmin(distances))
    # Golden-section style refinement around the coarse minimum.
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, grid.size - 1)]
    fine = np.linspace(lo, hi, 200)
    return float(np.min(np.abs(1.0 + response(fine))))


def delay_margin(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 2000,
) -> float:
    """Delay margin: extra loop delay that exhausts the phase margin.

    ``tau = PM_radians / omega_UG``; raises ConvergenceError when no gain
    crossover exists on the scanned range.
    """
    w_ug = gain_crossover(system, omega_min, omega_max, points)
    pm_deg = phase_margin(system, omega_min, omega_max, points, w_ug=w_ug)
    return math.radians(pm_deg) / w_ug


def peaking_db(
    system,
    omega_min: float = 1e-3,
    omega_max: float = 1e3,
    points: int = 4000,
) -> float:
    """Peak magnitude above the DC value, in dB (0 when monotonically falling).

    Quantifies the passband-edge peaking the paper observes growing with
    ``omega_UG / omega_0`` in Fig. 6.
    """
    response = as_response(system)
    grid = _log_grid(omega_min, omega_max, points)
    mags = np.abs(response(grid))
    ref = mags[0]
    if ref <= 0:
        raise ValidationError("zero response at omega_min; peaking undefined")
    return max(0.0, 20.0 * math.log10(mags.max() / ref))
