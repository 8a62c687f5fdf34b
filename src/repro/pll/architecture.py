"""The PLL architecture container (paper Fig. 1 / Fig. 3).

A :class:`PLL` bundles the sampling PFD, charge pump, loop-filter impedance,
VCO and optional loop delay, and exposes the derived transfer pieces the
analysis layers consume.  It is a description object — all heavy math lives
in :mod:`repro.pll.openloop` / :mod:`repro.pll.closedloop`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro._errors import ValidationError
from repro.blocks.chargepump import ChargePump
from repro.blocks.delay import LoopDelay
from repro.blocks.pfd import SampleHoldPFD, SamplingPFD
from repro.blocks.vco import VCO
from repro.lti.transfer import TransferFunction


@dataclass(frozen=True)
class PLL:
    """A charge-pump PLL with a sampling PFD.

    Parameters
    ----------
    pfd:
        The sampling phase-frequency detector (impulse-train
        :class:`SamplingPFD` or zero-order-hold :class:`SampleHoldPFD`);
        fixes the reference frequency ``omega0``.
    charge_pump:
        Pump current model.
    filter_impedance:
        Loop-filter impedance ``Z_LF(s)`` seen by the pump (ohms).
    vco:
        Controlled-oscillator model (ISF based).
    delay:
        Optional feedback transport delay.
    """

    pfd: SamplingPFD | SampleHoldPFD
    charge_pump: ChargePump
    filter_impedance: TransferFunction
    vco: VCO
    delay: LoopDelay | None = field(default=None)

    def __post_init__(self):
        if abs(self.pfd.omega0 - self.vco.omega0) > 1e-9 * self.pfd.omega0:
            raise ValidationError(
                f"PFD reference ({self.pfd.omega0:.6g} rad/s) and VCO ISF fundamental "
                f"({self.vco.omega0:.6g} rad/s) must agree"
            )
        if self.delay is not None and abs(self.delay.omega0 - self.pfd.omega0) > 1e-9 * self.pfd.omega0:
            raise ValidationError("loop delay fundamental must match the PFD reference")

    @property
    def omega0(self) -> float:
        """Reference angular frequency (rad/s)."""
        return self.pfd.omega0

    @property
    def period(self) -> float:
        """Reference period ``T`` (seconds)."""
        return self.pfd.period

    @cached_property
    def h_lf(self) -> TransferFunction:
        """Loop-filter block transfer ``H_LF(s) = I_cp Z_LF(s)`` (eq. 21).

        Built once per design; the cache is not part of equality, hashing
        or the pickled state.
        """
        return self.charge_pump.loop_filter_transfer(self.filter_impedance)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("h_lf", None)
        return state

    @property
    def has_delay(self) -> bool:
        """True when a non-zero feedback delay is present."""
        return self.delay is not None and self.delay.tau > 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"omega0={self.omega0:.6g} rad/s",
            f"Icp={self.charge_pump.current:.6g} A",
            f"VCO {'LTI' if self.vco.is_time_invariant() else 'LPTV'} v0={self.vco.v0:.6g}",
        ]
        if self.has_delay:
            parts.append(f"delay={self.delay.tau:.3g} s")
        return "PLL(" + ", ".join(parts) + ")"
