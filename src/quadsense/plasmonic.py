"""Plasmonic sensor response: a parametric transmission resonance per
sensor, and the signal power that a sinusoidal local refractive-index
modulation puts on the probing beam.

The signal law :func:`modulation_signal` scales each sensor to its
threshold target, so no resonance value reaches it; the resonance
functions serve ``resonance-scan`` and the chain's transduction gate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError, validated

__all__ = [
    "DLAMBDA_DN",
    "EOTResonance",
    "linewidth_evaluable",
    "detuning_evaluable",
    "transmission_at",
    "transduction_slope",
    "modulation_signal",
]


def linewidth_evaluable(linewidth: float) -> bool:
    """Whether a Lorentzian of this FWHM (nm) can be evaluated on resonance.

    There :func:`transduction_slope` divides by ``(linewidth / 2)**4``, which
    must be a finite, non-zero float. Wider, ``half * half`` overflows and
    the transmission is ``inf / inf``; narrower, the slope divides by zero.
    """
    half = 0.5 * linewidth
    q = half * half
    return 0.0 < q * q < math.inf


# Resonance shift (nm) per refractive-index unit, representative of
# nanohole arrays. It only scales the transduction slope, of which the
# transduction gate reads whether it is zero, so no artifact depends on it.
DLAMBDA_DN = 300.0


@validated
class EOTResonance(NamedTuple):
    """Lorentzian transmission resonance of one nanohole-array sensor; of
    the calibrated chain, only the transduction gate reads it."""

    lambda0: float
    linewidth: float
    t_max: float

    def __post_init__(self):
        if self.linewidth <= 0:
            raise ValidationError("linewidth must be > 0")
        if not linewidth_evaluable(self.linewidth):
            raise ValidationError(
                f"linewidth {self.linewidth:g} nm is outside the range where "
                f"its Lorentzian can be evaluated"
            )
        if not 0.0 <= self.t_max <= 1.0:
            raise ValidationError("peak transmission must be in [0, 1]")


def _detuning_overflow(r: EOTResonance, wavelength: float) -> ValidationError:
    return ValidationError(
        f"wavelength {wavelength:g} nm is too far from the resonance at "
        f"{r.lambda0:g} nm to evaluate"
    )


def transmission_at(r: EOTResonance, wavelength: float) -> float:
    """Lorentzian transmission at the given wavelength (nm); the chain's
    transduction gate needs it > 0."""
    half = 0.5 * r.linewidth
    try:
        return r.t_max * half * half / ((wavelength - r.lambda0) ** 2 + half * half)
    except OverflowError:
        raise _detuning_overflow(r, wavelength) from None


def transduction_slope(r: EOTResonance, wavelength: float) -> float:
    """dT/dn at the operating wavelength, via dT/dlambda * dlambda0/dn.

    A resonance shift by +dlambda0 moves the whole curve, so
    dT/dn = -dT/dlambda * dlambda0/dn with the sign set by the side of the
    resonance the operating point sits on. The chain's transduction gate
    needs it non-zero.
    """
    half = 0.5 * r.linewidth
    delta = wavelength - r.lambda0
    try:
        dt_dlambda = -2.0 * r.t_max * half * half * delta / (delta**2 + half * half) ** 2
    except OverflowError:
        raise _detuning_overflow(r, wavelength) from None
    return -dt_dlambda * DLAMBDA_DN


def detuning_evaluable(r: EOTResonance, wavelength: float) -> bool:
    """Whether :func:`transmission_at` and :func:`transduction_slope` of
    ``r`` are finite floats at ``wavelength`` (nm)."""
    try:
        values = (transmission_at(r, wavelength), transduction_slope(r, wavelength))
    except ValidationError:
        return False
    return all(math.isfinite(v) for v in values)


def modulation_signal(floor: float, drive_voltage: float, threshold: float) -> float:
    """Mean-square signal power of one sensor at a drive voltage (mV).

    The index swing, and with it the intensity swing, is proportional to
    the drive voltage, so the power is quadratic in it. The drive
    coefficient puts the twin-beam SNR, sqrt(power / floor), at 1 on the
    threshold voltage, so the power is ``floor * (V / threshold)**2`` in
    the units of the modulation-off difference-noise variance ``floor``;
    the probe mean, the transmission and its slope cancel.
    """
    # A zero threshold divides by zero; it gets the error a tiny one gets.
    ratio = float(drive_voltage) / threshold if threshold else math.nan
    power = floor * (ratio * ratio)
    if not math.isfinite(power):
        raise ValidationError(
            f"modulation signal at {drive_voltage:g} mV is not finite: its "
            f"threshold {threshold:g} mV in calibration.threshold_targets_mv "
            f"is too small"
        )
    return power
