"""Plasmonic sensor response: a parametric transmission resonance per
sensor and the transduction of a sinusoidal local refractive-index
modulation, the sensor's drive coefficient times the drive voltage, into an
intensity modulation on the probing beam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OperatingPointError, ValidationError

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
# nanohole arrays. It only rescales the drive coefficients, which are
# solved from the threshold targets, so no artifact depends on it.
DLAMBDA_DN = 300.0


@dataclass(frozen=True)
class EOTResonance:
    """Lorentzian transmission resonance of one nanohole-array sensor."""

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
    """Lorentzian transmission at the given wavelength (nm)."""
    half = 0.5 * r.linewidth
    try:
        return r.t_max * half * half / ((wavelength - r.lambda0) ** 2 + half * half)
    except OverflowError:
        raise _detuning_overflow(r, wavelength) from None


def transduction_slope(r: EOTResonance, wavelength: float) -> float:
    """dT/dn at the operating wavelength, via dT/dlambda * dlambda0/dn.

    A resonance shift by +dlambda0 moves the whole curve, so
    dT/dn = -dT/dlambda * dlambda0/dn with the sign set by the side of the
    resonance the operating point sits on.
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


def modulation_signal(
    r: EOTResonance,
    kappa: float,
    drive_voltage,
    probe_mean: float,
    wavelength: float,
) -> float:
    """Mean-square signal power from the index modulation at one sensor.

    A sinusoidal index swing of amplitude kappa * V, the sensor's drive
    coefficient (RIU per mV) times the drive voltage, produces a relative
    transmission swing |dT/dn| * dn / T; applied to the detected probe mean
    the intensity swing amplitude is A = I_q |dT/dn| dn / T and the signal
    power is the sinusoid mean square A^2 / 2, in the same units as the
    difference-noise variances. An array of drive voltages gives the array
    of their powers, each with the bits of its own scalar evaluation.
    """
    if kappa < 0:
        raise ValidationError("drive coefficient must be >= 0")
    if probe_mean < 0:
        raise ValidationError("probe mean intensity must be >= 0")
    t = transmission_at(r, wavelength)
    if t <= 0.0:
        raise OperatingPointError(
            f"sensor at {r.lambda0:g} nm transmits no light at {wavelength} nm"
        )
    volts = np.asarray(drive_voltage, float)
    # In Python floats, which overflow to inf without a numpy warning; the
    # array arithmetic after it overflows quietly too.
    scale = float(probe_mean) * abs(transduction_slope(r, wavelength))
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = scale * (kappa * volts) / t
        power = 0.5 * amplitude * amplitude
    bad = np.flatnonzero(~np.isfinite(power))
    if bad.size:
        raise ValidationError(
            f"modulation signal at {volts.flat[bad[0]]:g} mV is not finite: its "
            f"drive coefficient {kappa:g}, solved from "
            f"calibration.threshold_targets_mv, is too large"
        )
    return power
