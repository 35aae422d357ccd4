"""Plasmonic sensor response: a parametric transmission resonance per
sensor and the transduction of a local refractive-index modulation into an
intensity modulation on the probing beam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OperatingPointError, ValidationError

__all__ = [
    "EOTResonance",
    "linewidth_evaluable",
    "IndexModulation",
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


@dataclass(frozen=True)
class EOTResonance:
    """Lorentzian transmission resonance of one nanohole-array sensor.

    ``dlambda_dn`` is the resonance shift per refractive-index unit; the
    default magnitude is representative of nanohole arrays and only rescales
    the drive-coefficient calibration.
    """

    lambda0: float
    linewidth: float
    t_max: float
    dlambda_dn: float = 300.0

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
        if not math.isfinite(self.dlambda_dn):
            raise ValidationError("index sensitivity must be finite")


@dataclass(frozen=True)
class IndexModulation:
    """Sinusoidal refractive-index drive shared by the four sensors.

    ``volts_to_index`` holds one coefficient per sensor (RIU per mV),
    encoding the acoustic standing-wave pattern in the chamber.
    """

    frequency: float
    drive_voltage: float
    volts_to_index: tuple[float, float, float, float]

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValidationError("modulation frequency must be > 0")
        if any(k < 0 for k in self.volts_to_index):
            raise ValidationError("drive coefficients must be >= 0")


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
    return -dt_dlambda * r.dlambda_dn


def modulation_signal(
    r: EOTResonance,
    mod: IndexModulation,
    sensor: int,
    probe_mean: float,
    wavelength: float,
) -> float:
    """Mean-square signal power from the index modulation at one sensor.

    A sinusoidal index swing of amplitude kappa_q * V produces a relative
    transmission swing |dT/dn| * dn / T; applied to the detected probe mean
    the intensity swing amplitude is A = I_q |dT/dn| dn / T and the signal
    power is the sinusoid mean square A^2 / 2, in the same units as the
    difference-noise variances.
    """
    if probe_mean < 0:
        raise ValidationError("probe mean intensity must be >= 0")
    if not 1 <= sensor <= 4:
        raise ValidationError("sensor index must be 1..4")
    t = transmission_at(r, wavelength)
    if t <= 0.0:
        raise OperatingPointError(
            f"sensor {sensor} transmits no light at {wavelength} nm"
        )
    dn = mod.volts_to_index[sensor - 1] * mod.drive_voltage
    amplitude = probe_mean * abs(transduction_slope(r, wavelength)) * dn / t
    return 0.5 * amplitude * amplitude
