"""Optimized intensity-difference detection.

The measurement subtracts the conjugate photocurrent, scaled by an
electronic attenuation factor g, from the probe photocurrent. Losses enter
through per-beam power transmissions; the attenuation can be chosen to
minimize the difference noise, which saturates the quantum Cramer-Rao bound
for transmission estimation. The shot-noise level is defined by coherent
states of the same optical power measured with the same g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ConsistencyError,
    UndefinedMomentsError,
    UndefinedSNLError,
    ValidationError,
)
from .optics import LossChannel
from .source import TwinBeamMoments

__all__ = [
    "NoiseReport",
    "attenuation_db",
    "difference_noise",
    "optimal_gain",
    "probe_transmission_for_ratio",
    "min_difference_noise",
    "covariance_from_noise",
    "snl_noise",
    "squeezing_report",
]


def attenuation_db(g: float) -> float:
    """Electronic attenuation 20 log10(1/g) in dB for a photocurrent
    amplitude factor g < 1."""
    if g <= 0:
        return math.inf
    return 20.0 * math.log10(1.0 / g)


def _probe_term(m: TwinBeamMoments, ch: LossChannel) -> float:
    return ch.eta_p**2 * (m.var_p - m.mean_p) + ch.eta_p * m.mean_p


def _conjugate_term(m: TwinBeamMoments, ch: LossChannel) -> float:
    return ch.eta_c**2 * (m.var_c - m.mean_c) + ch.eta_c * m.mean_c


def probe_transmission_for_ratio(
    m: TwinBeamMoments, eta_c: float, ratio: float
) -> float:
    """Probe transmission at which the optimal-gain noise/SNL ratio is ``ratio``.

    At the optimal g the ratio is ``(a eta + mean_p) / (b eta + mean_p)``
    with ``a = var_p - mean_p - eta_c^2 cov^2 / C``,
    ``b = eta_c^3 cov^2 mean_c / C^2`` and ``C`` the conjugate term. It is
    linear-fractional in the probe transmission eta, so it inverts exactly.
    A negative covariance pins the optimal g at 0, as no covariance does.
    Returns inf where no eta gives ``ratio``; a root outside [0, 1] is no
    transmission either, which the caller checks.
    """
    conj = _conjugate_term(m, LossChannel(0.0, eta_c))
    if conj <= 0.0:
        raise UndefinedMomentsError(
            "conjugate arm carries no noise; optimal attenuation is undefined"
        )
    cov2 = max(m.cov, 0.0) ** 2
    a = m.var_p - m.mean_p - eta_c**2 * cov2 / conj
    # mean_c / C first: cov^2 mean_c grows as the seed flux cubed and
    # overflows for a bright seed, while no product here outgrows the
    # cov^2 that ``a`` forms too.
    b = eta_c**3 * cov2 * (m.mean_c / conj) / conj
    den = a - ratio * b
    return float(m.mean_p * (ratio - 1.0) / den) if den else math.inf


def difference_noise(m: TwinBeamMoments, ch: LossChannel, g: float) -> float:
    """Variance of the attenuated intensity-difference photocurrent."""
    if g < 0:
        raise ValidationError("attenuation factor must be >= 0")
    var = (
        _probe_term(m, ch)
        + g * g * _conjugate_term(m, ch)
        - 2.0 * g * ch.eta_p * ch.eta_c * m.cov
    )
    if var < -1e-9 * max(m.var_p, m.var_c, 1.0):
        raise ConsistencyError(
            f"negative difference variance {var}; upstream moments are unphysical"
        )
    return max(var, 0.0)


def optimal_gain(m: TwinBeamMoments, ch: LossChannel) -> float:
    """Attenuation factor minimizing the difference noise."""
    denom = _conjugate_term(m, ch)
    if denom <= 0.0:
        raise UndefinedMomentsError(
            "conjugate arm carries no noise; optimal attenuation is undefined"
        )
    return max(ch.eta_p * ch.eta_c * m.cov / denom, 0.0)


def min_difference_noise(m: TwinBeamMoments, ch: LossChannel) -> float:
    """Difference noise at the optimal attenuation (closed form)."""
    denom = _conjugate_term(m, ch)
    if denom <= 0.0:
        raise UndefinedMomentsError(
            "conjugate arm carries no noise; optimal attenuation is undefined"
        )
    cross = ch.eta_p * ch.eta_c * m.cov
    if m.cov < 0:
        # g is constrained to be non-negative; a negative covariance pins
        # the optimum at g = 0.
        return _probe_term(m, ch)
    return _probe_term(m, ch) - cross * cross / denom


def covariance_from_noise(var_p: float, var_c: float, var_diff: float) -> float:
    """Covariance recovered from a balanced (g = 1, lossless) measurement."""
    return 0.5 * (var_p + var_c - var_diff)


def snl_noise(mean_p: float, mean_c: float, ch: LossChannel, g: float) -> float:
    """Shot-noise level: coherent states of the given pre-loss means,
    measured with the attenuation obtained from the twin-beam optimization.
    """
    if mean_p < 0 or mean_c < 0:
        raise ValidationError("mean intensities must be >= 0")
    snl = ch.eta_p * mean_p + g * g * ch.eta_c * mean_c
    if snl <= 0.0:
        raise UndefinedSNLError("zero detected power has no shot-noise level")
    return snl


@dataclass(frozen=True)
class NoiseReport:
    """Difference noise against its shot-noise reference."""

    diff_variance: float
    snl: float
    ratio_linear: float
    ratio_db: float
    gain: float
    gain_db: float


def squeezing_report(m: TwinBeamMoments, ch: LossChannel) -> NoiseReport:
    """Noise budget of the intensity-difference measurement at the optimal
    attenuation g. The shot-noise reference uses coherent beams with the
    twin beams' mean powers and the same g.
    """
    g = optimal_gain(m, ch)
    diff = difference_noise(m, ch, g)
    snl = snl_noise(m.mean_p, m.mean_c, ch, g)
    ratio = diff / snl
    return NoiseReport(
        diff_variance=diff,
        snl=snl,
        ratio_linear=ratio,
        ratio_db=10.0 * math.log10(ratio) if ratio > 0 else -math.inf,
        gain=g,
        gain_db=attenuation_db(g),
    )
