"""SNR estimation, detection thresholds, and quantum-enhancement figures.

The signal is the noise power in excess of the modulation-off floor; the
SNR is the square root of signal over floor. The modeled signal is exactly
quadratic in drive voltage, so the SNR is linear in voltage. The analytic
SNR = 1 thresholds are then closed forms of the calibrated noise report
(:meth:`scenario.SensingChain.enhancement_report`); only a sampled curve's
threshold is fitted, as that of the least-squares line through the origin.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import FitInfeasibleError, ValidationError

__all__ = [
    "SNRCurve",
    "EnhancementReport",
    "signal_estimate",
    "slope_through_origin",
    "threshold_voltage",
]


class SNRCurve(NamedTuple):
    """SNR versus drive voltage for one quadrant pair and probe kind, as
    tuples of floats; unchecked, as the chain forms every curve over the
    scenario's one or more sweep voltages."""

    pair: tuple[int, int]
    kind: str  # "twin", "coherent", or "optimal"
    voltages: tuple
    snr: tuple
    clamped: bool = False


class EnhancementReport(NamedTuple):
    """SNR = 1 thresholds and the derived quantum enhancement."""

    pair: tuple[int, int]
    v_tb: float
    v_cs: float
    v_opt: float
    enhancement_pct: float
    extrapolated: bool


def signal_estimate(s_on: float, s_off: float) -> float:
    """Modulation signal: measured power minus the modulation-off floor."""
    if s_on < 0 or s_off < 0:
        raise ValidationError("noise powers must be >= 0")
    return s_on - s_off


def threshold_voltage(curve: SNRCurve) -> tuple[float, bool]:
    """Drive voltage at which the SNR crosses 1.

    The slope is that of the least-squares line through the origin, its
    two dot products summed in voltage order. Returns
    ``(voltage, extrapolated)`` where the flag marks a threshold beyond
    the swept range.
    """
    denom = cross = 0.0
    for v, s in zip(curve.voltages, curve.snr):
        denom += v * v
        cross += v * s
    v_th = 1.0 / slope_through_origin(denom, cross)
    extrapolated = all(s < 1.0 for s in curve.snr)
    return v_th, extrapolated


def slope_through_origin(denom: float, cross: float) -> float:
    """``cross / denom``, the slope of the least-squares line through the
    origin of an SNR curve: ``denom`` sums its squared voltages, ``cross``
    its voltage-SNR products. Raises where the line has no SNR = 1
    threshold."""
    if denom <= 0:
        raise ValidationError(
            "the squares of sweep.voltages_mv sum to 0: no swept voltage is "
            "large enough to fit a threshold"
        )
    slope = cross / denom
    if slope <= 0:
        raise FitInfeasibleError(
            "SNR does not grow with drive voltage: the swept curve has no "
            "SNR = 1 threshold"
        )
    return slope
