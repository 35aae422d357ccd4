"""SNR estimation, detection thresholds, and quantum-enhancement figures.

The signal is the noise power in excess of the modulation-off floor; the
SNR is the square root of signal over floor. Because the modeled signal is
exactly quadratic in drive voltage, the analytic SNR is linear in voltage
and the SNR = 1 threshold follows from a single swept point; sampled curves
are fitted by a least-squares line through the origin instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "SNRCurve",
    "EnhancementReport",
    "signal_estimate",
    "threshold_voltage",
    "enhancement",
]


@dataclass(frozen=True)
class SNRCurve:
    """SNR versus drive voltage for one quadrant pair and probe kind."""

    pair: tuple[int, int]
    kind: str  # "twin", "coherent", or "optimal"
    voltages: np.ndarray
    snr: np.ndarray
    clamped: bool = False

    def __post_init__(self):
        if len(self.voltages) != len(self.snr):
            raise ValidationError("voltage and SNR arrays must match")
        if len(self.voltages) == 0:
            raise ValidationError("sweep requires at least one voltage")


@dataclass(frozen=True)
class EnhancementReport:
    """SNR = 1 thresholds and the derived quantum enhancement."""

    pair: tuple[int, int]
    v_tb: float
    v_cs: float
    v_opt: float
    enhancement_pct: float
    extrapolated: bool = False


def signal_estimate(s_on: float, s_off: float) -> float:
    """Modulation signal: measured power minus the modulation-off floor."""
    if s_on < 0 or s_off < 0:
        raise ValidationError("noise powers must be >= 0")
    return s_on - s_off


def threshold_voltage(curve: SNRCurve, fit: bool = False) -> tuple[float, bool]:
    """Drive voltage at which the SNR crosses 1.

    For analytic curves the SNR is exactly linear in voltage, so the
    highest swept point fixes the slope. For sampled curves (``fit=True``)
    a least-squares line through the origin is used. Returns
    ``(voltage, extrapolated)`` where the flag marks a threshold beyond the
    swept range.
    """
    v = np.asarray(curve.voltages, float)
    s = np.asarray(curve.snr, float)
    if fit:
        denom = float(v @ v)
        if denom <= 0:
            raise ValidationError("sweep voltages are all zero")
        slope = float(v @ s) / denom
    else:
        k = int(np.argmax(v))
        if v[k] <= 0 or s[k] <= 0:
            raise ValidationError("curve has no positive swept point")
        slope = s[k] / v[k]
    if slope <= 0:
        raise ValidationError("SNR does not grow with drive voltage")
    v_th = 1.0 / slope
    extrapolated = bool(s.max() < 1.0)
    return v_th, extrapolated


def enhancement(v_cs: float, v_tb: float) -> float:
    """Quantum enhancement of the minimum detectable modulation, percent."""
    if v_cs <= 0 or v_tb <= 0:
        raise ValidationError("thresholds must be > 0")
    return (v_cs / v_tb - 1.0) * 100.0
