import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsense.errors import ValidationError
from quadsense.plasmonic import (
    DLAMBDA_DN,
    EOTResonance,
    modulation_signal,
    transduction_slope,
    transmission_at,
)

RES = EOTResonance(lambda0=790.5, linewidth=28.0, t_max=0.57)
# Modulation-off noise floor, and the threshold voltages (mV) of four sensors.
FLOOR = 5.0
THRESHOLDS = (252.0, 265.0, 319.0, 316.0)


def test_transmission_peak_and_half_width():
    assert transmission_at(RES, RES.lambda0) == pytest.approx(RES.t_max)
    half = 0.5 * RES.linewidth
    assert transmission_at(RES, RES.lambda0 + half) == pytest.approx(RES.t_max / 2)
    assert transmission_at(RES, RES.lambda0 - half) == pytest.approx(RES.t_max / 2)


def test_transmission_symmetric_about_peak():
    for delta in (1.0, 5.0, 20.0):
        left = transmission_at(RES, RES.lambda0 - delta)
        right = transmission_at(RES, RES.lambda0 + delta)
        assert left == pytest.approx(right, rel=1e-12)


def test_scenario_resonances_transmit_half_at_probe_wavelength(scenario):
    for r in scenario.resonances:
        t = transmission_at(r, scenario.wavelength_nm)
        assert 0.50 <= t <= 0.55


def test_slope_zero_at_peak_and_antisymmetric():
    assert transduction_slope(RES, RES.lambda0) == 0.0
    for delta in (0.5, 3.0, 15.0):
        plus = transduction_slope(RES, RES.lambda0 + delta)
        minus = transduction_slope(RES, RES.lambda0 - delta)
        assert plus == pytest.approx(-minus, rel=1e-12)


def test_slope_matches_finite_difference():
    h = 1e-8  # RIU
    for wavelength in (780.0, 788.0, 795.0, 805.0):
        shifted_up = EOTResonance(RES.lambda0 + DLAMBDA_DN * h, RES.linewidth, RES.t_max)
        shifted_dn = EOTResonance(RES.lambda0 - DLAMBDA_DN * h, RES.linewidth, RES.t_max)
        fd = (
            transmission_at(shifted_up, wavelength)
            - transmission_at(shifted_dn, wavelength)
        ) / (2.0 * h)
        assert transduction_slope(RES, wavelength) == pytest.approx(fd, rel=1e-6)


def test_slope_magnitude_peaks_at_inflection():
    lams = np.linspace(RES.lambda0 - 40.0, RES.lambda0 + 40.0, 8001)
    mags = np.abs([transduction_slope(RES, lam) for lam in lams])
    expected = RES.linewidth / (2.0 * math.sqrt(3.0))
    peak_offsets = np.abs(np.abs(lams[np.argsort(mags)[-2:]] - RES.lambda0))
    assert np.allclose(peak_offsets, expected, atol=0.02)


def test_modulation_signal_zero_cases():
    assert modulation_signal(FLOOR, 0.0, THRESHOLDS[0]) == 0.0
    assert modulation_signal(0.0, 100.0, THRESHOLDS[0]) == 0.0


def test_modulation_signal_quadratic_in_voltage():
    s1 = modulation_signal(FLOOR, 100.0, THRESHOLDS[1])
    s2 = modulation_signal(FLOOR, 200.0, THRESHOLDS[1])
    assert s2 == pytest.approx(4.0 * s1, rel=1e-12)


def test_two_drive_levels_differ_by_six_db():
    s120 = modulation_signal(FLOOR, 120.0, THRESHOLDS[0])
    s60 = modulation_signal(FLOOR, 60.0, THRESHOLDS[0])
    assert 10.0 * math.log10(s120 / s60) == pytest.approx(6.02, abs=5e-3)


def test_distinct_thresholds_give_distinct_signals():
    signals = {modulation_signal(FLOOR, 100.0, v_th) for v_th in THRESHOLDS}
    assert len(signals) == 4


@pytest.mark.parametrize("linewidth", [1e-80, 28.0, 2e77])
def test_evaluable_linewidth_gives_finite_optics(linewidth):
    r = EOTResonance(lambda0=790.5, linewidth=linewidth, t_max=0.57)
    for lam in (r.lambda0, 795.0):
        assert math.isfinite(transmission_at(r, lam))
        assert math.isfinite(transduction_slope(r, lam))


def test_input_validation():
    with pytest.raises(ValidationError):
        EOTResonance(lambda0=790.0, linewidth=0.0, t_max=0.5)
    for linewidth in (1e-300, 1e-82, 3e77, 1e100, 1e200):
        with pytest.raises(ValidationError, match="Lorentzian"):
            EOTResonance(lambda0=790.0, linewidth=linewidth, t_max=0.5)
    with pytest.raises(ValidationError):
        EOTResonance(lambda0=790.0, linewidth=10.0, t_max=1.5)
    for v_th in (1e-300, 0.0, math.nan):
        with pytest.raises(ValidationError, match="calibration.threshold_targets_mv"):
            modulation_signal(FLOOR, 1e300, v_th)


@given(v=st.floats(0.0, 1000.0), q=st.integers(1, 4), floor=st.floats(1e-3, 1e3))
@settings(max_examples=200)
def test_signal_quadratic_through_origin(v, q, floor):
    s = modulation_signal(floor, v, THRESHOLDS[q - 1])
    s_ref = modulation_signal(floor, 1.0, THRESHOLDS[q - 1])
    assert s == pytest.approx(v * v * s_ref, rel=1e-9, abs=1e-300)
