import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsense.errors import OperatingPointError, ValidationError
from quadsense.plasmonic import (
    EOTResonance,
    IndexModulation,
    modulation_signal,
    transduction_slope,
    transmission_at,
)

RES = EOTResonance(lambda0=790.5, linewidth=28.0, t_max=0.57)
MOD = IndexModulation(
    frequency=400e3, drive_voltage=100.0, volts_to_index=(1e-4, 2e-4, 3e-4, 4e-4)
)


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
        shifted_up = EOTResonance(
            RES.lambda0 + RES.dlambda_dn * h, RES.linewidth, RES.t_max, RES.dlambda_dn
        )
        shifted_dn = EOTResonance(
            RES.lambda0 - RES.dlambda_dn * h, RES.linewidth, RES.t_max, RES.dlambda_dn
        )
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
    off = IndexModulation(400e3, 0.0, (1e-4,) * 4)
    assert modulation_signal(RES, off, 1, 5.0, 795.0) == 0.0
    # At the resonance peak the slope vanishes.
    assert modulation_signal(RES, MOD, 1, 5.0, RES.lambda0) == 0.0


def test_modulation_signal_quadratic_in_voltage():
    s1 = modulation_signal(RES, MOD, 2, 5.0, 795.0)
    doubled = IndexModulation(400e3, 200.0, MOD.volts_to_index)
    s2 = modulation_signal(RES, doubled, 2, 5.0, 795.0)
    assert s2 == pytest.approx(4.0 * s1, rel=1e-12)


def test_two_drive_levels_differ_by_six_db():
    v120 = IndexModulation(400e3, 120.0, MOD.volts_to_index)
    v60 = IndexModulation(400e3, 60.0, MOD.volts_to_index)
    s120 = modulation_signal(RES, v120, 1, 5.0, 795.0)
    s60 = modulation_signal(RES, v60, 1, 5.0, 795.0)
    assert 10.0 * math.log10(s120 / s60) == pytest.approx(6.02, abs=5e-3)


def test_distinct_drive_coefficients_give_distinct_signals():
    signals = {modulation_signal(RES, MOD, q, 5.0, 795.0) for q in (1, 2, 3, 4)}
    assert len(signals) == 4


@pytest.mark.parametrize("linewidth", [1e-80, 28.0, 2e77])
def test_evaluable_linewidth_gives_finite_optics(linewidth):
    r = EOTResonance(lambda0=790.5, linewidth=linewidth, t_max=0.57)
    for lam in (r.lambda0, 795.0):
        assert math.isfinite(transmission_at(r, lam))
        assert math.isfinite(transduction_slope(r, lam))


def test_dead_sensor_raises_operating_point_error():
    dead = EOTResonance(lambda0=790.5, linewidth=28.0, t_max=0.0)
    with pytest.raises(OperatingPointError):
        modulation_signal(dead, MOD, 1, 5.0, 795.0)


def test_input_validation():
    with pytest.raises(ValidationError):
        EOTResonance(lambda0=790.0, linewidth=0.0, t_max=0.5)
    for linewidth in (1e-300, 1e-82, 3e77, 1e100, 1e200):
        with pytest.raises(ValidationError, match="Lorentzian"):
            EOTResonance(lambda0=790.0, linewidth=linewidth, t_max=0.5)
    with pytest.raises(ValidationError):
        EOTResonance(lambda0=790.0, linewidth=10.0, t_max=1.5)
    with pytest.raises(ValidationError):
        IndexModulation(0.0, 100.0, (1e-4,) * 4)
    with pytest.raises(ValidationError):
        IndexModulation(400e3, 100.0, (1e-4, -1e-4, 1e-4, 1e-4))
    with pytest.raises(ValidationError):
        modulation_signal(RES, MOD, 5, 5.0, 795.0)
    with pytest.raises(ValidationError):
        modulation_signal(RES, MOD, 1, -1.0, 795.0)


@given(v=st.floats(0.0, 1000.0), q=st.integers(1, 4), lam=st.floats(770.0, 812.0))
@settings(max_examples=200)
def test_signal_quadratic_through_origin(v, q, lam):
    mod = IndexModulation(400e3, v, MOD.volts_to_index)
    ref = IndexModulation(400e3, 1.0, MOD.volts_to_index)
    s = modulation_signal(RES, mod, q, 5.0, lam)
    s_ref = modulation_signal(RES, ref, q, 5.0, lam)
    assert s == pytest.approx(v * v * s_ref, rel=1e-9, abs=1e-300)
