import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from conftest import covariance_from_noise, min_difference_noise
from quadsense import detection
from quadsense.detection import (
    attenuation_db,
    difference_noise,
    optimal_gain,
    probe_transmission_for_ratio,
    snl_noise,
    squeezing_report,
)
from quadsense.errors import UndefinedMomentsError, UndefinedSNLError, ValidationError
from quadsense.optics import LossChannel, apply_loss
from quadsense.source import FwmSourceParams, TwinBeamMoments, fwm_moments

G2_IDEAL = TwinBeamMoments(2.0, 1.0, 6.0, 3.0, 4.0)


def moments_and_channel():
    return st.tuples(
        st.builds(
            lambda mp, mc, vp, vc, t: TwinBeamMoments(
                mp, mc, vp, vc, t * math.sqrt(vp * vc)
            ),
            st.floats(0.0, 10.0),
            st.floats(0.1, 10.0),
            st.floats(1e-3, 10.0),
            st.floats(1e-3, 10.0),
            st.floats(-0.999, 0.999),
        ),
        st.builds(LossChannel, st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    )


def test_difference_noise_coherent_pair_is_snl():
    coherent = TwinBeamMoments(2.0, 1.0, 2.0, 1.0, 0.0)
    assert difference_noise(coherent, 1.0) == pytest.approx(3.0)


def test_difference_noise_gain_zero_is_probe_only():
    d = apply_loss(G2_IDEAL, LossChannel(0.7, 0.9))
    expected = 0.49 * (6.0 - 2.0) + 0.7 * 2.0
    assert difference_noise(d, 0.0) == pytest.approx(expected)


def test_difference_noise_gain_two_balanced():
    assert difference_noise(G2_IDEAL, 1.0) == pytest.approx(1.0)


def test_difference_noise_rejects_negative_gain():
    with pytest.raises(ValidationError):
        difference_noise(G2_IDEAL, -0.5)


def test_optimal_gain_uncorrelated_is_zero():
    m = TwinBeamMoments(2.0, 1.0, 6.0, 3.0, 0.0)
    assert optimal_gain(m) == 0.0


def test_optimal_gain_gain_two_is_four_thirds():
    g = optimal_gain(G2_IDEAL)
    assert g == pytest.approx(4.0 / 3.0, rel=1e-12)
    # Confirm by scanning the parabola.
    gs = np.arange(0.0, 3.0, 1e-4)
    noises = [difference_noise(G2_IDEAL, x) for x in gs]
    assert gs[int(np.argmin(noises))] == pytest.approx(g, abs=1e-4)


def test_optimal_gain_noiseless_conjugate_raises():
    m = TwinBeamMoments(2.0, 0.0, 6.0, 0.0, 0.0)
    with pytest.raises(UndefinedMomentsError):
        optimal_gain(m)


def test_min_difference_noise_examples():
    m = TwinBeamMoments(2.0, 1.0, 6.0, 3.0, 0.0)
    assert difference_noise(m, optimal_gain(m)) == pytest.approx(6.0)
    noise = difference_noise(G2_IDEAL, optimal_gain(G2_IDEAL))
    assert noise == pytest.approx(6.0 - 16.0 / 3.0)


def test_covariance_round_trip():
    uncorrelated = TwinBeamMoments(2.0, 1.0, 6.0, 3.0, 0.0)
    assert covariance_from_noise(6.0, 3.0, difference_noise(uncorrelated, 1.0)) == 0.0
    var_diff = difference_noise(G2_IDEAL, 1.0)
    assert covariance_from_noise(6.0, 3.0, var_diff) == pytest.approx(4.0)


def test_snl_noise_basics():
    def coherent(mean_p, mean_c):
        return TwinBeamMoments(mean_p, mean_c, mean_p, mean_c, 0.0)

    assert snl_noise(coherent(2.0, 1.0), 1.0) == pytest.approx(3.0)
    assert snl_noise(coherent(4.0, 2.0), 1.0) == pytest.approx(6.0)  # linear in power
    with pytest.raises(UndefinedSNLError):
        snl_noise(coherent(0.0, 0.0), 1.0)


def test_squeezing_report_coherent_is_unity():
    coherent = TwinBeamMoments(2.0, 1.0, 2.0, 1.0, 1e-12)
    # Balanced (g = 1) and at the optimal g alike, coherent beams sit at the SNL.
    balanced = difference_noise(coherent, 1.0) / snl_noise(coherent, 1.0)
    assert balanced == pytest.approx(1.0, rel=1e-9)
    rep = squeezing_report(coherent, optimal_gain(coherent))
    assert rep.ratio_linear == pytest.approx(1.0, rel=1e-9)
    assert rep.ratio_db == pytest.approx(0.0, abs=1e-8)


def test_squeezing_report_gain_two_optimal():
    rep = squeezing_report(G2_IDEAL, optimal_gain(G2_IDEAL))
    assert rep.gain == pytest.approx(4.0 / 3.0)
    assert rep.diff_variance == pytest.approx(2.0 / 3.0)
    # SNL at g = 4/3: 2 + (16/9) * 1.
    assert rep.snl == pytest.approx(2.0 + 16.0 / 9.0)
    assert rep.ratio_linear == pytest.approx((2.0 / 3.0) / (34.0 / 9.0))


def test_balanced_report_coherent_pair_is_shot_noise():
    rep = squeezing_report(TwinBeamMoments(3.0, 2.0, 3.0, 2.0, 0.0), 1.0)
    assert rep.ratio_linear == pytest.approx(1.0)
    assert rep.ratio_db == pytest.approx(0.0)


def test_balanced_report_gain_two_is_one_third():
    rep = squeezing_report(fwm_moments(FwmSourceParams(gain=2.0, seed_flux=1.0)), 1.0)
    assert rep.ratio_linear == pytest.approx(1.0 / 3.0)
    assert rep.ratio_db == pytest.approx(-4.77, abs=5e-3)


def test_balanced_report_zero_power_is_undefined():
    with pytest.raises(UndefinedSNLError):
        squeezing_report(TwinBeamMoments(0.0, 0.0, 0.0, 0.0, 0.0), 1.0)


def test_attenuation_conventions():
    # Amplitude convention: g multiplies the photocurrent amplitude.
    assert attenuation_db(0.5) == pytest.approx(20.0 * math.log10(2.0))
    assert attenuation_db(0.0) == math.inf


# -- properties -------------------------------------------------------------


@given(mc=moments_and_channel())
@settings(max_examples=300)
def test_min_noise_identity(mc):
    d = apply_loss(*mc)
    g = optimal_gain(d)
    direct = difference_noise(d, g)
    closed = min_difference_noise(d)
    assert closed == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(mc=moments_and_channel(), g=st.floats(0.0, 5.0))
@settings(max_examples=300)
def test_parabola_is_convex_with_vertex_at_optimum(mc, g):
    d = apply_loss(*mc)
    h = 1e-3
    f = lambda x: difference_noise(d, x)
    second = f(g + h) - 2.0 * f(g) + f(g - h) if g >= h else None
    if second is not None:
        assert second >= -1e-9
    g_opt = optimal_gain(d)
    assert f(g_opt) <= f(g) + 1e-12


@given(mc=moments_and_channel(), g=st.floats(0.0, 5.0))
@settings(max_examples=300)
def test_uncorrelated_noise_is_quadrature_sum(mc, g):
    m, ch = mc
    m0 = TwinBeamMoments(m.mean_p, m.mean_c, m.var_p, m.var_c, 0.0)
    probe = ch.eta_p**2 * (m.var_p - m.mean_p) + ch.eta_p * m.mean_p
    conj = ch.eta_c**2 * (m.var_c - m.mean_c) + ch.eta_c * m.mean_c
    assert difference_noise(apply_loss(m0, ch), g) == pytest.approx(
        probe + g * g * conj, rel=1e-12, abs=1e-12
    )


@given(
    gain=st.floats(1.05, 10.0),
    eta1=st.floats(0.3, 1.0),
    eta2=st.floats(0.05, 1.0),
)
@settings(max_examples=200)
def test_squeezing_ratio_monotone_in_loss(gain, eta1, eta2):
    if eta2 > eta1:
        eta1, eta2 = eta2, eta1
    m = fwm_moments(FwmSourceParams(gain=gain, seed_flux=1.0))
    d1 = apply_loss(m, LossChannel(eta1, eta1))
    d2 = apply_loss(m, LossChannel(eta2, eta2))
    better = squeezing_report(d1, optimal_gain(d1))
    worse = squeezing_report(d2, optimal_gain(d2))
    assert worse.ratio_linear >= better.ratio_linear - 1e-12


def exact_ratio(m, eta_p, eta_c):
    """The optimal-gain noise/SNL ratio that ``squeezing_report`` computes,
    in exact rational arithmetic on the same float inputs."""
    mp, mc, vp, vc, cov = map(Fraction, (m.mean_p, m.mean_c, m.var_p, m.var_c, m.cov))
    ep, ec = Fraction(eta_p), Fraction(eta_c)
    probe = ep * ep * (vp - mp) + ep * mp
    conj = ec * ec * (vc - mc) + ec * mc
    g = max(ep * ec * cov / conj, Fraction(0))
    diff = probe + g * g * conj - 2 * g * ep * ec * cov
    return diff / (ep * mp + g * g * ec * mc)


@given(
    gain=st.floats(1.05, 100.0),
    zu=st.floats(0.0, 1e-2),
    eta_p=st.floats(1e-3, 1.0),
    eta_c=st.floats(0.3, 1.0),
)
# The float report's round-off, amplified by a ratio nearly flat in eta_p.
@example(gain=99.2421875, zu=0.01, eta_p=0.5, eta_c=0.5)
# A ratio above 1 that rises with eta_p.
@example(gain=99.0, zu=0.01, eta_p=0.5, eta_c=0.375)
@settings(max_examples=200)
def test_probe_transmission_inverts_the_squeezing_report(gain, zu, eta_p, eta_c):
    # The closed form returns the probe transmission whose optimal-gain
    # report gave the ratio, as a bracketed root search of the report does.
    # Both take the exactly computed ratio, so the float report's round-off
    # cannot move the root.
    m = fwm_moments(FwmSourceParams(gain, 1.0, zu))
    target = exact_ratio(m, eta_p, eta_c)
    # The exact ratio is the report's, without its round-off.
    d = apply_loss(m, LossChannel(eta_p, eta_c))
    report = squeezing_report(d, optimal_gain(d)).ratio_linear
    assert float(target) == pytest.approx(report, rel=1e-10, abs=0.0)
    closed = probe_transmission_for_ratio(m, eta_c, float(target))

    def excess(e):
        return float(exact_ratio(m, e, eta_c) - target)

    # The ratio is monotone in eta_p, falling or rising, so the root is
    # bracketed by the signs at the ends; brentq returns an end where the
    # excess is exactly zero.
    assert excess(1e-4) * excess(1.0) <= 0.0
    reference = optimize.brentq(excess, 1e-4, 1.0, xtol=1e-12)
    assert closed == pytest.approx(reference, rel=0.0, abs=1e-10)
    assert closed == pytest.approx(eta_p, rel=0.0, abs=1e-10)


def test_probe_transmission_needs_a_noisy_conjugate():
    dark = TwinBeamMoments(2.0, 0.0, 6.0, 0.0, 0.0)
    with pytest.raises(UndefinedMomentsError):
        probe_transmission_for_ratio(dark, 0.9, 0.5)


def test_probe_transmission_squares_round_correctly():
    # At this eta_c the C library's pow may round the square one ulp low
    # (0.4418590655521448; the exact square rounds to ...449). The closed
    # form takes correctly rounded squares, so its bits do not depend on
    # the host's libm.
    eta_c = 0.6647248043755738
    m = fwm_moments(FwmSourceParams(5.0, 1.0, 0.0))
    ratio = 0.5
    eta_c2 = float(Fraction(eta_c) ** 2)
    cov2 = float(Fraction(m.cov) ** 2)
    conj = apply_loss(m, LossChannel(0.0, eta_c)).var_c
    a = m.var_p - m.mean_p - eta_c2 * cov2 / conj
    b = eta_c2 * eta_c * cov2 * (m.mean_c / conj) / conj
    expected = m.mean_p * (ratio - 1.0) / (a - ratio * b)
    assert probe_transmission_for_ratio(m, eta_c, ratio) == expected
