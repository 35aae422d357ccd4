import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsense.errors import UndefinedSNLError, ValidationError
from quadsense.optics import QuadrantLayout
from quadsense.optics import quadrant_cut, quadrant_transmission
from quadsense.source import (
    CoherenceGrid,
    FwmSourceParams,
    TwinBeamMoments,
    _half_cells,
    _ndtr,
    build_coherence_grid,
    fwm_moments,
    source_squeezing,
)


def test_fwm_moments_no_gain_is_coherent_seed():
    m = fwm_moments(FwmSourceParams(gain=1.0, seed_flux=1.0))
    assert (m.mean_p, m.mean_c, m.var_p, m.var_c, m.cov) == (1, 0, 1, 0, 0)


def test_fwm_moments_gain_two():
    m = fwm_moments(FwmSourceParams(gain=2.0, seed_flux=1.0))
    assert (m.mean_p, m.mean_c, m.var_p, m.var_c, m.cov) == (2, 1, 6, 3, 4)


def test_gain_for_five_point_one_six_db():
    # R = 1/(2G-1): the -5.16 dB squeezing level pins the gain near 2.14.
    gain = 0.5 * (10.0**0.516 + 1.0)
    assert gain == pytest.approx(2.14, abs=5e-3)
    m = fwm_moments(FwmSourceParams(gain=gain, seed_flux=1.0))
    assert source_squeezing(m)[1] == pytest.approx(-5.16, abs=1e-12)


def test_fwm_moments_rejects_invalid_params():
    with pytest.raises(ValidationError):
        FwmSourceParams(gain=0.9, seed_flux=1.0)
    with pytest.raises(ValidationError):
        FwmSourceParams(gain=2.0, seed_flux=0.0)
    with pytest.raises(ValidationError):
        FwmSourceParams(gain=2.0, seed_flux=1.0, excess_uncorrelated=-0.1)


def test_source_squeezing_coherent_pair_is_shot_noise():
    m = TwinBeamMoments(3.0, 2.0, 3.0, 2.0, 0.0)
    ratio, db = source_squeezing(m)
    assert ratio == pytest.approx(1.0)
    assert db == pytest.approx(0.0)


def test_source_squeezing_gain_two_is_one_third():
    m = fwm_moments(FwmSourceParams(gain=2.0, seed_flux=1.0))
    ratio, db = source_squeezing(m)
    assert ratio == pytest.approx(1.0 / 3.0)
    assert db == pytest.approx(-4.77, abs=5e-3)


def test_source_squeezing_zero_power_is_undefined():
    with pytest.raises(UndefinedSNLError):
        source_squeezing(TwinBeamMoments(0.0, 0.0, 0.0, 0.0, 0.0))


def test_moments_reject_cauchy_schwarz_violation():
    with pytest.raises(ValidationError):
        TwinBeamMoments(1.0, 1.0, 1.0, 1.0, 1.5)


@given(
    gain=st.floats(1.0, 50.0),
    seed_flux=st.floats(1e-3, 1e3),
    zu=st.floats(0.0, 5.0),
)
@settings(max_examples=200)
def test_moment_invariants_hold_across_domain(gain, seed_flux, zu):
    m = fwm_moments(
        FwmSourceParams(gain=gain, seed_flux=seed_flux, excess_uncorrelated=zu)
    )
    assert m.mean_p >= 0 and m.mean_c >= 0
    assert m.var_p >= 0 and m.var_c >= 0
    assert m.cov**2 <= m.var_p * m.var_c * (1 + 1e-12) + 1e-300


@given(gain=st.floats(1.0 + 1e-9, 50.0), seed_flux=st.floats(1e-3, 1e3))
@settings(max_examples=200)
def test_ideal_squeezing_is_exactly_inverse_odd_gain(gain, seed_flux):
    m = fwm_moments(FwmSourceParams(gain=gain, seed_flux=seed_flux))
    ratio, _ = source_squeezing(m)
    assert ratio == pytest.approx(1.0 / (2.0 * gain - 1.0), rel=1e-12)


@given(
    gain=st.floats(1.0, 20.0),
    seed_flux=st.floats(1e-2, 10.0),
    k=st.floats(0.1, 100.0),
    zu=st.floats(0.0, 2.0),
)
@settings(max_examples=100)
def test_seed_flux_homogeneity(gain, seed_flux, k, zu):
    base = fwm_moments(FwmSourceParams(gain=gain, seed_flux=seed_flux))
    scaled = fwm_moments(FwmSourceParams(gain=gain, seed_flux=k * seed_flux))
    assert scaled.mean_p == pytest.approx(k * base.mean_p, rel=1e-12)
    assert scaled.mean_c == pytest.approx(k * base.mean_c, rel=1e-12)
    # Ideal second moments scale linearly; the excess terms scale with the
    # squared means, so with zu > 0 only the ratio at zu = 0 is invariant.
    assert scaled.var_p == pytest.approx(k * base.var_p, rel=1e-12)
    assert source_squeezing(scaled)[0] == pytest.approx(
        source_squeezing(base)[0], rel=1e-12
    )
    with_excess = fwm_moments(
        FwmSourceParams(gain=gain, seed_flux=seed_flux, excess_uncorrelated=zu)
    )
    expected = base.var_p + zu * base.mean_p**2
    assert with_excess.var_p == pytest.approx(expected, rel=1e-12)


# -- coherence grid -------------------------------------------------------


def test_single_cell_grid_holds_all_power():
    # A cell of six waists spans the grid's reach on its own.
    grid = build_coherence_grid(100.0, 100.0, 600.0)
    assert grid.n_cells == 1
    assert grid.axis_total_p**2 == pytest.approx(1.0, abs=1e-9)


def test_grid_covers_truncated_gaussian_power():
    grid = build_coherence_grid(300.0, 300.0, 25.0)
    assert grid.axis_total_p**2 >= 0.999
    assert grid.axis_total_c**2 >= 0.999


def test_grid_rejects_a_cell_size_that_is_not_positive():
    for d_c in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="cell size must be > 0"):
            build_coherence_grid(100.0, 100.0, d_c)


def test_grid_size_guard_raises_before_allocating():
    # 1.08e9 cells per half axis: enumerating them would take 16 GiB.
    with pytest.raises(ValidationError, match="coherence.cell_um 1e-06 is too fine"):
        _half_cells(360.0, 360.0, 1e-6)
    # A 0.005 um cell out to three 441 um waists stays allowed.
    assert _half_cells(420.0, 441.0, 0.005) == 264_600


@pytest.mark.parametrize(
    "waist_p, waist_c, d_c",
    [
        (360.0, 360.0, 1.0),
        (360.0, 360.0, 0.5),
        (300.0, 285.0, 2.2),
        (420.0, 441.0, 0.01),
        (16.0, 16.0, 8.0),
    ],
)
def test_grid_reach_keeps_every_bit_of_the_covariance_share(waist_p, waist_c, d_c):
    # Beyond three waists a beam carries under 1e-32 of its power, so a
    # grid built here out to six keeps the same covariance share, k.
    half = math.ceil((6.0 * max(waist_p, waist_c) - 0.5 * d_c) / d_c)
    edges = 0.5 * d_c - np.arange(half + 2) * d_c
    edges[0] = 0.0
    cdf_p, cdf_c = (_ndtr(edges / (waist / 4.0)) for waist in (waist_p, waist_c))
    wide = CoherenceGrid(
        cell_size=d_c,
        whole_p=cdf_p[1:-1] - cdf_p[2:],
        whole_c=cdf_c[1:-1] - cdf_c[2:],
        half_p=float(cdf_p[0] - cdf_p[1]),
        half_c=float(cdf_c[0] - cdf_c[1]),
    )
    grid = build_coherence_grid(waist_p, waist_c, d_c)
    assert wide.n_axis >= 2 * grid.n_axis - 3
    unit = TwinBeamMoments(1.0, 1.0, 1.0, 1.0, 1.0)
    assert quadrant_cut(unit, grid).cov == quadrant_cut(unit, wide).cov


def test_quadrant_weights_match_gapless_transmission():
    # The quadrant share of the grid must agree with direct integration of
    # the same Gaussian over a gapless, untilted quadrant window.
    grid = build_coherence_grid(360.0, 360.0, 20.0)
    cut = quadrant_cut(TwinBeamMoments(1.0, 1.0, 1.0, 1.0, 1.0), grid)
    layout = QuadrantLayout(window_size=1440.0, gap=0.0, tilt_deg=0.0)
    qt = quadrant_transmission(360.0, layout)
    assert cut.mean_p == pytest.approx(qt.window_fractions[1], abs=1e-12)


# Cephes branch edges of the normal CDF in its argument a: erf below 1,
# 1 - erf below sqrt(2), the P/Q erfc below 8 sqrt(2), the R/S erfc above,
# and exp(-a^2/2) underflow near 37.7.
NDTR_EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.78))


def test_ndtr_matches_scipy_in_every_branch_on_both_signs():
    from scipy.special import ndtr

    a = np.linspace(0.0, 40.0, 400_001)
    near_edges = [np.nextafter(e, d) for e in NDTR_EDGES for d in (0.0, 50.0)]
    a = np.concatenate((a, NDTR_EDGES, near_edges))
    for lo, hi in zip((0.0,) + NDTR_EDGES, NDTR_EDGES + (40.0,)):
        assert np.count_nonzero((a >= lo) & (a < hi)) > 1000, (lo, hi)
    for x in (a, -a):
        ours, ref = _ndtr(x), ndtr(x)
        assert ours.shape == x.shape
        kept = ref >= 1e-300
        assert np.all(np.abs(ours[kept] - ref[kept]) <= 1e-13 * ref[kept])
        assert np.all(ours[~kept] <= 1e-300)


def test_ndtr_is_elementwise():
    # A CDF value does not depend on the array it is evaluated in.
    a = np.linspace(-40.0, 40.0, 801)
    whole = _ndtr(a)
    assert np.array_equal(_ndtr(a.reshape(3, 267)).ravel(), whole)
    assert np.array_equal(_ndtr(a[::-1]), whole[::-1])
    assert all(_ndtr(np.array([x]))[0] == y for x, y in zip(a, whole))
