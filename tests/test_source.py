import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from conftest import reference_cell_weights, reference_cov_share
from quadsense.detection import squeezing_report
from quadsense.errors import ValidationError
from quadsense.optics import QuadrantLayout
from quadsense.optics import quadrant_cut, quadrant_transmission
from quadsense.source import (
    MAX_HALF_CELLS,
    CoherenceGrid,
    FwmSourceParams,
    TwinBeamMoments,
    _half_cells,
    _normal_cdf,
    build_coherence_grid,
    fwm_moments,
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
    assert squeezing_report(m, 1.0).ratio_db == pytest.approx(-5.16, abs=1e-12)


def test_fwm_moments_rejects_invalid_params():
    with pytest.raises(ValidationError):
        FwmSourceParams(gain=0.9, seed_flux=1.0)
    with pytest.raises(ValidationError):
        FwmSourceParams(gain=2.0, seed_flux=0.0)
    with pytest.raises(ValidationError):
        FwmSourceParams(gain=2.0, seed_flux=1.0, excess_uncorrelated=-0.1)


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
    ratio = squeezing_report(m, 1.0).ratio_linear
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
    assert squeezing_report(scaled, 1.0).ratio_linear == pytest.approx(
        squeezing_report(base, 1.0).ratio_linear, rel=1e-12
    )
    with_excess = fwm_moments(
        FwmSourceParams(gain=gain, seed_flux=seed_flux, excess_uncorrelated=zu)
    )
    expected = base.var_p + zu * base.mean_p**2
    assert with_excess.var_p == pytest.approx(expected, rel=1e-12)


# -- coherence grid -------------------------------------------------------


def test_single_cell_grid_holds_all_power():
    # A cell of six waists spans the grid's reach on its own. Only the
    # Gaussian tails beyond its edges, 12 sigma out, lie in whole cells.
    grid = build_coherence_grid(100.0, 100.0, 600.0)
    assert grid.n_cells == 1
    weights = reference_cell_weights(100.0, 100.0, 600.0, grid.half_cells)
    assert (2.0 * (weights[0].sum() + weights[2])) ** 2 == pytest.approx(1.0, abs=1e-9)
    assert grid.cov_share == pytest.approx(ndtr(-12.0) ** 2, rel=1e-12, abs=0.0)


def test_grid_covers_truncated_gaussian_power():
    grid = build_coherence_grid(300.0, 300.0, 25.0)
    whole_p, whole_c, half_p, half_c = weights = reference_cell_weights(
        300.0, 300.0, 25.0, grid.half_cells
    )
    assert (2.0 * (whole_p.sum() + half_p)) ** 2 >= 0.999
    assert (2.0 * (whole_c.sum() + half_c)) ** 2 >= 0.999
    assert grid.cov_share == reference_cov_share(*weights)


def test_default_grid_covariance_share_is_pinned():
    # The packaged scenario's 360 um beams and 1 um cells.
    assert build_coherence_grid(360.0, 360.0, 1.0).cov_share == 0.2477885775377389


def test_grid_rejects_a_cell_size_that_is_not_positive():
    for d_c in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="cell size must be > 0"):
            build_coherence_grid(100.0, 100.0, d_c)


def test_grid_rejects_a_covariance_share_outside_a_quarter():
    for share in (-1e-300, 0.25 + 1e-16, math.nan):
        with pytest.raises(ValidationError, match="covariance share"):
            CoherenceGrid(cov_share=share, half_cells=1)
    assert CoherenceGrid(cov_share=0.25, half_cells=0).n_cells == 1


def test_grid_size_guard_raises_before_allocating():
    # 1.08e9 cells per half axis: enumerating them would take 16 GiB.
    with pytest.raises(ValidationError, match="coherence.cell_um 1e-06 is too fine"):
        _half_cells(360.0, 360.0, 1e-6)
    # A 0.005 um cell out to three 441 um waists stays allowed.
    assert _half_cells(420.0, 441.0, 0.005) == 264_600


def test_finest_grid_has_power_on_axis():
    # The finest cell the size guard accepts leaves the on-axis half cell,
    # and so every built grid, with power: its covariance share is defined.
    waist = 360.0
    d_c = 3.0 * waist / (MAX_HALF_CELLS + 0.5) * (1.0 + 1e-12)
    assert _half_cells(waist, waist, d_c) == MAX_HALF_CELLS
    half_p = reference_cell_weights(waist, waist, d_c, 0)[2]
    assert half_p > 5e-7


@pytest.mark.parametrize(
    "waist, d_c",
    [
        (360.0, 1.0),
        (360.0, 0.5),
        (16.0, 8.0),
        (300.0, 25.0),
        (300.0, 0.01),
        (330.0, 0.05),
        (345.0, 0.2),
        (375.0, 0.7),
        (390.0, 1.5),
        (405.0, 2.2),
        (420.0, 0.01),
        (420.0, 2.2),
    ],
)
def test_equal_waist_share_is_the_telescoped_cell_sum(waist, d_c):
    # For equal waists the whole cells' weights telescope into one tail, so
    # the closed form is the cell sum up to the sum's rounding.
    grid = build_coherence_grid(waist, waist, d_c)
    ref = reference_cov_share(*reference_cell_weights(waist, waist, d_c, grid.half_cells))
    assert abs(grid.cov_share - ref) <= 4 * math.ulp(ref)
    if (waist, d_c) == (360.0, 1.0):
        assert grid.cov_share == ref


@pytest.mark.parametrize(
    "waist_p, waist_c, d_c",
    [
        (300.0, 285.0, 0.01),
        (300.0, 285.0, 2.2),
        (300.0, 315.0, 2.2),
        (360.0, 349.2, 1.0),
        (420.0, 441.0, 0.01),
        (420.0, 399.0, 2.2),
        (330.0, 336.6, 0.3),
    ],
)
def test_unequal_waist_share_is_near_the_cell_power_sum(waist_p, waist_c, d_c):
    # The closed form integrates sqrt(I_p I_c) over each cell; the cell sum
    # takes sqrt(P_p P_c) of the cells' powers. Over perfbench's waist
    # range, 5 % mismatch and cell range the two lost shares 1/4 - k agree
    # to 1e-5.
    grid = build_coherence_grid(waist_p, waist_c, d_c)
    ref = reference_cov_share(
        *reference_cell_weights(waist_p, waist_c, d_c, grid.half_cells)
    )
    assert abs(grid.cov_share - ref) <= 1e-5 * (0.25 - ref)


@pytest.mark.parametrize("waist_c", [441.0, 420.0])
def test_fine_grid_holds_at_most_six_half_axis_arrays(waist_c):
    # A 0.01 um cell out to three waists: 126,000-132,300 cells per half
    # axis, none of which the closed form enumerates.
    tracemalloc.start()
    try:
        build_coherence_grid(420.0, waist_c, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


def test_quadrant_weights_match_gapless_transmission():
    # The quadrant share of the grid must agree with direct integration of
    # the same Gaussian over a gapless, untilted quadrant window.
    grid = build_coherence_grid(360.0, 360.0, 20.0)
    cut = quadrant_cut(TwinBeamMoments(1.0, 1.0, 1.0, 1.0, 1.0), grid)
    layout = QuadrantLayout(window_size=1440.0, gap=0.0, tilt_deg=0.0)
    window = quadrant_transmission(360.0, layout) / 4
    assert cut.mean_p == pytest.approx(window, abs=1e-12)


def test_normal_cdf_matches_scipy_on_both_signs():
    a = np.linspace(0.0, 40.0, 400_001)
    for x in (a, -a):
        ours, ref = np.asarray([_normal_cdf(t) for t in x.tolist()]), ndtr(x)
        assert ours.shape == x.shape
        kept = ref >= 1e-300
        assert np.all(np.abs(ours[kept] - ref[kept]) <= 1e-13 * ref[kept])
        assert np.all(ours[~kept] <= 1e-300)
