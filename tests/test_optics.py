import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from conftest import reference_cov_share
from quadsense import detection
from quadsense.errors import SearchError, ValidationError
from quadsense.optics import (
    WAIST_GRID_POINTS,
    LossChannel,
    QuadrantLayout,
    apply_loss,
    optimize_waist,
    quadrant_cut,
    quadrant_transmission,
    waist_scan,
)
from quadsense.source import CoherenceGrid, TwinBeamMoments, build_coherence_grid

REFERENCE_LAYOUT = QuadrantLayout(window_size=200.0, gap=20.0, tilt_deg=26.0)

G2_IDEAL = TwinBeamMoments(2.0, 1.0, 6.0, 3.0, 4.0)


def moments_strategy():
    return st.builds(
        lambda mp, mc, vp, vc, t: TwinBeamMoments(mp, mc, vp, vc, t * math.sqrt(vp * vc)),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
        st.floats(1e-6, 10.0),
        st.floats(1e-6, 10.0),
        st.floats(-0.999, 0.999),
    )


# -- quadrant transmission -------------------------------------------------


def test_point_beam_on_gap_cross_transmits_nothing():
    assert quadrant_transmission(1.0, REFERENCE_LAYOUT) < 1e-6


def test_unobstructed_beam_transmits_everything():
    layout = QuadrantLayout(window_size=20000.0, gap=0.0, tilt_deg=0.0)
    assert quadrant_transmission(330.0, layout) == pytest.approx(1.0, abs=1e-6)


def test_reference_layout_at_330um_transmits_eighty_percent():
    total = quadrant_transmission(330.0, REFERENCE_LAYOUT)
    assert total == pytest.approx(0.80, abs=0.02)


def test_transmission_symmetric_for_centered_beam_without_tilt():
    # Untilted, a window spans [gap / 2, gap / 2 + window] on both axes, so
    # its power is the square of one axis's.
    layout = QuadrantLayout(window_size=200.0, gap=20.0, tilt_deg=0.0)
    sigma = 330.0 / 4.0
    axis = ndtr(210.0 / sigma) - ndtr(10.0 / sigma)
    total = quadrant_transmission(330.0, layout)
    assert total == pytest.approx(4.0 * axis * axis, rel=1e-12)


# The beam is centered on the layout, the only placement the model has.
# Each window is integrated over its own bounds, so the test checks that
# the four windows are mirror images of the one the code computes.
# The reference layout's cases keep their ids; the others prefix theirs.
MIRROR_LAYOUTS = {
    "": REFERENCE_LAYOUT,
    "tilt0-": QuadrantLayout(window_size=200.0, gap=20.0, tilt_deg=0.0),
    "tilt60-": QuadrantLayout(window_size=200.0, gap=20.0, tilt_deg=60.0),
    "gap0-": QuadrantLayout(window_size=200.0, gap=0.0, tilt_deg=26.0),
}


@pytest.mark.parametrize("center", [(0.0, 0.0)])
@pytest.mark.parametrize(
    "diameter, layout",
    [
        pytest.param(diameter, layout, id=f"{name}{diameter}")
        for name, layout in MIRROR_LAYOUTS.items()
        for diameter in (100.0, 330.0, 1000.0)
    ],
)
def test_window_fractions_match_adaptive_quadrature(diameter, layout, center):
    window = quadrant_transmission(diameter, layout) / 4
    sigma = diameter / 4.0

    def axis_power(lo, hi, mu, sigma):
        pdf = lambda x: math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (
            sigma * math.sqrt(2.0 * math.pi)
        )
        return integrate.quad(pdf, lo, hi, epsabs=1e-16, epsrel=1e-13)[0]

    g, w, c = 0.5 * layout.gap, layout.window_size, layout.cos_tilt
    signs = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}
    for q, (sx, sy) in signs.items():
        xlo, xhi = sorted((sx * g * c, sx * (g + w) * c))
        ylo, yhi = sorted((sy * g, sy * (g + w)))
        expected = axis_power(xlo, xhi, center[0], sigma) * axis_power(
            ylo, yhi, center[1], sigma
        )
        assert window == pytest.approx(expected, abs=1e-14)


# -- waist optimization ------------------------------------------------------


def test_optimize_waist_reproduces_optimum():
    best_d, best_t = optimize_waist(
        REFERENCE_LAYOUT, waist_scan(REFERENCE_LAYOUT, (100.0, 1000.0))
    )
    assert best_d == pytest.approx(330.0, abs=10.0)
    assert best_t == pytest.approx(0.80, abs=0.02)


def test_optimize_waist_flat_objective_returns_smallest_diameter():
    layout = QuadrantLayout(window_size=1e7, gap=0.0, tilt_deg=0.0)
    best_d, best_t = optimize_waist(layout, waist_scan(layout, (100.0, 1000.0)))
    assert best_d == pytest.approx(100.0)
    assert best_t == pytest.approx(1.0, abs=1e-6)


def test_optimize_waist_scale_invariance():
    doubled = QuadrantLayout(window_size=400.0, gap=40.0, tilt_deg=26.0)
    for d in (200.0, 330.0, 500.0):
        t1 = quadrant_transmission(d, REFERENCE_LAYOUT)
        t2 = quadrant_transmission(2 * d, doubled)
        assert t2 == pytest.approx(t1, abs=1e-9)


@pytest.mark.parametrize(
    "d_range", [(100.0, 1000.0), (0.1, 0.7), (123.456, 987.654), (3e-3, 7e5)]
)
def test_waist_scan_diameters_are_numpy_linspace_to_the_bit(d_range):
    # beam_curve.csv and optimize_waist's bracket read these diameters; the
    # first range is the CLI's.
    ds, totals = waist_scan(REFERENCE_LAYOUT, d_range)
    assert np.asarray(ds).tobytes() == np.linspace(*d_range, WAIST_GRID_POINTS).tobytes()
    assert totals == [quadrant_transmission(d, REFERENCE_LAYOUT) for d in ds]


def test_optimize_waist_rejects_non_bracketing_range():
    # Transmission decreases monotonically past the optimum, so this range
    # has its maximum on the boundary.
    with pytest.raises(SearchError):
        optimize_waist(REFERENCE_LAYOUT, waist_scan(REFERENCE_LAYOUT, (500.0, 1000.0)))
    with pytest.raises(ValidationError):
        optimize_waist(REFERENCE_LAYOUT, waist_scan(REFERENCE_LAYOUT, (500.0, 100.0)))


# -- loss map ---------------------------------------------------------------


def test_apply_loss_identity():
    out = apply_loss(G2_IDEAL, LossChannel(1.0, 1.0))
    assert out == G2_IDEAL


def test_apply_loss_preserves_coherent_statistics():
    coherent = TwinBeamMoments(4.0, 9.0, 4.0, 9.0, 0.0)
    out = apply_loss(coherent, LossChannel(0.3, 0.7))
    assert out.var_p == pytest.approx(out.mean_p, rel=1e-12)
    assert out.var_c == pytest.approx(out.mean_c, rel=1e-12)
    assert out.cov == 0.0


def test_apply_loss_gain_two_example():
    out = apply_loss(G2_IDEAL, LossChannel(0.5, 0.9))
    assert out.mean_p == pytest.approx(1.0)
    assert out.var_p == pytest.approx(0.25 * 4.0 + 1.0)  # 2.0
    assert out.mean_c == pytest.approx(0.9)
    assert out.var_c == pytest.approx(0.81 * 2.0 + 0.9)
    assert out.cov == pytest.approx(0.45 * 4.0)


@given(
    m=moments_strategy(),
    e1p=st.floats(0.0, 1.0),
    e1c=st.floats(0.0, 1.0),
    e2p=st.floats(0.0, 1.0),
    e2c=st.floats(0.0, 1.0),
)
@settings(max_examples=200)
def test_apply_loss_composition(m, e1p, e1c, e2p, e2c):
    ch1, ch2 = LossChannel(e1p, e1c), LossChannel(e2p, e2c)
    seq = apply_loss(apply_loss(m, ch1), ch2)
    combined = apply_loss(m, LossChannel(e1p * e2p, e1c * e2c))
    assert seq.mean_p == pytest.approx(combined.mean_p, rel=1e-12, abs=1e-300)
    assert seq.var_p == pytest.approx(combined.var_p, rel=1e-9, abs=1e-12)
    assert seq.var_c == pytest.approx(combined.var_c, rel=1e-9, abs=1e-12)
    assert seq.cov == pytest.approx(combined.cov, rel=1e-12, abs=1e-300)


@given(
    gain=st.floats(1.05, 10.0),
    ep=st.floats(0.05, 1.0),
    ec=st.floats(0.05, 1.0),
)
@settings(max_examples=200)
def test_loss_never_improves_squeezing(gain, ep, ec):
    from quadsense.source import FwmSourceParams, fwm_moments

    m = fwm_moments(FwmSourceParams(gain=gain, seed_flux=1.0))
    d = apply_loss(m, LossChannel(ep, ec))
    before = detection.squeezing_report(m, detection.optimal_gain(m))
    after = detection.squeezing_report(d, detection.optimal_gain(d))
    assert after.ratio_linear >= before.ratio_linear - 1e-12


# -- quadrant cut -------------------------------------------------------------


def test_quadrant_cut_small_cells_preserve_squeezing():
    grid = build_coherence_grid(360.0, 360.0, 0.25)
    cut = quadrant_cut(G2_IDEAL, grid)
    # Tiny cells: the cut is a pure partition, so the quadrant keeps nearly
    # a quarter of the covariance and the balanced squeezing ratio of the
    # full beam.
    assert 1.0 - cut.cov / (0.25 * G2_IDEAL.cov) < 0.003
    before = detection.squeezing_report(G2_IDEAL, 1.0).ratio_linear
    after = detection.squeezing_report(cut, 1.0).ratio_linear
    assert after == pytest.approx(before, rel=0.02)


def test_quadrant_cut_monotone_degradation_with_cell_size():
    ratios = []
    for d_c in (5.0, 20.0, 80.0, 160.0):
        grid = build_coherence_grid(360.0, 360.0, d_c)
        cut = quadrant_cut(G2_IDEAL, grid)
        ratios.append(detection.squeezing_report(cut, 1.0).ratio_linear)
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_quadrant_cut_single_interior_cell_is_pure_loss():
    # All the power sits in whole cells off the axis, one per quadrant: no
    # cell straddles a cut line, so the cut keeps the covariance share of
    # its power.
    share = reference_cov_share(np.array([0.5]), np.array([0.5]), 0.0, 0.0)
    cut = quadrant_cut(G2_IDEAL, CoherenceGrid(cov_share=share, half_cells=1))
    assert cut.mean_p == 0.25 * G2_IDEAL.mean_p
    assert cut.cov == pytest.approx(0.25 * G2_IDEAL.cov, rel=1e-12)


def test_quadrant_cut_symmetric_beam_splits_evenly():
    grid = build_coherence_grid(360.0, 300.0, 40.0)
    cut = quadrant_cut(G2_IDEAL, grid)
    assert cut.mean_p == 0.25 * G2_IDEAL.mean_p
    assert cut.mean_c == 0.25 * G2_IDEAL.mean_c
    assert cut.var_c == 0.25 * G2_IDEAL.var_c


def _brute_force_cut(m, waist_p, waist_c, d_c, q):
    """Sum the moments of every cell-quadrant rectangle, one cell at a time.

    Builds its own full-axis cell centers from the cell size, out to the
    first cell whose outer edge reaches three waists of the wider beam.
    Each rectangle's power is a product of ndtr differences over its own
    bounds, an interval above the axis taken at its mirror image so that no
    difference of two values near 1 loses a far cell's power. A rectangle
    keeps a covariance share only when it is the whole cell: the integral of
    sqrt(I_p I_c) over it, which is B^2 times its power under a Gaussian of
    width sigma_e. Returns the quadrant's moments.
    """
    sx, sy = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}[q]
    sigma_p, sigma_c = waist_p / 4.0, waist_c / 4.0
    spread = sigma_p**2 + sigma_c**2
    overlap_sq = 2.0 * sigma_p * sigma_c / spread
    sigma_e = sigma_p * sigma_c * math.sqrt(2.0 / spread)
    half = math.ceil(3.0 * max(waist_p, waist_c) / d_c - 0.5)
    coords = [k * d_c for k in range(-half, half + 1)]
    h = 0.5 * d_c

    def interval(lo, hi, sigma):
        if lo >= 0.0:
            return ndtr(-lo / sigma) - ndtr(-hi / sigma)
        return ndtr(hi / sigma) - ndtr(lo / sigma)

    def power(xlo, xhi, ylo, yhi, sigma):
        return interval(xlo, xhi, sigma) * interval(ylo, yhi, sigma)

    def side(lo, hi, s):
        return (max(lo, 0.0), hi) if s > 0 else (lo, min(hi, 0.0))

    tot_p = tot_c = cov = 0.0
    pieces = []
    for cx in coords:
        for cy in coords:
            cell = (cx - h, cx + h, cy - h, cy + h)
            tot_p += power(*cell, sigma_p)
            tot_c += power(*cell, sigma_c)
            xlo, xhi = side(cx - h, cx + h, sx)
            ylo, yhi = side(cy - h, cy + h, sy)
            if xhi <= xlo or yhi <= ylo:
                continue
            rect = (xlo, xhi, ylo, yhi)
            pieces.append((power(*rect, sigma_p), power(*rect, sigma_c)))
            if rect == cell:
                cov += overlap_sq * power(*cell, sigma_e)
    mp = mc = 0.0
    for wp, wc in pieces:
        mp += wp / tot_p
        mc += wc / tot_c
    return TwinBeamMoments(
        mp * m.mean_p, mc * m.mean_c, mp * m.var_p, mc * m.var_c, cov * m.cov
    )


@pytest.mark.parametrize(
    "waist_p, waist_c, d_c",
    [
        (16.0, 16.0, 8.0),
        (16.0, 15.0, 8.0),
        (16.0, 16.0, 64.0),
        (100.0, 330.0, 60.0),
    ],
)
def test_quadrant_cut_matches_brute_force_cell_enumeration(waist_p, waist_c, d_c):
    # Every quadrant of the enumerated cells matches the one half-axis cut.
    cut = quadrant_cut(G2_IDEAL, build_coherence_grid(waist_p, waist_c, d_c))
    for q in (1, 2, 3, 4):
        exact = _brute_force_cut(G2_IDEAL, waist_p, waist_c, d_c, q)
        for name in ("mean_p", "mean_c", "var_p", "var_c", "cov"):
            assert getattr(cut, name) == pytest.approx(
                getattr(exact, name), rel=1e-12, abs=0.0
            ), (q, name)


def test_layout_validation():
    with pytest.raises(ValidationError):
        QuadrantLayout(window_size=0.0, gap=20.0, tilt_deg=26.0)
    with pytest.raises(ValidationError):
        QuadrantLayout(window_size=200.0, gap=-1.0, tilt_deg=26.0)
    with pytest.raises(ValidationError):
        QuadrantLayout(window_size=200.0, gap=20.0, tilt_deg=90.0)
    with pytest.raises(ValidationError):
        LossChannel(1.2, 0.5)
    for diameter in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError):
            quadrant_transmission(diameter, REFERENCE_LAYOUT)
