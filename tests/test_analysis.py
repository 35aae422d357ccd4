import copy
import math

import numpy as np
import pytest

from conftest import default_scenario_dict
from quadsense import analysis, detection
from quadsense.analysis import (
    EnhancementReport,
    SNRCurve,
    signal_estimate,
    threshold_voltage,
)
from quadsense.errors import FitInfeasibleError, ValidationError
from quadsense.optics import apply_loss
from quadsense.plasmonic import modulation_signal
from quadsense.scenario import Scenario, build_chain


def test_signal_estimate():
    assert signal_estimate(1.0, 1.0) == 0.0
    assert signal_estimate(2.0, 1.0) == 1.0
    with pytest.raises(ValidationError):
        signal_estimate(-1.0, 1.0)


def test_threshold_voltage_exact_line():
    v = np.array([25.0, 50.0, 100.0])
    curve = SNRCurve((1, 1), "twin", v, v / 100.0)
    v_th, extrapolated = threshold_voltage(curve)
    assert v_th == pytest.approx(100.0)
    assert not extrapolated


def test_threshold_voltage_extrapolation_flag():
    v = np.array([10.0, 20.0])
    curve = SNRCurve((1, 1), "twin", v, v / 1000.0)
    v_th, extrapolated = threshold_voltage(curve)
    assert v_th == pytest.approx(1000.0)
    assert extrapolated


def test_threshold_voltage_fit_path():
    rng = np.random.default_rng(7)
    v = np.arange(25.0, 525.0, 25.0)
    noisy = v / 250.0 + rng.normal(0.0, 0.01, v.size)
    curve = SNRCurve((1, 1), "twin", v, noisy)
    v_th, _ = threshold_voltage(curve)
    assert v_th == pytest.approx(250.0, rel=0.02)


def test_threshold_voltage_degenerate_curves():
    # Voltages whose squares sum to 0, even by underflow, are invalid input.
    for v in ([0.0], [0.0, 1e-300]):
        curve = SNRCurve((1, 1), "twin", np.array(v), np.ones(len(v)))
        with pytest.raises(ValidationError, match="sweep.voltages_mv"):
            threshold_voltage(curve)
    # A curve that does not grow with voltage has no threshold to fit.
    for snr in ([0.0], [-1.0]):
        curve = SNRCurve((1, 1), "twin", np.array([10.0]), np.array(snr))
        with pytest.raises(FitInfeasibleError, match="does not grow"):
            threshold_voltage(curve)
    with pytest.raises(ValidationError):
        SNRCurve((1, 1), "twin", np.array([]), np.array([]))


# -- chain-level sweep behavior --------------------------------------------


def test_sweep_curves_are_linear_in_voltage(chain):
    curves = chain.snr_sweep((1, 1))
    for curve in curves.values():
        slopes = np.asarray(curve.snr) / np.asarray(curve.voltages)
        assert np.allclose(slopes, slopes[0], rtol=1e-9)


def test_sweep_ordering_correlated_beats_snl_beats_uncorrelated(chain):
    correlated = np.asarray(chain.snr_sweep((1, 1))["twin"].snr)
    matched = np.asarray(chain.snr_sweep((1, 1))["coherent"].snr)
    uncorrelated = np.asarray(chain.snr_sweep((1, 2))["twin"].snr)
    assert np.all(correlated >= matched)
    assert np.all(matched >= uncorrelated)


def test_sixteen_pairs_split_into_correlated_and_uncorrelated(chain):
    correlated = 0
    uncorrelated = 0
    for i in (1, 2, 3, 4):
        for j in (1, 2, 3, 4):
            if chain.pair_moments(i, j).cov > 0:
                correlated += 1
            else:
                uncorrelated += 1
    assert correlated == 4
    assert uncorrelated == 12


def test_signal_quadruples_between_drive_levels(chain):
    s120 = chain.signal(1, 120.0)
    s60 = chain.signal(1, 60.0)
    assert s120 == pytest.approx(4.0 * s60, rel=1e-12)


def test_threshold_squeezing_law(chain):
    # v_cs / v_tb = 10^(|squeezing dB| / 20) exactly in the analytic model.
    for q in (1, 2, 3, 4):
        rep = chain.enhancement_report(q)
        expected = 10.0 ** (abs(chain.reports[q].ratio_db) / 20.0)
        assert rep.v_cs / rep.v_tb == pytest.approx(expected, rel=1e-9)


def _perturbed(**sections):
    cfg = copy.deepcopy(default_scenario_dict())
    for name, keys in sections.items():
        cfg[name].update(keys)
    return cfg


@pytest.mark.parametrize(
    "cfg, extrapolated",
    [
        (_perturbed(), [False] * 4),
        # Pair 3's v_cs and every threshold of pair 4 lie beyond 500 mV.
        (
            _perturbed(calibration={"threshold_targets_mv": [40.0, 180.0, 470.0, 1300.0]}),
            [False, False, True, True],
        ),
        (_perturbed(calibration={"residual_db": [-1.2, -1.5, -2.1, -2.4]}), [False] * 4),
        (_perturbed(coherence={"cell_um": 0.8}, beam={"waist_c_um": 380.0}), [False] * 4),
        # Stops above every v_tb but below pair 3's and 4's v_cs.
        (
            _perturbed(sweep={"voltages_mv": [60.0, 120.0, 180.0, 240.0, 320.0, 360.0]}),
            [False, False, True, True],
        ),
        # Stops below every threshold.
        (_perturbed(sweep={"voltages_mv": [1.0, 2.0, 3.0]}), [True] * 4),
    ],
)
def test_closed_form_thresholds_match_the_fitted_sweep(cfg, extrapolated):
    # The reference is the least-squares fit of the three analytic SNR
    # curves. The SNR is linear in voltage to rounding, so the fitted slope
    # differs from the closed form only by the rounding of a dot product
    # over the sweep: rel 1e-12 is ~4,500 ulp, and 1e-10 percentage points
    # on the enhancement.
    chain = build_chain(Scenario.from_dict(cfg))
    for q in (1, 2, 3, 4):
        rep = chain.enhancement_report(q)
        fits = {k: threshold_voltage(c) for k, c in chain.snr_sweep((q, q)).items()}
        v_tb, v_cs, v_opt = (fits[k][0] for k in ("twin", "coherent", "optimal"))
        assert rep.v_tb == pytest.approx(v_tb, rel=1e-12, abs=0.0)
        assert rep.v_cs == pytest.approx(v_cs, rel=1e-12, abs=0.0)
        assert rep.v_opt == pytest.approx(v_opt, rel=1e-12, abs=0.0)
        fitted_pct = (v_cs / v_tb - 1.0) * 100.0
        assert rep.enhancement_pct == pytest.approx(fitted_pct, rel=0.0, abs=1e-10)
        assert rep.extrapolated == any(ex for _, ex in fits.values())
        assert rep.extrapolated == extrapolated[q - 1]


def test_enhancement_report_fields(chain):
    rep = chain.enhancement_report(1)
    assert isinstance(rep, EnhancementReport)
    assert rep.v_tb > 0 and rep.v_cs > rep.v_tb
    assert not rep.extrapolated
    assert rep.enhancement_pct == pytest.approx(
        (rep.v_cs / rep.v_tb - 1.0) * 100.0, rel=1e-12
    )


def test_signal_sweep_is_the_per_voltage_signal_to_the_bit(chain):
    # One call per sweep; every point keeps the bits of the
    # per-voltage modulation_signal, and of its documented law
    # floor * (V / threshold)**2, evaluated as r = V / threshold, then
    # floor * (r * r), in Python floats.
    sc = chain.scenario
    v = np.asarray(sc.sweep_voltages_mv + (0.0, 1e-3, 7.77, 1e4), float)
    for q in (1, 2, 3, 4):
        floor, v_th = chain.reports[q].diff_variance, sc.threshold_targets_mv[q - 1]
        swept = chain.signal(q, v)
        for vk, s in zip(v, swept):
            assert s == modulation_signal(floor, float(vk), v_th), (q, vk)
            r = float(vk) / v_th
            assert s == floor * (r * r), (q, vk)


def _from_scratch_curves(chain, i, j):
    """A pair's three analytic SNR curves, each point computed alone:
    sqrt(signal / noise), with the signal of the per-voltage law and the
    noise of the pair's moments after its loss channel."""
    sc = chain.scenario
    d = apply_loss(chain.pair_moments(i, j), chain.pair_channel(i))
    g = chain.reports[i].gain
    noises = {
        "twin": detection.difference_noise(d, g),
        "coherent": detection.snl_noise(d, g),
        "optimal": d.mean_p,
    }
    floor, v_th = chain.reports[i].diff_variance, sc.threshold_targets_mv[i - 1]
    return {
        kind: tuple(
            math.sqrt(modulation_signal(floor, v, v_th) / n) for v in sc.sweep_voltages_mv
        )
        for kind, n in noises.items()
    }


SWEEP_SCENARIOS = {
    "default": _perturbed(),
    "waist_mismatch": _perturbed(beam={"waist_p_um": 330.0, "waist_c_um": 352.0}),
    "threshold_targets": _perturbed(
        calibration={"threshold_targets_mv": [40.0, 180.0, 470.0, 1300.0]}
    ),
    "sweep_voltages": _perturbed(sweep={"voltages_mv": [0.0, 3.5, 60.0, 121.0, 777.0]}),
}
PAIRS = [(i, j) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]


@pytest.mark.parametrize("name", sorted(SWEEP_SCENARIOS))
def test_every_pair_sweep_is_its_from_scratch_value_to_the_bit(name):
    # A chain computes each quadrant's swept signals, detected pairs and
    # SNR tuples once and shares them between pairs; every curve must
    # still be the value computed alone, whatever order the pairs are
    # swept in and however often.
    chain = build_chain(Scenario.from_dict(SWEEP_SCENARIOS[name]))
    for order in (PAIRS, PAIRS[::-1], PAIRS):
        for i, j in order:
            expected = _from_scratch_curves(chain, i, j)
            curves = chain.snr_sweep((i, j))
            assert sorted(curves) == sorted(expected)
            for kind, curve in curves.items():
                assert curve.pair == (i, j) and curve.kind == kind
                assert curve.voltages == chain.scenario.sweep_voltages_mv
                assert curve.snr == expected[kind], (name, i, j, kind)


def test_chains_from_different_scenarios_keep_their_own_sweeps():
    first = build_chain(Scenario.from_dict(SWEEP_SCENARIOS["default"]))
    other = build_chain(Scenario.from_dict(SWEEP_SCENARIOS["threshold_targets"]))
    for i, j in PAIRS:
        a, b = first.snr_sweep((i, j)), other.snr_sweep((i, j))
        assert {k: c.snr for k, c in a.items()} == _from_scratch_curves(first, i, j)
        assert {k: c.snr for k, c in b.items()} == _from_scratch_curves(other, i, j)
        assert a["twin"].snr != b["twin"].snr
    # What a chain keeps is no part of its value or its repr.
    fresh = build_chain(Scenario.from_dict(SWEEP_SCENARIOS["default"]))
    assert first == fresh and repr(first) == repr(fresh)
