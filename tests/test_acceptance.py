"""Acceptance gate: nine end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines on a passing run (pytest hides captured stdout otherwise).
"""

import numpy as np
import pytest

from conftest import covariance_from_noise, min_difference_noise
from quadsense import analysis, montecarlo, optics, cli
from quadsense.detection import (
    LossChannel,
    TwinBeamMoments,
    difference_noise,
    optimal_gain,
)
from quadsense.optics import QuadrantLayout, apply_loss

# Classical thresholds recorded alongside the twin-beam thresholds in the
# reference experiment, paired quadrant by quadrant.
MEASURED_V_CS_MV = (307.0, 327.0, 394.0, 392.0)
MEASURED_V_TB_MV = (252.0, 265.0, 319.0, 316.0)


def _report(num, desc, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def verification(chain):
    return montecarlo.run_verification(chain, n_samples=10_000_000, seed=20260826)


def test_criterion_1_gain_optimum_and_covariance_round_trip():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(10_000):
        mp, mc = rng.uniform(0.1, 100.0, size=2)
        vp = mp * rng.uniform(1.0, 5.0)
        vc = mc * rng.uniform(1.0, 5.0)
        cov = rng.uniform(0.0, 0.98) * np.sqrt(vp * vc)
        m = TwinBeamMoments(mp, mc, vp, vc, cov)
        ch = LossChannel(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))

        det = apply_loss(m, ch)
        g = optimal_gain(det)
        n_min = min_difference_noise(det)
        n_at_g = difference_noise(det, g)
        ok &= abs(n_at_g - n_min) <= 1e-12 * n_min
        # A scan around the stationary point must not find anything lower.
        for dg in (-1e-3, 1e-3):
            ok &= difference_noise(det, g * (1.0 + dg)) >= n_min * (1 - 1e-12)

        v_diff = difference_noise(det, 1.0)
        cov_back = covariance_from_noise(det.var_p, det.var_c, v_diff)
        ok &= abs(cov_back - det.cov) <= 1e-12 * max(abs(det.cov), 1.0)
        if not ok:
            break
    _report(1, "optimal gain minimizes noise, covariance round-trips", ok)


def test_criterion_2_sampling_matches_independent_oracles(verification):
    oracle = {"fock_vs_closed_form", "thinning_vs_loss_map", "sampled_difference_noise"}
    checks = {c.name: c for c in verification}
    ok = oracle <= set(checks) and all(checks[n].passed for n in oracle)
    detail = ", ".join(f"{n}={checks[n].statistic:.3g}" for n in sorted(oracle))
    _report(2, f"closed forms match Fock/thinning/sampling oracles ({detail})", ok)


def test_criterion_3_squeezing_budget(chain):
    r = chain.residuals_db
    ok = all(abs(r[k]) < 0.1 for k in ("source", "post_optics", "post_cut"))
    ok &= abs(r["final"]) <= 0.3
    ok &= abs(r["attenuation"]) <= 1.0
    _report(
        3,
        "staged squeezing budget: balanced stages within 0.1 dB, "
        f"final {r['final']:+.3f} dB (|.|<=0.3), "
        f"attenuation {r['attenuation']:+.3f} dB (|.|<=1.0)",
        ok,
    )


def test_criterion_4_threshold_squeezing_law(chain):
    ok = True
    predicted = []
    for q in (1, 2, 3, 4):
        rep = chain.enhancement_report(q)
        expected = 10.0 ** (abs(chain.sensors[q - 1].report.ratio_db) / 20.0)
        ratio = rep.v_cs / rep.v_tb
        ok &= abs(ratio - expected) <= 1e-9 * expected
        ok &= 21.45 <= rep.enhancement_pct <= 23.65
        predicted.append(ratio)
    measured = [c / t for c, t in zip(MEASURED_V_CS_MV, MEASURED_V_TB_MV)]
    # Per-quadrant resonance parameters are not identifiable from the
    # published numbers, so compare the predicted enhancement range against
    # the measured range rather than pairing quadrants individually.
    lo_gap = abs(min(predicted) - min(measured)) * 100.0
    hi_gap = abs(max(predicted) - max(measured)) * 100.0
    ok &= lo_gap <= 1.5 and hi_gap <= 1.5
    _report(
        4,
        "threshold ratio equals 10^(|dB|/20); enhancements in [21.45, 23.65]%; "
        f"range endpoints within 1.5 pp of measured ({lo_gap:.2f}, {hi_gap:.2f})",
        ok,
    )


def test_criterion_5_beam_size_optimum():
    layout = QuadrantLayout(window_size=200.0, gap=20.0, tilt_deg=26.0)
    best_d, best_t = optics.optimize_waist(
        layout, optics.waist_scan(layout, (100.0, 1000.0))
    )
    ok = abs(best_d - 330.0) <= 10.0 and abs(best_t - 0.80) <= 0.02

    diameters = np.linspace(100.0, 1000.0, 181)
    totals = np.array([optics.quadrant_transmission(d, layout) for d in diameters])
    rising = np.diff(totals) > 1e-12
    # Unimodal: once the curve starts falling it never rises again.
    first_fall = int(np.argmin(rising)) if not rising.all() else len(rising)
    ok &= not rising[first_fall:].any()
    _report(
        5,
        f"collection optimum at D={best_d:.1f} um (330+-10), "
        f"T={best_t:.3f} (0.80+-0.02), curve unimodal",
        ok,
    )


def test_criterion_6_uncorrelated_pairs_add_in_quadrature(chain):
    ok = True
    for i in (1, 2, 3, 4):
        for j in (1, 2, 3, 4):
            if i == j:
                continue
            # A cross pair keeps the cut's means and variances.
            m, d = chain.cut, chain.detected(i, j)
            ch = chain.pair_channel(i)
            rep = chain.sensors[i - 1].report
            g = rep.gain
            ok &= d.cov == 0.0
            var_p = ch.eta_p**2 * (m.var_p - m.mean_p) + ch.eta_p * m.mean_p
            var_c = ch.eta_c**2 * (m.var_c - m.mean_c) + ch.eta_c * m.mean_c
            total = var_p + g**2 * var_c
            noise_off = difference_noise(d, g)
            ok &= abs(noise_off - total) <= 1e-12 * total
            # Excess thermal noise keeps every cross pair above the SNL.
            ok &= noise_off > rep.snl
    _report(6, "12 cross pairs add in quadrature and sit above the SNL", ok)


def test_criterion_7_shot_noise_scales_linearly_with_power(verification):
    check = {c.name: c for c in verification}["snl_linearity"]
    _report(
        7,
        "sampled coherent-state noise linear in power "
        f"(max deviation {check.statistic:.3f} dB <= 0.2 dB)",
        check.passed,
    )


def test_criterion_8_threshold_voltages(chain):
    ok = True
    worst_rel = 0.0
    curves = chain.sampled_snr_sweep(
        [(q, q) for q in (1, 2, 3, 4)], n_samples=500_000, seed=chain.scenario.seed
    )
    for q, target, curve in zip((1, 2, 3, 4), MEASURED_V_TB_MV, curves):
        rep = chain.enhancement_report(q)
        ok &= abs(rep.v_tb - target) <= 1.0
        v_sampled, extrapolated = analysis.threshold_voltage(curve)
        ok &= not extrapolated
        rel = abs(v_sampled - rep.v_tb) / rep.v_tb
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 0.02
    _report(
        8,
        "twin-beam thresholds within 1 mV of (252, 265, 319, 316), a "
        "consistency check since the threshold targets define them; "
        f"sampled thresholds within 2% of analytic (worst {worst_rel:.2%})",
        ok,
    )


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for sub in ("fig4", "verify"):
            assert cli.main([sub, "--out", str(out), "--samples", "20000"]) == 0
        outputs.append(
            (out / "fig4_sweep.csv").read_bytes()
            + (out / "fig4_enhancement.json").read_bytes()
            + (out / "verify.json").read_bytes()
        )
    ok = outputs[0] == outputs[1]
    _report(9, "byte-identical fig4 and verify reruns", ok)
