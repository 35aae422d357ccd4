import ast
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import default_scenario_dict
from quadsense import cli, montecarlo
from quadsense import scenario as scenario_module
from quadsense.detection import (
    difference_noise,
    optimal_gain,
    probe_transmission_for_ratio,
    squeezing_report,
)
from quadsense.errors import FitInfeasibleError, ValidationError
from quadsense.optics import LossChannel, apply_loss, quadrant_transmission
from quadsense.scenario import (
    SCHEMA,
    Scenario,
    SensingChain,
    StageBudget,
    build_chain,
    dump_scenario,
    load_scenario,
)
from quadsense.source import build_coherence_grid, fwm_moments


def test_scenario_reports_missing_key_with_path():
    cfg = default_scenario_dict()
    del cfg["beam"]["waist_p_um"]
    with pytest.raises(ValidationError, match="beam.waist_p_um"):
        Scenario.from_dict(cfg)


def test_scenario_rejects_bad_sweep():
    cfg = default_scenario_dict()
    cfg["sweep"]["voltages_mv"] = []
    with pytest.raises(ValidationError):
        Scenario.from_dict(cfg)
    cfg["sweep"]["voltages_mv"] = [100.0, 50.0]
    with pytest.raises(ValidationError):
        Scenario.from_dict(cfg)


def test_scenario_seed_is_kept_exactly():
    cfg = default_scenario_dict()
    cfg["seed"] = 2**60 + 1
    assert Scenario.from_dict(cfg).seed == 2**60 + 1
    cfg["seed"] = 7.0
    assert Scenario.from_dict(cfg).seed == 7


def test_scenario_requires_four_sensors():
    cfg = default_scenario_dict()
    cfg["resonances"] = cfg["resonances"][:3]
    with pytest.raises(ValidationError):
        Scenario.from_dict(cfg)


def test_dump_round_trip(scenario):
    text = dump_scenario(scenario)
    again = Scenario.from_dict(yaml.safe_load(text))
    assert again.seed == scenario.seed
    assert again.sweep_voltages_mv == scenario.sweep_voltages_mv
    assert again.resonances == scenario.resonances
    assert again.stage_targets_db == scenario.stage_targets_db


def test_chain_calibration_residuals(chain):
    r = chain.residuals_db
    assert abs(r["source"]) < 0.1
    assert abs(r["post_optics"]) < 0.1
    assert abs(r["post_cut"]) < 0.1
    assert abs(r["final"]) < 0.3
    assert abs(r["attenuation"]) < 1.0
    for q in (1, 2, 3, 4):
        assert abs(r[f"residual_q{q}"]) < 1e-6


def test_chain_reproduces_threshold_targets(chain):
    for q, target in zip((1, 2, 3, 4), chain.scenario.threshold_targets_mv):
        rep = chain.enhancement_report(q)
        assert rep.v_tb == pytest.approx(target, abs=1e-6)


def test_calibration_reads_every_pair_through_the_chain(monkeypatch):
    # Calibration forms each quadrant's matched pair and a cross pair with
    # scenario._detected, which SensingChain.detected also calls, so the
    # cross-pair rule has one statement.
    formed = []
    detected = scenario_module._detected

    def recording(cut, channel, i, j):
        formed.append((i, j))
        return detected(cut, channel, i, j)

    monkeypatch.setattr(scenario_module, "_detected", recording)
    chain = build_chain(load_scenario())
    for q in (1, 2, 3, 4):
        assert (q, q) in formed
        assert any(i == q and j != q for i, j in formed)
    for q in (1, 2, 3, 4):
        v_t = chain.scenario.threshold_targets_mv[q - 1]
        rep = chain.sensors[q - 1].report
        floor = rep.diff_variance
        for j in (1, 2, 3, 4):
            if j != q:
                noise = difference_noise(chain.detected(q, j), rep.gain)
                cross = v_t * math.sqrt(noise / floor)
                assert chain.sensors[q - 1].thresholds_mv[1] == cross


def test_every_budget_row_is_a_noise_report(chain):
    # The staged rows are balanced (g = 1) reports of the source, of the
    # beam after the imaging optics and of one quadrant of it; the sensor
    # rows are the optimal-gain reports of the chain's sensors.
    staged = [
        (label, squeezing_report(m, 1.0))
        for label, m in zip(
            ("source", "post_optics", "post_cut"),
            (fwm_moments(chain.source_params), chain.beam, chain.cut),
        )
    ]
    sensors = [(f"sensor_q{q}", chain.sensors[q - 1].report) for q in (1, 2, 3, 4)]
    assert chain.stage_budget == [
        StageBudget(label, rep.ratio_db, rep.gain, rep.gain_db)
        for label, rep in staged + sensors
    ]
    # squeezing_budget.csv writes the staged gains as 1 and 0.000.
    for row in chain.stage_budget[:3]:
        assert row.gain == 1.0 and row.gain_db == 0.0


def test_declared_cell_size_sets_the_grid(scenario):
    cfg = copy.deepcopy(scenario.raw)
    # Must stay small: large coherence cells lose too much covariance at
    # the cut for the staged squeezing targets to remain reachable.
    cfg["coherence"]["cell_um"] = 0.1
    chain = build_chain(Scenario.from_dict(cfg))
    waists = chain.scenario.waist_p_um, chain.scenario.waist_c_um
    assert chain.grid == build_coherence_grid(*waists, 0.1)
    # Finer cells straddle the cut lines less and keep more covariance.
    assert chain.grid.cov_share > build_coherence_grid(*waists, 1.0).cov_share


def test_default_chain_cell_size(chain):
    assert chain.scenario.cell_um == 1.0
    assert chain.grid == build_coherence_grid(360.0, 360.0, 1.0)


def test_default_calibration_is_identified(chain):
    # Every solved source parameter is interior: none rests on a bound.
    params = chain.source_params
    assert params.gain > 1.0
    assert params.excess_uncorrelated > 0.0
    assert 0.0 < chain.eta_optics < 1.0
    # The declared cell is no smaller than the wavelength.
    assert chain.scenario.cell_um >= chain.scenario.wavelength_nm / 1000.0
    # The staged targets are solved, not fitted.
    for stage in ("source", "post_optics", "post_cut"):
        assert abs(chain.residuals_db[stage]) <= 1e-9, stage


def _with(cfg, keys, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return Scenario.from_dict(cfg)


def test_infeasible_stage_targets_raise_on_every_call(scenario):
    targets = {**scenario.stage_targets_db, "source": -12.0, "post_optics": -1.0}
    infeasible = _with(scenario.raw, ("calibration", "stage_targets_db"), targets)
    raised = []
    for _ in range(2):
        with pytest.raises(FitInfeasibleError) as exc:
            build_chain(infeasible)
        raised.append(exc.value.residuals_db)
    assert raised[0] == raised[1]
    # The residuals are those of the nearest physical point, which meets the
    # source and post-optics targets and misses the post-cut one.
    assert abs(raised[0]["source"]) < 1e-9 and abs(raised[0]["post_optics"]) < 1e-9
    assert max(abs(raised[0][k]) for k in ("source", "post_optics", "post_cut")) > 0.1


def test_conjugate_transmission_is_one_window_mirrored(scenario):
    # The four windows are mirror images of one window, so eta_c reads the
    # layout's total transmission alone.
    rng = random.Random(5)
    for _ in range(40):
        layout = {
            "window_um": rng.uniform(150.0, 250.0),
            "gap_um": rng.uniform(0.0, 40.0),
            "tilt_deg": rng.uniform(0.0, 45.0),
        }
        chain = build_chain(_with(scenario.raw, ("layout",), layout))
        sc = chain.scenario
        total = quadrant_transmission(sc.waist_c_um, sc.layout)
        assert chain.eta_c == total * sc.mask_transmission * sc.quantum_efficiency


def test_coarse_cell_size_is_infeasible(scenario):
    cfg = copy.deepcopy(scenario.raw)
    cfg["coherence"]["cell_um"] = 40.0
    with pytest.raises(FitInfeasibleError):
        build_chain(Scenario.from_dict(cfg))


@pytest.mark.parametrize("quantum_efficiency", [0.1, 0.3])
def test_residual_met_at_full_probe_transmission_calibrates(chain, quantum_efficiency):
    # The residual the report gives at eta_p = 1 inverts to a root 13 ulp
    # above 1 at quantum efficiency 0.1, and 355 ulp above at 0.3, where the
    # ratio is near 1 and the root ill-conditioned. Within its rounding
    # bound the root is 1.0. A target 1e-12 dB off, on the side whose root
    # lies above 1, is still unreachable; on the other it calibrates below 1.
    cfg = default_scenario_dict()
    cfg["detector"]["quantum_efficiency"] = quantum_efficiency
    sc = Scenario.from_dict(cfg)
    clip = quadrant_transmission(sc.waist_c_um, sc.layout)
    eta_c = clip * sc.mask_transmission * sc.quantum_efficiency
    d = apply_loss(chain.cut, LossChannel(1.0, eta_c))
    db = squeezing_report(d, optimal_gain(d)).ratio_db
    cfg["calibration"]["residual_db"] = [db] * 4
    sensors = build_chain(Scenario.from_dict(cfg)).sensors
    assert [sensor.eta_p for sensor in sensors] == [1.0] * 4
    above = []
    for target in (db + 1e-12, db - 1e-12):
        cfg["calibration"]["residual_db"] = [target] * 4
        root = probe_transmission_for_ratio(chain.cut, eta_c, 10.0 ** (target / 10.0))
        above.append(root > 1.0)
        if root > 1.0:
            with pytest.raises(FitInfeasibleError, match="unreachable for quadrant 1"):
                build_chain(Scenario.from_dict(cfg))
        else:
            assert build_chain(Scenario.from_dict(cfg)).sensors[0].eta_p == root
    assert sorted(above) == [False, True]


# -- CLI ---------------------------------------------------------------------


def run_cli(*args):
    return cli.main(list(args))


def test_cli_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_cli_missing_scenario_is_io_error(tmp_path):
    assert run_cli("verify", "--scenario", str(tmp_path / "nope.yaml")) == 4


def test_cli_invalid_scenario_is_validation_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("source: {}\n")
    assert run_cli("squeezing-budget", "--scenario", str(bad)) == 2


def test_cli_empty_sweep_is_validation_error(tmp_path):
    cfg = default_scenario_dict()
    cfg["sweep"]["voltages_mv"] = []
    path = tmp_path / "empty.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("snr-sweep", "--scenario", str(path)) == 2


@pytest.mark.parametrize(
    "section, key", [("detector", "quantum_efficiency"), ("layout", "mask_transmission")]
)
def test_cli_dark_conjugate_arm_is_numeric_error(tmp_path, section, key):
    cfg = default_scenario_dict()
    cfg[section][key] = 0
    path = tmp_path / "dark.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("squeezing-budget", "--scenario", str(path)) == 3


@pytest.mark.parametrize("value", [0.0, 0.5])
def test_cli_non_squeezed_residual_is_numeric_error(tmp_path, capsys, value):
    # Every probe transmission leaves the difference noise below the SNL, so
    # a residual target at or above 0 dB has no solution.
    cfg = default_scenario_dict()
    cfg["calibration"]["residual_db"][1] = value
    path = tmp_path / "residual.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("squeezing-budget", "--scenario", str(path), "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "unreachable for quadrant 2" in err and err.count("\n") == 1, err


def test_cli_infeasible_stage_targets_print_residuals(tmp_path, capsys):
    cfg = default_scenario_dict()
    cfg["calibration"]["stage_targets_db"].update({"source": -12.0, "post_optics": -1.0})
    path = tmp_path / "infeasible.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("squeezing-budget", "--scenario", str(path), "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("consistency error: ") and err.count("\n") == 1, err
    assert "residuals_db: " in err
    for stage in ("source", "post_optics", "post_cut", "final", "attenuation"):
        assert f"{stage}=" in err, stage


def test_cli_malformed_yaml_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    # Unclosed, not UTF-8 text, and nested deeper than the parser recurses.
    deep = b"seed: " + b"[" * 5000 + b"]" * 5000 + b"\n"
    for text in (b"seed: [1, 2\n", b"seed: 1\n\xff\xfe bad\n", deep):
        bad.write_bytes(text)
        assert run_cli("squeezing-budget", "--scenario", str(bad)) == 2, text[:12]
        err = capsys.readouterr().err
        assert err.startswith("validation error: malformed scenario YAML"), err
        assert err.count("\n") == 1, err
    # An ignored key that parses, yet nests deeper than the YAML emitter
    # recurses: dumping it is invalid input too.
    deep = "[" * 400 + "]" * 400
    text = yaml.safe_dump(default_scenario_dict())
    bad.write_text(text.replace("calibration:\n", f"calibration:\n  gain_bound: {deep}\n"))
    assert run_cli("squeezing-budget", "--scenario", str(bad), "--dump-config") == 2
    err = capsys.readouterr().err
    assert err == "validation error: malformed scenario YAML: nested too deeply to dump\n"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("beam", "waist_p_um", 0.0),
        ("beam", "waist_c_um", 0.0),
        ("beam", "waist_c_um", -10.0),
        ("coherence", "cell_um", 0.0),
        ("coherence", "cell_um", 1e-300),
        ("coherence", "cell_um", None),
        ("coherence", "cell_um", 360.0),
        ("beam", "waist_p_um", 1e-300),
        (None, "wavelength_nm", 1e300),
    ],
)
def test_cli_out_of_range_scalar_is_validation_error(
    tmp_path, capsys, section, key, value
):
    cfg = default_scenario_dict()
    (cfg if section is None else cfg[section])[key] = value
    path = tmp_path / "scalar.yaml"
    path.write_text(yaml.safe_dump(cfg))
    # Twice: a failed run must leave nothing that turns the next into a success.
    for _ in range(2):
        assert run_cli("fig3", "--scenario", str(path), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "fig3.csv").exists()


def _key_path(keys) -> str:
    """The dotted key path of ``keys``, list indices in brackets."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


@pytest.mark.parametrize(
    "keys, value, at_load",
    [
        pytest.param(("resonances", 0, "fwhm_nm"), "abc", True, id="fwhm_nm"),
        pytest.param(("beam", "waist_p_um"), "x", True, id="waist_p_um"),
        pytest.param(("seed",), "abc", True, id="seed"),
        pytest.param(("seed",), 1.5, True, id="seed_fraction"),
        pytest.param(("seed",), -0.5, True, id="seed_negative_fraction"),
        pytest.param(
            ("calibration", "stage_targets_db", "source"), float("nan"), True,
            id="stage_target",
        ),
        pytest.param(("resonances",), [1, 2, 3, 4], True, id="resonance_entry"),
        pytest.param(
            ("sweep", "voltages_mv"), [-50] + list(range(25, 501, 25)), True,
            id="negative_voltage",
        ),
        pytest.param(
            ("resonances", 0, "fwhm_nm"), 1e200, True,
            id="fwhm_nm_overflows_transmission",
        ),
        pytest.param(
            ("resonances", 0, "fwhm_nm"), 1e100, True, id="fwhm_nm_overflows_slope"
        ),
        pytest.param(
            ("calibration", "threshold_targets_mv"), [0, 0, 0, 0], True,
            id="zero_threshold",
        ),
        pytest.param(
            ("calibration", "threshold_targets_mv"), [1e-320, 265, 319, 316], False,
            id="tiny_threshold_overflows_kappa",
        ),
        pytest.param(
            ("calibration", "residual_db"), [1e300, -1.81, -1.70, -1.84], False,
            id="residual_overflows_ratio",
        ),
        pytest.param(
            ("calibration", "stage_targets_db", "post_cut"), 1e300, False,
            id="stage_target_overflows_ratio",
        ),
        pytest.param(
            ("calibration", "stage_targets_db", "post_cut"), 1000.0, False,
            id="stage_target_overflows_source_moments",
        ),
        pytest.param(("modulation", "frequency_hz"), 0, True, id="frequency_hz"),
        # Bounds each key states in the scenario table.
        pytest.param(("wavelength_nm",), -795.0, True, id="negative_wavelength"),
        pytest.param(
            ("detector", "quantum_efficiency"), 1.2, True, id="quantum_efficiency_above_1"
        ),
        pytest.param(
            ("layout", "mask_transmission"), 1.1, True, id="mask_transmission_above_1"
        ),
        pytest.param(("calibration", "final", "eta_p"), 1.5, True, id="eta_p_above_1"),
        pytest.param(("layout", "gap_um"), -5.0, True, id="negative_gap"),
        pytest.param(("layout", "tilt_deg"), 90.0, True, id="tilt_at_90_degrees"),
        pytest.param(("resonances", 0, "t_max"), 1.5, True, id="t_max_above_1"),
        # A grid too fine to build, and a wavelength at which a resonance's
        # Lorentzian overflows, are seen at load too.
        pytest.param(("coherence", "cell_um"), 1e-300, True, id="cell_um_grid_too_fine"),
        pytest.param(
            ("wavelength_nm",), 1e300, True, id="wavelength_overflows_lorentzian"
        ),
        # Booleans and strings are no numbers, and a key the table does not
        # list is an error: a typo, or an input that no longer exists.
        pytest.param(("seed",), True, True, id="seed_bool"),
        pytest.param(("layout", "window_um"), True, True, id="window_um_bool"),
        pytest.param(("resonances", 0, "t_max"), True, True, id="t_max_bool"),
        pytest.param(("beam", "waist_p_um"), "360", True, id="waist_p_um_string"),
        pytest.param(
            ("detector", "quantum_efficency"), 0.1, True, id="quantum_efficiency_typo"
        ),
        pytest.param(("coherence", "cell_mu"), 1.0, True, id="cell_um_typo"),
        pytest.param(("modulation", "kappa"), None, True, id="declared_kappa_null"),
        pytest.param(("modulation", "kappa"), [0, 0, 0, 0], True, id="zero_kappa"),
        pytest.param(
            ("modulation", "kappa"), [1e300, 1, 1, 1], True, id="kappa_overflows_signal"
        ),
        pytest.param(("source",), {"seed_flux": 4.0}, True, id="seed_flux"),
        pytest.param(
            ("source",),
            {"detuning": {"one_photon_ghz": 1.4, "two_photon_mhz": 4.0}},
            True,
            id="detuning",
        ),
        pytest.param(("resonances", 0, "dlambda_dn"), 150.0, True, id="dlambda_dn"),
        pytest.param(("rbw_scale",), 1.0, True, id="rbw_scale"),
    ],
)
def test_cli_malformed_scalar_is_validation_error(tmp_path, capsys, keys, value, at_load):
    # A flaw the loader can see fails every subcommand; one that only
    # calibration meets fails the subcommands that calibrate.
    cfg = default_scenario_dict()
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "malformed.yaml"
    path.write_text(yaml.safe_dump(cfg))
    cmds = sorted(cli._COMMANDS) if at_load else ("snr-sweep", "fig3")
    for cmd in cmds:
        argv = [cmd, "--scenario", str(path), "--samples", "1000", "--out", str(tmp_path)]
        assert run_cli(*argv) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1, err
        assert _key_path(keys) in err, err
    if not at_load:
        assert run_cli("resonance-scan", "--out", str(tmp_path)) == 0


def test_tiny_threshold_fails_only_the_subcommands_that_sweep(tmp_path, capsys):
    # The chain computes a sensor's swept signals when a sweep first needs
    # them, not at calibration: a threshold so small that they overflow
    # fails snr-sweep and fig3, and no subcommand that never sweeps.
    cfg = default_scenario_dict()
    cfg["calibration"]["threshold_targets_mv"][0] = 1e-300
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(cfg))
    scenario = ("--scenario", str(path), "--out", str(tmp_path))
    for cmd in ("squeezing-budget", "optimize-beam"):
        assert run_cli(cmd, *scenario) == 0, cmd
    assert run_cli("verify", *scenario, "--samples", "20000") == 0
    capsys.readouterr()
    for cmd, extra in (("snr-sweep", ()), ("fig3", ()), ("fig4", ("--samples", "20000"))):
        assert run_cli(cmd, *scenario, *extra) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("validation error: modulation signal at "), err
        assert err.count("\n") == 1 and "calibration.threshold_targets_mv" in err, err
    # A sweep that overflows fails before it writes its artifact.
    for name in ("snr_sweep.csv", "fig4_sweep.csv"):
        assert not (tmp_path / name).exists(), name


def test_threshold_that_underflows_to_zero_fails_the_sweep(tmp_path, capsys, chain):
    # A lossy conjugate arm leaves the probe's own shot noise under a
    # quarter of the floor, so at the least positive threshold target the
    # optimal curve's threshold, under half the target, rounds to 0. That
    # curve has no line: the sweeps are invalid input, and fail before
    # they write.
    qe = 0.1
    eta_c = chain.eta_c / chain.scenario.quantum_efficiency * qe
    detected = apply_loss(chain.cut, LossChannel(0.9, eta_c))
    cfg = default_scenario_dict()
    cfg["detector"] = {"quantum_efficiency": qe}
    rep = squeezing_report(detected, optimal_gain(detected))
    cfg["calibration"]["residual_db"] = [rep.ratio_db] * 4
    cfg["calibration"]["threshold_targets_mv"][0] = 5e-324
    cfg["sweep"]["voltages_mv"] = [0.0]
    assert build_chain(Scenario.from_dict(cfg)).sensors[0].thresholds_mv[-1] == 0.0
    path = tmp_path / "underflow.yaml"
    path.write_text(yaml.safe_dump(cfg))
    scenario = ("--scenario", str(path), "--out", str(tmp_path))
    assert run_cli("squeezing-budget", *scenario) == 0
    capsys.readouterr()
    for cmd, extra in (("snr-sweep", ()), ("fig4", ("--samples", "20000"))):
        assert run_cli(cmd, *scenario, *extra) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("validation error: an SNR = 1 threshold of sensor 1 "), err
        assert err.count("\n") == 1, err
    for name in ("snr_sweep.csv", "fig4_sweep.csv"):
        assert not (tmp_path / name).exists(), name


def _schema_paths(spec, keys=()):
    """``(keys, spec)`` of every key of the scenario table; a list stands
    for its entries by its first."""
    if isinstance(spec, dict):
        for key, sub in spec.items():
            yield keys + (key,), sub
            yield from _schema_paths(sub, keys + (key,))
    elif isinstance(spec, tuple):
        yield keys + (0,), spec[0]
        yield from _schema_paths(spec[0], keys + (0,))


def test_only_grid_extent_and_gain_bound_are_accepted_and_ignored():
    # With coherence.extent_um: the two keys perfbench's generator still writes.
    ignored = [_key_path(keys) for keys, spec in _schema_paths(SCHEMA) if spec is None]
    assert ignored == ["coherence.extent_um", "calibration.gain_bound"]
    cfg = default_scenario_dict()
    cfg["coherence"]["extent_um"] = "anything"
    cfg["calibration"]["gain_bound"] = [True, "anything"]
    raw = Scenario.from_dict(cfg).raw
    assert raw["coherence"]["extent_um"] == "anything"
    assert raw["calibration"]["gain_bound"] == [True, "anything"]


@pytest.mark.parametrize("extent", [1440.0, 2160.0, 4000.0, math.nan])
def test_ignored_grid_extent_moves_no_artifact(tmp_path, extent):
    # The grid reaches three waists of the wider beam whatever the
    # scenario once declared as its extent.
    cfg = default_scenario_dict()
    assert "extent_um" not in cfg["coherence"]
    cfg["coherence"]["extent_um"] = extent
    path = tmp_path / "extent.yaml"
    path.write_text(yaml.safe_dump(cfg))
    runs = {"default": (), "extent": ("--scenario", str(path))}
    for name, scenario in runs.items():
        for cmd in ("squeezing-budget", "snr-sweep", "fig3"):
            assert run_cli(cmd, *scenario, "--out", str(tmp_path / name)) == 0
    for name in ("squeezing_budget.csv", "snr_sweep.csv", "enhancement.json", "fig3.csv"):
        default = (tmp_path / "default" / name).read_bytes()
        assert (tmp_path / "extent" / name).read_bytes() == default, name


DEFAULT_CFG = default_scenario_dict()
# One-key mutations of a scenario value; "missing" and "extra" act on the
# key's parent instead.
MUTATIONS = {
    "wrong_type": lambda v: "x",
    "bool": lambda v: True,
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "sign": lambda v: -v if isinstance(v, (int, float)) else v,
    "1e300": lambda v: 1e300,
    "1e-300": lambda v: 1e-300,
    "empty_list": lambda v: [],
    "wrong_length": lambda v: v[:-1] if isinstance(v, list) else [v, v],
    "missing": None,
    "extra": None,
}


def _non_finite(path) -> list:
    """The non-finite numbers of a CSV or JSON artifact."""
    if path.suffix == ".json":
        found = []
        json.loads(path.read_text(), parse_constant=found.append)
        return found
    rows = list(csv.reader(io.StringIO(path.read_text())))
    cells = [c for row in rows[1:] for k, c in enumerate(row) if rows[0][k] != "pair"]
    return [c for c in cells if not math.isfinite(float(c))]


@given(
    keys=st.sampled_from([keys for keys, _ in _schema_paths(SCHEMA)]),
    mutation=st.sampled_from(sorted(MUTATIONS)),
)
@settings(max_examples=150, deadline=None)
def test_mutated_scenario_keeps_the_exit_code_contract(keys, mutation):
    # Exit 0, 2 or 3 with one line on stderr for a failure, and only
    # finite numbers in what was written, whatever one key holds.
    cfg = copy.deepcopy(DEFAULT_CFG)
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    last = keys[-1]
    if mutation == "missing":
        if isinstance(node, list) or last in node:
            del node[last]
    elif mutation == "extra":
        if isinstance(node, list):
            node.append(node[last])
        else:
            node["extra"] = 1.0
    else:
        value = node.get(last) if isinstance(node, dict) else node[last]
        node[last] = MUTATIONS[mutation](value)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "mutated.yaml", Path(tmp) / "out"
        path.write_text(yaml.safe_dump(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run_cli("snr-sweep", "--scenario", str(path), "--out", str(out))
        assert rc in (0, 2, 3), rc
        if rc:
            assert err.getvalue().count("\n") == 1, err.getvalue()
        for artifact in out.iterdir() if out.exists() else ():
            assert not _non_finite(artifact), artifact.name


@pytest.mark.parametrize(
    "targets",
    [
        {"source": -5.16, "post_optics": -3.8, "postcut": -2.0},
        {"source": -5.16, "post_optics": -3.8},
        {"source": -5.16, "post_optics": -3.8, "post_cut": -2.0, "final": -1.0},
    ],
    ids=["typo", "missing", "extra"],
)
def test_cli_stage_target_labels_are_checked_at_load(tmp_path, capsys, targets):
    # Even a subcommand that never calibrates rejects a mislabelled target.
    cfg = default_scenario_dict()
    cfg["calibration"]["stage_targets_db"] = targets
    path = tmp_path / "labels.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("resonance-scan", "--scenario", str(path), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert "calibration.stage_targets_db" in err, err
    assert not (tmp_path / "resonance_scan.csv").exists()


@pytest.mark.parametrize("cmd", ["fig4", "verify"])
@pytest.mark.parametrize("samples", [10**13, 2**62, 2**63])
def test_cli_too_many_samples_is_validation_error(tmp_path, capsys, cmd, samples):
    # Rejected against the cap before anything is allocated or written.
    out = tmp_path / "out"
    assert run_cli(cmd, "--samples", str(samples), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert f"--samples {samples} " in err, err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["fig4", "verify"])
@pytest.mark.parametrize("samples", [1, 0, -5])
def test_cli_too_few_samples_is_validation_error(tmp_path, capsys, cmd, samples):
    # A sample variance needs two samples: one would score NaN or fail.
    out = tmp_path / "out"
    assert run_cli(cmd, "--samples", str(samples), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert f"--samples {samples} " in err, err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["verify"])
def test_cli_samples_out_of_memory_is_validation_error(tmp_path, capsys, monkeypatch, cmd):
    # verify draws every chunk of normals through _normals. fig4 draws no
    # samples, only their statistics, so it allocates nothing per sample.
    def out_of_memory(out, seed, *key):
        raise MemoryError

    monkeypatch.setattr(montecarlo, "_normals", out_of_memory)
    assert run_cli(cmd, "--samples", "1000", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert "--samples 1000 " in err, err


@pytest.mark.parametrize("case", ["dark_sensor", "wavelength_on_resonance_peak"])
def test_cli_sensor_without_transduction_is_numeric_error(tmp_path, capsys, case):
    # A sensor that transmits no light, or has no slope at the operating
    # wavelength, fails calibration; the resonance scan still draws it.
    cfg = default_scenario_dict()
    if case == "dark_sensor":
        cfg["resonances"][0]["t_max"] = 0
    else:
        cfg["wavelength_nm"] = cfg["resonances"][0]["lambda0_nm"]
    path = tmp_path / "gate.yaml"
    path.write_text(yaml.safe_dump(cfg))
    for cmd in ("snr-sweep", "fig3"):
        assert run_cli(cmd, "--scenario", str(path), "--out", str(tmp_path)) == 3, cmd
        err = capsys.readouterr().err
        assert err.startswith("consistency error: sensor 1 ") and err.count("\n") == 1, err
    assert not (tmp_path / "snr_sweep.csv").exists()
    assert not (tmp_path / "fig3.csv").exists()
    assert run_cli("resonance-scan", "--scenario", str(path), "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("samples, seed", [(2, 13), (3, 13)])
def test_cli_sampled_fit_without_slope_is_numeric_error(tmp_path, capsys, samples, seed):
    # A valid sample count so small that the sampled SNR curve fits no
    # positive slope is a numeric failure, not invalid input. Seed 13 is the
    # smallest that draws such a curve at both counts.
    argv = ["--samples", str(samples), "--seed", str(seed), "--out", str(tmp_path)]
    assert run_cli("fig4", *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("consistency error: SNR does not grow"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "fig4_enhancement.json").exists()


@pytest.mark.parametrize("voltages", [[0.0], [1e-200]])
def test_cli_sweep_of_vanishing_squares_is_validation_error(tmp_path, capsys, voltages):
    # A sweep whose squared voltages are all 0, even by underflow, reaches
    # no SNR: invalid input, whether the thresholds are fitted or closed.
    cfg = default_scenario_dict()
    cfg["sweep"]["voltages_mv"] = voltages
    path = tmp_path / "zero_sweep.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("snr-sweep", "--scenario", str(path), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: "), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "enhancement.json").exists()


def test_cli_underflowing_analytic_snr_is_numeric_error(tmp_path, capsys):
    # A threshold target so large that every swept signal underflows to 0.
    cfg = default_scenario_dict()
    cfg["calibration"]["threshold_targets_mv"][0] = 1e300
    path = tmp_path / "underflow.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("snr-sweep", "--scenario", str(path), "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("consistency error: SNR does not grow"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "enhancement.json").exists()


@pytest.mark.parametrize("cmd", ["fig4", "verify"])
def test_cli_negative_seed_is_validation_error(tmp_path, capsys, cmd):
    assert run_cli(cmd, "--seed", "-1", "--samples", "10", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert not list(tmp_path.iterdir())


# Every subcommand, the sampled ones at a small sample count, and the nine
# artifacts they write.
SUBCOMMANDS = [
    ("squeezing-budget", ()),
    ("optimize-beam", ()),
    ("resonance-scan", ()),
    ("snr-sweep", ()),
    ("fig3", ()),
    ("fig4", ("--samples", "20000")),
    ("verify", ("--samples", "20000")),
]
ARTIFACTS = [
    "beam_curve.csv",
    "enhancement.json",
    "fig3.csv",
    "fig4_enhancement.json",
    "fig4_sweep.csv",
    "resonance_scan.csv",
    "snr_sweep.csv",
    "squeezing_budget.csv",
    "verify.json",
]


def test_cli_dump_config_round_trips(tmp_path, capsys):
    assert run_cli("snr-sweep", "--dump-config") == 0
    dumped = capsys.readouterr().out
    again = Scenario.from_dict(yaml.safe_load(dumped))
    assert again.seed == default_scenario_dict()["seed"]
    # main dumps before it dispatches, so every subcommand dumps the same.
    assert run_cli("verify", "--dump-config") == 0
    assert capsys.readouterr().out == dumped
    # The dumped scenario loads back and sweeps to the packaged bytes.
    path = tmp_path / "scenario.yaml"
    path.write_text(dumped)
    for name, source in (("packaged", ()), ("dumped", ("--scenario", str(path)))):
        out = ("--out", str(tmp_path / name))
        for cmd, extra in SUBCOMMANDS:
            assert run_cli(cmd, *source, *extra, *out) == 0, cmd
    assert sorted(p.name for p in (tmp_path / "packaged").iterdir()) == ARTIFACTS
    for name in ARTIFACTS:
        packaged = (tmp_path / "packaged" / name).read_bytes()
        assert (tmp_path / "dumped" / name).read_bytes() == packaged, name


def test_every_src_function_is_reached(tmp_path, capsys):
    # Every subcommand, --dump-config and one scenario per error path, run
    # in process, reach every def in src/quadsense but those listed with
    # their reason: the package keeps no code that only tests read. fig4 and
    # verify draw one sample more than a chunk, so that chunks merge.
    unreached_by_design = {
        "errors.py:validated": "runs at import",
        "scenario.py:_Number.__init__": "runs at import",
        "source.py:CoherenceGrid.n_axis": "read only by perfbench's tracer",
        "source.py:CoherenceGrid.n_cells": "read only by perfbench's tracer",
    }
    package = Path(cli.__file__).parent
    defs = {}

    def collect(path, body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                collect(path, node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                defs[str(path), first] = f"{path.name}:{prefix}{node.name}"
                collect(path, node.body, f"{prefix}{node.name}.")

    for path in package.glob("*.py"):
        collect(path, ast.parse(path.read_text(encoding="utf-8")).body, "")
    infeasible = default_scenario_dict()
    infeasible["calibration"]["stage_targets_db"].update(
        {"source": -12.0, "post_optics": -1.0}
    )
    far = default_scenario_dict()
    far["wavelength_nm"] = 1e200
    for name, cfg in (("infeasible", infeasible), ("far", far)):
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(cfg))
    samples = ("--samples", str(montecarlo.CHUNK + 1))
    runs = [(0, (cmd, *(samples if extra else ()))) for cmd, extra in SUBCOMMANDS]
    runs += [
        (0, ("snr-sweep", "--dump-config")),
        (3, ("squeezing-budget", "--scenario", str(tmp_path / "infeasible.yaml"))),
        (2, ("squeezing-budget", "--scenario", str(tmp_path / "far.yaml"))),
    ]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for code, argv in runs:
            assert run_cli(*argv, "--out", str(tmp_path / "out")) == code, argv
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    capsys.readouterr()
    unreached = {name for key, name in defs.items() if key not in reached}
    assert unreached == set(unreached_by_design)


def test_cli_squeezing_budget(tmp_path):
    assert run_cli("squeezing-budget", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "squeezing_budget.csv").read_text().splitlines()
    assert lines[0] == "stage,squeezing_db,gain,gain_db"
    stages = [line.split(",")[0] for line in lines[1:]]
    assert stages[:3] == ["source", "post_optics", "post_cut"]
    # dB columns use three decimals.
    assert lines[1].split(",")[1] == "-5.160"


def test_cli_resonance_scan(tmp_path):
    assert run_cli("resonance-scan", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "resonance_scan.csv").read_text().splitlines()
    assert lines[0].split(",") == [
        "wavelength_nm",
        "transmission_q1",
        "transmission_q2",
        "transmission_q3",
        "transmission_q4",
    ]
    column = [float(line.split(",")[0]) for line in lines[1:]]
    expected = np.arange(770.0, 815.0 + 1e-9, 0.25)
    assert np.asarray(column).tobytes() == expected.tobytes()


def test_cli_snr_sweep_and_enhancement(tmp_path):
    assert run_cli("snr-sweep", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "snr_sweep.csv").read_text().splitlines()
    assert lines[0] == "voltage_mv,pair,snr_tb,snr_cs,snr_opt"
    report = json.loads((tmp_path / "enhancement.json").read_text())
    assert set(report) == {f"pair_{q}_{q}" for q in (1, 2, 3, 4)}
    for entry in report.values():
        assert entry["v_cs_mv"] > entry["v_tb_mv"] > 0


def test_cli_fig3(tmp_path):
    assert run_cli("fig3", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["quadrant", "frequency_hz", "snl_db", "squeezed_db"]
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {"1", "2", "3", "4"}
    for r in rows:
        assert float(r[2]) == 0.0  # SNL reference level
        assert float(r[3]) < 0.0  # squeezed floor below SNL
        assert float(r[4]) >= float(r[5])  # 120 mV trace >= 60 mV trace


def test_cli_fig4_and_verify(tmp_path):
    out = tmp_path / "fig4"
    assert run_cli("fig4", "--out", str(out), "--samples", "50000") == 0
    sweep = (out / "fig4_sweep.csv").read_text().splitlines()
    pairs = {line.split(",")[1] for line in sweep[1:]}
    assert len(pairs) == 16
    report = json.loads((out / "fig4_enhancement.json").read_text())
    for q in (1, 2, 3, 4):
        entry = report[f"pair_{q}_{q}"]
        assert entry["v_tb_sampled_mv"] == pytest.approx(
            entry["v_tb_mv"], rel=0.05
        )

    vout = tmp_path / "verify"
    assert run_cli("verify", "--out", str(vout), "--samples", "200000") == 0
    payload = json.loads((vout / "verify.json").read_text())
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_cli_fig4_reports_each_quadrant_once(tmp_path, monkeypatch):
    calls = []
    report = SensingChain.enhancement_report

    def counting_report(chain, q):
        calls.append(q)
        return report(chain, q)

    monkeypatch.setattr(SensingChain, "enhancement_report", counting_report)
    assert run_cli("fig4", "--out", str(tmp_path), "--samples", "2000") == 0
    assert sorted(calls) == [1, 2, 3, 4]


def test_cli_outputs_are_byte_stable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("fig3", "--out", str(out)) == 0
        assert run_cli("fig4", "--out", str(out), "--samples", "20000") == 0
    assert (a / "fig3.csv").read_bytes() == (b / "fig3.csv").read_bytes()
    assert (a / "fig4_sweep.csv").read_bytes() == (b / "fig4_sweep.csv").read_bytes()
    assert (a / "fig4_enhancement.json").read_bytes() == (
        b / "fig4_enhancement.json"
    ).read_bytes()


# sha256 of every production artifact of the packaged scenario. A change
# that moves a byte of one of them names the moved numbers and re-pins.
ARTIFACT_SHA = {
    "beam_curve.csv": "c34bddd58bc88048542c0fd2b3325ef1d5eda2671d25306c2bac8c7bbf6cd83c",
    "enhancement.json": "13eafc8d4ba06335c8d0001402c6d03daebc7e1ad533027df14c0b5054a2d208",
    "fig3.csv": "ceaa5e348b1c04baebed2ea5ccc9e1d94fdb5b5b9483a42a841abc7d23c03f20",
    "fig4_enhancement.json": "4683349c254dff1df878ac60c468bcddf3bafc7534252a3a3c812b68ae739ca4",
    "fig4_sweep.csv": "e22383b9fe106087efb689aebfb715e9deb964f52645c1406a23ff4abde4a503",
    "resonance_scan.csv": "98b9f4082f5f68fcfaecc911591bfbdfd403736f477319dd6fbeb6dc571846ac",
    "snr_sweep.csv": "6d5a73871f70d5fb794a42c2e32698d4f9dba67dd602d3a770f580c661f33353",
    "squeezing_budget.csv": "3aa8d19f350e958ab000d7963707d023a4faab6e228e552cf54da43665831d74",
}


def test_default_scenario_artifacts_are_pinned(tmp_path):
    for cmd in ("squeezing-budget", "optimize-beam", "resonance-scan", "snr-sweep", "fig3"):
        assert run_cli(cmd, "--out", str(tmp_path)) == 0
    assert run_cli("fig4", "--seed", "42", "--samples", "20000", "--out", str(tmp_path)) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert digests == ARTIFACT_SHA


# sha256 of `verify --samples 20000` at the packaged scenario's seed: one
# chunk of every sampled check.
VERIFY_SHA = "13784dee74c62fc19d6ef0012fcef0fcca995946c99a4cb3b5ca884824b2943e"
# The same at 131077 = 2 * CHUNK + 5 samples: two full chunks and a short
# one, so the pin crosses every check's chunk boundaries.
VERIFY_CHUNKS_SHA = "0156e17398dfd7720e12655b03f4fc8c6c13c81989a05e471bb62e5ec12133f7"


@pytest.mark.parametrize(
    "samples, expected",
    [(20_000, VERIFY_SHA), (131_077, VERIFY_CHUNKS_SHA)],
    ids=["20000", "131077"],
)
def test_verify_report_is_pinned(tmp_path, samples, expected):
    assert run_cli("verify", "--samples", str(samples), "--out", str(tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest()
    assert digest == expected


VERIFY_BLAS = """
import os, sys
from quadsense import cli
rc = cli.main(sys.argv[1:])
print(rc, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize(
    "blas, expected", [(None, "1"), ("2", "2")], ids=["default", "user"]
)
def test_verify_blas_threads_default_to_one_and_yield_to_the_user(
    tmp_path, blas, expected
):
    # A cold verify runs OpenBLAS single-threaded, since its fold makes no
    # BLAS call and an idle OpenBLAS thread spins on the fold's CPUs. A
    # thread count the user sets wins and writes the same bytes.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_BLAS, "verify", "--samples", "20000"]
        + ["--out", str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {expected}"
    digest = hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest()
    assert digest == VERIFY_SHA


def test_verify_in_process_leaves_the_environment_alone(tmp_path, monkeypatch):
    # numpy has already loaded here, with whatever BLAS pool it started, so
    # verify sets no thread count for its caller.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert "numpy" in sys.modules
    before = dict(os.environ)
    assert run_cli("verify", "--samples", "20000", "--out", str(tmp_path)) == 0
    assert dict(os.environ) == before


def _verify_checks(out, *argv) -> dict:
    """The statistic of each check in the ``verify`` report of ``argv``."""
    assert run_cli("verify", "--samples", "20000", "--out", str(out), *argv) == 0
    report = json.loads((out / "verify.json").read_text())
    return {c["name"]: c["statistic"] for c in report["checks"]}


def test_verify_reads_the_scenario_chain(tmp_path):
    # verify checks the chain that --scenario calibrates: a coarser
    # coherence cell moves every statistic drawn from that chain, and
    # leaves those of the Fock and shot-noise oracles, which read none of
    # it.
    cfg = default_scenario_dict()
    cfg["coherence"]["cell_um"] = 2.0
    path = tmp_path / "coarse.yaml"
    path.write_text(yaml.safe_dump(cfg))
    default = _verify_checks(tmp_path / "default")
    coarse = _verify_checks(tmp_path / "coarse", "--scenario", str(path))
    assert set(coarse) == set(default)
    moved = {name for name in default if coarse[name] != default[name]}
    assert moved == {
        "thinning_vs_loss_map",
        "sampled_difference_noise",
        "quadrant_cell_sums",
        "cross_quadrant_independence",
    }


def test_verify_report_survives_the_dump_round_trip(tmp_path, capsys):
    assert run_cli("verify", "--dump-config") == 0
    path = tmp_path / "scenario.yaml"
    path.write_text(capsys.readouterr().out)
    reports = []
    for name, argv in (("packaged", ()), ("dumped", ("--scenario", str(path)))):
        out = tmp_path / name
        assert run_cli("verify", *argv, "--samples", "20000", "--out", str(out)) == 0
        reports.append((out / "verify.json").read_bytes())
    assert reports[0] == reports[1]


def test_cli_verify_on_infeasible_stage_targets_prints_residuals(tmp_path, capsys):
    # verify calibrates the chain it checks, so it fails as snr-sweep does.
    cfg = default_scenario_dict()
    cfg["calibration"]["stage_targets_db"].update({"source": -12.0, "post_optics": -1.0})
    path = tmp_path / "infeasible.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert run_cli("verify", "--scenario", str(path), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("consistency error: ") and err.count("\n") == 1, err
    assert "residuals_db: " in err
    assert not (out / "verify.json").exists()


def test_artifacts_do_not_depend_on_the_operating_point(tmp_path):
    # Each signal is the floor times (V / threshold target)^2, so neither
    # the operating wavelength nor the resonance shapes reach a calibrated
    # artifact; they only gate transduction.
    cfg = default_scenario_dict()
    cfg["wavelength_nm"] = 800.0
    for r in cfg["resonances"]:
        r["lambda0_nm"] += 2.0
        r["fwhm_nm"] *= 1.1
    path = tmp_path / "shifted.yaml"
    path.write_text(yaml.safe_dump(cfg))
    runs = {"default": (), "shifted": ("--scenario", str(path))}
    for name, scenario in runs.items():
        out = str(tmp_path / name)
        for cmd in ("squeezing-budget", "snr-sweep", "fig3"):
            assert run_cli(cmd, *scenario, "--out", out) == 0, (name, cmd)
        argv = ("fig4", *scenario, "--seed", "42", "--samples", "20000", "--out", out)
        assert run_cli(*argv) == 0, name
    names = (
        "squeezing_budget.csv",
        "snr_sweep.csv",
        "enhancement.json",
        "fig3.csv",
        "fig4_sweep.csv",
        "fig4_enhancement.json",
    )
    for name in names:
        default = (tmp_path / "default" / name).read_bytes()
        assert (tmp_path / "shifted" / name).read_bytes() == default, name
