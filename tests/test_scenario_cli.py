import collections
import copy
import dataclasses
import json
import warnings

import numpy as np
import pytest
import yaml

from conftest import default_scenario_dict
import quadsense.scenario as scenario_module
from quadsense import cli, detection
from quadsense.errors import FitInfeasibleError, ValidationError
from quadsense.optics import quadrant_cut
from quadsense.scenario import (
    Scenario,
    _fit_source,
    _straddle_fraction,
    build_chain,
    dump_scenario,
)
from quadsense.source import TwinBeamMoments, build_coherence_grid


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


def test_chain_respects_gain_bound(chain):
    assert chain.source_params.gain <= chain.scenario.gain_bound + 1e-9


def test_fixed_cell_size_skips_straddle_fit(scenario):
    cfg = copy.deepcopy(scenario.raw)
    # Must stay small: large coherence cells lose too much covariance at
    # the cut for the residual squeezing targets to remain reachable.
    cfg["coherence"]["cell_um"] = 0.1
    chain = build_chain(Scenario.from_dict(cfg))
    assert chain.cell_um == 0.1


@pytest.mark.parametrize(
    "waist_p, waist_c", [(360.0, 360.0), (360.0, 300.0), (300.0, 400.0), (100.0, 330.0)]
)
def test_straddle_fraction_matches_the_quadrant_cut(waist_p, waist_c):
    extent = 4.0 * max(waist_p, waist_c)
    unit = TwinBeamMoments(1.0, 1.0, 1.0, 1.0, 1.0)
    for d in (0.005, 0.05, 0.3, 1.7, 12.0, 100.0):
        grid = build_coherence_grid(waist_p, waist_c, d, extent)
        expected = quadrant_cut(unit, grid, 1).f_straddle
        assert _straddle_fraction(waist_p, waist_c, d, extent) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        ), d


def test_default_chain_cell_size(chain):
    # The cell size that solving on whole grids returned, to the last bit.
    assert chain.cell_um == 0.05169314805940239


def test_straddle_solve_evaluates_each_cell_size_once(scenario, monkeypatch):
    calls = []

    def counting(waist_p, waist_c, d, extent):
        calls.append(d)
        return _straddle_fraction(waist_p, waist_c, d, extent)

    monkeypatch.setattr(scenario_module, "_straddle_fraction", counting)
    chain = build_chain(scenario)
    assert 0.005 in calls and scenario.waist_p_um in calls
    assert len(calls) == len(set(calls)), collections.Counter(calls).most_common(3)
    assert chain.cell_um == 0.05169314805940239


def test_eta_p_solve_evaluates_each_bracket_end_once(scenario, monkeypatch):
    calls = []  # (moments, eta_p); holding the moments keeps their ids unique
    report = detection.squeezing_report

    def counting(m, ch, *args, **kwargs):
        calls.append((m, ch.eta_p))
        return report(m, ch, *args, **kwargs)

    monkeypatch.setattr(detection, "squeezing_report", counting)
    chain = build_chain(scenario)
    for q in (1, 2, 3, 4):
        m_cut = chain.cut_moments[q]
        ends = [eta_p for m, eta_p in calls if m is m_cut and eta_p in (1e-4, 1.0)]
        assert sorted(ends) == [1e-4, 1.0], (q, ends)


def _chain_bits(obj, out=None):
    """Every value of a chain in field order: floats as hex with their type,
    arrays as dtype, shape and bytes."""
    out = [] if out is None else out
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name != "scenario":
                out.append(f.name)
                _chain_bits(getattr(obj, f.name), out)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            out.append(k)
            _chain_bits(v, out)
    elif isinstance(obj, (list, tuple)):
        out.append(len(obj))
        for v in obj:
            _chain_bits(v, out)
    elif isinstance(obj, np.ndarray):
        out.append((obj.dtype.str, obj.shape, obj.tobytes()))
    elif isinstance(obj, float):
        out.append((type(obj).__name__, float(obj).hex()))
    else:
        out.append(obj)
    return out


def _with(cfg, keys, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return Scenario.from_dict(cfg)


def _build_counting(scenario):
    """``(hits, misses)`` that one ``build_chain`` adds to the source-fit cache."""
    before = _fit_source.cache_info()
    try:
        build_chain(scenario)
    except FitInfeasibleError:
        pass
    after = _fit_source.cache_info()
    return after.hits - before.hits, after.misses - before.misses


def test_warm_source_fit_gives_the_same_chain(scenario):
    build_chain(scenario)
    hits = _fit_source.cache_info().hits
    warm = build_chain(scenario)
    assert _fit_source.cache_info().hits == hits + 1
    _fit_source.cache_clear()
    cold = build_chain(scenario)
    assert _fit_source.cache_info().misses == 1
    assert _chain_bits(warm) == _chain_bits(cold)


@pytest.mark.parametrize(
    "keys, value",
    [
        (("calibration", "gain_bound"), 99.0),
        (("source", "seed_flux"), 1.01),
        (("calibration", "stage_targets_db", "source"), -5.17),
        (("calibration", "stage_targets_db", "post_optics"), -4.76),
        (("calibration", "stage_targets_db", "post_cut"), -3.76),
        (("calibration", "final", "squeezing_db"), -1.93),
        (("calibration", "final", "attenuation_db"), 5.21),
        (("calibration", "final", "eta_p"), 0.51),
        (("calibration", "final", "eta_c"), 0.91),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else None,
)
def test_each_source_fit_input_misses_the_cache(scenario, keys, value):
    build_chain(scenario)
    assert _build_counting(_with(scenario.raw, keys, value)) == (0, 1)


@pytest.mark.parametrize(
    "keys, value",
    [
        (("calibration", "residual_db"), [-1.7, -1.8, -1.7, -1.8]),
        (("calibration", "threshold_targets_mv"), [250.0, 265.0, 319.0, 316.0]),
        (("beam", "waist_c_um"), 361.0),
        (("layout", "window_um"), 210.0),
    ],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else None,
)
def test_inputs_downstream_of_the_source_hit_the_cache(scenario, keys, value):
    build_chain(scenario)
    assert _build_counting(_with(scenario.raw, keys, value)) == (1, 0)


def test_infeasible_stage_targets_raise_on_every_call(scenario):
    targets = {**scenario.stage_targets_db, "source": -12.0, "post_optics": -1.0}
    infeasible = _with(scenario.raw, ("calibration", "stage_targets_db"), targets)
    _fit_source.cache_clear()
    raised = []
    for _ in range(2):
        with pytest.raises(FitInfeasibleError) as exc:
            build_chain(infeasible)
        raised.append(exc.value.residuals_db)
    info = _fit_source.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert raised[0] == raised[1]
    assert max(abs(raised[0][k]) for k in ("source", "post_optics", "post_cut")) > 0.1


def test_coarse_cell_size_is_infeasible(scenario):
    cfg = copy.deepcopy(scenario.raw)
    cfg["coherence"]["cell_um"] = 40.0
    with pytest.raises(FitInfeasibleError):
        build_chain(Scenario.from_dict(cfg))


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


def test_cli_overflowing_source_fit_prints_only_its_message(tmp_path, capsys):
    # The fit converges to moments that overflow; the staged-balance refusal
    # is the whole report, with no numpy warning before it.
    cfg = default_scenario_dict()
    cfg["source"]["seed_flux"] = 1e150
    path = tmp_path / "bright.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("snr-sweep", "--scenario", str(path), "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("consistency error: staged squeezing targets"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "enhancement.json").exists()


def test_cli_malformed_yaml_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [1, 2\n")
    assert run_cli("squeezing-budget", "--scenario", str(bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: malformed scenario YAML")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "rbw_scale", -1.0),
        (None, "rbw_scale", float("nan")),
        (None, "rbw_scale", "abc"),
        ("calibration", "gain_bound", 0.5),
        ("calibration", "gain_bound", float("inf")),
        ("beam", "waist_p_um", 0.0),
        ("beam", "waist_c_um", 0.0),
        ("beam", "waist_c_um", -10.0),
        ("coherence", "cell_um", 0.0),
        ("coherence", "cell_um", 1e-300),
        ("coherence", "extent_um", 1e300),
        ("beam", "waist_p_um", 1e-300),
        ("source", "seed_flux", 1e300),
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
    # Twice: the source fit's cache must not turn a failure into a success.
    for _ in range(2):
        assert run_cli("fig3", "--scenario", str(path), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "fig3.csv").exists()


@pytest.mark.parametrize(
    "keys, value",
    [
        (("resonances", 0, "fwhm_nm"), "abc"),
        (("beam", "waist_p_um"), "x"),
        (("seed",), "abc"),
        (("calibration", "stage_targets_db", "source"), float("nan")),
        (("coherence", "extent_um"), float("nan")),
        (("resonances",), [1, 2, 3, 4]),
        (("sweep", "voltages_mv"), [-50] + list(range(25, 501, 25))),
        (("modulation", "kappa"), [0, 0, 0, 0]),
        (("resonances", 0, "fwhm_nm"), 1e200),
        (("resonances", 0, "fwhm_nm"), 1e100),
    ],
    ids=[
        "fwhm_nm",
        "waist_p_um",
        "seed",
        "stage_target",
        "extent_um",
        "resonance_entry",
        "negative_voltage",
        "zero_kappa",
        "fwhm_nm_overflows_transmission",
        "fwhm_nm_overflows_slope",
    ],
)
def test_cli_malformed_scalar_is_validation_error(tmp_path, capsys, keys, value):
    cfg = default_scenario_dict()
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "malformed.yaml"
    path.write_text(yaml.safe_dump(cfg))
    for cmd in ("snr-sweep", "fig3"):
        assert run_cli(cmd, "--scenario", str(path), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1, err
        assert keys[-1] in err, err


@pytest.mark.parametrize("cmd", ["fig4", "verify"])
def test_cli_negative_seed_is_validation_error(tmp_path, capsys, cmd):
    assert run_cli(cmd, "--seed", "-1", "--samples", "10", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1, err
    assert not list(tmp_path.iterdir())


def test_cli_dump_config_round_trips(tmp_path, capsys):
    assert run_cli("snr-sweep", "--dump-config") == 0
    dumped = capsys.readouterr().out
    again = Scenario.from_dict(yaml.safe_load(dumped))
    assert again.seed == default_scenario_dict()["seed"]


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
    assert len(lines) > 100


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
