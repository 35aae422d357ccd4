import copy
import hashlib
import json
import warnings

import pytest
import yaml

from conftest import default_scenario_dict
from quadsense import cli
from quadsense.errors import FitInfeasibleError, ValidationError
from quadsense.scenario import Scenario, SensingChain, build_chain, dump_scenario


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


def test_declared_cell_size_sets_the_grid(scenario):
    cfg = copy.deepcopy(scenario.raw)
    # Must stay small: large coherence cells lose too much covariance at
    # the cut for the staged squeezing targets to remain reachable.
    cfg["coherence"]["cell_um"] = 0.1
    chain = build_chain(Scenario.from_dict(cfg))
    assert chain.grid.cell_size == 0.1


def test_default_chain_cell_size(chain):
    assert chain.grid.cell_size == 1.0


def test_default_calibration_is_identified(chain):
    # Every solved source parameter is interior: none rests on a bound.
    params = chain.source_params
    assert params.gain > 1.0
    assert params.excess_uncorrelated > 0.0
    assert 0.0 < chain.eta_optics < 1.0
    # The declared cell is no smaller than the wavelength.
    assert chain.grid.cell_size >= chain.scenario.wavelength_nm / 1000.0
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


def test_cli_overflowing_seed_flux_prints_only_its_message(tmp_path, capsys):
    # The source moments overflow at this seed flux; the refusal is the
    # whole report, with no numpy warning before it.
    cfg = default_scenario_dict()
    cfg["source"]["seed_flux"] = 1e200
    path = tmp_path / "bright.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli("snr-sweep", "--scenario", str(path), "--out", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: source moments overflow"), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "enhancement.json").exists()


@pytest.mark.parametrize("seed_flux", [1e120, 1e150])
def test_cli_bright_seed_flux_calibrates_like_the_default(tmp_path, seed_flux):
    # The calibration is scale-free: wherever the source moments are
    # finite, a brighter seed gives the default's noise ratios and figures,
    # so no product of the per-quadrant solve may overflow on the way.
    cfg = default_scenario_dict()
    cfg["source"]["seed_flux"] = seed_flux
    path = tmp_path / "bright.yaml"
    path.write_text(yaml.safe_dump(cfg))
    default, bright = tmp_path / "default", tmp_path / "bright"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fig3", "--out", str(default)) == 0
        assert run_cli("fig3", "--scenario", str(path), "--out", str(bright)) == 0
    assert (bright / "fig3.csv").read_bytes() == (default / "fig3.csv").read_bytes()


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
        ("beam", "waist_p_um", 0.0),
        ("beam", "waist_c_um", 0.0),
        ("beam", "waist_c_um", -10.0),
        ("coherence", "cell_um", 0.0),
        ("coherence", "cell_um", 1e-300),
        ("coherence", "cell_um", None),
        ("coherence", "cell_um", 360.0),
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
    # Twice: a failed run must leave nothing that turns the next into a success.
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
        (("seed",), 1.5),
        (("seed",), -0.5),
        (("calibration", "stage_targets_db", "source"), float("nan")),
        (("coherence", "extent_um"), float("nan")),
        (("resonances",), [1, 2, 3, 4]),
        (("sweep", "voltages_mv"), [-50] + list(range(25, 501, 25))),
        (("modulation", "kappa"), [0, 0, 0, 0]),
        (("resonances", 0, "fwhm_nm"), 1e200),
        (("resonances", 0, "fwhm_nm"), 1e100),
        (("calibration", "threshold_targets_mv"), [0, 0, 0, 0]),
        (("modulation", "kappa"), [1e300, 1, 1, 1]),
        (("calibration", "threshold_targets_mv"), [1e-320, 265, 319, 316]),
        (("calibration", "residual_db"), [1e300, -1.81, -1.70, -1.84]),
        (("calibration", "stage_targets_db", "post_cut"), 1e300),
        (("modulation", "frequency_hz"), 0),
    ],
    ids=[
        "fwhm_nm",
        "waist_p_um",
        "seed",
        "seed_fraction",
        "seed_negative_fraction",
        "stage_target",
        "extent_um",
        "resonance_entry",
        "negative_voltage",
        "zero_kappa",
        "fwhm_nm_overflows_transmission",
        "fwhm_nm_overflows_slope",
        "zero_threshold",
        "kappa_overflows_signal",
        "tiny_threshold_overflows_kappa",
        "residual_overflows_ratio",
        "stage_target_overflows_ratio",
        "frequency_hz",
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
    "fig4_enhancement.json": "40e0e89f7726d7ef966ad31996c4683b4416b14282b43f0b3a8c77afe976b707",
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
