import copy
import json

import pytest
import yaml

from conftest import default_scenario_dict
from quadsense import cli
from quadsense.errors import FitInfeasibleError, ValidationError
from quadsense.scenario import Scenario, build_chain, dump_scenario


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
    ],
)
def test_cli_out_of_range_scalar_is_validation_error(tmp_path, section, key, value):
    cfg = default_scenario_dict()
    (cfg if section is None else cfg[section])[key] = value
    path = tmp_path / "scalar.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run_cli("fig3", "--scenario", str(path), "--out", str(tmp_path)) == 2
    assert not (tmp_path / "fig3.csv").exists()


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
