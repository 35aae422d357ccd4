"""Output checks for benchmark operations.

A CLI op passes when every artifact it must write exists, parses, holds
only finite numbers and meets the scenario's calibration targets. A
calibrated chain from the ``calibration-sweep`` workload is held to the
same targets. Each check returns a list of problems; empty means passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

ARTIFACTS = {
    "squeezing-budget": ("squeezing_budget.csv",),
    "optimize-beam": ("beam_curve.csv",),
    "resonance-scan": ("resonance_scan.csv",),
    "snr-sweep": ("snr_sweep.csv", "enhancement.json"),
    "fig3": ("fig3.csv",),
    "fig4": ("fig4_sweep.csv", "fig4_enhancement.json"),
    "verify": ("verify.json",),
}
LABEL_COLUMNS = {"stage", "pair"}
STAGES = ("source", "post_optics", "post_cut")
RESIDUAL_TOL_DB = 1e-3
STAGE_TOL_DB = 0.1
THRESHOLD_TOL_MV = 1e-3


def targets_of(cfg: dict) -> dict:
    """The calibration targets a scenario dict asks the chain to meet."""
    cal = cfg["calibration"]
    return {
        "residual_db": [float(v) for v in cal["residual_db"]],
        "threshold_targets_mv": [float(v) for v in cal["threshold_targets_mv"]],
        "stage_targets_db": {k: float(v) for k, v in cal["stage_targets_db"].items()},
    }


def _read_csv(text: str, problems: list, name: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        problems.append(f"{name}: no data rows")
        return {}
    header, body = rows[0], rows[1:]
    table = {}
    for row in body:
        if len(row) != len(header):
            problems.append(f"{name}: row width {len(row)} != {len(header)}")
            continue
        for col, cell in zip(header, row):
            if col in LABEL_COLUMNS:
                continue
            try:
                value = float(cell)
            except ValueError:
                problems.append(f"{name}: {col}={cell!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"{name}: {col}={cell} is not finite")
        table[row[0]] = row
    return {"header": header, "rows": table}


def _finite_json(obj, path, problems):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite_json(v, f"{path}.{k}", problems)
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            _finite_json(v, f"{path}[{k}]", problems)
    elif isinstance(obj, float) and not math.isfinite(obj):
        problems.append(f"{path} is not finite")


def _check_budget(table, targets, problems):
    rows = table["rows"]
    col = table["header"].index("squeezing_db")
    wanted = [(label, targets["stage_targets_db"][label], STAGE_TOL_DB) for label in STAGES]
    wanted += [
        (f"sensor_q{q}", want, RESIDUAL_TOL_DB)
        for q, want in enumerate(targets["residual_db"], start=1)
    ]
    for label, want, tol in wanted:
        if label not in rows:
            problems.append(f"squeezing_budget.csv: missing {label} row")
            continue
        try:
            got = float(rows[label][col])
        except ValueError:
            continue  # reported by _read_csv
        if not abs(got - want) <= tol:
            problems.append(f"squeezing_budget.csv: {label} misses {want} dB")


def _check_enhancement(payload, name, targets, problems):
    for q, want in enumerate(targets["threshold_targets_mv"], start=1):
        entry = payload.get(f"pair_{q}_{q}", {})
        got = entry.get("v_tb_mv")
        if not isinstance(got, (int, float)) or abs(got - want) > THRESHOLD_TOL_MV:
            problems.append(f"{name}: pair {q} v_tb_mv {got} != {want}")


def check_cli_op(subcommand: str, out: Path, targets: dict) -> tuple[list, dict]:
    """Problems found in one CLI op's artifacts, and their sha256 digests."""
    problems, digests = [], {}
    for name in ARTIFACTS[subcommand]:
        path = out / name
        try:
            data = path.read_bytes()
        except OSError:
            problems.append(f"{name}: missing")
            continue
        digests[name] = hashlib.sha256(data).hexdigest()
        text = data.decode("utf-8")
        if name.endswith(".csv"):
            table = _read_csv(text, problems, name)
            if name == "squeezing_budget.csv" and table:
                _check_budget(table, targets, problems)
            continue
        try:
            payload = json.loads(text, parse_constant=float)
        except ValueError as exc:
            problems.append(f"{name}: does not parse ({exc})")
            continue
        _finite_json(payload, name, problems)
        if name.endswith("enhancement.json"):
            _check_enhancement(payload, name, targets, problems)
        elif name == "verify.json" and payload.get("passed") is not True:
            problems.append("verify.json: passed is not true")
    return problems, digests


def check_chain(chain, reports, sweeps, targets: dict) -> tuple[list, list]:
    """Check a calibrated chain against its scenario's targets.

    Returns ``(misses, wrong)``. A miss is a staged target the joint
    least-squares fit did not reach within 0.1 dB: a limit of the
    calibration model. Wrong is a value the chain claims to fit exactly
    (per-quadrant residual squeezing, twin-beam threshold) that it does not
    match, or a non-finite number: a wrong output.
    """
    misses, wrong = [], []
    budget = {stage.label: stage for stage in chain.stage_budget}
    for stage in chain.stage_budget:
        if not all(math.isfinite(x) for x in (stage.squeezing_db, stage.gain)):
            wrong.append(f"stage {stage.label} is not finite")
    for label in STAGES:
        want = targets["stage_targets_db"][label]
        if abs(budget[label].squeezing_db - want) > STAGE_TOL_DB:
            misses.append(f"{label} misses {want} dB")
    for q, want in enumerate(targets["residual_db"], start=1):
        if not abs(budget[f"sensor_q{q}"].squeezing_db - want) <= RESIDUAL_TOL_DB:
            wrong.append(f"sensor_q{q} misses {want} dB")
    for q, (rep, want) in enumerate(zip(reports, targets["threshold_targets_mv"]), 1):
        if not abs(rep.v_tb - want) <= THRESHOLD_TOL_MV:
            wrong.append(f"pair {q} v_tb {rep.v_tb} != {want}")
        if not all(math.isfinite(x) for x in (rep.v_tb, rep.v_cs, rep.v_opt)):
            wrong.append(f"pair {q} threshold is not finite")
    for curves in sweeps:
        for curve in curves.values():
            if not all(math.isfinite(float(x)) for x in curve.snr):
                wrong.append(f"pair {curve.pair} {curve.kind} SNR is not finite")
    return misses, wrong
