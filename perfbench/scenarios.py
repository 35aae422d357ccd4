"""Seeded scenario generator for the ``calibration-sweep`` workload.

Every scenario is the packaged default with four kinds of perturbation:
the measured targets, the beam waists, the window geometry and the
source-gain bound. Draws are stratified in blocks of ten: two scenarios
per gain bound; two with a fixed coherence cell, one from each half of the
log cell range; and one probe waist and one conjugate mismatch from each
tenth of their ranges. So the mix of cheap, expensive and infeasible
calibrations, and with it the cost of a block, hardly depends on the seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from pathlib import Path

import yaml

GAIN_BOUNDS = (3.0, 10.0, 30.0, 100.0, 1000.0)
BLOCK = 10
FIXED_CELLS_PER_BLOCK = 2
N_SCENARIOS = 200
# Fixed cells span the range the straddle fit itself produces across
# GAIN_BOUNDS (2.2 um at a bound of 3 down to ~0.01 um at 1000).
CELL_RANGE_UM = (0.01, 2.2)


def default_config(src: Path) -> dict:
    text = (src / "quadsense" / "data" / "default_scenario.yaml").read_text("utf-8")
    return yaml.safe_load(text)


def _strata(rng: random.Random, n: int) -> list:
    """One uniform draw from each of ``n`` equal slices of [0, 1), shuffled."""
    draws = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(draws)
    return draws


def _perturb(base, rng, gain_bound, u_waist, u_mismatch, cell_stratum) -> dict:
    cfg = copy.deepcopy(base)
    cal = cfg["calibration"]
    cal["residual_db"] = [r + rng.uniform(-0.15, 0.15) for r in cal["residual_db"]]
    cal["threshold_targets_mv"] = [
        t * rng.uniform(0.8, 1.2) for t in cal["threshold_targets_mv"]
    ]
    cal["gain_bound"] = gain_bound
    waist_p = 300.0 + 120.0 * u_waist
    cfg["beam"]["waist_p_um"] = waist_p
    cfg["beam"]["waist_c_um"] = waist_p * (0.95 + 0.1 * u_mismatch)
    cfg["coherence"]["extent_um"] = 6.0 * waist_p
    cfg["layout"]["window_um"] = rng.uniform(180.0, 220.0)
    cfg["layout"]["tilt_deg"] = rng.uniform(20.0, 32.0)
    if cell_stratum is not None:
        lo, hi = (math.log(v) for v in CELL_RANGE_UM)
        width = (hi - lo) / FIXED_CELLS_PER_BLOCK
        cfg["coherence"]["cell_um"] = math.exp(lo + width * (cell_stratum + rng.random()))
    return cfg


def generate(base: dict, seed: int, n: int = N_SCENARIOS) -> list[dict]:
    """``n`` scenario dicts, a pure function of ``base`` and ``seed``."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        bounds = list(GAIN_BOUNDS) * (BLOCK // len(GAIN_BOUNDS))
        rng.shuffle(bounds)
        fixed = rng.sample(range(BLOCK), FIXED_CELLS_PER_BLOCK)
        draws = zip(bounds, _strata(rng, BLOCK), _strata(rng, BLOCK))
        for k, (bound, u_waist, u_mismatch) in enumerate(draws):
            stratum = fixed.index(k) if k in fixed else None
            out.append(_perturb(base, rng, bound, u_waist, u_mismatch, stratum))
    return out[:n]


def digest(scenarios: list[dict]) -> str:
    blob = json.dumps(scenarios, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
