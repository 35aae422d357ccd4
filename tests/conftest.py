import math
from importlib import resources

import numpy as np
import pytest
import yaml
from scipy.special import ndtr

from quadsense.scenario import Scenario, build_chain


def default_scenario_dict() -> dict:
    ref = resources.files("quadsense").joinpath("data/default_scenario.yaml")
    return yaml.safe_load(ref.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    return Scenario.from_dict(default_scenario_dict())


@pytest.fixture(scope="session")
def chain(scenario):
    # Calibration is deterministic, so one chain serves every test.
    return build_chain(scenario)


def reference_cell_weights(waist_p, waist_c, d_c, half):
    """Power weights of one half axis of a coherence grid centered on both
    beams, with ``half`` whole cells beside the on-axis one: per beam, the
    whole cells ``[(k - 1/2) d, (k + 1/2) d]`` for ``k = 1..half`` and the
    half cell ``[0, d/2]``. Each is weighed at its mirror image below the
    axis. Returns ``(whole_p, whole_c, half_p, half_c)``.
    """
    edges = 0.5 * d_c - np.arange(half + 2) * d_c
    edges[0] = 0.0
    cdf_p, cdf_c = (ndtr(edges / (waist / 4.0)) for waist in (waist_p, waist_c))
    return (
        cdf_p[1:-1] - cdf_p[2:],
        cdf_c[1:-1] - cdf_c[2:],
        float(cdf_p[0] - cdf_p[1]),
        float(cdf_c[0] - cdf_c[1]),
    )


def reference_cov_share(whole_p, whole_c, half_p, half_c):
    """Covariance share a quadrant keeps of a grid with these half-axis
    weights, in the float operations of the grid builder.

    Only a piece whole on both axes keeps its geometric-mean share of the
    covariance, so the share is the square of one axis's whole-cell
    geometric-mean weight over the geometric mean of the full axes' powers;
    a full axis carries twice the half axis.
    """
    tot_p = 2.0 * (float(whole_p.sum()) + half_p)
    tot_c = 2.0 * (float(whole_c.sum()) + half_c)
    keep = float(np.sqrt(whole_p * whole_c).sum()) / math.sqrt(tot_p * tot_c)
    return keep * keep


def min_difference_noise(d) -> float:
    """Difference noise of the detected moments ``d`` at the optimal
    attenuation, in closed form: ``var_p - cov^2 / var_c``. The attenuation
    is non-negative, so a negative covariance pins it at 0 and leaves
    ``var_p``. Criterion 1's reference for ``difference_noise`` at
    ``optimal_gain``.
    """
    if d.cov < 0:
        return d.var_p
    return d.var_p - d.cov * d.cov / d.var_c


def covariance_from_noise(var_p, var_c, var_diff) -> float:
    """Covariance recovered from a balanced (g = 1, lossless) measurement
    of the difference variance ``var_diff``."""
    return 0.5 * (var_p + var_c - var_diff)
