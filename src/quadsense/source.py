"""Seeded twin-beam source model: photon-statistics moments and the grid of
independently correlated coherence cells they are partitioned over, stored
as one half axis because the grid is centered on both beams.

Intensities are expressed as mean photon number per analysis interval, so a
coherent beam has variance equal to its mean. The `gain` parameter is the
intensity amplification of the seeded amplifier; the two excess-noise knobs
add technical noise proportional to the mean intensity squared, either
common to both beams (correlated) or independent per beam (uncorrelated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedSNLError, ValidationError

__all__ = [
    "FwmSourceParams",
    "TwinBeamMoments",
    "CoherenceGrid",
    "fwm_moments",
    "source_squeezing",
    "build_coherence_grid",
]


@dataclass(frozen=True)
class FwmSourceParams:
    """Parameters of the seeded amplifier producing the twin beams."""

    gain: float
    seed_flux: float
    excess_correlated: float = 0.0
    excess_uncorrelated: float = 0.0

    def __post_init__(self):
        if not self.gain >= 1.0:
            raise ValidationError(f"gain must be >= 1, got {self.gain}")
        if not self.seed_flux > 0.0:
            raise ValidationError(f"seed_flux must be > 0, got {self.seed_flux}")
        if self.excess_correlated < 0.0 or self.excess_uncorrelated < 0.0:
            raise ValidationError("excess-noise coefficients must be >= 0")


@dataclass(frozen=True)
class TwinBeamMoments:
    """First and second moments of the probe/conjugate intensity pair."""

    mean_p: float
    mean_c: float
    var_p: float
    var_c: float
    cov: float

    def __post_init__(self):
        if self.mean_p < 0 or self.mean_c < 0:
            raise ValidationError("mean intensities must be >= 0")
        if self.var_p < 0 or self.var_c < 0:
            raise ValidationError("variances must be >= 0")
        # Cauchy-Schwarz with a relative slack for round-off at equality.
        bound = self.var_p * self.var_c
        if self.cov**2 > bound * (1.0 + 1e-12) + 1e-300:
            raise ValidationError(
                f"cov^2={self.cov**2} exceeds var_p*var_c={bound}"
            )


@dataclass(frozen=True)
class CoherenceGrid:
    """Square tiling of the transverse plane into independent cells.

    One cell is centered on the axis of both beams, so the central cut
    lines halve it and the four quadrants are mirror images of one another.
    The Gaussian envelopes factorize over x and y, so the grid stores one
    half axis per beam: the power of the whole cells
    ``[(k - 1/2) d, (k + 1/2) d]`` for ``k = 1..half``, and of the on-axis
    half cell ``[0, d/2]``. A cell's power weight is the product of its x
    and y weights; a full axis carries twice the half axis.
    """

    cell_size: float
    whole_p: np.ndarray
    whole_c: np.ndarray
    half_p: float
    half_c: float

    def __post_init__(self):
        weights = (self.whole_p, self.whole_c, self.half_p, self.half_c)
        if any(np.any(w < 0) for w in weights):
            raise ValidationError("cell weights must be >= 0")
        if self.axis_total_p**2 > 1.0 + 1e-9 or self.axis_total_c**2 > 1.0 + 1e-9:
            raise ValidationError("total cell weight exceeds beam power")

    @property
    def axis_total_p(self) -> float:
        return 2.0 * (float(self.whole_p.sum()) + self.half_p)

    @property
    def axis_total_c(self) -> float:
        return 2.0 * (float(self.whole_c.sum()) + self.half_c)

    @property
    def n_axis(self) -> int:
        return 2 * len(self.whole_p) + 1

    @property
    def n_cells(self) -> int:
        return self.n_axis**2


def fwm_moments(params: FwmSourceParams) -> TwinBeamMoments:
    """Moments of the bright seeded twin beams.

    The ideal (zero-excess) part is the seed-stimulated component of a
    two-mode squeezer with intensity gain G acting on a coherent seed of
    mean photon number N_s; excess noise adds ``zeta * mean**2`` per beam,
    fully correlated for the common-mode coefficient.
    """
    g = params.gain
    ns = params.seed_flux
    ztot = params.excess_correlated + params.excess_uncorrelated
    mean_p = g * ns
    mean_c = (g - 1.0) * ns
    var_p = g * (2.0 * g - 1.0) * ns + ztot * mean_p**2
    var_c = (g - 1.0) * (2.0 * g - 1.0) * ns + ztot * mean_c**2
    cov = 2.0 * g * (g - 1.0) * ns + params.excess_correlated * mean_p * mean_c
    return TwinBeamMoments(mean_p, mean_c, var_p, var_c, cov)


def source_squeezing(m: TwinBeamMoments) -> tuple[float, float]:
    """Balanced intensity-difference noise over the shot-noise level.

    Returns ``(ratio, ratio_db)`` for a lossless, unit-gain subtraction.
    """
    total = m.mean_p + m.mean_c
    if total <= 0.0:
        raise UndefinedSNLError("zero total mean intensity has no shot-noise level")
    ratio = (m.var_p + m.var_c - 2.0 * m.cov) / total
    return ratio, 10.0 * math.log10(ratio) if ratio > 0 else -math.inf


def _interval_weights(edges_lo, edges_hi, sigma):
    """Gaussian power in [lo, hi] per axis for a centered beam.

    This is the one evaluator of Gaussian interval power; an off-center
    beam passes bounds shifted into its own frame. ``scipy.special`` is
    imported on the first call, so subcommands that evaluate no beam power
    start without scipy.
    """
    from scipy.special import ndtr

    return ndtr(edges_hi / sigma) - ndtr(edges_lo / sigma)


# Cells per half axis a grid may have, checked before anything is
# allocated: a half axis of 2**22 cells takes 32 MiB per float array.
MAX_HALF_CELLS = 2**22


def _half_cells(waist_p: float, waist_c: float, d_c: float, extent: float) -> int:
    """Number of whole cells on each side of the on-axis cell of a grid.

    Validates the grid geometry for :func:`build_coherence_grid`.
    """
    if d_c <= 0:
        raise ValidationError("coherence cell size must be > 0")
    if d_c > extent:
        raise ValidationError(
            f"cell size {d_c} exceeds grid extent {extent}"
        )
    if extent < 4.0 * max(waist_p, waist_c) - 1e-9 and d_c < extent:
        raise ValidationError("extent must cover at least 4 waists")
    half = (0.5 * extent - 0.5 * d_c) / d_c
    if half > MAX_HALF_CELLS:
        raise ValidationError(
            f"coherence grid too fine: cell size {d_c:g} um over extent "
            f"{extent:g} um needs more than {MAX_HALF_CELLS} cells per half axis"
        )
    return math.ceil(half)


def build_coherence_grid(
    waist_p: float,
    waist_c: float,
    d_c: float,
    extent: float,
) -> CoherenceGrid:
    """Tile ``[-extent/2, extent/2]^2`` with square cells of side ``d_c``.

    One cell is centered on the beam axis (coherence cells have no reason
    to align with razor blades). Waists are 1/e^2 diameters: sigma = D / 4.
    """
    half = _half_cells(waist_p, waist_c, d_c, extent)
    centers = np.arange(1, half + 1) * d_c
    # Whole cells are weighed at their mirror images below the axis, where
    # ndtr is small: above it a far cell's power would be the difference
    # of two values near 1 and lose its leading digits.
    lo, hi = -0.5 * d_c - centers, 0.5 * d_c - centers
    sigma_p, sigma_c = waist_p / 4.0, waist_c / 4.0
    return CoherenceGrid(
        cell_size=float(d_c),
        whole_p=_interval_weights(lo, hi, sigma_p),
        whole_c=_interval_weights(lo, hi, sigma_c),
        half_p=float(_interval_weights(0.0, 0.5 * d_c, sigma_p)),
        half_c=float(_interval_weights(0.0, 0.5 * d_c, sigma_c)),
    )
