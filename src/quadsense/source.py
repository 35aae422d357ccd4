"""Seeded twin-beam source model: photon-statistics moments, and the share
of their covariance that a quadrant keeps when the beams are a sum of
independently correlated coherence cells. The cells are centered on both
beams, so every quadrant keeps the same share, and that share is a closed
form in the cell size and the two waists: per axis, the geometric mean of
the two Gaussian profiles is a scaled Gaussian, and a quadrant keeps its
tail beyond the on-axis half cell.

Intensities are expressed as mean photon number per analysis interval, so a
coherent beam has variance equal to its mean. The `gain` parameter is the
intensity amplification of the seeded amplifier; the one excess-noise knob
adds technical noise proportional to the mean intensity squared,
independently to each beam (uncorrelated), so it adds no covariance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError, validated

__all__ = [
    "FwmSourceParams",
    "TwinBeamMoments",
    "CoherenceGrid",
    "fwm_moments",
    "build_coherence_grid",
]


@validated
class FwmSourceParams(NamedTuple):
    """Parameters of the seeded amplifier producing the twin beams.

    Checked, as :func:`fwm_moments` is a library entry point and a caller
    builds these by hand; the chain's stage solve never trips the checks."""

    gain: float
    seed_flux: float
    excess_uncorrelated: float = 0.0

    def __post_init__(self):
        if not self.gain >= 1.0:
            raise ValidationError(f"gain must be >= 1, got {self.gain}")
        if not self.seed_flux > 0.0:
            raise ValidationError(f"seed_flux must be > 0, got {self.seed_flux}")
        if self.excess_uncorrelated < 0.0:
            raise ValidationError("excess-noise coefficient must be >= 0")


@validated
class TwinBeamMoments(NamedTuple):
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

    def cholesky(self):
        """``(a, b, c)`` with [[a, 0], [b, c]] the Cholesky factor of the
        covariance [[var_p, cov], [cov, var_c]]."""
        a = math.sqrt(self.var_p)
        b = self.cov / a if a > 0 else 0.0
        c = math.sqrt(max(self.var_c - b * b, 0.0))
        return a, b, c


@validated
class CoherenceGrid(NamedTuple):
    """Square tiling of the transverse plane into independent cells, kept
    as the one number its quadrant cut reads: ``cov_share``, the share of
    the beams' covariance that a quadrant keeps.

    One cell is centered on the axis of both beams, so the central cut
    lines halve it and the four quadrants are mirror images of one another.
    ``half_cells`` counts the whole cells on each side of that on-axis cell
    out to :data:`REACH_WAISTS` waists; the share does not depend on it.
    """

    cov_share: float
    half_cells: int

    def __post_init__(self):
        if not 0.0 <= self.cov_share <= 0.25:
            raise ValidationError(
                f"covariance share must lie in [0, 1/4], got {self.cov_share}"
            )

    @property
    def n_axis(self) -> int:
        return 2 * self.half_cells + 1

    @property
    def n_cells(self) -> int:
        return self.n_axis**2


def fwm_moments(params: FwmSourceParams) -> TwinBeamMoments:
    """Moments of the bright seeded twin beams.

    The ideal (zero-excess) part is the seed-stimulated component of a
    two-mode squeezer with intensity gain G acting on a coherent seed of
    mean photon number N_s; excess noise adds ``zeta * mean**2`` to each
    beam's variance and nothing to the covariance.
    """
    g = params.gain
    ns = params.seed_flux
    zu = params.excess_uncorrelated
    mean_p = g * ns
    mean_c = (g - 1.0) * ns
    var_p = g * (2.0 * g - 1.0) * ns + zu * mean_p**2
    var_c = (g - 1.0) * (2.0 * g - 1.0) * ns + zu * mean_c**2
    cov = 2.0 * g * (g - 1.0) * ns
    return TwinBeamMoments(mean_p, mean_c, var_p, var_c, cov)


def _normal_cdf(a: float) -> float:
    """Standard normal CDF of ``a``: ``erfc(-a/sqrt 2)/2`` from the C
    library's ``erfc``.

    The argument is multiplied by ``-sqrt(1/2)``, as Cephes and
    scipy.special do; dividing by ``-sqrt 2`` instead would round the tail
    too coarsely to stay within 1e-13 of ``scipy.special.ndtr``.
    """
    return 0.5 * math.erfc(a * -math.sqrt(0.5))


def _interval_weights(lo: float, hi: float, sigma: float) -> float:
    """Gaussian power in [lo, hi] on one axis of a centered beam of
    standard deviation ``sigma``.

    Both ends go through :func:`_normal_cdf`. On [-40, 40] it agrees with
    ``scipy.special.ndtr`` to 1e-13 relative wherever scipy's value is at
    least 1e-300, and its bits rest on the C library's ``erfc`` alone.
    """
    return _normal_cdf(hi / sigma) - _normal_cdf(lo / sigma)


# Cells per half axis the nominal grid may have. A finer cell is refused
# as invalid input; for a subnormal cell size ``math.ceil`` of the count
# would overflow.
MAX_HALF_CELLS = 2**22
# Waists the nominal grid reaches on each side of the axis, 12 sigma of the
# wider beam. It sets only ``half_cells``; the covariance share integrates
# each beam to infinity, and beyond the reach a Gaussian carries under
# 1e-32 of its power.
REACH_WAISTS = 3.0


def _half_cells(waist_p: float, waist_c: float, d_c: float) -> int:
    """Number of whole cells on each side of the on-axis cell of the
    nominal grid, out to :data:`REACH_WAISTS` waists of the wider beam.

    Refuses a cell size > 0 too fine for :func:`build_coherence_grid`; the
    scenario's ``coherence.cell_um`` bound refuses any other at load.
    """
    reach = REACH_WAISTS * max(waist_p, waist_c)
    half = (reach - 0.5 * d_c) / d_c
    if half > MAX_HALF_CELLS:
        raise ValidationError(
            f"scenario key coherence.cell_um {d_c:g} is too fine: a coherence grid "
            f"out to {reach:g} um from the axis needs more than {MAX_HALF_CELLS} "
            f"cells per half axis"
        )
    return math.ceil(half)


def build_coherence_grid(waist_p: float, waist_c: float, d_c: float) -> CoherenceGrid:
    """The covariance share a quadrant keeps of beams tiled by independent
    coherence cells of side ``d_c``, in closed form.

    One cell is centered on the beam axis (coherence cells have no reason
    to align with razor blades), so the central cut lines halve it. Waists
    are 1/e^2 diameters: sigma = D / 4. Each cell carries its power share
    of every mean and variance, and its share of the covariance is the
    integral over the cell of ``sqrt(I_p I_c)``, the geometric mean of the
    two beams' normalized intensities. Only a cell whole inside the
    quadrant keeps its covariance (all-or-nothing); the straddling cells
    lose theirs.

    The Gaussians factorize over x and y, and per axis
    ``sqrt(phi_p phi_c)`` is ``B`` times a normal density of width
    ``sigma_e``. With ``s_p`` and ``s_c`` the beams' sigmas,
    ``B = sqrt(2 s_p s_c / (s_p^2 + s_c^2))`` (the Bhattacharyya overlap)
    and ``sigma_e = s_p s_c sqrt(2 / (s_p^2 + s_c^2))``. A quadrant's whole
    cells cover one half axis beyond the on-axis half cell, ``[d/2, inf)``,
    on both axes, so the share is ``(B Phi(-d / (2 sigma_e)))**2``: the sum
    over the whole cells telescopes into one tail. For equal waists
    ``B = 1`` and ``sigma_e = sigma``. As the cell size shrinks the share
    tends to ``B**2 / 4`` and the cut becomes a pure spatial partition.
    """
    half = _half_cells(waist_p, waist_c, d_c)
    # In units of the probe's sigma, so that no waist is squared out of
    # range; equal waists give ratio = mean_sq = 1, so B = 1 and
    # sigma_e = sigma exactly.
    sigma_p = waist_p / 4.0
    ratio = (waist_c / 4.0) / sigma_p
    mean_sq = 0.5 * (1.0 + ratio * ratio)
    sigma_e = sigma_p * (ratio / math.sqrt(mean_sq))
    overlap = math.sqrt(ratio / mean_sq)
    keep = overlap * _normal_cdf(-0.5 * d_c / sigma_e)
    return CoherenceGrid(cov_share=keep * keep, half_cells=half)
