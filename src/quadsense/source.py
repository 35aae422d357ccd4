"""Seeded twin-beam source model: photon-statistics moments and the grid of
independently correlated coherence cells they are partitioned over. The
grid is centered on both beams, so every quadrant keeps the same share of
their covariance, and the grid is stored as that one share. The cell size
is the grid's one input; the beams' waists set how far it reaches.

Intensities are expressed as mean photon number per analysis interval, so a
coherent beam has variance equal to its mean. The `gain` parameter is the
intensity amplification of the seeded amplifier; the one excess-noise knob
adds technical noise proportional to the mean intensity squared,
independently to each beam (uncorrelated), so it adds no covariance.
"""

from __future__ import annotations

import math
import sys
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
    excess_uncorrelated: float = 0.0

    def __post_init__(self):
        if not self.gain >= 1.0:
            raise ValidationError(f"gain must be >= 1, got {self.gain}")
        if not self.seed_flux > 0.0:
            raise ValidationError(f"seed_flux must be > 0, got {self.seed_flux}")
        if self.excess_uncorrelated < 0.0:
            raise ValidationError("excess-noise coefficient must be >= 0")


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
    """Square tiling of the transverse plane into independent cells, kept
    as the one number its quadrant cut reads: ``cov_share``, the share of
    the beams' covariance that a quadrant keeps.

    One cell is centered on the axis of both beams, so the central cut
    lines halve it and the four quadrants are mirror images of one another.
    ``half_cells`` counts the whole cells on each side of that on-axis cell.
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


def source_squeezing(m: TwinBeamMoments) -> tuple[float, float]:
    """Balanced intensity-difference noise over the shot-noise level.

    Returns ``(ratio, ratio_db)`` for a lossless, unit-gain subtraction.
    """
    total = m.mean_p + m.mean_c
    if total <= 0.0:
        raise UndefinedSNLError("zero total mean intensity has no shot-noise level")
    ratio = (m.var_p + m.var_c - 2.0 * m.cov) / total
    return ratio, 10.0 * math.log10(ratio) if ratio > 0 else -math.inf


# Coefficients of the Cephes rational approximations (ndtr.c, as shipped in
# scipy.special): erfc(x) = exp(-x^2) P(x)/Q(x) on [1, 8) and
# exp(-x^2) R(x)/S(x) from 8 on; erf(x) = x T(x^2)/U(x^2) on |x| < 1. Q, S
# and U have a leading coefficient of 1, which is not listed.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_SQRT1_2 = math.sqrt(0.5)
# exp(-x^2) of a larger x^2 counts as underflow, as in Cephes.
_MAXLOG = math.log(sys.float_info.max)


def _polevl(x, coef):
    """Horner's rule, ``coef[0]`` the leading coefficient; a new array."""
    y = x * coef[0]
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _p1evl(x, coef):
    """:func:`_polevl` with an unlisted leading coefficient of 1."""
    y = x + coef[0]
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erf(x):
    """erf on |x| < 1."""
    z = x * x
    y = _polevl(z, _ERF_T)
    y *= x
    y /= _p1evl(z, _ERF_U)
    return y


def _erfc(x):
    """erfc on x >= 1/sqrt(2), each element by its own Cephes branch."""
    y = np.empty_like(x)
    near = x < 1.0
    if near.any():
        y[near] = 1.0 - _erf(x[near])
    mid = ~near & (x < 8.0)
    if mid.any():
        xm = x[mid]
        e = np.exp(-xm * xm)
        e *= _polevl(xm, _ERFC_P)
        e /= _p1evl(xm, _ERFC_Q)
        y[mid] = e
    far = x >= 8.0
    if far.any():
        # Clipped so that x^2 cannot overflow; from 40 on the result is 0 anyway.
        xf = np.minimum(x[far], 40.0)
        z = -xf * xf
        e = np.exp(z)
        e *= _polevl(xf, _ERFC_R)
        e /= _p1evl(xf, _ERFC_S)
        e[z < -_MAXLOG] = 0.0
        y[far] = e
    return y


# Elements :func:`_ndtr` evaluates at a time. A Cephes branch holds about
# ten temporaries of its block, so a block of 2**14 keeps them within a
# core's cache and a fine grid's CDF at its input and output arrays.
NDTR_BLOCK = 2**14


def _ndtr(a):
    """Standard normal CDF of every element of ``a``, as a new float array.

    A vectorized port of the Cephes ``ndtr``, the one scipy.special ships,
    with the same branches and coefficients: ``(1 + erf(a/sqrt 2))/2`` for
    |a| < 1, else ``erfc(|a|/sqrt 2)/2``, reflected for a > 0. Every
    operation is elementwise, so evaluating the flattened input in blocks
    of :data:`NDTR_BLOCK` gives the same bits as one pass. A branch with no
    elements is skipped. Its cost is a fixed ~0.06 ms per call plus ~20-30
    ns per grid edge (2-vCPU x86, numpy 2.4), so callers pass every
    argument they need in one array.
    """
    a = np.asarray(a)
    flat = a.reshape(-1)
    y = np.empty(flat.size)
    for start in range(0, flat.size, NDTR_BLOCK):
        block = slice(start, start + NDTR_BLOCK)
        x = np.multiply(flat[block], _SQRT1_2, dtype=float)
        z = np.abs(x)
        out = y[block]
        inner = z < _SQRT1_2
        if inner.any():
            out[inner] = 0.5 + 0.5 * _erf(x[inner])
        outer = ~inner
        if outer.any():
            tail = _erfc(z[outer])
            tail *= 0.5
            upper = x[outer] > 0.0
            if upper.any():
                tail[upper] = 1.0 - tail[upper]
            out[outer] = tail
    return y.reshape(a.shape)


def _interval_weights(edges_lo, edges_hi, sigma):
    """Gaussian power in [lo, hi] per axis for a centered beam.

    The bounds broadcast against ``sigma``, and both ends go through
    :func:`_ndtr`, the numpy port of the Cephes normal CDF, in one call. On
    [-40, 40] it agrees with ``scipy.special.ndtr`` to 6e-16 relative
    wherever scipy's value is at least 1e-300, and to the bit except where
    numpy's ``exp`` and the C library's round an ``exp(-x^2)`` differently.
    """
    hi, lo = np.broadcast_arrays(edges_hi / sigma, edges_lo / sigma)
    cdf = _ndtr(np.stack((hi, lo)))
    return cdf[0] - cdf[1]


# Cells per half axis a grid may have, checked before anything is
# allocated: a half axis of 2**22 cells takes 32 MiB per float array.
# Building a grid at the guard holds about four of them at once plus the
# CDF's block temporaries: ~136 MB traced, ~160 MB peak RSS.
MAX_HALF_CELLS = 2**22
# Waists a grid reaches on each side of the axis: 12 sigma of the wider
# beam, beyond which a Gaussian carries under 1e-32 of its power, so no
# covariance share, and no artifact, changes if the grid reaches further.
REACH_WAISTS = 3.0


def _half_cells(waist_p: float, waist_c: float, d_c: float) -> int:
    """Number of whole cells on each side of the on-axis cell of a grid.

    Validates the cell size for :func:`build_coherence_grid`.
    """
    if not d_c > 0:
        raise ValidationError("coherence cell size must be > 0")
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
    """Tile the beams' plane with square cells of side ``d_c``, out to
    :data:`REACH_WAISTS` waists of the wider beam from the axis, and return
    the covariance share a quadrant of it keeps.

    One cell is centered on the beam axis (coherence cells have no reason
    to align with razor blades). Waists are 1/e^2 diameters: sigma = D / 4.
    The beam is a sum of independent cells carrying proportional shares of
    the full-beam moments. The Gaussian envelopes factorize over x and y,
    so a quadrant's pieces are the products of an x piece and a y piece of
    one half axis: the whole cells ``[(k - 1/2) d, (k + 1/2) d]`` for
    ``k = 1..half``, and the on-axis half cell ``[0, d/2]`` that straddles
    a cut line. A piece carries its power share of every mean and variance,
    a quarter of the grid's power in all; only a piece whole on both axes
    carries its geometric-mean share of the covariance (all-or-nothing).
    So the share is ``keep**2``, where ``keep`` is the summed geometric-mean
    weight of one half axis's whole cells over the geometric mean of the
    two beams' full-axis powers. As the cell size shrinks the straddle
    weight vanishes and the cut becomes a pure spatial partition. The
    on-axis half cell always carries power, so the share is defined:
    :data:`MAX_HALF_CELLS` keeps ``d_c`` above ``12 / (2**22 + 1/2)``,
    about 2.9e-6, sigma of either beam.
    """
    half = _half_cells(waist_p, waist_c, d_c)
    # The half-axis cell edges 0, -d/2, -3d/2, ...: whole cells are weighed
    # at their mirror images below the axis, where the CDF is small; above
    # it a far cell's power would be the difference of two values near 1
    # and lose its leading digits. Each edge is evaluated once per beam,
    # once in all when the waists are equal.
    edges = 0.5 * d_c - np.arange(half + 2) * d_c
    edges[0] = 0.0

    def weights(sigma):
        # Whole cell k = 1..half weighs cdf[k] - cdf[k + 1]; the weights
        # overwrite the CDF's first ``half`` entries once the half cell's
        # weight is read.
        cdf = _ndtr(edges / sigma)
        half_w = float(cdf[0] - cdf[1])
        whole = np.subtract(cdf[1:-1], cdf[2:], out=cdf[:-2])
        return whole, half_w

    whole_p, half_p = weights(waist_p / 4.0)
    # Per-axis power of the grid: a full axis carries twice the half axis.
    tot_p = 2.0 * (float(whole_p.sum()) + half_p)
    if waist_c == waist_p:
        whole_c, tot_c = whole_p, tot_p
    else:
        whole_c, half_c = weights(waist_c / 4.0)
        tot_c = 2.0 * (float(whole_c.sum()) + half_c)
    # sqrt(w_p w_c), formed in place over the probe weights.
    geo = np.multiply(whole_p, whole_c, out=whole_p)
    np.sqrt(geo, out=geo)
    keep = float(geo.sum()) / math.sqrt(tot_p * tot_c)
    return CoherenceGrid(cov_share=keep * keep, half_cells=half)
