"""Beam geometry and loss: transmission of a centered Gaussian beam through
the tilted quadrant windows, beam-splitter loss propagation of intensity
moments, and the correlation penalty of cutting a finite coherence area.
The beams and the coherence cells are centered on the layout, so the four
quadrants are mirror images of one another: one window's transmission and
one quadrant cut serve all four. The cut keeps a quarter of every mean and
variance, and the closed-form covariance share
(:func:`source.build_coherence_grid`) of the covariance.

Quadrant labels follow the sign convention
``1: (+x, +y), 2: (-x, +y), 3: (-x, -y), 4: (+x, -y)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import SearchError, ValidationError, validated
from .source import CoherenceGrid, TwinBeamMoments, _interval_weights

__all__ = [
    "QUADRANTS",
    "QuadrantLayout",
    "LossChannel",
    "quadrant_transmission",
    "waist_scan",
    "optimize_waist",
    "apply_loss",
    "quadrant_cut",
]

QUADRANTS = (1, 2, 3, 4)
# Power share of each quadrant of a coherence grid centered on the beams.
QUADRANT_SHARE = 0.25
# Coarse diameters that :func:`optimize_waist` scans, and the bracket width
# in um at which its golden-section refinement stops.
WAIST_GRID_POINTS = 181
WAIST_TOL_UM = 0.2


@validated
class QuadrantLayout(NamedTuple):
    """Four square windows separated by an opaque gap cross.

    The tilt about the y-axis is modeled as a projection: every x extent of
    the layout is multiplied by cos(tilt).
    """

    window_size: float
    gap: float
    tilt_deg: float

    def __post_init__(self):
        if self.window_size <= 0:
            raise ValidationError("window_size must be > 0")
        if self.gap < 0:
            raise ValidationError("gap must be >= 0")
        if not 0.0 <= self.tilt_deg < 90.0:
            raise ValidationError("tilt must be in [0, 90) degrees")

    @property
    def cos_tilt(self) -> float:
        return math.cos(math.radians(self.tilt_deg))


@validated
class LossChannel(NamedTuple):
    """Independent power transmissions for the probe and conjugate paths."""

    eta_p: float
    eta_c: float

    def __post_init__(self):
        if not (0.0 <= self.eta_p <= 1.0 and 0.0 <= self.eta_c <= 1.0):
            raise ValidationError("transmissions must lie in [0, 1]")


def quadrant_transmission(diameter: float, layout: QuadrantLayout) -> float:
    """Total transmission of a round beam of 1/e^2 diameter ``diameter``
    (sigma = D / 4) centered on the layout.

    The Gaussian factorizes, so window 1 carries the exact power of its x
    and y intervals (:func:`_interval_weights`): 4 normal CDFs through the
    C library's ``erfc``. The beam is centered, so the other three windows
    are its mirror images and the total is 4 times window 1.
    """
    if not diameter > 0:
        raise ValidationError(f"beam diameter must be > 0, got {diameter}")
    sigma = diameter / 4.0
    g, w, c = 0.5 * layout.gap, layout.window_size, layout.cos_tilt
    window = _interval_weights(g * c, (g + w) * c, sigma) * _interval_weights(
        g, g + w, sigma
    )
    return 4.0 * window


def waist_scan(layout: QuadrantLayout, d_range: tuple[float, float]):
    """``(diameters, totals)``: :data:`WAIST_GRID_POINTS` evenly spaced
    diameters over ``d_range``, as lists, and the
    :func:`quadrant_transmission` of each.

    The diameters are those of ``numpy.linspace``, to the bit: ``k * step
    + lo``, with the last one set to ``hi``.
    """
    lo, hi = d_range
    if not 0 < lo < hi:
        raise ValidationError("search range must satisfy 0 < lo < hi")
    step = (hi - lo) / (WAIST_GRID_POINTS - 1)
    ds = [k * step + lo for k in range(WAIST_GRID_POINTS - 1)] + [hi]
    return ds, [quadrant_transmission(d, layout) for d in ds]


def optimize_waist(layout: QuadrantLayout, scan):
    """Beam waist diameter maximizing the total quadrant transmission.

    The best point of ``scan``, the :func:`waist_scan` of ``layout``, then
    golden-section refinement to a bracket narrower than
    :data:`WAIST_TOL_UM`. Ties on a flat objective break toward the
    smallest diameter. Returns ``(best_diameter, best_total)``.
    """

    def total(d):
        return quadrant_transmission(d, layout)

    ds, vals = scan
    best_val = max(vals)
    if best_val - min(vals) < 1e-12:
        # Flat objective: every diameter is optimal; return the smallest.
        return ds[0], vals[0]
    k = vals.index(best_val)
    if k == 0 or k == WAIST_GRID_POINTS - 1:
        raise SearchError(
            f"range {(ds[0], ds[-1])} does not bracket an interior transmission maximum"
        )

    # Golden-section search in the bracketing interval.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = ds[k - 1], ds[k + 1]
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = total(c), total(d)
    while b - a > WAIST_TOL_UM:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = total(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = total(d)
    best = 0.5 * (a + b)
    return best, total(best)


def apply_loss(m: TwinBeamMoments, ch: LossChannel) -> TwinBeamMoments:
    """Beam-splitter loss map on intensity moments.

    mean' = eta mean; var' = eta^2 (var - mean) + eta mean;
    cov' = eta_p eta_c cov. Poisson statistics are preserved.
    """
    ep, ec = ch.eta_p, ch.eta_c
    return TwinBeamMoments(
        mean_p=ep * m.mean_p,
        mean_c=ec * m.mean_c,
        var_p=ep * ep * (m.var_p - m.mean_p) + ep * m.mean_p,
        var_c=ec * ec * (m.var_c - m.mean_c) + ec * m.mean_c,
        cov=ep * ec * m.cov,
    )


def quadrant_cut(m: TwinBeamMoments, grid: CoherenceGrid) -> TwinBeamMoments:
    """Select one spatial quadrant of a multi-mode twin beam.

    The coherence cells are centered on both beams, so the central cut
    lines split them into four mirror-image quadrants and one cut serves
    all four. A quadrant carries :data:`QUADRANT_SHARE` of every mean and
    variance and ``grid.cov_share`` of the covariance: the share of
    ``sqrt(I_p I_c)`` that lies in the cells whole inside the quadrant, in
    closed form (:func:`source.build_coherence_grid`).
    """
    return TwinBeamMoments(
        mean_p=QUADRANT_SHARE * m.mean_p,
        mean_c=QUADRANT_SHARE * m.mean_c,
        var_p=QUADRANT_SHARE * m.var_p,
        var_c=QUADRANT_SHARE * m.var_c,
        cov=grid.cov_share * m.cov,
    )
