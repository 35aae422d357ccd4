"""Beam geometry and loss: transmission of a centered Gaussian beam through
the tilted quadrant windows, beam-splitter loss propagation of intensity
moments, and the correlation penalty of cutting a finite coherence area.
The coherence cells are centered on both beams, so that penalty is one
quadrant cut, the same for all four quadrants: a quarter of every mean and
variance, and the closed-form covariance share
(:func:`source.build_coherence_grid`) of the covariance.

Quadrant labels follow the sign convention
``1: (+x, +y), 2: (-x, +y), 3: (-x, -y), 4: (+x, -y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SearchError, ValidationError
from .source import CoherenceGrid, TwinBeamMoments, _interval_weights

__all__ = [
    "QUADRANT_SIGNS",
    "QuadrantLayout",
    "LossChannel",
    "QuadrantTransmission",
    "quadrant_transmission",
    "transmission_curve",
    "waist_scan",
    "optimize_waist",
    "apply_loss",
    "quadrant_cut",
]

QUADRANT_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}
# Power share of each quadrant of a coherence grid centered on the beams.
QUADRANT_SHARE = 0.25
# Coarse diameters that :func:`optimize_waist` scans, and the bracket width
# in um at which its golden-section refinement stops.
WAIST_GRID_POINTS = 181
WAIST_TOL_UM = 0.2


@dataclass(frozen=True)
class QuadrantLayout:
    """Four square windows separated by an opaque gap cross.

    The tilt about the y-axis is modeled as a projection: every x extent of
    the layout is multiplied by cos(tilt).
    """

    window_size: float = 200.0
    gap: float = 20.0
    tilt_deg: float = 26.0

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

    def window_bounds(self, q: int) -> tuple[float, float, float, float]:
        """(xlo, xhi, ylo, yhi) of window q in the beam plane (tilt applied)."""
        sx, sy = QUADRANT_SIGNS[q]
        g = 0.5 * self.gap
        w = self.window_size
        xlo, xhi = sorted((sx * g * self.cos_tilt, sx * (g + w) * self.cos_tilt))
        ylo, yhi = sorted((sy * g, sy * (g + w)))
        return xlo, xhi, ylo, yhi

    @property
    def half_extent(self) -> tuple[float, float]:
        """Half side of the overall layout square (x projected, y true)."""
        h = 0.5 * self.gap + self.window_size
        return h * self.cos_tilt, h


@dataclass(frozen=True)
class LossChannel:
    """Independent power transmissions for the probe and conjugate paths."""

    eta_p: float
    eta_c: float

    def __post_init__(self):
        if not (0.0 <= self.eta_p <= 1.0 and 0.0 <= self.eta_c <= 1.0):
            raise ValidationError("transmissions must lie in [0, 1]")


@dataclass(frozen=True)
class QuadrantTransmission:
    """Power bookkeeping of a beam incident on a quadrant layout."""

    window_fractions: dict
    total: float
    gap_fraction: float
    tail_fraction: float


def _window_powers(layout: QuadrantLayout, sigma: float) -> list:
    """Power fractions of windows 1-4 and of the whole layout square for a
    round beam of standard deviation ``sigma`` centered on the layout.

    The Gaussian factorizes, so each is the product of the exact power of
    its x and y intervals (:func:`_interval_weights`): 20 normal CDFs
    through the C library's ``erfc``.
    """
    hx, hy = layout.half_extent
    bounds = [layout.window_bounds(q) for q in (1, 2, 3, 4)] + [(-hx, hx, -hy, hy)]
    return [
        _interval_weights(xlo, xhi, sigma) * _interval_weights(ylo, yhi, sigma)
        for xlo, xhi, ylo, yhi in bounds
    ]


def _window_total(powers) -> float:
    """Summed power of windows 1-4, added in window order."""
    total = 0.0
    for k in range(4):
        total = total + powers[k]
    return total


def quadrant_transmission(
    diameter: float, layout: QuadrantLayout
) -> QuadrantTransmission:
    """Per-window power fractions and total transmission of a round beam of
    1/e^2 diameter ``diameter`` (sigma = D / 4) centered on the layout."""
    if not diameter > 0:
        raise ValidationError(f"beam diameter must be > 0, got {diameter}")
    powers = _window_powers(layout, diameter / 4.0)
    total = _window_total(powers)
    in_square = powers[4]
    return QuadrantTransmission(
        window_fractions={q: powers[q - 1] for q in (1, 2, 3, 4)},
        total=total,
        gap_fraction=max(in_square - total, 0.0),
        tail_fraction=1.0 - in_square,
    )


def transmission_curve(layout: QuadrantLayout, diameters) -> list:
    """Total transmission of centered beams of the given 1/e^2 diameters,
    as a list; each entry is the :func:`quadrant_transmission` total of
    that beam."""
    return [_window_total(_window_powers(layout, d / 4.0)) for d in diameters]


def waist_scan(layout: QuadrantLayout, d_range: tuple[float, float]):
    """``(diameters, totals)``: :data:`WAIST_GRID_POINTS` evenly spaced
    diameters over ``d_range``, as lists, and their
    :func:`transmission_curve`.

    The diameters are those of ``numpy.linspace``, to the bit: ``k * step
    + lo``, with the last one set to ``hi``.
    """
    lo, hi = d_range
    step = (hi - lo) / (WAIST_GRID_POINTS - 1)
    ds = [k * step + lo for k in range(WAIST_GRID_POINTS - 1)] + [hi]
    return ds, transmission_curve(layout, ds)


def optimize_waist(layout: QuadrantLayout, d_range: tuple[float, float], scan=None):
    """Beam waist diameter maximizing the total quadrant transmission.

    Coarse :func:`waist_scan` over ``d_range``, or ``scan`` if the caller
    already holds it, then golden-section refinement to a bracket narrower
    than :data:`WAIST_TOL_UM`. Ties on a flat objective break toward the
    smallest diameter. Returns ``(best_diameter, best_total)``.
    """
    d_lo, d_hi = d_range
    if not 0 < d_lo < d_hi:
        raise ValidationError("search range must satisfy 0 < lo < hi")

    def total(d):
        return quadrant_transmission(d, layout).total

    ds, vals = waist_scan(layout, d_range) if scan is None else scan
    best_val = max(vals)
    if best_val - min(vals) < 1e-12:
        # Flat objective: every diameter is optimal; return the smallest.
        return ds[0], vals[0]
    k = vals.index(best_val)
    if k == 0 or k == WAIST_GRID_POINTS - 1:
        raise SearchError(
            f"range {d_range} does not bracket an interior transmission maximum"
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
