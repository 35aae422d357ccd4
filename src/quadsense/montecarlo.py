"""Independent stochastic and small-Hilbert-space oracles.

Everything here validates the analytic moment maps by a different route:
Gaussian photocurrent sampling of the quadrant pieces that the optics cut
assigns to each quadrant (exact for first and second moments, which is all
the formulas use), binomial-equivalent thinning for the loss map, and a
truncated-Fock construction of the seeded two-mode squeezer.

Randomness is counter-based: every (seed, piece, chunk) triple owns an
independent Philox substream, so batches are bitwise identical for any
worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import expm_multiply

from .errors import TailMassError, ValidationError
from .optics import QUADRANT_SIGNS, _axis_pieces
from .source import CoherenceGrid, TwinBeamMoments

__all__ = [
    "SampleBatch",
    "sample_photocurrents",
    "sample_pair",
    "thinning_loss",
    "fock_two_mode_squeezer_moments",
    "stimulated_fock_moments",
    "VerificationCheck",
    "run_verification",
]

CHUNK = 1 << 20


@dataclass(frozen=True)
class SampleBatch:
    """Per-quadrant probe/conjugate intensity samples."""

    n_samples: int
    seed: int
    probe: dict
    conjugate: dict


def _generator(seed: int, *key) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key)))
    )


def _quadrant_pieces(grid: CoherenceGrid, m: TwinBeamMoments, q: int):
    """``(mean_p, mean_c, var_p, var_c, cov)`` of each piece of quadrant ``q``.

    A piece is the product of an x piece and a y piece of
    :func:`optics._axis_pieces`, so the pieces sum to
    ``quadrant_cut(m, grid, q).moments``. Its weight is the product of its
    two factors, and it keeps its share of the covariance only when both
    factors are whole cells.
    """
    axes = []
    for s in QUADRANT_SIGNS[q]:
        wp, wc, clip_p, clip_c = _axis_pieces(grid, s)
        axes.append(
            [(p, c, True) for p, c in zip(wp, wc)]
            + [(p, c, False) for p, c in zip(clip_p, clip_c)]
        )
    pieces = []
    for (xp, xc, x_whole), (yp, yc, y_whole) in itertools.product(*axes):
        wp, wc = xp * yp, xc * yc
        cov = math.sqrt(wp * wc) * m.cov if x_whole and y_whole else 0.0
        pieces.append((wp * m.mean_p, wc * m.mean_c, wp * m.var_p, wc * m.var_c, cov))
    return pieces


def _cholesky(vp, vc, cov):
    """``(a, b, c)`` with [[a, 0], [b, c]] the Cholesky factor of
    [[vp, cov], [cov, vc]]."""
    a = math.sqrt(vp)
    b = cov / a if a > 0 else 0.0
    c = math.sqrt(max(vc - b * b, 0.0))
    return a, b, c


def _chunks(n: int):
    """``(index, start, size)`` of each 2^20-sample chunk of ``n`` samples."""
    return [
        (k, k * CHUNK, min(CHUNK, n - k * CHUNK))
        for k in range((n + CHUNK - 1) // CHUNK)
    ]


def _sample_pieces_chunk(seed, chunk_idx, pieces, probe, conj, z):
    """Add one chunk of bivariate Gaussian samples of ``pieces`` into the
    zeroed ``probe`` and ``conj`` slices.

    Each piece is ``(index, mean_p, mean_c, a, b, c)`` with its Cholesky
    factors; ``z`` is a ``(2, len(probe))`` scratch buffer that every piece
    redraws from its own (seed, piece, chunk) substream.
    """
    t = np.empty_like(probe)
    u = np.empty_like(probe)
    for i, mp, mc, a, b, c in pieces:
        _generator(seed, i, chunk_idx).standard_normal(out=z)
        # Rounds exactly as probe += mp + a*z0 and conj += mc + b*z0 + c*z1.
        np.multiply(z[0], a, out=t)
        t += mp
        probe += t
        np.multiply(z[0], b, out=t)
        t += mc
        np.multiply(z[1], c, out=u)
        t += u
        conj += t


def sample_photocurrents(
    grid: CoherenceGrid,
    m: TwinBeamMoments,
    n: int,
    seed: int,
    n_workers: int = 1,
) -> SampleBatch:
    """Sample per-quadrant intensities of the partitioned twin beam.

    Each quadrant's samples are the sum over the pieces that
    :func:`optics.quadrant_cut` assigns to it (whole cells, and the clipped
    parts of cells on a cut line), drawn as mutually independent bivariate
    Gaussians, so the expected moments are ``quadrant_cut(m, grid,
    q).moments``. Each piece draws from its own (seed, piece, chunk)
    substream, and each chunk of 2^20 samples is filled in place into its
    slice of the per-quadrant arrays, so the result does not depend on
    ``n_workers``.
    """
    if grid.n_cells > 1 << 18:
        raise ValidationError(
            f"grid with {grid.n_cells} cells is too fine for per-cell "
            "sampling; use a coarser verification grid"
        )
    pieces_by_q = {q: [] for q in QUADRANT_SIGNS}
    i = 0
    for q, pieces in pieces_by_q.items():
        for mp, mc, vp, vc, cov in _quadrant_pieces(grid, m, q):
            if cov**2 > vp * vc * (1.0 + 1e-12) + 1e-300:
                raise ValidationError(f"piece {i} covariance matrix is not PSD")
            pieces.append((i, mp, mc, *_cholesky(vp, vc, cov)))
            i += 1

    probe = {q: np.zeros(n) for q in QUADRANT_SIGNS}
    conj = {q: np.zeros(n) for q in QUADRANT_SIGNS}

    def work(task):
        k, lo, size = task
        part = slice(lo, lo + size)
        z = np.empty((2, size))
        for q, pieces in pieces_by_q.items():
            _sample_pieces_chunk(seed, k, pieces, probe[q][part], conj[q][part], z)

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            # Read every result so a worker's exception is raised here.
            list(pool.map(work, _chunks(n)))
    else:
        for task in _chunks(n):
            work(task)
    return SampleBatch(n_samples=n, seed=seed, probe=probe, conjugate=conj)


def sample_pair(m: TwinBeamMoments, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Whole-beam probe/conjugate samples (single-cell shortcut)."""
    probe = np.zeros(n)
    conj = np.zeros(n)
    pieces = [(0, m.mean_p, m.mean_c, *_cholesky(m.var_p, m.var_c, m.cov))]
    for k, lo, size in _chunks(n):
        part = slice(lo, lo + size)
        z = np.empty((2, size))
        _sample_pieces_chunk(seed, k, pieces, probe[part], conj[part], z)
    return probe, conj


def thinning_loss(samples: np.ndarray, eta: float, seed: int) -> np.ndarray:
    """Gaussian-equivalent binomial thinning of intensity samples.

    Each input x maps to eta*x plus zero-mean noise of variance
    eta*(1-eta)*x, reproducing the mean and variance of binomial thinning
    of a photon stream of mean x.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("transmission must lie in [0, 1]")
    samples = np.asarray(samples, float)
    if eta == 1.0:
        return samples.copy()
    if eta == 0.0:
        return np.zeros_like(samples)
    out = np.empty_like(samples)
    n = samples.size
    flat = samples.ravel()
    for k, lo, size in _chunks(n):
        rng = _generator(seed, 1, k)
        z = rng.standard_normal(size)
        x = flat[lo : lo + size]
        out.ravel()[lo : lo + size] = eta * x + np.sqrt(
            eta * (1.0 - eta) * np.maximum(x, 0.0)
        ) * z
    return out


def _pair_ladder(n_max: int):
    """Sparse a'b' - ab on the truncated two-mode number basis."""
    dim = n_max + 1
    rows, cols, vals = [], [], []
    for np_ in range(n_max):
        for nc_ in range(n_max):
            i = np_ * dim + nc_
            j = (np_ + 1) * dim + (nc_ + 1)
            amp = math.sqrt((np_ + 1) * (nc_ + 1))
            rows.append(j)
            cols.append(i)
            vals.append(amp)
            rows.append(i)
            cols.append(j)
            vals.append(-amp)
    return coo_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim)).tocsr()


def _coherent_vector(alpha: float, n_max: int) -> np.ndarray:
    if alpha == 0.0:
        v = np.zeros(n_max + 1)
        v[0] = 1.0
        return v
    n = np.arange(n_max + 1)
    log_c = -0.5 * alpha * alpha + n * math.log(alpha) - 0.5 * np.cumsum(
        np.concatenate([[0.0], np.log(np.arange(1, n_max + 1))])
    )
    return np.exp(log_c)


def fock_two_mode_squeezer_moments(
    gain: float,
    seed_amplitude: float,
    truncation: int | None = None,
    tail_tol: float = 1e-10,
) -> TwinBeamMoments:
    """Photon-number moments of a two-mode squeezer on a coherent seed.

    Builds the state exp(r(a'b' - ab)) |alpha, 0> in a truncated number
    basis with cosh^2(r) = gain and computes means, variances, and the
    covariance by direct summation. The probability mass on the truncation
    boundary must stay below ``tail_tol``; with ``truncation=None`` the
    basis grows until it does.
    """
    if gain < 1.0:
        raise ValidationError("gain must be >= 1")
    if seed_amplitude < 0.0:
        raise ValidationError("seed amplitude must be >= 0")
    r = math.acosh(math.sqrt(gain))

    sizes = [truncation] if truncation is not None else [24, 36, 48, 64, 80]
    last_tail = None
    for n_max in sizes:
        dim = n_max + 1
        coh = _coherent_vector(seed_amplitude, n_max)
        # |alpha>_p x |0>_c : conjugate index 0 for every probe level.
        psi0 = np.zeros(dim * dim)
        psi0[np.arange(dim) * dim] = coh
        k = _pair_ladder(n_max)
        psi = expm_multiply(r * k, psi0)
        prob = (psi * psi).reshape(dim, dim)
        tail = float(prob[-1, :].sum() + prob[:, -1].sum())
        last_tail = tail
        if tail < tail_tol:
            n = np.arange(dim, dtype=float)
            pn_p = prob.sum(axis=1)
            pn_c = prob.sum(axis=0)
            mean_p = float(pn_p @ n)
            mean_c = float(pn_c @ n)
            var_p = float(pn_p @ n**2) - mean_p**2
            var_c = float(pn_c @ n**2) - mean_c**2
            cross = float(n @ prob @ n)
            return TwinBeamMoments(
                mean_p, mean_c, var_p, var_c, cross - mean_p * mean_c
            )
    raise TailMassError(
        f"truncation {sizes[-1]} leaves tail mass {last_tail:.3e} > {tail_tol:.0e}"
    )


def stimulated_fock_moments(
    gain: float, seed_flux: float, truncation: int | None = None
) -> TwinBeamMoments:
    """Seed-stimulated component of the squeezer output.

    The spontaneous (seed-independent) part of every moment is removed by
    subtracting a vacuum-seeded run, which isolates the bright-beam moments
    the analytic source model describes.
    """
    seeded = fock_two_mode_squeezer_moments(gain, math.sqrt(seed_flux), truncation)
    vac = fock_two_mode_squeezer_moments(gain, 0.0, truncation)
    return TwinBeamMoments(
        seeded.mean_p - vac.mean_p,
        seeded.mean_c - vac.mean_c,
        seeded.var_p - vac.var_p,
        seeded.var_c - vac.var_c,
        seeded.cov - vac.cov,
    )


# -- oracle verification suite ------------------------------------------


@dataclass(frozen=True)
class VerificationCheck:
    """One oracle check: a named statistic against its tolerance."""

    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str


def _check(name, statistic, threshold, detail):
    return VerificationCheck(
        name=name,
        passed=bool(statistic <= threshold),
        statistic=float(statistic),
        threshold=float(threshold),
        detail=detail,
    )


def _rel_err(a: TwinBeamMoments, b: TwinBeamMoments) -> float:
    pairs = [
        (a.mean_p, b.mean_p),
        (a.mean_c, b.mean_c),
        (a.var_p, b.var_p),
        (a.var_c, b.var_c),
        (a.cov, b.cov),
    ]
    return max(abs(x - y) / max(abs(y), 1e-12) for x, y in pairs)


def run_verification(n_samples: int = 10_000_000, seed: int = 20260826) -> list:
    """Run every oracle check and return the list of results.

    The sampled checks operate in the bright regime, where the
    Gaussian-equivalent thinning model is exact; tolerances are 5 standard
    errors, so a passing suite is overwhelmingly likely to pass again
    under a different seed.
    """
    from . import detection
    from .optics import LossChannel, apply_loss, quadrant_cut
    from .source import FwmSourceParams, build_coherence_grid, fwm_moments

    checks = []
    n = int(n_samples)

    # Truncated-Fock squeezer vs the closed-form source moments.
    worst = 0.0
    for gain in (1.05, 1.2, 1.3):
        analytic = fwm_moments(FwmSourceParams(gain=gain, seed_flux=1.0))
        fock = stimulated_fock_moments(gain, 1.0)
        worst = max(worst, _rel_err(fock, analytic))
    checks.append(
        _check(
            "fock_vs_closed_form",
            worst,
            1e-6,
            "stimulated truncated-Fock moments vs analytic source moments, "
            "gain in {1.05, 1.2, 1.3}",
        )
    )

    # Bright reference state: the gain-2 ideal moments scaled up so the
    # Gaussian intensity model holds (negative-intensity clipping in the
    # thinning map is negligible when mean >> sqrt(var)).
    bright = 1e4
    m = TwinBeamMoments(2 * bright, bright, 6 * bright, 3 * bright, 4 * bright)
    ch = LossChannel(0.5, 0.9)
    p, c = sample_pair(m, n, seed)
    pt = thinning_loss(p, ch.eta_p, seed ^ 0x7A11)
    ct = thinning_loss(c, ch.eta_c, seed ^ 0x7A22)
    expected = apply_loss(m, ch)

    def z_mean(x, mu, var):
        return abs(float(np.mean(x)) - mu) / math.sqrt(var / n)

    def z_var(x, var):
        return abs(float(np.var(x)) - var) / (var * math.sqrt(2.0 / n))

    worst = max(
        z_mean(pt, expected.mean_p, expected.var_p),
        z_mean(ct, expected.mean_c, expected.var_c),
        z_var(pt, expected.var_p),
        z_var(ct, expected.var_c),
    )
    cov_emp = float(np.cov(pt, ct)[0, 1])
    se_cov = math.sqrt((expected.var_p * expected.var_c + expected.cov**2) / n)
    worst = max(worst, abs(cov_emp - expected.cov) / se_cov)
    checks.append(
        _check(
            "thinning_vs_loss_map",
            worst,
            5.0,
            f"worst z-score of sampled moments after thinning vs the "
            f"analytic loss map at n={n}",
        )
    )

    # Sampled difference-photocurrent variance vs the analytic noise.
    g = detection.optimal_gain(m, ch)
    diff = pt - g * ct
    s_analytic = detection.difference_noise(m, ch, g)
    z = abs(float(np.var(diff)) - s_analytic) / (s_analytic * math.sqrt(2.0 / n))
    checks.append(
        _check(
            "sampled_difference_noise",
            z,
            5.0,
            f"z-score of sampled minimum difference noise at n={n}, "
            f"g={g:.4f}",
        )
    )

    # Coherent-state (shot-noise) linearity: sampled noise vs power must
    # sit on a line through the origin and match var = power pointwise.
    powers = bright * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    n_lin = min(n, 1_000_000)
    worst_db = 0.0
    svv = spp = 0.0
    for k, power in enumerate(powers):
        rng = _generator(seed, 13, k)
        x = power + math.sqrt(power) * rng.standard_normal(n_lin)
        v = float(np.var(x))
        worst_db = max(worst_db, abs(10.0 * math.log10(v / power)))
        svv += power * v
        spp += power * power
    slope_db = abs(10.0 * math.log10(svv / spp))
    checks.append(
        _check(
            "snl_linearity",
            max(worst_db, slope_db),
            0.2,
            "dB deviation of sampled shot noise from linear-in-power at "
            "every swept power and in the fitted through-origin slope",
        )
    )

    # Coarse verification grid: sampled quadrant pieces against the
    # analytic quadrant cut, and cross-quadrant independence.
    grid = build_coherence_grid(16.0, 16.0, 8.0, 64.0)
    n_grid = min(n, 1_000_000)
    batch = sample_photocurrents(grid, m, n_grid, seed)
    worst = 0.0
    for q in QUADRANT_SIGNS:
        exp = quadrant_cut(m, grid, q).moments
        worst = max(
            worst,
            z_mean(batch.probe[q], exp.mean_p, exp.var_p) * math.sqrt(n_grid / n),
        )
        worst = max(worst, z_var(batch.probe[q], exp.var_p) * math.sqrt(n_grid / n))
        worst = max(worst, z_var(batch.conjugate[q], exp.var_c) * math.sqrt(n_grid / n))
        cov_emp = float(np.cov(batch.probe[q], batch.conjugate[q])[0, 1])
        se = math.sqrt((exp.var_p * exp.var_c + exp.cov**2) / n_grid)
        worst = max(worst, abs(cov_emp - exp.cov) / se)
    checks.append(
        _check(
            "quadrant_cell_sums",
            worst,
            5.0,
            f"worst z-score of sampled per-quadrant moments vs the analytic "
            f"quadrant cut at n={n_grid}",
        )
    )

    worst = 0.0
    quads = sorted(QUADRANT_SIGNS)
    for a in quads:
        for b in quads:
            if a >= b:
                continue
            for xa in (batch.probe[a], batch.conjugate[a]):
                for xb in (batch.probe[b], batch.conjugate[b]):
                    cov_ab = float(np.cov(xa, xb)[0, 1])
                    se = math.sqrt(float(np.var(xa)) * float(np.var(xb)) / n_grid)
                    worst = max(worst, abs(cov_ab) / se)
    checks.append(
        _check(
            "cross_quadrant_independence",
            worst,
            5.0,
            "worst z-score of the 24 cross-quadrant covariances that the "
            "independent-cell model predicts to vanish",
        )
    )

    # Determinism across worker counts. Invariance rests on the chunk
    # layout, not on the piece count or the sample size, so the check uses a
    # one-cell grid (its four clipped quarters give one piece per quadrant)
    # at one chunk plus a remainder: the workers then split two chunks and
    # meet at a boundary whatever n_samples is.
    coarse = build_coherence_grid(16.0, 16.0, 64.0, 64.0)
    n_inv = CHUNK + 12345
    batch3 = sample_photocurrents(coarse, m, n_inv, seed, n_workers=3)
    batch1 = sample_photocurrents(coarse, m, n_inv, seed, n_workers=1)
    identical = all(
        np.array_equal(batch1.probe[q], batch3.probe[q])
        and np.array_equal(batch1.conjugate[q], batch3.conjugate[q])
        for q in QUADRANT_SIGNS
    )
    checks.append(
        _check(
            "worker_invariance",
            0.0 if identical else 1.0,
            0.5,
            "per-quadrant sample batches are bitwise identical for 1 and 3 "
            "workers",
        )
    )

    # Quadrant partition balance: an on-axis beam splits its power evenly
    # and the four analytic cut transmissions sum to at most 1.
    src = TwinBeamMoments(1.0, 1.0, 1.0, 1.0, 1.0)
    etas = [quadrant_cut(src, grid, q).eta_p for q in QUADRANT_SIGNS]
    spread = max(etas) - min(etas)
    checks.append(
        _check(
            "quadrant_partition_balance",
            max(spread, 0.0 if sum(etas) <= 1.0 + 1e-12 else 1.0),
            1e-12,
            "centered beam splits evenly across quadrants and keeps total "
            "transmission <= 1",
        )
    )

    return checks
