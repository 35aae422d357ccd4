"""Independent stochastic and small-Hilbert-space oracles.

Everything here validates the analytic moment maps by a different route:
Gaussian photocurrent sampling of each quadrant from the moments of the
optics cut (exact for first and second moments, which is all the formulas
use), binomial-equivalent thinning for the loss map, and a truncated-Fock
construction of the seeded two-mode squeezer, exponentiated one
photon-difference block at a time. :func:`run_verification` runs the
sampled checks on a calibrated chain's own cut, grid and pair channel.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC '11): each chunk ``k`` of :data:`CHUNK` = 2^16
samples of a draw owns an independent Philox substream, keyed by a seed
and a spawn key ``(sampler, ..., k)``:

- ``(seed, 0, k)``: :func:`sample_pair`;
- ``(seed, 1, k)``: :func:`thinning_loss`;
- ``(seed, 2, quadrant, k)``: :func:`sample_photocurrents`;
- ``(seed, 4)``, one stream, not chunked: :func:`sweep_statistics`;
- ``(seed, 13, j, k)``: the ``j``-th power of the ``snl_linearity`` check.

:func:`fold_chunks` is the one place that splits a run into chunks: it
hands each task its chunk index ``k``, and each sampler the task calls
draws its ``n`` samples from the one substream that ``k`` names. The fold
deals the chunks to :data:`LANES` fixed lanes, reduces each chunk to
means and co-moments (:class:`Comoments`) on one thread per CPU this
process may use, merges each lane's chunks in chunk order and the lanes
in lane order, so every statistic has the same bits for any worker
count, and none goes through a BLAS call. The checks hold one buffer per
running thread, about 5 MB, and about 2 KB per lane, whatever their
sample count.
Where :func:`run_verification` calls one sampler more than once, it XORs
the seed with a constant, so no two checks share a stream.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import TailMassError, ValidationError
from .optics import QUADRANTS, apply_loss, quadrant_cut
from .source import CoherenceGrid, FwmSourceParams, TwinBeamMoments, fwm_moments

__all__ = [
    "sample_photocurrents",
    "sample_pair",
    "sweep_statistics",
    "thinning_loss",
    "fold_chunks",
    "Comoments",
    "fock_two_mode_squeezer_moments",
    "stimulated_fock_moments",
    "VerificationCheck",
    "run_verification",
]

CHUNK = 1 << 16
# Lanes of a fold: chunk k belongs to lane k % LANES (see fold_chunks).
# Up to LANES chunks (2^28 samples) each lane holds one chunk. Above
# that, lanes differ by at most one chunk and the threads take them in
# lane order, so a fold ends at most one lane after an even split: a
# workers/LANES share of its time, under 5 % up to 204 threads. Each
# lane's task holds about 2 KB until it is merged.
LANES = 4096
# Number-basis cutoffs tried in turn by the Fock oracle, and the largest
# probability mass it accepts on the cutoff boundary.
FOCK_TRUNCATIONS = (24, 36, 48, 64, 80)
FOCK_TAIL_TOL = 1e-10


def _generator(seed: int, *key) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key)))
    )


def _cholesky(vp, vc, cov):
    """``(a, b, c)`` with [[a, 0], [b, c]] the Cholesky factor of
    [[vp, cov], [cov, vc]]."""
    a = math.sqrt(vp)
    b = cov / a if a > 0 else 0.0
    c = math.sqrt(max(vc - b * b, 0.0))
    return a, b, c


def _factors(m: TwinBeamMoments):
    """``(mean_p, mean_c, a, b, c)``: the means and Cholesky factors of ``m``."""
    return (m.mean_p, m.mean_c, *_cholesky(m.var_p, m.var_c, m.cov))


# cgroup files that may cap this process's CPU time: v2's "quota period"
# line, and v1's quota and period, in microseconds. They are only read.
CPU_MAX = "/sys/fs/cgroup/cpu.max"
CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _workers(tasks: int) -> int:
    """Threads for ``tasks`` tasks: one per CPU this process may run on,
    no more than its cgroup CPU quota grants, rounded up, and at most one
    per task. A quota of ``max`` or ``-1``, or no quota file, caps
    nothing."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    try:
        try:
            quota, period = map(int, Path(CPU_MAX).read_text().split())
        except OSError:
            quota, period = (int(Path(f).read_text()) for f in (CFS_QUOTA, CFS_PERIOD))
        if quota > 0 and period > 0:
            cpus = min(cpus, -(-quota // period))
    except (OSError, ValueError):  # no quota file, or v2's "max"
        pass
    return max(1, min(cpus, tasks))


def _merge(acc: list, parts: list) -> list:
    """Two lists of :class:`Comoments` merged item by item."""
    return [a.merge(b) for a, b in zip(acc, parts)]


def fold_chunks(task, n: int, rows: int) -> list:
    """The :class:`Comoments` of ``n`` samples, folded chunk by chunk.

    Chunk ``k`` holds samples ``k * CHUNK`` to ``(k + 1) * CHUNK``, the
    last chunk fewer. ``task(k, block)`` draws it into ``block``, a
    ``(rows, size)`` array it may overwrite, ``size`` the chunk's sample
    count, and returns a list of :class:`Comoments`.

    Chunk ``k`` belongs to lane ``k % LANES``. Each lane draws its chunks
    in chunk order and merges their lists item by item; the lanes run on
    :func:`_workers` threads, and their results are merged in lane order.
    The lanes, not the threads, fix the merge order, so the result has the
    same bits for any worker count; up to ``LANES`` chunks it is chunk
    order. A lane draws into its thread's buffer, which the thread
    allocates for its first lane and keeps for the rest, so the fold holds
    one buffer per running thread, and it submits at most ``LANES`` tasks
    however many chunks there are. NumPy's random fills and ufuncs release
    the interpreter lock, so the threads draw in parallel.
    """
    from concurrent.futures import ThreadPoolExecutor  # local: cli starts no pool

    chunks = -(-n // CHUNK)
    lanes = min(LANES, chunks)
    thread = threading.local()

    def lane(first):
        # Allocated here, not in the pool's initializer, whose errors
        # reach the caller as BrokenThreadPool, not MemoryError.
        if not hasattr(thread, "block"):
            thread.block = np.empty((rows, min(n, CHUNK)))
        parts = (
            task(k, thread.block[:, : min(CHUNK, n - k * CHUNK)])
            for k in range(first, chunks, LANES)
        )
        return functools.reduce(_merge, parts)

    with ThreadPoolExecutor(_workers(lanes)) as pool:
        return functools.reduce(_merge, pool.map(lane, range(lanes)))


def _normals(n: int, seed: int, *key, out=None):
    """Two arrays of ``n`` standard normals, ``z0`` then ``z1``, both from
    the one ``(seed, *key)`` substream, written into the pair of arrays
    ``out`` if it is given."""
    z0, z1 = (np.empty(n), np.empty(n)) if out is None else out
    rng = _generator(seed, *key)
    rng.standard_normal(out=z0)
    rng.standard_normal(out=z1)
    return z0, z1


def _correlate(factors, z0, z1):
    """Bivariate Gaussian samples from the standard normals ``z0``, ``z1``,
    in place.

    With ``factors`` = ``(mp, mc, a, b, c)`` (see :func:`_factors`), turns
    ``z0`` into probe = mp + a*z0 and ``z1`` into conj = mc + b*z0 + c*z1,
    rounded in that order, and returns them.
    """
    mp, mc, a, b, c = factors
    t = z0 * b
    t += mc
    z1 *= c
    z1 += t
    z0 *= a
    z0 += mp
    return z0, z1


def sample_photocurrents(
    grid: CoherenceGrid,
    m: TwinBeamMoments,
    n: int,
    seed: int,
    chunk: int = 0,
    out=None,
) -> tuple[dict, dict]:
    """Sample per-quadrant intensities of the partitioned twin beam.

    Each quadrant's intensity is drawn as one bivariate Gaussian with the
    moments of ``quadrant_cut(m, grid)``, the cut that the analytic chain
    uses. The quadrants share those moments but not their draws: quadrant
    ``q`` draws its ``n`` samples from the ``(seed, 2, q, chunk)``
    substream. Returns ``(probe, conjugate)``, two dicts of ``n`` samples
    per quadrant. ``out``, if given, is a ``(4, 2, n)`` array that holds
    them: quadrant by quadrant in :data:`optics.QUADRANTS` order,
    probe before conjugate.
    """
    factors = _factors(quadrant_cut(m, grid))
    if out is None:
        out = np.empty((len(QUADRANTS), 2, n))
    probe, conj = {}, {}
    for q, z in zip(QUADRANTS, out):
        z0, z1 = _normals(n, seed, 2, q, chunk, out=z)
        probe[q], conj[q] = _correlate(factors, z0, z1)
    return probe, conj


def sample_pair(
    m: TwinBeamMoments, n: int, seed: int, chunk: int = 0, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-beam probe/conjugate samples (single-cell shortcut): ``n``
    samples from the ``(seed, 0, chunk)`` substream, written into the pair
    of arrays ``out`` if it is given."""
    z0, z1 = _normals(n, seed, 0, chunk, out=out)
    return _correlate(_factors(m), z0, z1)


def sweep_statistics(moments, gains, n: int, seed: int) -> list:
    """``(s_off, tone_cov, tone_var)`` of ``n`` samples of each pair, of
    moments ``m`` in ``moments`` and gain ``g`` in ``gains``: the variance
    (ddof 0) of ``d = p - g*c``, its covariance with the tone
    ``t_k = cos(2*pi*k/n)``, and ``var(t)``, drawn from their exact
    distribution, not sampled.

    ``d`` is a constant plus ``w . z``, ``w = (a - g*b, -g*c)`` from the
    Cholesky factors of ``m`` (see :func:`_correlate`) and ``z`` two
    standard normals. The tone spans whole periods, so ``sum(t) = 0`` and
    ``t't = n/2`` (``n`` at ``n = 2``). Then ``y = Z't/sqrt(t't)``, ``Z``
    the ``n`` draws of ``z``, is N(0, I), and the rest of their centred
    scatter, ``R``, is Wishart_2(n - 2, I), independent of ``y``:
    ``s_off = ((w.y)^2 + w'Rw)/n``, ``tone_cov = (w.y) sqrt(t't)/n`` and
    ``tone_var = t't/n``. ``y``, then ``R`` by Bartlett's decomposition
    (Odell & Feiveson, *JASA* 61, 199 (1966)), come from the ``(seed, 4)``
    stream, one draw for all pairs; ``R = 0`` at ``n = 2``.
    """
    rng = _generator(seed, 4)
    y0, y1 = rng.standard_normal(2).tolist()
    l11 = l21 = l22 = 0.0
    if n > 2:
        l11 = math.sqrt(2.0 * rng.gamma((n - 2) / 2))
        l22 = math.sqrt(2.0 * rng.gamma((n - 3) / 2))
        l21 = rng.standard_normal()
    tt = n / 2 if n > 2 else float(n)
    stats = []
    for m, g in zip(moments, gains):
        _, _, a, b, c = _factors(m)
        w0, w1 = a - g * b, -g * c
        wy = w0 * y0 + w1 * y1
        # w'Rw = |L'w|^2, squared by multiplying: libm's pow is not always
        # correctly rounded, and the pinned curves must not rest on it.
        u, v = w0 * l11 + w1 * l21, w1 * l22
        wrw = u * u + v * v
        stats.append(((wy * wy + wrw) / n, wy * math.sqrt(tt) / n, tt / n))
    return stats


def thinning_loss(
    samples: np.ndarray, eta: float, seed: int, chunk: int = 0, out=None
) -> np.ndarray:
    """Gaussian-equivalent binomial thinning of intensity samples.

    Each input x maps to eta*x plus zero-mean noise of variance
    eta*(1-eta)*x, reproducing the mean and variance of binomial thinning
    of a photon stream of mean x. The noise is drawn from the
    ``(seed, 1, chunk)`` substream in C order, so any memory layout of
    ``samples`` gets the draws of its C-ordered copy. ``out``, if given,
    receives the result; it may be ``samples`` itself.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("transmission must lie in [0, 1]")
    samples = np.asarray(samples, float)
    if out is None:
        out = np.empty(samples.shape)
    z = _generator(seed, 1, chunk).standard_normal(samples.shape)
    # eta*x + sqrt(eta*(1-eta)*max(x, 0))*z, rounded in that order, in one
    # temporary besides z (an array, not a scalar, for a 0-d input too).
    noise = np.maximum(samples, 0.0, out=np.empty(samples.shape))
    noise *= eta * (1.0 - eta)
    np.sqrt(noise, out=noise)
    noise *= z
    np.multiply(samples, eta, out=out)
    out += noise
    return out


class Comoments:
    """Count ``n``, means and co-moment matrix ``m2`` of ``k`` series.

    ``m2[i, j]`` is the sum over the samples of the product of series
    ``i``'s and series ``j``'s deviations from their means. :meth:`of`
    computes them for one chunk of samples in two passes (its diagonal as
    ``np.var`` sums it, to the bit); :meth:`merge` joins two parts by the
    pairwise update of Chan, Golub & LeVeque, *Am. Stat.* 37, 242 (1983):
    for counts ``n_a``, ``n_b`` and means differing by ``d``,
    ``m2 = m2_a + m2_b + d d' n_a n_b / (n_a + n_b)``. Parts merged in one
    order give the same bits whichever thread computed each.
    """

    def __init__(self, n: int, mean: np.ndarray, m2: np.ndarray):
        self.n = n
        self.mean = mean
        self.m2 = m2

    @classmethod
    def of(cls, *rows) -> "Comoments":
        """The moments of one chunk: ``rows`` are the ``k`` series' samples,
        all of one length. Each row is centred in place: it holds its
        deviations from its mean afterwards."""
        size = rows[0].size
        mean = np.empty(len(rows))
        for i, x in enumerate(rows):
            mean[i] = np.add.reduce(x) / size
            x -= mean[i]
        # One product and one sum per pair of series, so an entry depends
        # neither on k nor on a BLAS library's thread count.
        product = np.empty(size)
        m2 = np.empty((len(rows), len(rows)))
        for i, d in enumerate(rows):
            for j in range(i + 1):
                np.multiply(d, rows[j], out=product)
                m2[i, j] = m2[j, i] = np.add.reduce(product)
        return cls(size, mean, m2)

    def merge(self, other: "Comoments") -> "Comoments":
        """The moments of this part's samples together with ``other``'s."""
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.n / n)
        m2 = self.m2 + other.m2 + np.outer(delta, delta) * (self.n * other.n / n)
        return Comoments(n, mean, m2)

    def var(self) -> np.ndarray:
        """Each series' sample variance (ddof 0, as ``np.var``)."""
        return np.diag(self.m2) / self.n

    def cov(self) -> np.ndarray:
        """The unbiased (ddof 1) sample covariance matrix, ``m2 / (n - 1)``."""
        return self.m2 / (self.n - 1)


def _coherent_vector(alpha: float, n_max: int) -> np.ndarray:
    """Number amplitudes ``c_0 .. c_n_max`` of the coherent state |alpha>:
    c_0 = exp(-alpha^2/2), c_n = c_(n-1) alpha / sqrt(n)."""
    steps = alpha / np.sqrt(np.arange(1.0, n_max + 1))
    return np.cumprod(np.concatenate([[math.exp(-0.5 * alpha * alpha)], steps]))


def _fock_probabilities(r: float, alpha: float, n_max: int) -> np.ndarray:
    """``prob[n_p, n_c]`` of exp(r(a'b' - ab)) |alpha, 0>, with at most
    ``n_max`` photons in each mode.

    The generator conserves n_p - n_c, so each difference d evolves alone
    on its ladder |d + k, k>, k = 0 .. n_max - d, from amplitude c_d at
    k = 0. There the generator is real antisymmetric and tridiagonal, with
    sqrt((d + k) k) joining k - 1 to k; the phases diag(i^k) turn it into
    -iT, T the real symmetric tridiagonal matrix with those off-diagonals.
    So the ladder's amplitudes are exp(-irT) e_0 from T's eigenvectors,
    times phases that leave the probabilities alone. A ladder whose weight
    c_d is 0.0 (every d > 0 of a vacuum seed) keeps its zeros unsolved.
    """
    prob = np.zeros((n_max + 1, n_max + 1))
    for d, c in enumerate(_coherent_vector(alpha, n_max)):
        if c == 0.0:
            continue
        k = np.arange(n_max - d + 1)
        off = np.sqrt((d + k[1:]) * k[1:])
        w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        amp = (v * np.exp(-1j * r * w)) @ v[0]
        prob[d + k, k] = c * c * np.abs(amp) ** 2
    return prob


def fock_two_mode_squeezer_moments(gain: float, seed_amplitude: float) -> TwinBeamMoments:
    """Photon-number moments of a two-mode squeezer on a coherent seed.

    Exponentiates r(a'b' - ab), with cosh^2(r) = gain, on |alpha, 0> in a
    truncated number basis, one photon-difference block at a time (see
    :func:`_fock_probabilities`), and computes means, variances, and the
    covariance by direct summation. The basis grows through
    :data:`FOCK_TRUNCATIONS` until the probability mass on its boundary is
    below :data:`FOCK_TAIL_TOL`.
    """
    if gain < 1.0:
        raise ValidationError("gain must be >= 1")
    if seed_amplitude < 0.0:
        raise ValidationError("seed amplitude must be >= 0")

    r = math.acosh(math.sqrt(gain))

    last_tail = None
    for n_max in FOCK_TRUNCATIONS:
        prob = _fock_probabilities(r, seed_amplitude, n_max)
        tail = float(prob[-1, :].sum() + prob[:, -1].sum())
        last_tail = tail
        if tail < FOCK_TAIL_TOL:
            n = np.arange(n_max + 1, dtype=float)
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
        f"truncation {FOCK_TRUNCATIONS[-1]} leaves tail mass {last_tail:.3e} "
        f"> {FOCK_TAIL_TOL:.0e}"
    )


def stimulated_fock_moments(gain: float, seed_flux: float) -> TwinBeamMoments:
    """Seed-stimulated component of the squeezer output.

    The spontaneous (seed-independent) part of every moment is removed by
    subtracting a vacuum-seeded run, which isolates the bright-beam moments
    the analytic source model describes.
    """
    seeded = fock_two_mode_squeezer_moments(gain, math.sqrt(seed_flux))
    vac = fock_two_mode_squeezer_moments(gain, 0.0)
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


def _z_mean(mean, n, mu, var):
    """z-score of a sample mean of ``n`` draws against ``mu``."""
    return abs(mean - mu) / math.sqrt(var / n)


def _z_var(sample_var, n, var):
    """z-score of a sample variance of ``n`` draws against ``var``."""
    return abs(sample_var - var) / (var * math.sqrt(2.0 / n))


def _z_cov(sample_cov, n, var_x, var_y, cov):
    """z-score of an unbiased (ddof 1) sample covariance of ``n`` draws
    against ``cov``."""
    se = math.sqrt((var_x * var_y + cov**2) / n)
    return abs(sample_cov - cov) / se


def _fock_check():
    """Truncated-Fock squeezer vs the closed-form source moments."""
    worst = 0.0
    for gain in (1.05, 1.2, 1.3):
        analytic = fwm_moments(FwmSourceParams(gain=gain, seed_flux=1.0))
        fock = stimulated_fock_moments(gain, 1.0)
        worst = max(worst, _rel_err(fock, analytic))
    return _check(
        "fock_vs_closed_form",
        worst,
        1e-6,
        "stimulated truncated-Fock moments vs analytic source moments, "
        "gain in {1.05, 1.2, 1.3}",
    )


def _bright_pair_checks(m, ch, n, seed):
    """Thinning through the channel ``ch`` vs the loss map, then the
    difference noise of the same thinned pair vs the analytic noise."""
    from . import detection  # local: importing montecarlo loads no detection code

    expected = apply_loss(m, ch)
    g = detection.optimal_gain(expected)
    s_analytic = detection.difference_noise(expected, g)

    def thinned(k, block):
        # The thinned probe and conjugate, and their difference.
        pt, ct, diff = block
        sample_pair(m, pt.size, seed, chunk=k, out=(pt, ct))
        thinning_loss(pt, ch.eta_p, seed ^ 0x7A11, chunk=k, out=pt)
        thinning_loss(ct, ch.eta_c, seed ^ 0x7A22, chunk=k, out=ct)
        np.multiply(ct, g, out=diff)
        np.subtract(pt, diff, out=diff)
        return [Comoments.of(pt, ct, diff)]

    (acc,) = fold_chunks(thinned, n, 3)
    mean_p, mean_c, _ = acc.mean
    var_p, var_c, var_diff = acc.var()
    z_diff = _z_var(var_diff, n, s_analytic)
    worst = max(
        _z_mean(mean_p, n, expected.mean_p, expected.var_p),
        _z_mean(mean_c, n, expected.mean_c, expected.var_c),
        _z_var(var_p, n, expected.var_p),
        _z_var(var_c, n, expected.var_c),
        _z_cov(acc.cov()[0, 1], n, expected.var_p, expected.var_c, expected.cov),
    )
    thinning = _check(
        "thinning_vs_loss_map",
        worst,
        5.0,
        f"worst z-score of the bright chain.cut's sampled moments after "
        f"thinning vs optics.apply_loss through chain.pair_channel(1) at n={n}",
    )

    difference = _check(
        "sampled_difference_noise",
        z_diff,
        5.0,
        f"z-score of that thinned pair's sampled difference noise vs "
        f"detection.difference_noise at its optimal gain g={g:.4f}, n={n}",
    )
    return thinning, difference


def _snl_check(bright, n, seed):
    """Coherent-state (shot-noise) linearity: sampled noise vs power must
    sit on a line through the origin and match var = power pointwise."""
    powers = bright * np.array([0.25, 0.5, 1.0, 2.0, 4.0])

    def shot_noise(k, block):
        # Row j holds this chunk of the j-th power's samples.
        parts = []
        for j, (power, x) in enumerate(zip(powers, block)):
            _generator(seed, 13, j, k).standard_normal(out=x)
            x *= math.sqrt(power)
            x += power
            parts.append(Comoments.of(x))
        return parts

    worst_db = 0.0
    svv = spp = 0.0
    for power, acc in zip(powers, fold_chunks(shot_noise, n, len(powers))):
        v = float(acc.var()[0])
        worst_db = max(worst_db, abs(10.0 * math.log10(v / power)))
        svv += power * v
        spp += power * power
    slope_db = abs(10.0 * math.log10(svv / spp))
    return _check(
        "snl_linearity",
        max(worst_db, slope_db),
        0.2,
        "dB deviation of sampled shot noise from linear-in-power at "
        "every swept power and in the fitted through-origin slope",
    )


def _partition_checks(grid, m, n, seed):
    """Sampled quadrants against the analytic quadrant cut, and
    cross-quadrant independence, on one batch."""
    exp = quadrant_cut(m, grid)

    def photocurrents(k, block):
        # Series 2i and 2i + 1 are the probe and conjugate of the i-th
        # quadrant in QUADRANTS order, as sample_photocurrents lays
        # out its block.
        size = block.shape[1]
        out = block.reshape(len(QUADRANTS), 2, size)
        sample_photocurrents(grid, m, size, seed, chunk=k, out=out)
        return [Comoments.of(*block)]

    (acc,) = fold_chunks(photocurrents, n, 2 * len(QUADRANTS))
    var, cov = acc.var(), acc.cov()
    worst = 0.0
    for p in range(0, len(var), 2):
        c = p + 1
        worst = max(
            worst,
            _z_mean(acc.mean[p], n, exp.mean_p, exp.var_p),
            _z_var(var[p], n, exp.var_p),
            _z_var(var[c], n, exp.var_c),
            _z_cov(cov[p, c], n, exp.var_p, exp.var_c, exp.cov),
        )
    sums = _check(
        "quadrant_cell_sums",
        worst,
        5.0,
        f"worst z-score of sampled per-quadrant moments of the bright "
        f"chain.beam vs optics.quadrant_cut on chain.grid at n={n}",
    )

    worst = 0.0
    for a in range(len(var)):
        # Every series of a later quadrant: 2 x 2 per pair of quadrants.
        for b in range(a - a % 2 + 2, len(var)):
            worst = max(worst, _z_cov(cov[a, b], n, var[a], var[b], 0.0))
    independence = _check(
        "cross_quadrant_independence",
        worst,
        5.0,
        "worst z-score of the 24 cross-quadrant covariances of those "
        "samples, which the independent-cell model predicts to vanish",
    )
    return sums, independence


def _partition_balance_check(grid, beam):
    """The four quadrants of an on-axis beam carry at most its power. The
    quadrants split it evenly by construction: they are one cut."""
    total = 4.0 * quadrant_cut(beam, grid).mean_p
    return _check(
        "quadrant_partition_balance",
        0.0 if total <= beam.mean_p * (1.0 + 1e-12) else 1.0,
        1e-12,
        "centered beam splits evenly across quadrants and keeps total "
        "transmission <= 1",
    )


def run_verification(chain, n_samples: int, seed: int) -> list:
    """Run every oracle check on the calibrated ``chain`` (a
    :class:`scenario.SensingChain`) and return the list of results.

    The sampled checks read only the chain, in the bright regime, where
    the Gaussian-equivalent thinning model is exact: the bright pair is
    ``chain.cut`` thinned through ``chain.pair_channel(1)``, and the
    partition checks cut ``chain.beam`` on ``chain.grid``. Tolerances are
    5 standard errors, so a passing suite is overwhelmingly likely to pass
    again under a different seed. Each sampled check is one
    :func:`fold_chunks`, so its statistics do not depend on the worker
    count, and it holds one buffer of one chunk per series and running
    thread, whatever ``n_samples``.
    """
    n = int(n_samples)
    # Each state is summed over ``bright`` independent copies, so every
    # moment scales by it and the thinning map's clip of negative
    # intensities is negligible (mean >> sqrt(var)).
    bright = 1e4
    beam = TwinBeamMoments(*(bright * x for x in astuple(chain.beam)))
    cut = TwinBeamMoments(*(bright * x for x in astuple(chain.cut)))
    return [
        _fock_check(),
        *_bright_pair_checks(cut, chain.pair_channel(1), n, seed),
        _snl_check(bright, min(n, 1_000_000), seed),
        *_partition_checks(chain.grid, beam, min(n, 1_000_000), seed),
        _partition_balance_check(chain.grid, beam),
    ]
