"""Independent stochastic and small-Hilbert-space oracles.

Everything here validates the analytic moment maps by a different route:
Gaussian photocurrent sampling of each quadrant from the moments of the
optics cut (exact for first and second moments, which is all the formulas
use), binomial-equivalent thinning for the loss map, and a truncated-Fock
construction of the seeded two-mode squeezer, exponentiated one
photon-difference block at a time.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC '11): each chunk of :data:`CHUNK` = 2^16 samples of a
draw owns an independent Philox substream, keyed by a seed and a spawn key
``(sampler, ..., chunk)``:

- ``(seed, 0, chunk)``: :func:`sample_pairs` and :func:`sample_pair`. The
  four quadrant pairs of :meth:`scenario.SensingChain.sampled_snr_sweep`
  are transformed from one draw of these streams;
- ``(seed, 1, chunk)``: :func:`thinning_loss`;
- ``(seed, 2, quadrant, chunk)``: :func:`sample_photocurrents`;
- ``(seed, 9, chunk)``: :func:`sample_tone`, that sweep's drive tone;
- ``(seed, 13, k, chunk)``: the ``k``-th power of the ``snl_linearity`` check.

A sampler's ``start`` is the first sample of the window it draws, a
multiple of :data:`CHUNK`, so a run drawn one chunk at a time gets the
samples of one call over the whole run. Every oracle draws that way, in
:func:`fold_chunks`: it reduces each chunk to means and co-moments
(:class:`Comoments`) on one thread per CPU this process may use, and
merges them in chunk order, so every statistic has the same bits for any
worker count, and none goes through a BLAS call. The oracles hold one
chunk of buffers per worker, about 5 MB, whatever their sample count.
Where :func:`run_verification` calls one sampler more than once, it XORs
the seed with a constant, so no two checks share a stream.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TailMassError, ValidationError
from .optics import QUADRANT_SIGNS, LossChannel, apply_loss, quadrant_cut
from .source import (
    CoherenceGrid,
    FwmSourceParams,
    TwinBeamMoments,
    build_coherence_grid,
    fwm_moments,
)

__all__ = [
    "sample_photocurrents",
    "sample_pairs",
    "sample_pair",
    "sample_tone",
    "thinning_loss",
    "fold_chunks",
    "Comoments",
    "fock_two_mode_squeezer_moments",
    "stimulated_fock_moments",
    "VerificationCheck",
    "run_verification",
]

CHUNK = 1 << 16
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


def _n_chunks(n: int) -> int:
    """Number of chunks in ``n`` samples."""
    return -(-n // CHUNK)


def _chunks(n: int, start: int = 0):
    """``(substream, lo, size)`` of each chunk of samples ``start`` to
    ``start + n`` of a stream, ``lo`` counted from ``start``, generated one
    at a time."""
    if start < 0 or start % CHUNK:
        raise ValidationError(f"start must be a non-negative multiple of {CHUNK}")
    first = start // CHUNK
    return (
        (first + k, k * CHUNK, min(CHUNK, n - k * CHUNK))
        for k in range(_n_chunks(n))
    )


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


def fold_chunks(task, n: int, rows: int) -> list:
    """The :class:`Comoments` of ``n`` samples, folded chunk by chunk.

    ``task(chunk, block)`` draws one chunk, a ``(substream, lo, size)`` of
    :func:`_chunks`, into the first ``size`` columns of ``block``, a
    ``(rows, min(n, CHUNK))`` array it may overwrite, and returns a list of
    :class:`Comoments`. The lists of all chunks are merged item by item in
    chunk order and returned, so the result has the same bits whichever
    thread reduced each chunk.

    The tasks run on :func:`_workers` threads, each with one block
    allocated before the first task starts. At most two tasks per thread
    are submitted ahead of the chunk merged next, however many chunks
    there are. NumPy's random fills and ufuncs release the interpreter
    lock, so the threads draw in parallel.
    """
    import queue
    from concurrent.futures import ThreadPoolExecutor  # local: cli starts no pool

    workers = _workers(_n_chunks(n))
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(np.empty((rows, min(n, CHUNK))))

    def run(chunk):
        # At most ``workers`` tasks run at once, so a block is always free.
        block = free.get()
        try:
            return task(chunk, block)
        finally:
            free.put(block)

    acc = None
    pending = deque()

    def merge_next():
        nonlocal acc
        parts = pending.popleft().result()
        acc = parts if acc is None else [a.merge(b) for a, b in zip(acc, parts)]

    with ThreadPoolExecutor(workers) as pool:
        for chunk in _chunks(n):
            if len(pending) == 2 * workers:
                merge_next()
            pending.append(pool.submit(run, chunk))
        while pending:
            merge_next()
    return acc


def _normals(n: int, seed: int, *key, start: int = 0, out=None):
    """Two arrays of ``n`` standard normals, ``z0`` and ``z1``: samples
    ``start`` to ``start + n`` of the stream, written into the pair of
    arrays ``out`` if it is given.

    Chunk ``k`` of the stream draws from the ``(seed, *key, k)`` substream:
    first its slice of ``z0``, then its slice of ``z1``.
    """
    z0, z1 = (np.empty(n), np.empty(n)) if out is None else out
    for k, lo, size in _chunks(n, start):
        rng = _generator(seed, *key, k)
        rng.standard_normal(out=z0[lo : lo + size])
        rng.standard_normal(out=z1[lo : lo + size])
    return z0, z1


def _correlate(factors, z0, z1, probe, conj):
    """Bivariate Gaussian samples from the standard normals ``z0``, ``z1``.

    With ``factors`` = ``(mp, mc, a, b, c)`` (see :func:`_factors`), writes
    probe = mp + a*z0 and conj = mc + b*z0 + c*z1, rounded in that order,
    into ``probe`` and ``conj`` and returns them. They may be ``z0`` and
    ``z1`` themselves. The work goes chunk by chunk, so its one temporary
    holds at most a chunk.
    """
    mp, mc, a, b, c = factors
    for _, lo, size in _chunks(z0.size):
        part = slice(lo, lo + size)
        z0k, pk, ck = z0[part], probe[part], conj[part]
        t = z0k * b
        t += mc
        np.multiply(z1[part], c, out=ck)
        ck += t
        np.multiply(z0k, a, out=pk)
        pk += mp
    return probe, conj


def sample_photocurrents(
    grid: CoherenceGrid,
    m: TwinBeamMoments,
    n: int,
    seed: int,
    start: int = 0,
    out=None,
) -> tuple[dict, dict]:
    """Sample per-quadrant intensities of the partitioned twin beam.

    Each quadrant's intensity is drawn as one bivariate Gaussian with the
    moments of ``quadrant_cut(m, grid)``, the cut that the analytic chain
    uses. The quadrants share those moments but not their draws: quadrant
    ``q`` draws samples ``start`` to ``start + n`` of the
    ``(seed, 2, q, chunk)`` substreams. Returns ``(probe, conjugate)``, two
    dicts of ``n`` samples per quadrant. ``out``, if given, is a
    ``(4, 2, n)`` array that holds them: quadrant by quadrant in
    :data:`optics.QUADRANT_SIGNS` order, probe before conjugate.
    """
    factors = _factors(quadrant_cut(m, grid))
    if out is None:
        out = np.empty((len(QUADRANT_SIGNS), 2, n))
    probe, conj = {}, {}
    for q, (z0, z1) in zip(QUADRANT_SIGNS, out):
        _normals(n, seed, 2, q, start=start, out=(z0, z1))
        probe[q], conj[q] = _correlate(factors, z0, z1, z0, z1)
    return probe, conj


def sample_pairs(moments, n: int, seed: int, start: int = 0, out=None):
    """Whole-beam probe/conjugate samples of each moment set in ``moments``.

    One draw of samples ``start`` to ``start + n`` of the
    ``(seed, 0, chunk)`` substreams serves every set: each yielded
    ``(probe, conj)`` pair is that draw transformed by the set's means and
    Cholesky factors, so the pairs are correlated with each other, and a
    set gets the same samples whichever list it is in. The draw is held in
    rows 0 and 1 of ``out``, a ``(4, n)`` array, and each pair in rows 2
    and 3, so a pair is overwritten by the next.
    """
    if out is None:
        out = np.empty((4, n))
    z0, z1 = _normals(n, seed, 0, start=start, out=out[:2])
    for m in moments:
        yield _correlate(_factors(m), z0, z1, out[2], out[3])


def sample_pair(
    m: TwinBeamMoments, n: int, seed: int, start: int = 0, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-beam probe/conjugate samples (single-cell shortcut): samples
    ``start`` to ``start + n`` of the ``(seed, 0, chunk)`` substreams,
    written into the pair of arrays ``out`` if it is given."""
    z0, z1 = _normals(n, seed, 0, start=start, out=out)
    return _correlate(_factors(m), z0, z1, z0, z1)


def sample_tone(n: int, seed: int, start: int = 0, out=None) -> np.ndarray:
    """``sin(2*pi*u)`` of samples ``start`` to ``start + n`` of the uniform
    [0, 1) doubles ``u`` of the ``(seed, 9, chunk)`` substreams: a unit
    sinusoid at uniform random phases, written into ``out`` if given."""
    t = np.empty(n) if out is None else out
    for k, lo, size in _chunks(n, start):
        _generator(seed, 9, k).random(out=t[lo : lo + size])
    t *= 2.0 * math.pi
    return np.sin(t, out=t)


def thinning_loss(
    samples: np.ndarray, eta: float, seed: int, start: int = 0, out=None
) -> np.ndarray:
    """Gaussian-equivalent binomial thinning of intensity samples.

    Each input x maps to eta*x plus zero-mean noise of variance
    eta*(1-eta)*x, reproducing the mean and variance of binomial thinning
    of a photon stream of mean x. The ``k``-th sample in C order takes
    sample ``start + k`` of the ``(seed, 1, chunk)`` substreams. ``out``,
    if given, is a C-ordered array that receives the result; it may be
    ``samples`` itself.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("transmission must lie in [0, 1]")
    samples = np.asarray(samples, float)
    # C order for both, so that ``out.ravel()`` is a view, not a copy that
    # would drop the writes, and a sample's draw does not depend on layout.
    if out is None:
        out = np.empty(samples.shape)
    if eta == 1.0:
        np.copyto(out, samples)
        return out
    if eta == 0.0:
        out.fill(0.0)
        return out
    n = samples.size
    flat, dest = samples.ravel(), out.ravel()
    z = np.empty(min(n, CHUNK))
    noise = np.empty_like(z)
    for k, lo, size in _chunks(n, start):
        x, zk, wk = flat[lo : lo + size], z[:size], noise[:size]
        _generator(seed, 1, k).standard_normal(out=zk)
        # eta*x + sqrt(eta*(1-eta)*max(x, 0))*z, rounded in that order.
        np.maximum(x, 0.0, out=wk)
        wk *= eta * (1.0 - eta)
        np.sqrt(wk, out=wk)
        wk *= zk
        np.multiply(x, eta, out=dest[lo : lo + size])
        dest[lo : lo + size] += wk
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

    def cov(self, ddof: int = 0) -> np.ndarray:
        """The sample covariance matrix, ``m2 / (n - ddof)``."""
        return self.m2 / (self.n - ddof)


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
    times phases that leave the probabilities alone.
    """
    prob = np.zeros((n_max + 1, n_max + 1))
    for d, c in enumerate(_coherent_vector(alpha, n_max)):
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


def _bright_pair_checks(m, n, seed):
    """Thinning vs the loss map, then the difference noise of the same
    thinned pair vs the analytic noise."""
    from . import detection  # local: importing montecarlo loads no detection code

    ch = LossChannel(0.5, 0.9)
    expected = apply_loss(m, ch)
    g = detection.optimal_gain(m, ch)
    s_analytic = detection.difference_noise(m, ch, g)

    def thinned(chunk, block):
        # The thinned probe and conjugate, and their difference.
        _, lo, size = chunk
        pt, ct, diff = block[:, :size]
        sample_pair(m, size, seed, start=lo, out=(pt, ct))
        thinning_loss(pt, ch.eta_p, seed ^ 0x7A11, start=lo, out=pt)
        thinning_loss(ct, ch.eta_c, seed ^ 0x7A22, start=lo, out=ct)
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
        _z_cov(
            acc.cov(ddof=1)[0, 1], n, expected.var_p, expected.var_c, expected.cov
        ),
    )
    thinning = _check(
        "thinning_vs_loss_map",
        worst,
        5.0,
        f"worst z-score of sampled moments after thinning vs the "
        f"analytic loss map at n={n}",
    )

    difference = _check(
        "sampled_difference_noise",
        z_diff,
        5.0,
        f"z-score of sampled minimum difference noise at n={n}, g={g:.4f}",
    )
    return thinning, difference


def _snl_check(bright, n, seed):
    """Coherent-state (shot-noise) linearity: sampled noise vs power must
    sit on a line through the origin and match var = power pointwise."""
    powers = bright * np.array([0.25, 0.5, 1.0, 2.0, 4.0])

    def shot_noise(chunk, block):
        # Row k holds this chunk of the k-th power's samples.
        substream, _, size = chunk
        parts = []
        for k, (power, x) in enumerate(zip(powers, block[:, :size])):
            _generator(seed, 13, k, substream).standard_normal(out=x)
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

    def photocurrents(chunk, block):
        # Series 2i and 2i + 1 are the probe and conjugate of the i-th
        # quadrant in QUADRANT_SIGNS order, as sample_photocurrents lays
        # out its block.
        _, lo, size = chunk
        out = block.reshape(len(QUADRANT_SIGNS), 2, -1)[:, :, :size]
        sample_photocurrents(grid, m, size, seed, start=lo, out=out)
        return [Comoments.of(*block[:, :size])]

    (acc,) = fold_chunks(photocurrents, n, 2 * len(QUADRANT_SIGNS))
    var, cov = acc.var(), acc.cov(ddof=1)
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
        f"worst z-score of sampled per-quadrant moments vs the analytic "
        f"quadrant cut at n={n}",
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
        "worst z-score of the 24 cross-quadrant covariances that the "
        "independent-cell model predicts to vanish",
    )
    return sums, independence


def _partition_balance_check(grid):
    """The four quadrants of an on-axis beam carry at most its power. The
    quadrants split it evenly by construction: they are one cut."""
    src = TwinBeamMoments(1.0, 1.0, 1.0, 1.0, 1.0)
    total = 4.0 * quadrant_cut(src, grid).mean_p
    return _check(
        "quadrant_partition_balance",
        0.0 if total <= 1.0 + 1e-12 else 1.0,
        1e-12,
        "centered beam splits evenly across quadrants and keeps total "
        "transmission <= 1",
    )


def run_verification(n_samples: int = 10_000_000, seed: int = 20260826) -> list:
    """Run every oracle check and return the list of results.

    The sampled checks operate in the bright regime, where the
    Gaussian-equivalent thinning model is exact; tolerances are 5 standard
    errors, so a passing suite is overwhelmingly likely to pass again
    under a different seed. Each sampled check is one
    :func:`fold_chunks`, so its statistics do not depend on the worker
    count, and it holds one chunk of samples per series and worker,
    whatever ``n_samples``.
    """
    n = int(n_samples)
    # Bright reference state: the gain-2 ideal moments scaled up so the
    # Gaussian intensity model holds (negative-intensity clipping in the
    # thinning map is negligible when mean >> sqrt(var)).
    bright = 1e4
    m = TwinBeamMoments(2 * bright, bright, 6 * bright, 3 * bright, 4 * bright)
    # Coarse verification grid for the sampled and analytic partition checks.
    grid = build_coherence_grid(16.0, 16.0, 8.0)
    return [
        _fock_check(),
        *_bright_pair_checks(m, n, seed),
        _snl_check(bright, min(n, 1_000_000), seed),
        *_partition_checks(grid, m, min(n, 1_000_000), seed),
        _partition_balance_check(grid),
    ]
