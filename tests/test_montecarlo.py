import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadsense import analysis, cli, montecarlo, scenario
from quadsense.detection import difference_noise
from quadsense.errors import TailMassError, ValidationError
from quadsense.optics import QUADRANTS, QuadrantLayout, quadrant_cut
from quadsense.montecarlo import (
    fock_two_mode_squeezer_moments,
    run_verification,
    sample_pair,
    sample_photocurrents,
    stimulated_fock_moments,
    thinning_loss,
)
from quadsense.source import FwmSourceParams, TwinBeamMoments, build_coherence_grid
from quadsense.source import fwm_moments

SRC = str(Path(montecarlo.__file__).resolve().parents[1])
G2_IDEAL = TwinBeamMoments(2.0, 1.0, 6.0, 3.0, 4.0)


def _photocurrents(grid, m, n, seed, chunk):
    """:func:`sample_photocurrents` into a new block, as dicts of each
    quadrant's probe and conjugate samples."""
    out = sample_photocurrents(grid, m, n, seed, chunk, np.empty((4, 2, n)))
    return dict(zip(QUADRANTS, out[:, 0])), dict(zip(QUADRANTS, out[:, 1]))


def test_zero_variance_cells_give_constant_samples():
    grid = build_coherence_grid(16.0, 16.0, 8.0)
    m = TwinBeamMoments(5.0, 3.0, 0.0, 0.0, 0.0)
    probe, conj = _photocurrents(grid, m, 100, 1, 0)
    # The sampler draws from the quadrant cut itself, so a noiseless beam
    # gives its cut means to the bit.
    cut = quadrant_cut(m, grid)
    for q in (1, 2, 3, 4):
        assert np.array_equal(probe[q], np.full(100, cut.mean_p))
        assert np.array_equal(conj[q], np.full(100, cut.mean_c))


def test_sampled_quadrants_carry_the_cut_power():
    # The on-axis cells are clipped into halves, so a centered beam puts a
    # quarter of its power in every quadrant; sampling whole cells by
    # their centers would give Q1 most of it.
    grid = build_coherence_grid(16.0, 16.0, 8.0)
    n = 50_000
    probe, _ = _photocurrents(grid, G2_IDEAL, n, 3, 0)
    for q in (1, 2, 3, 4):
        cut = quadrant_cut(G2_IDEAL, grid)
        assert cut.mean_p == pytest.approx(0.25 * G2_IDEAL.mean_p, rel=1e-12)
        se = math.sqrt(cut.var_p / n)
        assert abs(np.mean(probe[q]) - cut.mean_p) < 5 * se


def test_single_cell_moments_converge():
    # One cell holding the whole beam: empirical moments must match the
    # gain-two ideal moments within 5 standard errors.
    n = 1_000_000
    p, c = sample_pair(G2_IDEAL, n, 42, 0, np.empty((2, n)))
    se_var_p = 6.0 * math.sqrt(2.0 / n)
    se_var_c = 3.0 * math.sqrt(2.0 / n)
    se_cov = math.sqrt((6.0 * 3.0 + 16.0) / n)
    assert abs(np.var(p) - 6.0) < 5 * se_var_p
    assert abs(np.var(c) - 3.0) < 5 * se_var_c
    assert abs(np.cov(p, c)[0, 1] - 4.0) < 5 * se_cov


def test_different_seeds_differ():
    p1, _ = sample_pair(G2_IDEAL, 1000, 1, 0, np.empty((2, 1000)))
    p2, _ = sample_pair(G2_IDEAL, 1000, 2, 0, np.empty((2, 1000)))
    assert not np.array_equal(p1, p2)


def test_fine_grid_samples_the_quadrant_cut():
    # About 19M cells: the sampler's cost does not grow with the grid.
    grid = build_coherence_grid(360.0, 360.0, 0.5)
    assert grid.n_cells > 10_000_000
    n = 20_000
    probe, conj = _photocurrents(grid, G2_IDEAL, n, 1, 0)
    cut = quadrant_cut(G2_IDEAL, grid)
    for q in (1, 2, 3, 4):
        assert abs(np.mean(probe[q]) - cut.mean_p) < 5 * math.sqrt(cut.var_p / n)
        assert abs(np.mean(conj[q]) - cut.mean_c) < 5 * math.sqrt(cut.var_c / n)


def test_thinning_edge_cases():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(thinning_loss(x.copy(), 1.0, 1, 0), x)
    assert np.array_equal(thinning_loss(x.copy(), 0.0, 1, 0), np.zeros(3))
    with pytest.raises(ValidationError):
        thinning_loss(x.copy(), 1.5, 1, 0)


def test_thinning_ignores_memory_layout():
    # A transposed or Fortran-ordered input gets the draws of its C-ordered
    # copy, element by element.
    base = 100.0 + np.arange(12.0).reshape(3, 4)
    expected = thinning_loss(np.ascontiguousarray(base.T), 0.5, 4, 0)
    for x in (base.T, np.asfortranarray(base.T)):
        assert np.array_equal(thinning_loss(x.copy(order="K"), 0.5, 4, 0), expected)
    assert abs(expected.mean() - 0.5 * base.mean()) < 5.0


# The first values of 100 + arange(6) thinned at eta = 0.5 from the
# (4, 1, 0) substream, as the out-of-place thinning wrote them to a new array.
THINNED_HEX = (
    "0x1.c9c2c7a12c919p+5",
    "0x1.95c20ece0dea6p+5",
    "0x1.8aac0429f30f1p+5",
    "0x1.9a067a8f24df7p+5",
)


def test_samplers_take_their_substream_and_block_from_the_caller():
    # A sampler left without a chunk index would draw every chunk from
    # substream 0, so none has a default; the layout has no default
    # geometry either. Thinning overwrites the block it is given.
    grid = build_coherence_grid(16.0, 16.0, 8.0)
    with pytest.raises(TypeError):
        sample_pair(G2_IDEAL, 10, 1)
    with pytest.raises(TypeError):
        sample_photocurrents(grid, G2_IDEAL, 10, 1)
    with pytest.raises(TypeError):
        QuadrantLayout()
    x = 100.0 + np.arange(6.0)
    assert thinning_loss(x, 0.5, 4, 0) is x
    assert tuple(float(v).hex() for v in x[:4]) == THINNED_HEX


def test_thinning_matches_loss_map_in_bright_regime():
    from quadsense.optics import LossChannel, apply_loss

    # Bright scaling keeps the Gaussian intensity model exact; the loss map
    # sends the gain-two probe marginal to var = 2.0 at eta = 0.5, recovered
    # here after normalizing by the brightness.
    bright = 1e4
    m = TwinBeamMoments(2 * bright, bright, 6 * bright, 3 * bright, 4 * bright)
    n = 1_000_000
    p, _ = sample_pair(m, n, 3, 0, np.empty((2, n)))
    thinned = thinning_loss(p, 0.5, 4, 0)
    expected = apply_loss(m, LossChannel(0.5, 0.5))
    assert expected.var_p / bright == pytest.approx(2.0)
    se = expected.var_p * math.sqrt(2.0 / n)
    assert abs(np.var(thinned) - expected.var_p) < 5 * se
    assert abs(np.mean(thinned) - expected.mean_p) < 5 * math.sqrt(expected.var_p / n)


def test_fock_unit_gain_keeps_conjugate_dark():
    m = fock_two_mode_squeezer_moments(1.0, 1.0)
    assert m.mean_c == pytest.approx(0.0, abs=1e-12)
    assert m.cov == pytest.approx(0.0, abs=1e-12)
    assert m.mean_p == pytest.approx(1.0, rel=1e-10)


def test_fock_vacuum_seed_is_perfectly_number_correlated():
    m = fock_two_mode_squeezer_moments(1.2, 0.0)
    assert m.mean_p == pytest.approx(m.mean_c, rel=1e-10)
    assert m.mean_p == pytest.approx(0.2, rel=1e-8)
    assert m.var_p == pytest.approx(m.var_c, rel=1e-10)
    assert m.cov == pytest.approx(m.var_p, rel=1e-10)


def test_stimulated_fock_matches_closed_forms():
    for gain in (1.05, 1.2, 1.3):
        for seed_flux in (0.5, 1.0, 4.0):
            fock = stimulated_fock_moments(gain, seed_flux)
            analytic = fwm_moments(FwmSourceParams(gain=gain, seed_flux=seed_flux))
            assert fock.mean_p == pytest.approx(analytic.mean_p, rel=1e-6)
            assert fock.mean_c == pytest.approx(analytic.mean_c, rel=1e-6, abs=1e-9)
            assert fock.var_p == pytest.approx(analytic.var_p, rel=1e-6)
            assert fock.var_c == pytest.approx(analytic.var_c, rel=1e-6, abs=1e-9)
            assert fock.cov == pytest.approx(analytic.cov, rel=1e-6, abs=1e-9)


def dense_fock_probabilities(r, alpha, n_max):
    """``prob[n_p, n_c]`` from the dense exponential of the whole truncated
    a'b' - ab applied to |alpha, 0>."""
    from scipy.linalg import expm

    dim = n_max + 1
    k = np.zeros((dim * dim, dim * dim))
    for n_p in range(n_max):
        for n_c in range(n_max):
            amp = math.sqrt((n_p + 1) * (n_c + 1))
            k[(n_p + 1) * dim + n_c + 1, n_p * dim + n_c] = amp
            k[n_p * dim + n_c, (n_p + 1) * dim + n_c + 1] = -amp
    psi0 = np.zeros(dim * dim)
    for n in range(dim):
        psi0[n * dim] = math.exp(-0.5 * alpha**2) * alpha**n / math.sqrt(math.factorial(n))
    psi = expm(r * k) @ psi0
    return (psi * psi).reshape(dim, dim)


@pytest.mark.parametrize("n_max", [1, 5, 12])
@pytest.mark.parametrize("gain", [1.05, 1.3, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.7])
def test_fock_blocks_match_the_dense_exponential(n_max, gain, alpha):
    r = math.acosh(math.sqrt(gain))
    blocks = montecarlo._fock_probabilities(r, alpha, n_max)
    dense = dense_fock_probabilities(r, alpha, n_max)
    np.testing.assert_allclose(blocks, dense, rtol=0.0, atol=1e-12)


def test_fock_insufficient_truncation_raises(monkeypatch):
    monkeypatch.setattr(montecarlo, "FOCK_TRUNCATIONS", (5,))
    with pytest.raises(TailMassError):
        fock_two_mode_squeezer_moments(1.3, 2.0)


def test_fock_rejects_invalid_inputs():
    with pytest.raises(ValidationError):
        fock_two_mode_squeezer_moments(0.9, 1.0)
    with pytest.raises(ValidationError):
        fock_two_mode_squeezer_moments(1.2, -1.0)


def test_verification_suite_passes_quickly(chain):
    checks = run_verification(chain, n_samples=200_000, seed=77)
    names = {c.name for c in checks}
    assert {
        "fock_vs_closed_form",
        "thinning_vs_loss_map",
        "sampled_difference_noise",
        "snl_linearity",
        "quadrant_cell_sums",
        "cross_quadrant_independence",
        "quadrant_partition_balance",
    } <= names
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"verification checks failed: {failed}"


def test_verification_checks_draw_disjoint_streams(chain, monkeypatch):
    # Every check draws its samples before it is scored by _check, so the
    # substreams opened since the previous score belong to the check scored
    # next. A stream shared by two checks would correlate their statistics.
    opened, owners = [], {}
    generator, check = montecarlo._generator, montecarlo._check

    def recording_generator(seed, *key):
        opened.append((seed, *key))
        return generator(seed, *key)

    def recording_check(name, *args):
        for stream in opened:
            owners.setdefault(stream, set()).add(name)
        opened.clear()
        return check(name, *args)

    monkeypatch.setattr(montecarlo, "_generator", recording_generator)
    monkeypatch.setattr(montecarlo, "_check", recording_check)
    run_verification(chain, n_samples=200_000, seed=77)
    assert owners
    shared = {stream: names for stream, names in owners.items() if len(names) > 1}
    assert not shared, shared


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# Stream layout pins: the sha256 of each sampler's float64 output bytes for a
# fixed seed. A refactor that moves a substream, a chunk boundary or the
# order of the per-sample arithmetic changes these. The sampled sweep draws
# from the default chain's pair (1, 1), so a calibration that moves its
# cut moments or channel changes that pin too.
PHOTOCURRENTS_SHA = "27d31dfc9bd0cbeb7aa19b4d3d0c3e4ecb6c18c8a310837234e44467468f6b03"
PAIR_SHA = "647378085b8640417a47d6de8c33fa53248870a77bdebed28fa40e58f22d5446"
SAMPLED_SWEEP_SHA = "879cc3570ef4f3c34664d73e6e777bdc5131e61d37bc609637e4c208e810d14b"


def test_photocurrent_stream_is_pinned():
    # A full chunk 0 and a 3-sample chunk 1, joined as a fold lays them out.
    grid = build_coherence_grid(16.0, 16.0, 32.0)
    (p0, c0), (p1, c1) = (
        _photocurrents(grid, G2_IDEAL, size, 9, k)
        for k, size in ((0, montecarlo.CHUNK), (1, 3))
    )
    arrays = [
        np.concatenate(x)
        for q in (1, 2, 3, 4)
        for x in ((p0[q], p1[q]), (c0[q], c1[q]))
    ]
    assert _digest(*arrays) == PHOTOCURRENTS_SHA


# The first normals of two substreams at the default scenario's seed: quadrant
# 1's chunk 0 in sample_photocurrents, and the first power's chunk 0 in the
# snl_linearity check. Taken with numpy 2.4.6 from SFC64 seeded by
# SeedSequence with a spawn key. NEP 19 keeps the bit generators' streams
# stable across numpy releases but does not promise the same of
# Generator.standard_normal; if this test fails, numpy's normal sampler
# moved, and so does every sampled sha256 pin that draws from it.
STREAM_CANARY = {
    (2, 1, 0): (
        "0x1.2fc5bd083d539p-1",
        "0x1.c4da59070503ap-5",
        "0x1.cc0338409f211p-3",
        "-0x1.0cb04fbaae0b5p+1",
    ),
    (13, 0, 0): (
        "-0x1.29ac64017d5dap-3",
        "0x1.4f3db8f5b8d84p-2",
        "-0x1.5aeb7badf7a34p-1",
        "0x1.600c036b4919cp-2",
    ),
}


def test_standard_normal_stream_canary():
    for key, pinned in STREAM_CANARY.items():
        drawn = montecarlo._generator(20260826, *key).standard_normal(4)
        assert tuple(float(x).hex() for x in drawn) == pinned, key


def test_pair_stream_is_pinned():
    assert _digest(*sample_pair(G2_IDEAL, 1000, 5, 0, np.empty((2, 1000)))) == PAIR_SHA


def test_sampled_snr_sweep_is_pinned(chain):
    (curve,) = chain.sampled_snr_sweep([(1, 1)], 20_000, 42)
    assert _digest(curve.voltages, curve.snr) == SAMPLED_SWEEP_SHA


SWEEP_DIGEST = """
import hashlib
import numpy as np
from quadsense import scenario
chain = scenario.build_chain(scenario.load_scenario())
(curve,) = chain.sampled_snr_sweep([(1, 1)], 20_000, 42)
h = hashlib.sha256()
for a in (curve.voltages, curve.snr):
    h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
print(h.hexdigest())
"""


def test_sampled_sweep_pin_ignores_blas_threads(tmp_path):
    # A statistic taken as a BLAS dot would be summed in an order that
    # depends on the library's thread count, so the pin would hold at one
    # count only. The sweep's statistics are a few float products, with no
    # BLAS call. The variable only sets up the case; the program reads none.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_DIGEST],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == SAMPLED_SWEEP_SHA


QUADRANT_PAIRS = [(1, 1), (2, 2), (3, 3), (4, 4)]


def test_sampled_outputs_do_not_depend_on_the_worker_count(chain, monkeypatch):
    # Chunks are reduced on several threads but merged in a fixed order, so
    # every statistic has the same bits for any number of workers. The
    # short last chunk finishes first when it runs beside the others, so a
    # merge in completion order would show here. With three lanes, each
    # lane folds two or three chunks.
    for lanes, n in (
        (montecarlo.LANES, 2 * montecarlo.CHUNK + 5),
        (3, 7 * montecarlo.CHUNK + 5),
    ):
        monkeypatch.setattr(montecarlo, "LANES", lanes)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(
                montecarlo, "_workers", lambda tasks: min(workers, tasks)
            )
            runs.append(run_verification(chain, n, seed=77))
        for run in runs[1:]:
            assert run == runs[0], lanes


def _pair_fold(m, n, seed):
    """:func:`montecarlo.fold_chunks` of ``n`` draws of :func:`sample_pair`
    of ``m``: the bright-pair check's fold, without its thinning."""

    def task(k, block):
        p, c = block
        sample_pair(m, p.size, seed, k, (p, c))
        return [montecarlo.Comoments.of(p, c)]

    (acc,) = montecarlo.fold_chunks(task, n, 2)
    return acc


def test_chunk_buffers_stay_private_under_thread_switching(monkeypatch):
    # More workers than cores, switching threads every microsecond: a
    # buffer handed to two running tasks at once would mix their chunks.
    n = 9 * montecarlo.CHUNK + 7
    monkeypatch.setattr(montecarlo, "_workers", lambda tasks: 1)
    serial = _pair_fold(BRIGHT, n, 42)
    monkeypatch.setattr(montecarlo, "_workers", lambda tasks: min(8, tasks))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _pair_fold(BRIGHT, n, 42)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.n == serial.n == n
    assert np.array_equal(threaded.mean, serial.mean)
    assert np.array_equal(threaded.m2, serial.m2)


def test_chunk_tasks_pending_stay_bounded(monkeypatch):
    # A run of 10^12 samples has 15M chunks: the fold submits one task per
    # lane, never one per chunk, and each lane draws each of its chunks
    # exactly once.
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(montecarlo, "_workers", lambda tasks: min(3, tasks))
    submitted = []
    submit = ThreadPoolExecutor.submit

    def counting_submit(self, *args, **kwargs):
        submitted.append(args)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    # Chunks of eight samples keep the LANES + 7 chunks cheap.
    monkeypatch.setattr(montecarlo, "CHUNK", 8)
    chunks = montecarlo.LANES + 7
    n = (chunks - 1) * montecarlo.CHUNK + 5
    drawn = []

    def task(k, block):
        drawn.append((k, block.shape[1]))
        block.fill(k)
        return [montecarlo.Comoments.of(*block)]

    (acc,) = montecarlo.fold_chunks(task, n, 2)
    assert len(submitted) <= montecarlo.LANES
    full = [(k, montecarlo.CHUNK) for k in range(chunks - 1)]
    assert sorted(drawn) == full + [(chunks - 1, 5)]
    assert acc.n == n


def test_fold_buffers_out_of_memory_raise_memory_error():
    # The cli turns a MemoryError into exit 2, so a buffer that cannot be
    # allocated must reach the caller as one, not as a broken pool. 10^9
    # rows of a chunk exceed any address space: nothing is allocated.
    with pytest.raises(MemoryError):
        montecarlo.fold_chunks(lambda k, block: [], 3 * montecarlo.CHUNK, 10**9)


def test_lanes_fix_the_merge_order(monkeypatch):
    # Three lanes of eight chunks: lane 0 folds chunks 0, 3 and 6, lane 1
    # chunks 1, 4 and the short chunk 7, lane 2 chunks 2 and 5, each in
    # chunk order, and the lanes merge in lane order, at any worker count.
    monkeypatch.setattr(montecarlo, "LANES", 3)
    n, seed = 7 * montecarlo.CHUNK + 5, 42

    def moments(lo):
        k, size = lo // montecarlo.CHUNK, min(montecarlo.CHUNK, n - lo)
        block = np.empty((2, size))
        return montecarlo.Comoments.of(*sample_pair(BRIGHT, size, seed, k, block))

    lanes = [
        functools.reduce(
            montecarlo.Comoments.merge,
            map(moments, range(lane * montecarlo.CHUNK, n, 3 * montecarlo.CHUNK)),
        )
        for lane in range(3)
    ]
    reference = functools.reduce(montecarlo.Comoments.merge, lanes)
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_workers", lambda tasks: min(workers, tasks))
        acc = _pair_fold(BRIGHT, n, seed)
        assert acc.n == reference.n == n
        assert np.array_equal(acc.mean, reference.mean)
        assert np.array_equal(acc.m2, reference.m2)


def test_sampled_sweep_draws_the_chains_detected_moments(chain, monkeypatch):
    # The oracle draws what the analytic sweep computes with: the moments
    # and gains handed to the draw are the chain's detected moments and
    # its sensors' gains, to the bit.
    handed = []
    sweep_statistics = scenario.sweep_statistics

    def recording_sweep_statistics(moments, gains, *args):
        handed.append((list(moments), list(gains), *args))
        return sweep_statistics(moments, gains, *args)

    monkeypatch.setattr(scenario, "sweep_statistics", recording_sweep_statistics)
    pairs = QUADRANT_PAIRS + [(1, 2), (3, 4)]
    chain.sampled_snr_sweep(pairs, 1000, 5)
    detected = [chain.detected(i, j) for i, j in pairs]
    gains = [chain.sensors[i - 1].report.gain for i, _ in pairs]
    assert handed == [(detected, gains, 1000, 5)]


def _tone(n):
    return np.cos(2.0 * math.pi * np.arange(n) / n)


def _differences(moments, gains, z):
    """Each pair's difference photocurrent ``p - g*c`` from ``z``, ``n``
    pairs of standard normals made into the pair's probe and conjugate by
    the Cholesky factor of its covariance."""
    diffs = []
    for m, g in zip(moments, gains):
        factor = np.linalg.cholesky([[m.var_p, m.cov], [m.cov, m.var_c]])
        p, c = factor @ z.T + [[m.mean_p], [m.mean_c]]
        diffs.append(p - g * c)
    return diffs


def _sampled_statistics(moments, gains, z):
    """``(s_off, tone_cov, tone_var)`` of each pair, from the simulated
    samples of each row of ``z`` (see :func:`_differences`) and the tone
    ``cos(2*pi*k/n)``. ``np.cov`` with ``bias=True`` gives every statistic
    with ddof 0, as ``np.var``. Returns an array of shape
    ``(rows, pairs, 3)``."""
    tone = _tone(z.shape[1])
    out = np.empty((len(z), len(moments), 3))
    for row, zk in zip(out, z):
        cov = np.cov(np.vstack([*_differences(moments, gains, zk), tone]), bias=True)
        row[:, 0] = np.diag(cov)[:-1]
        row[:, 1] = cov[-1, :-1]
        row[:, 2] = cov[-1, -1]
    return out


@pytest.mark.parametrize("seed", [42, 7])
def test_sampled_sweep_noise_is_the_sample_variance(chain, monkeypatch, seed):
    # Handed the statistics of simulated samples, the sweep must give every
    # swept point the sample variance of the difference photocurrent plus
    # the tone, as np.var computes it from those samples.
    n = 20_000
    z = np.random.default_rng(seed).standard_normal((n, 2))
    monkeypatch.setattr(
        scenario,
        "sweep_statistics",
        lambda moments, gains, *_: _sampled_statistics(moments, gains, z[None])[0],
    )
    recorded = []
    estimate = analysis.signal_estimate

    def recording_estimate(s_on, s_off):
        recorded.append((s_on, s_off))
        return estimate(s_on, s_off)

    monkeypatch.setattr(analysis, "signal_estimate", recording_estimate)
    chain.sampled_snr_sweep(QUADRANT_PAIRS, n, seed)
    voltages = chain.scenario.sweep_voltages_mv
    assert len(recorded) == len(QUADRANT_PAIRS) * len(voltages)

    moments = [chain.detected(i, j) for i, j in QUADRANT_PAIRS]
    gains = [chain.sensors[i - 1].report.gain for i, _ in QUADRANT_PAIRS]
    tone = _tone(n)
    points = iter(recorded)
    for (q, _), diff in zip(QUADRANT_PAIRS, _differences(moments, gains, z)):
        for v in voltages:
            amp = math.sqrt(2.0 * chain.signal(q, float(v)))
            s_on, s_off = next(points)
            assert abs(s_off - np.var(diff)) <= 1e-12 * np.var(diff)
            reference = np.var(diff + amp * tone)
            assert abs(s_on - reference) <= 1e-12 * reference, (q, v)


@pytest.mark.parametrize("n", [3, 8, 64])
def test_sweep_statistics_follow_the_sampled_distribution(chain, n):
    # Drawn whole, each pair's floor and tone covariance must have the mean
    # and variance, within 5 standard errors, of the same statistics of
    # simulated samples with the same tone; the tone's variance is exact.
    draws = 4000
    pairs = QUADRANT_PAIRS + [(1, 2)]
    moments = [chain.detected(i, j) for i, j in pairs]
    gains = [chain.sensors[i - 1].report.gain for i, _ in pairs]
    drawn = np.array(
        [scenario.sweep_statistics(moments, gains, n, seed) for seed in range(draws)]
    )
    z = np.random.default_rng(20261019 + n).standard_normal((draws, n, 2))
    sampled = _sampled_statistics(moments, gains, z)
    np.testing.assert_allclose(drawn[:, :, 2], sampled[:, :, 2], rtol=1e-12)
    for a, b in ((drawn[:, :, k], sampled[:, :, k]) for k in (0, 1)):
        z_mean = np.abs(a.mean(0) - b.mean(0)) / np.sqrt((a.var(0) + b.var(0)) / draws)
        # The standard error of a sample variance, from its fourth moment.
        se2 = [(((x - x.mean(0)) ** 4).mean(0) - x.var(0) ** 2) / draws for x in (a, b)]
        z_var = np.abs(a.var(0) - b.var(0)) / np.sqrt(se2[0] + se2[1])
        assert np.all(z_mean <= 5.0), z_mean
        assert np.all(z_var <= 5.0), z_var


def test_sweep_statistics_at_the_sample_cap_follow_their_distribution(chain):
    # At n = 10^12 the Bartlett factors are gammas of shape ~5e11, drawn by
    # Cheng's algorithm through large cancelling terms. Each pair's
    # n * s_off / |w|^2 is chi-square with n - 1 degrees of freedom, |w|^2
    # its difference noise, and n * tone_cov / (|w| sqrt(t't)) = w.y / |w|
    # is a standard normal: their means and variances must hold within 5
    # standard errors over the seeds, and the tone's variance is exact.
    n, draws = cli.MAX_SAMPLES, 4000
    pairs = QUADRANT_PAIRS + [(1, 2)]
    moments = [chain.detected(i, j) for i, j in pairs]
    gains = [chain.sensors[i - 1].report.gain for i, _ in pairs]
    w2 = np.array([difference_noise(m, g) for m, g in zip(moments, gains)])
    drawn = np.array(
        [scenario.sweep_statistics(moments, gains, n, seed) for seed in range(draws)]
    )
    assert np.all(drawn[:, :, 2] == 0.5)
    dof = n - 1
    chi2 = drawn[:, :, 0] * n / w2
    normal = drawn[:, :, 1] * n / np.sqrt(w2 * n / 2)
    # A chi-square of k degrees of freedom has variance 2k and fourth
    # central moment 12k(k + 4); a standard normal 1 and 3.
    for x, mean, var, m4 in (
        (chi2, dof, 2.0 * dof, 12.0 * dof * (dof + 4.0)),
        (normal, 0.0, 1.0, 3.0),
    ):
        z_mean = np.abs(x.mean(0) - mean) / math.sqrt(var / draws)
        z_var = np.abs(x.var(0) - var) / math.sqrt((m4 - var * var) / draws)
        assert np.all(z_mean <= 5.0), z_mean
        assert np.all(z_var <= 5.0), z_var


def test_sweep_statistics_of_two_samples_are_degenerate(chain):
    # Two samples span one direction after centring, the tone's: the
    # difference current is all tone, so its correlation with it is +-1.
    moments = [chain.detected(i, j) for i, j in QUADRANT_PAIRS + [(1, 2)]]
    gains = [chain.sensors[i - 1].report.gain for i, _ in QUADRANT_PAIRS + [(1, 2)]]
    for seed in range(20):
        for s_off, tone_cov, tone_var in scenario.sweep_statistics(
            moments, gains, 2, seed
        ):
            assert tone_var == 1.0
            assert abs(s_off * tone_var - tone_cov**2) <= 1e-12 * s_off * tone_var


def test_sampled_sweep_takes_the_same_time_and_memory_at_any_count(tmp_path):
    # The cap of the CLI's --samples gives finite curves, with the traced
    # memory of three samples, within a few kB of interpreter caches: one
    # chunk of one row of samples is 512 kB. It runs in a fresh process
    # with a time limit, so a sweep that simulated its samples fails, not
    # hangs.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_AT_ANY_COUNT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["finite"] == [True, True], result
    small, large = result["peaks"]
    assert large - small <= 8 * 1024, result


SWEEP_AT_ANY_COUNT = """
import json, math, tracemalloc
from quadsense import cli, scenario
chain = scenario.build_chain(scenario.load_scenario())
pairs = [(q, q) for q in (1, 2, 3, 4)]
counts = (3, cli.MAX_SAMPLES)
for n in counts:
    chain.sampled_snr_sweep(pairs, n, 42)
peaks, finite = [], []
for n in counts:
    tracemalloc.start()
    curves = chain.sampled_snr_sweep(pairs, n, 42)
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    finite.append(all(math.isfinite(x) for c in curves for x in c.snr))
print(json.dumps({"peaks": peaks, "finite": finite}))
"""


def test_snl_linearity_is_the_sample_variance_of_its_draws():
    # The statistic from numpy's variance of each power's samples, drawn
    # chunk by chunk from the (seed, 13, k, chunk) substreams.
    n, seed, bright = 2 * montecarlo.CHUNK + 5, 31, 1e4
    powers = bright * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    variances = []
    for k, power in enumerate(powers):
        z = np.concatenate(
            [
                montecarlo._generator(seed, 13, k, chunk).standard_normal(
                    min(montecarlo.CHUNK, n - lo)
                )
                for chunk, lo in enumerate(range(0, n, montecarlo.CHUNK))
            ]
        )
        variances.append(np.var(z * math.sqrt(power) + power))
    variances = np.array(variances)
    worst_db = np.max(np.abs(10.0 * np.log10(variances / powers)))
    slope_db = abs(10.0 * math.log10(np.sum(powers * variances) / np.sum(powers**2)))
    reference = max(worst_db, slope_db)
    statistic = montecarlo._snl_check(bright, n, seed).statistic
    assert abs(statistic - reference) <= 1e-9 * reference


def test_sampled_sweep_pairs_share_no_state(chain):
    # A pair swept alone gets, bit for bit, the curve it gets among four.
    together = chain.sampled_snr_sweep(QUADRANT_PAIRS, 20_000, 42)
    for pair, curve in zip(QUADRANT_PAIRS, together):
        (alone,) = chain.sampled_snr_sweep([pair], 20_000, 42)
        assert curve.pair == alone.pair == pair
        assert np.array_equal(curve.snr, alone.snr)
        assert curve.clamped == alone.clamped


def test_fig4_draws_each_sweep_stream_once(tmp_path, monkeypatch):
    # One standard-library generator, seeded with --seed, draws the sweep
    # statistics of all four pairs; no Monte Carlo substream is opened.
    opened, seeded = [], []
    generator = montecarlo._generator

    def recording_generator(seed, *key):
        opened.append((seed, *key))
        return generator(seed, *key)

    class RecordingRandom(random.Random):
        def __init__(self, seed):
            seeded.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(montecarlo, "_generator", recording_generator)
    monkeypatch.setattr(scenario.random, "Random", RecordingRandom)
    argv = ["fig4", "--seed", "42", "--samples", "2000", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert opened == []
    assert seeded == [42]


def test_covariance_z_score_matches_np_cov():
    grid = build_coherence_grid(16.0, 16.0, 8.0)
    n = 20_000
    probe, conj = _photocurrents(grid, G2_IDEAL, n, 11, 0)
    exp = quadrant_cut(G2_IDEAL, grid)
    for x, y, cov in [
        (probe[1], conj[1], exp.cov),
        (probe[1], conj[3], 0.0),
    ]:
        var_x, var_y = np.var(x), np.var(y)
        se = math.sqrt((var_x * var_y + cov**2) / n)
        reference = abs(np.cov(x, y)[0, 1] - cov) / se
        # Comoments.of centres its rows in place, so it gets copies.
        chunks = [
            slice(lo, lo + montecarlo.CHUNK) for lo in range(0, n, montecarlo.CHUNK)
        ]
        parts = (montecarlo.Comoments.of(x[c].copy(), y[c].copy()) for c in chunks)
        acc = functools.reduce(montecarlo.Comoments.merge, parts)
        z = montecarlo._z_cov(acc.cov()[0, 1], n, var_x, var_y, cov)
        assert abs(z - reference) <= 1e-12 * reference


BRIGHT = TwinBeamMoments(2e4, 1e4, 6e4, 3e4, 4e4)


def test_comoments_match_two_pass_numpy():
    # Three full chunks and a short one, offset like the verification
    # suite's bright state (mean / std about 80): the merged moments must
    # agree with numpy's two passes over the concatenated samples.
    n = 3 * montecarlo.CHUNK + 5
    p, c = sample_pair(BRIGHT, n, 21, 0, np.empty((2, n)))
    x = np.stack([p, c, p - 0.6 * c])
    acc = functools.reduce(
        montecarlo.Comoments.merge,
        (
            montecarlo.Comoments.of(*x[:, lo : lo + montecarlo.CHUNK].copy())
            for lo in range(0, n, montecarlo.CHUNK)
        ),
    )
    assert acc.n == n
    np.testing.assert_allclose(acc.mean, np.mean(x, axis=1), rtol=1e-12, atol=0.0)
    var = np.var(x, axis=1)
    np.testing.assert_allclose(acc.var(), var, rtol=1e-12, atol=0.0)
    # Each covariance against the scale sqrt(var_i var_j) of its pair.
    scale = np.sqrt(np.outer(var, var))
    assert np.all(np.abs(acc.cov() - np.cov(x)) <= 1e-12 * scale)


def _peak_traced_bytes(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_paths_hold_one_chunk_whatever_n(chain, monkeypatch):
    # At one worker, sixteen chunks of samples need no more memory than
    # two: within one chunk of the widest block, the partition check's
    # eight series. Each added worker holds one more buffer set, at most
    # those eight rows and a row of temporaries, with a row to spare:
    # never one set per task.
    small, large = 2 * montecarlo.CHUNK + 1, 16 * montecarlo.CHUNK + 1
    row = montecarlo.CHUNK * 8
    one_chunk, per_worker = 8 * row, 10 * row
    for run in (
        lambda n: run_verification(chain, n, seed=77),
        lambda n: _pair_fold(chain.cut, n, 42),
    ):
        peaks = {}
        for workers, n in ((1, small), (1, large), (4, large)):
            monkeypatch.setattr(
                montecarlo, "_workers", lambda tasks: min(workers, tasks)
            )
            peaks[workers, n] = _peak_traced_bytes(lambda: run(n))
        assert peaks[1, large] - peaks[1, small] <= one_chunk, peaks
        assert peaks[4, large] - peaks[1, large] <= 3 * per_worker, peaks


# Growth bound of verify's own peak resident set from 2 to 64 chunks. On a
# 2-vCPU x86-64 host (Python 3.11.7, numpy 2.4.6), 20 runs read 48.2-49.0
# MB at either count, a growth of -0.7 to +0.7 MB; a fold that allocated a
# buffer per lane grew by 3.4-6.6 MB over 22 runs.
VERIFY_RSS_GROWTH_KB = 3 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_verify_resident_set_holds_one_buffer_per_thread_whatever_n(tmp_path):
    # tracemalloc sees only Python's allocations, not the memory the C
    # allocator keeps after a buffer is freed. Each child reads its own peak
    # resident set, VmHWM: getrusage's ru_maxrss would carry this process's
    # larger peak across exec. Two threads hold at most two buffers,
    # whatever the host's CPU count: 64 chunks may then use no more memory
    # than 2.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    peaks = []
    for chunks in (2, 64):
        out = tmp_path / str(chunks)
        proc = subprocess.run(
            [sys.executable, "-c", VERIFY_RSS, str(chunks * montecarlo.CHUNK), str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_kb = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0, proc.stdout
        peaks.append(peak_kb)
    assert peaks[1] - peaks[0] <= VERIFY_RSS_GROWTH_KB, peaks


VERIFY_RSS = """
import sys
from quadsense import cli, montecarlo
workers = montecarlo._workers
montecarlo._workers = lambda tasks: min(2, workers(tasks))
code = cli.main(["verify", "--samples", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status") as status:
    (peak_kb,) = (line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak_kb)
"""


@pytest.mark.parametrize(
    "files, expected",
    [
        ({"cpu.max": "200000 100000\n"}, 2),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "max 100000\n"}, 8),
        ({"cfs_quota_us": "200000\n", "cfs_period_us": "100000\n"}, 2),
        ({"cfs_quota_us": "-1\n", "cfs_period_us": "100000\n"}, 8),
        ({}, 8),
    ],
)
def test_workers_follow_the_cgroup_cpu_quota(tmp_path, monkeypatch, files, expected):
    # An 8-CPU affinity mask, capped by a cgroup v2 or v1 quota rounded up
    # to whole CPUs; no quota, or no quota file, leaves the mask's count.
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    eight = set(range(8))
    monkeypatch.setattr(
        montecarlo.os, "sched_getaffinity", lambda pid: eight, raising=False
    )
    monkeypatch.setattr(montecarlo, "CPU_MAX", str(tmp_path / "cpu.max"))
    monkeypatch.setattr(montecarlo, "CFS_QUOTA", str(tmp_path / "cfs_quota_us"))
    monkeypatch.setattr(montecarlo, "CFS_PERIOD", str(tmp_path / "cfs_period_us"))
    assert montecarlo._workers(100) == expected
    assert montecarlo._workers(1) == 1
