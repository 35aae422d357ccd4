import functools
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadsense import analysis, cli, montecarlo
from quadsense.errors import TailMassError, ValidationError
from quadsense.optics import apply_loss, quadrant_cut
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


def test_zero_variance_cells_give_constant_samples():
    grid = build_coherence_grid(16.0, 16.0, 8.0)
    m = TwinBeamMoments(5.0, 3.0, 0.0, 0.0, 0.0)
    probe, conj = sample_photocurrents(grid, m, 100, seed=1)
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
    probe, _ = sample_photocurrents(grid, G2_IDEAL, n, seed=3)
    for q in (1, 2, 3, 4):
        cut = quadrant_cut(G2_IDEAL, grid)
        assert cut.mean_p == pytest.approx(0.25 * G2_IDEAL.mean_p, rel=1e-12)
        se = math.sqrt(cut.var_p / n)
        assert abs(np.mean(probe[q]) - cut.mean_p) < 5 * se


def test_single_cell_moments_converge():
    # One cell holding the whole beam: empirical moments must match the
    # gain-two ideal moments within 5 standard errors.
    n = 1_000_000
    p, c = sample_pair(G2_IDEAL, n, seed=42)
    se_var_p = 6.0 * math.sqrt(2.0 / n)
    se_var_c = 3.0 * math.sqrt(2.0 / n)
    se_cov = math.sqrt((6.0 * 3.0 + 16.0) / n)
    assert abs(np.var(p) - 6.0) < 5 * se_var_p
    assert abs(np.var(c) - 3.0) < 5 * se_var_c
    assert abs(np.cov(p, c)[0, 1] - 4.0) < 5 * se_cov


def test_different_seeds_differ():
    p1, _ = sample_pair(G2_IDEAL, 1000, seed=1)
    p2, _ = sample_pair(G2_IDEAL, 1000, seed=2)
    assert not np.array_equal(p1, p2)


def test_fine_grid_samples_the_quadrant_cut():
    # About 19M cells: the sampler's cost does not grow with the grid.
    grid = build_coherence_grid(360.0, 360.0, 0.5)
    assert grid.n_cells > 10_000_000
    n = 20_000
    probe, conj = sample_photocurrents(grid, G2_IDEAL, n, seed=1)
    cut = quadrant_cut(G2_IDEAL, grid)
    for q in (1, 2, 3, 4):
        assert abs(np.mean(probe[q]) - cut.mean_p) < 5 * math.sqrt(cut.var_p / n)
        assert abs(np.mean(conj[q]) - cut.mean_c) < 5 * math.sqrt(cut.var_c / n)


def test_thinning_edge_cases():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(thinning_loss(x, 1.0, seed=1), x)
    assert np.array_equal(thinning_loss(x, 0.0, seed=1), np.zeros(3))
    with pytest.raises(ValidationError):
        thinning_loss(x, 1.5, seed=1)


def test_thinning_ignores_memory_layout():
    # A transposed or Fortran-ordered input gets the draws of its C-ordered
    # copy, element by element.
    base = 100.0 + np.arange(12.0).reshape(3, 4)
    expected = thinning_loss(np.ascontiguousarray(base.T), 0.5, seed=4)
    for x in (base.T, np.asfortranarray(base.T)):
        assert np.array_equal(thinning_loss(x, 0.5, seed=4), expected)
    assert abs(expected.mean() - 0.5 * base.mean()) < 5.0


def test_thinning_matches_loss_map_in_bright_regime():
    from quadsense.optics import LossChannel, apply_loss

    # Bright scaling keeps the Gaussian intensity model exact; the loss map
    # sends the gain-two probe marginal to var = 2.0 at eta = 0.5, recovered
    # here after normalizing by the brightness.
    bright = 1e4
    m = TwinBeamMoments(2 * bright, bright, 6 * bright, 3 * bright, 4 * bright)
    n = 1_000_000
    p, _ = sample_pair(m, n, seed=3)
    thinned = thinning_loss(p, 0.5, seed=4)
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


def test_verification_suite_passes_quickly():
    checks = run_verification(n_samples=200_000, seed=77)
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


def test_verification_checks_draw_disjoint_streams(monkeypatch):
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
    run_verification(n_samples=200_000, seed=77)
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
PHOTOCURRENTS_SHA = "1edc3a4b251967907b37003764aa1b0ed1bb50d2de6cc3f49ae21b5accc32631"
PAIR_SHA = "40b81ed18cdd1c08edeb0feccae0174b50ad57ccb489d23494f6b9b0964d4136"
SAMPLED_SWEEP_SHA = "1b37d4ff9b81f5687e8a7ccc8ab9effd66ebdc1f9b78ae5d85addd6fbc8eb7aa"


def test_photocurrent_stream_is_pinned():
    grid = build_coherence_grid(16.0, 16.0, 32.0)
    probe, conj = sample_photocurrents(grid, G2_IDEAL, montecarlo.CHUNK + 3, seed=9)
    arrays = [x for q in (1, 2, 3, 4) for x in (probe[q], conj[q])]
    assert _digest(*arrays) == PHOTOCURRENTS_SHA


def test_pair_stream_is_pinned():
    assert _digest(*sample_pair(G2_IDEAL, 1000, seed=5)) == PAIR_SHA


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
    # A co-moment taken as a BLAS dot is summed in an order that depends on
    # the library's thread count, so the pin would hold at one count only.
    # The variable only sets up the case; the program reads none.
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


def test_sampled_outputs_do_not_depend_on_the_worker_count(
    chain, tmp_path, monkeypatch
):
    # Chunks are reduced on several threads but merged in chunk order, so
    # every statistic, curve and artifact has the same bits for any number
    # of workers. The short last chunk finishes first when it runs beside
    # the others, so a merge in completion order would show here.
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_workers", lambda tasks: min(workers, tasks))
        checks = run_verification(2 * montecarlo.CHUNK + 5, seed=77)
        curves = chain.sampled_snr_sweep(QUADRANT_PAIRS, 3 * montecarlo.CHUNK + 7, 42)
        out = tmp_path / str(workers)
        argv = ["fig4", "--seed", "42", "--samples", "200000", "--out", str(out)]
        assert cli.main(argv) == 0
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((checks, [c.snr.tobytes() for c in curves], artifacts))
    assert runs[0][2], "fig4 wrote no artifact"
    for run in runs[1:]:
        assert run[0] == runs[0][0]
        assert run[1] == runs[0][1]
        assert run[2] == runs[0][2]


def test_chunk_buffers_stay_private_under_thread_switching(chain, monkeypatch):
    # More workers than cores, switching threads every microsecond: a
    # buffer handed to two running tasks at once would mix their chunks.
    n = 9 * montecarlo.CHUNK + 7
    monkeypatch.setattr(montecarlo, "_workers", lambda tasks: 1)
    serial = chain.sampled_snr_sweep(QUADRANT_PAIRS, n, 42)
    monkeypatch.setattr(montecarlo, "_workers", lambda tasks: min(8, tasks))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = chain.sampled_snr_sweep(QUADRANT_PAIRS, n, 42)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.snr, b.snr)


def test_chunk_tasks_pending_stay_bounded(chain, monkeypatch):
    # Tasks are submitted at most two per worker ahead of the result
    # merged next, not all at once: a run of 10^12 samples has 15M chunks.
    from concurrent.futures import Future, ThreadPoolExecutor

    workers = 3
    monkeypatch.setattr(montecarlo, "_workers", lambda tasks: min(workers, tasks))
    counts = {"submitted": 0, "read": 0, "most_pending": 0}
    submit, result = ThreadPoolExecutor.submit, Future.result

    def counting_submit(self, *args, **kwargs):
        counts["submitted"] += 1
        pending = counts["submitted"] - counts["read"]
        counts["most_pending"] = max(counts["most_pending"], pending)
        return submit(self, *args, **kwargs)

    def counting_result(self, *args, **kwargs):
        counts["read"] += 1
        return result(self, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    monkeypatch.setattr(Future, "result", counting_result)
    chain.sampled_snr_sweep(QUADRANT_PAIRS, 64 * montecarlo.CHUNK, 42)
    assert counts["submitted"] == counts["read"] == 64
    assert counts["most_pending"] <= 2 * workers, counts


@pytest.mark.parametrize("seed", [42, 7])
def test_sampled_sweep_noise_is_the_sample_variance(chain, monkeypatch, seed):
    # Every swept point's noise power must be the sample variance of the
    # difference photocurrent plus the sampled tone, as np.var computes it
    # from the same draws.
    n = 20_000
    recorded = []
    estimate = analysis.signal_estimate

    def recording_estimate(s_on, s_off):
        recorded.append((s_on, s_off))
        return estimate(s_on, s_off)

    monkeypatch.setattr(analysis, "signal_estimate", recording_estimate)
    chain.sampled_snr_sweep(QUADRANT_PAIRS, n, seed)
    voltages = chain.scenario.sweep_voltages_mv
    assert len(recorded) == len(QUADRANT_PAIRS) * len(voltages)

    tone = np.sin(
        np.concatenate(
            [
                montecarlo._generator(seed, 9, k).uniform(0.0, 2.0 * math.pi, size)
                for k, _, size in montecarlo._chunks(n)
            ]
        )
    )
    points = iter(recorded)
    for q, _ in QUADRANT_PAIRS:
        m = apply_loss(chain.pair_moments(q, q), chain.pair_channel(q))
        p, c = sample_pair(m, n, seed)
        diff = p - chain.reports[q].gain * c
        for v in voltages:
            amp = math.sqrt(2.0 * chain.signal(q, float(v)))
            s_on, s_off = next(points)
            assert s_off == np.var(diff)
            reference = np.var(diff + amp * tone)
            assert abs(s_on - reference) <= 1e-12 * reference, (q, v)


def test_snl_linearity_is_the_sample_variance_of_its_draws():
    # The statistic from numpy's variance of each power's samples, drawn
    # chunk by chunk from the (seed, 13, k, chunk) substreams.
    n, seed, bright = 2 * montecarlo.CHUNK + 5, 31, 1e4
    powers = bright * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    variances = []
    for k, power in enumerate(powers):
        z = np.concatenate(
            [
                montecarlo._generator(seed, 13, k, chunk).standard_normal(size)
                for chunk, _, size in montecarlo._chunks(n)
            ]
        )
        variances.append(np.var(z * math.sqrt(power) + power))
    variances = np.array(variances)
    worst_db = np.max(np.abs(10.0 * np.log10(variances / powers)))
    slope_db = abs(10.0 * math.log10(np.sum(powers * variances) / np.sum(powers**2)))
    reference = max(worst_db, slope_db)
    statistic = montecarlo._snl_check(bright, n, seed).statistic
    assert abs(statistic - reference) <= 1e-9 * reference


def test_tone_draws_each_chunk_from_its_own_substream():
    # Chunk k of the tone is sin of the uniform phases of (seed, 9, k), so
    # a chunk task draws its slice without reading the chunks before it.
    n = 2 * montecarlo.CHUNK + 7
    phases = [
        montecarlo._generator(5, 9, k).uniform(0.0, 2.0 * math.pi, size)
        for k, _, size in montecarlo._chunks(n)
    ]
    tone = montecarlo.sample_tone(n, seed=5)
    assert np.array_equal(tone, np.sin(np.concatenate(phases)))
    part = montecarlo.sample_tone(7, seed=5, start=2 * montecarlo.CHUNK)
    assert np.array_equal(part, np.sin(phases[-1]))


def test_sampled_sweep_pairs_share_no_state(chain):
    # A pair swept alone gets, bit for bit, the curve it gets among four.
    together = chain.sampled_snr_sweep(QUADRANT_PAIRS, 20_000, 42)
    for pair, curve in zip(QUADRANT_PAIRS, together):
        (alone,) = chain.sampled_snr_sweep([pair], 20_000, 42)
        assert curve.pair == alone.pair == pair
        assert np.array_equal(curve.snr, alone.snr)
        assert curve.clamped == alone.clamped


def test_fig4_draws_each_sweep_stream_once(tmp_path, monkeypatch):
    opened = []
    generator = montecarlo._generator

    def recording_generator(seed, *key):
        opened.append((seed, *key))
        return generator(seed, *key)

    monkeypatch.setattr(montecarlo, "_generator", recording_generator)
    argv = ["fig4", "--seed", "42", "--samples", "2000", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert sorted(opened) == [(42, 0, 0), (42, 9, 0)]


def test_covariance_z_score_matches_np_cov():
    grid = build_coherence_grid(16.0, 16.0, 8.0)
    n = 20_000
    probe, conj = sample_photocurrents(grid, G2_IDEAL, n, seed=11)
    exp = quadrant_cut(G2_IDEAL, grid)
    for x, y, cov in [
        (probe[1], conj[1], exp.cov),
        (probe[1], conj[3], 0.0),
    ]:
        var_x, var_y = np.var(x), np.var(y)
        se = math.sqrt((var_x * var_y + cov**2) / n)
        reference = abs(np.cov(x, y)[0, 1] - cov) / se
        # Comoments.of centres its rows in place, so it gets copies.
        chunks = [slice(lo, lo + size) for _, lo, size in montecarlo._chunks(n)]
        parts = (montecarlo.Comoments.of(x[c].copy(), y[c].copy()) for c in chunks)
        acc = functools.reduce(montecarlo.Comoments.merge, parts)
        z = montecarlo._z_cov(acc.cov(ddof=1)[0, 1], n, var_x, var_y, cov)
        assert abs(z - reference) <= 1e-12 * reference


BRIGHT = TwinBeamMoments(2e4, 1e4, 6e4, 3e4, 4e4)


def test_comoments_match_two_pass_numpy():
    # Three full chunks and a short one, offset like the verification
    # suite's bright state (mean / std about 80): the merged moments must
    # agree with numpy's two passes over the concatenated samples.
    n = 3 * montecarlo.CHUNK + 5
    p, c = sample_pair(BRIGHT, n, seed=21)
    x = np.stack([p, c, p - 0.6 * c])
    acc = functools.reduce(
        montecarlo.Comoments.merge,
        (
            montecarlo.Comoments.of(*x[:, lo : lo + size].copy())
            for _, lo, size in montecarlo._chunks(n)
        ),
    )
    assert acc.n == n
    np.testing.assert_allclose(acc.mean, np.mean(x, axis=1), rtol=1e-12, atol=0.0)
    var = np.var(x, axis=1)
    np.testing.assert_allclose(acc.var(), var, rtol=1e-12, atol=0.0)
    # Each covariance against the scale sqrt(var_i var_j) of its pair.
    scale = np.sqrt(np.outer(var, var))
    for ddof, bias in ((0, True), (1, False)):
        reference = np.cov(x, bias=bias)
        assert np.all(np.abs(acc.cov(ddof) - reference) <= 1e-12 * scale), ddof


def test_sampler_windows_compose():
    # Drawing a run one chunk at a time, each call given its window's first
    # sample, gives the samples of one call over the whole run.
    n = 2 * montecarlo.CHUNK + 7
    grid = build_coherence_grid(16.0, 16.0, 8.0)
    pair = sample_pair(BRIGHT, n, seed=3)
    thinned = thinning_loss(pair[0], 0.5, seed=4)
    probe, conj = sample_photocurrents(grid, BRIGHT, n, seed=5)
    for _, lo, size in montecarlo._chunks(n):
        part = slice(lo, lo + size)
        p, c = sample_pair(BRIGHT, size, seed=3, start=lo)
        assert np.array_equal(p, pair[0][part]) and np.array_equal(c, pair[1][part])
        t = thinning_loss(pair[0][part], 0.5, seed=4, start=lo)
        assert np.array_equal(t, thinned[part])
        pq, cq = sample_photocurrents(grid, BRIGHT, size, seed=5, start=lo)
        for q in (1, 2, 3, 4):
            assert np.array_equal(pq[q], probe[q][part])
            assert np.array_equal(cq[q], conj[q][part])
    with pytest.raises(ValidationError):
        sample_pair(BRIGHT, 10, seed=3, start=montecarlo.CHUNK // 2)


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
        lambda n: run_verification(n, seed=77),
        lambda n: chain.sampled_snr_sweep(QUADRANT_PAIRS, n, 42),
    ):
        peaks = {}
        for workers, n in ((1, small), (1, large), (4, large)):
            monkeypatch.setattr(
                montecarlo, "_workers", lambda tasks: min(workers, tasks)
            )
            peaks[workers, n] = _peak_traced_bytes(lambda: run(n))
        assert peaks[1, large] - peaks[1, small] <= one_chunk, peaks
        assert peaks[4, large] - peaks[1, large] <= 3 * per_worker, peaks


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
