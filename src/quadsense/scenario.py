"""Scenario configuration and the calibrated sensing chain.

A scenario file (YAML) holds the experiment description: source targets,
geometry, per-sensor resonances, detector properties, and sweep settings.
:func:`build_chain` turns it into a fully calibrated chain:

1. joint least-squares fit of the source parameters, the imaging-path
   transmission, and the coherence straddle fraction against the staged
   squeezing targets plus the expected post-sensor squeezing/attenuation.
   It reads only the source inputs (gain bound, seed flux, staged and
   final targets), so it is computed once per distinct source input per
   process and shared by every scenario that differs only downstream;
2. coherence-cell size solved from the fitted straddle fraction, which a
   grid stored as one half axis gives in closed form. The solve evaluates
   each cell size once: brentq reads both bracket ends from the
   feasibility check. The grid is centered on both beams, so one quadrant
   cut of it gives every quadrant's post-cut moments;
3. per-quadrant probe transmission solved in closed form from the
   measured residual squeezing levels;
4. per-sensor drive coefficients solved so the twin-beam SNR = 1
   thresholds match their calibration targets.

All fits are deterministic (fixed starting points and iteration order).
``scipy.optimize`` and the Monte Carlo layer are imported by the functions
that use them, so loading a scenario imports neither.
"""

from __future__ import annotations

import copy
import functools
import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from . import analysis, detection, plasmonic
from .errors import FitInfeasibleError, ValidationError
from .optics import (
    GaussianBeam,
    LossChannel,
    QuadrantLayout,
    apply_loss,
    quadrant_cut,
    quadrant_transmission,
)
from .plasmonic import EOTResonance, IndexModulation
from .source import (
    CoherenceGrid,
    FwmSourceParams,
    TwinBeamMoments,
    build_coherence_grid,
    fwm_moments,
    source_squeezing,
)

__all__ = ["Scenario", "SensingChain", "build_chain", "load_scenario", "dump_scenario"]

QUADRANTS = (1, 2, 3, 4)


def _require(mapping, key, path, kind=None):
    if key not in mapping:
        raise ValidationError(f"missing scenario key: {path}.{key}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise ValidationError(
            f"scenario key {path}.{key} has invalid type {type(value).__name__}"
        )
    return value


def _number(value, path, above=None):
    """``value`` as a finite float, strictly greater than ``above`` if given."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"scenario key {path} must be a number") from None
    if not math.isfinite(x):
        raise ValidationError(f"scenario key {path} must be finite")
    if above is not None and not x > above:
        raise ValidationError(f"scenario key {path} must be > {above:g}")
    return x


def _field(mapping, key, path, default=None, above=None):
    """``mapping[key]`` read through :func:`_number`; required when
    ``default`` is None."""
    value = _require(mapping, key, path) if default is None else mapping.get(key, default)
    return _number(value, f"{path}.{key}" if path else key, above)


@dataclass
class Scenario:
    """Validated scenario configuration."""

    raw: dict

    seed: int
    seed_flux: float
    wavelength_nm: float
    waist_p_um: float
    waist_c_um: float
    layout: QuadrantLayout
    mask_transmission: float
    extent_um: float
    cell_um: float | None
    quantum_efficiency: float
    resonances: tuple[EOTResonance, ...]
    modulation_frequency_hz: float
    kappa: tuple | None
    stage_targets_db: dict
    final_target: dict
    residual_db: tuple
    threshold_targets_mv: tuple
    gain_bound: float
    sweep_voltages_mv: tuple
    rbw_scale: float

    @classmethod
    def from_dict(cls, cfg: dict) -> "Scenario":
        if not isinstance(cfg, dict):
            raise ValidationError("scenario root must be a mapping")
        src = _require(cfg, "source", "", dict)
        beam = _require(cfg, "beam", "", dict)
        lay = _require(cfg, "layout", "", dict)
        coh = _require(cfg, "coherence", "", dict)
        det = _require(cfg, "detector", "", dict)
        mod = _require(cfg, "modulation", "", dict)
        cal = _require(cfg, "calibration", "", dict)
        sweep = _require(cfg, "sweep", "", dict)
        res_list = _require(cfg, "resonances", "", list)
        if len(res_list) != 4:
            raise ValidationError("resonances must list exactly 4 sensors")

        resonances = []
        for i, r in enumerate(res_list):
            path = f"resonances[{i}]"
            if not isinstance(r, dict):
                raise ValidationError(f"scenario key {path} must be a mapping")
            fwhm = _field(r, "fwhm_nm", path, above=0.0)
            if not plasmonic.linewidth_evaluable(fwhm):
                raise ValidationError(
                    f"scenario key {path}.fwhm_nm {fwhm:g} is outside the range "
                    f"where its Lorentzian can be evaluated"
                )
            resonances.append(
                EOTResonance(
                    lambda0=_field(r, "lambda0_nm", path),
                    linewidth=fwhm,
                    t_max=_field(r, "t_max", path),
                    dlambda_dn=_field(r, "dlambda_dn", path, 300.0),
                )
            )

        layout = QuadrantLayout(
            window_size=_field(lay, "window_um", "layout"),
            gap=_field(lay, "gap_um", "layout"),
            tilt_deg=_field(lay, "tilt_deg", "layout"),
        )

        voltages = tuple(
            _number(v, f"sweep.voltages_mv[{k}]")
            for k, v in enumerate(_require(sweep, "voltages_mv", "sweep", list))
        )
        if len(voltages) == 0:
            raise ValidationError("sweep.voltages_mv must not be empty")
        if any(b <= a for a, b in zip(voltages, voltages[1:])):
            raise ValidationError("sweep.voltages_mv must be strictly increasing")
        if voltages[0] < 0:
            raise ValidationError("sweep.voltages_mv must be >= 0")

        stage_targets = {
            str(k): _number(v, f"calibration.stage_targets_db.{k}")
            for k, v in _require(cal, "stage_targets_db", "calibration", dict).items()
        }
        final = _require(cal, "final", "calibration", dict)
        residual = tuple(
            _number(v, f"calibration.residual_db[{k}]")
            for k, v in enumerate(_require(cal, "residual_db", "calibration", list))
        )
        thresholds = tuple(
            _number(v, f"calibration.threshold_targets_mv[{k}]", above=0.0)
            for k, v in enumerate(
                _require(cal, "threshold_targets_mv", "calibration", list)
            )
        )
        if len(residual) != 4 or len(thresholds) != 4:
            raise ValidationError(
                "calibration.residual_db and threshold_targets_mv need 4 entries"
            )

        kappa = mod.get("kappa")
        if kappa is not None:
            kappa = tuple(
                _number(k, f"modulation.kappa[{i}]", above=0.0)
                for i, k in enumerate(_require(mod, "kappa", "modulation", list))
            )
            if len(kappa) != 4:
                raise ValidationError("modulation.kappa needs 4 entries")

        cell_um = coh.get("cell_um")
        if cell_um is not None:
            cell_um = _number(cell_um, "coherence.cell_um", above=0.0)
        return cls(
            raw=copy.deepcopy(cfg),
            seed=int(_field(cfg, "seed", "", 0, above=-1.0)),
            seed_flux=_field(src, "seed_flux", "source", 1.0),
            wavelength_nm=_field(cfg, "wavelength_nm", "", 795.0),
            waist_p_um=_field(beam, "waist_p_um", "beam", above=0.0),
            waist_c_um=_field(beam, "waist_c_um", "beam", above=0.0),
            layout=layout,
            mask_transmission=_field(lay, "mask_transmission", "layout", 0.90),
            extent_um=_field(coh, "extent_um", "coherence"),
            cell_um=cell_um,
            quantum_efficiency=_field(det, "quantum_efficiency", "detector", 0.95),
            resonances=tuple(resonances),
            modulation_frequency_hz=_field(mod, "frequency_hz", "modulation"),
            kappa=kappa,
            stage_targets_db=stage_targets,
            final_target={
                "squeezing_db": _field(final, "squeezing_db", "calibration.final"),
                "attenuation_db": _field(final, "attenuation_db", "calibration.final"),
                "eta_p": _field(final, "eta_p", "calibration.final", 0.5),
                "eta_c": _field(final, "eta_c", "calibration.final", 0.9),
            },
            residual_db=residual,
            threshold_targets_mv=thresholds,
            gain_bound=_field(cal, "gain_bound", "calibration", 100.0, above=1.0),
            sweep_voltages_mv=voltages,
            rbw_scale=_field(cfg, "rbw_scale", "", 1.0, above=0.0),
        )


def load_scenario(path=None) -> Scenario:
    """Parse a scenario YAML file, or the packaged default when ``path`` is None."""
    if path is None:
        ref = resources.files("quadsense").joinpath("data/default_scenario.yaml")
        text = ref.read_text(encoding="utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ValidationError(f"malformed scenario YAML{where}: {problem}") from None
    return Scenario.from_dict(cfg)


def dump_scenario(scenario: Scenario) -> str:
    buf = io.StringIO()
    yaml.safe_dump(scenario.raw, buf, sort_keys=True, default_flow_style=False)
    return buf.getvalue()


def _partition_cut(m: TwinBeamMoments, f: float, fs: float) -> TwinBeamMoments:
    """Quadrant partition with an abstract straddle fraction (calibration)."""
    return TwinBeamMoments(
        f * m.mean_p, f * m.mean_c, f * m.var_p, f * m.var_c, f * m.cov * (1.0 - fs)
    )


@dataclass
class StageBudget:
    label: str
    squeezing_db: float
    gain: float
    gain_db: float


@dataclass
class SensingChain:
    """Scenario after calibration: everything the sweeps need."""

    scenario: Scenario
    source_params: FwmSourceParams
    eta_optics: float
    f_straddle: float
    cell_um: float
    grid: CoherenceGrid
    source_moments: TwinBeamMoments
    optics_moments: TwinBeamMoments
    cut_moments: dict
    channels_p: dict
    eta_c: float
    g_opt: dict
    reports: dict
    kappa: tuple
    residuals_db: dict
    stage_budget: list

    # -- per-pair measurement quantities -------------------------------

    def pair_channel(self, i: int, j: int) -> LossChannel:
        return LossChannel(self.channels_p[i], self.eta_c)

    def pair_moments(self, i: int, j: int) -> TwinBeamMoments:
        """Quadrant pair (p_i, c_j); uncorrelated quadrants share no covariance."""
        mi = self.cut_moments[i]
        if i == j:
            return mi
        mj = self.cut_moments[j]
        return TwinBeamMoments(mi.mean_p, mj.mean_c, mi.var_p, mj.var_c, 0.0)

    def noise_off(self, i: int, j: int) -> float:
        """Modulation-off difference noise, using the correlated pair's g."""
        m = self.pair_moments(i, j)
        return detection.difference_noise(m, self.pair_channel(i, j), self.g_opt[i])

    def snl(self, i: int, j: int) -> float:
        m = self.pair_moments(i, j)
        return detection.snl_noise(
            m.mean_p, m.mean_c, self.pair_channel(i, j), self.g_opt[i]
        )

    def probe_only_noise(self, i: int) -> float:
        m = self.cut_moments[i]
        return detection.snl_noise(m.mean_p, 0.0, self.pair_channel(i, i), 0.0)

    def detected_probe_mean(self, i: int) -> float:
        return self.channels_p[i] * self.cut_moments[i].mean_p

    def modulation(self, voltage_mv: float) -> IndexModulation:
        return IndexModulation(
            frequency=self.scenario.modulation_frequency_hz,
            drive_voltage=voltage_mv,
            volts_to_index=self.kappa,
        )

    def signal(self, i: int, voltage_mv: float) -> float:
        return plasmonic.modulation_signal(
            self.scenario.resonances[i - 1],
            self.modulation(voltage_mv),
            i,
            self.detected_probe_mean(i),
            self.scenario.wavelength_nm,
        )

    # -- sweeps ---------------------------------------------------------

    def snr_sweep(self, pair, voltages=None) -> dict:
        """Analytic SNR curves (twin, coherent, optimal) for one pair."""
        i, j = pair
        v = np.asarray(
            self.scenario.sweep_voltages_mv if voltages is None else voltages, float
        )
        if v.size == 0:
            raise ValidationError("sweep requires a non-empty voltage list")
        s = np.array([self.signal(i, float(vk)) for vk in v])
        s_off = self.noise_off(i, j)
        snl = self.snl(i, j)
        p_only = self.probe_only_noise(i)
        return {
            "twin": analysis.SNRCurve(pair, "twin", v, np.sqrt(s / s_off)),
            "coherent": analysis.SNRCurve(pair, "coherent", v, np.sqrt(s / snl)),
            "optimal": analysis.SNRCurve(pair, "optimal", v, np.sqrt(s / p_only)),
        }

    def sampled_snr_sweep(self, pairs, n_samples: int, seed: int) -> list:
        """Twin-beam SNR curves of ``pairs`` estimated from simulated
        photocurrents, one :class:`analysis.SNRCurve` per pair, in order.

        Each pair's detected-state moments are formed analytically and
        sampled; stochastic thinning is validated separately, in the
        bright regime where its Gaussian-equivalent form is unbiased. The
        modulation-off floor is the sample variance of the difference
        photocurrent. Each swept point adds a sampled sinusoid of the
        modeled amplitude ``amp``; its noise power is the sample variance
        of that sum, taken from the exact identity
        ``var(d + amp*t) = var(d) + 2*amp*cov(d, t) + amp**2 * var(t)``
        (all with ddof 0), so each pair reduces its samples once, not once
        per point. All pairs share one draw of the ``(seed, 0, chunk)``
        substreams (:func:`montecarlo.sample_pairs`) and one ``(seed, 9, 9)``
        tone, so a pair's curve does not depend on the other pairs swept.
        """
        from . import montecarlo

        v = np.asarray(self.scenario.sweep_voltages_mv, float)
        moments = [
            apply_loss(self.pair_moments(i, j), self.pair_channel(i, j))
            for i, j in pairs
        ]
        rng = montecarlo._generator(seed, 9, 9)
        tone = np.sin(rng.uniform(0.0, 2.0 * math.pi, n_samples))
        tone -= tone.mean()
        tone_var = float(tone @ tone) / n_samples
        curves = []
        draws = montecarlo.sample_pairs(moments, n_samples, seed)
        for i, j in pairs:
            p, c = next(draws)
            # The difference photocurrent p - g*c, formed in p's own buffer.
            c *= self.g_opt[i]
            p -= c
            s_off = float(np.var(p))
            p -= p.mean()
            tone_cov = float(p @ tone) / n_samples
            del p, c  # free this pair's samples before the next is transformed
            snrs = []
            clamped = False
            for vk in v:
                amp = math.sqrt(2.0 * self.signal(i, float(vk)))
                s_on = s_off + 2.0 * amp * tone_cov + amp * amp * tone_var
                sig = analysis.signal_estimate(s_on, s_off)
                if sig < 0:
                    clamped = True
                    snrs.append(0.0)
                else:
                    snrs.append(math.sqrt(sig / s_off))
            curves.append(
                analysis.SNRCurve((i, j), "twin", v, np.array(snrs), clamped=clamped)
            )
        return curves

    def enhancement_report(self, i: int) -> analysis.EnhancementReport:
        curves = self.snr_sweep((i, i))
        v_tb, ex_tb = analysis.threshold_voltage(curves["twin"])
        v_cs, ex_cs = analysis.threshold_voltage(curves["coherent"])
        v_opt, ex_opt = analysis.threshold_voltage(curves["optimal"])
        return analysis.EnhancementReport(
            pair=(i, i),
            v_tb=v_tb,
            v_cs=v_cs,
            v_opt=v_opt,
            enhancement_pct=analysis.enhancement(v_cs, v_tb),
            extrapolated=ex_tb or ex_cs or ex_opt,
        )


def _fit_straddle_cell_size(scenario: Scenario, fs_target: float) -> float:
    """Cell size whose grid reproduces the fitted straddle fraction.

    The straddle fraction is memoized for this solve, so each bracket end
    is evaluated once: the feasibility check computes it and brentq, which
    always evaluates both ends itself, reads it back. The finest end,
    ``d = 0.005`` µm, is most of the solve's cost.
    """
    from scipy import optimize

    @functools.lru_cache(maxsize=None)
    def fs_of(d):
        return build_coherence_grid(
            scenario.waist_p_um, scenario.waist_c_um, d, scenario.extent_um
        ).f_straddle

    lo, hi = 0.005, scenario.waist_p_um
    flo, fhi = fs_of(lo), fs_of(hi)
    if not flo <= fs_target <= fhi:
        raise FitInfeasibleError(
            f"straddle fraction {fs_target:.4f} outside reachable range "
            f"[{flo:.4f}, {fhi:.4f}]"
        )
    return float(optimize.brentq(lambda d: fs_of(d) - fs_target, lo, hi, xtol=1e-3))


def _stage_values(x, seed_flux: float, eta_p: float, eta_c: float):
    """Source, post-optics and abstract post-cut moments, and the final
    squeezing report, at the fit parameters ``x = (gain, zc, zu, eta_opt, fs)``."""
    gain, zc, zu, eta_opt, fs = x
    p = FwmSourceParams(
        gain=max(gain, 1.0),
        seed_flux=seed_flux,
        excess_correlated=max(zc, 0.0),
        excess_uncorrelated=max(zu, 0.0),
    )
    m0 = fwm_moments(p)
    m1 = apply_loss(m0, LossChannel(eta_opt, eta_opt))
    m2 = _partition_cut(m1, 0.25, fs)
    rep = detection.squeezing_report(m2, LossChannel(eta_p, eta_c), "optimal")
    return p, m0, m1, m2, rep


# Distinct source inputs kept per process; a calibration sweep over a
# handful of gain bounds needs one entry per bound.
SOURCE_FIT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=SOURCE_FIT_CACHE_SIZE)
def _fit_source(
    gain_bound: float,
    seed_flux: float,
    source_db: float,
    post_optics_db: float,
    post_cut_db: float,
    squeezing_db: float,
    attenuation_db: float,
    eta_p: float,
    eta_c: float,
) -> tuple:
    """Joint least-squares fit of ``(gain, zc, zu, eta_opt, fs)`` to the
    staged squeezing targets and the expected post-sensor squeezing and
    attenuation.

    A pure function of its arguments, which are the whole cache key, so
    every scenario with the same source inputs reuses one fit. Returns the
    solution as a tuple of Python floats.
    """
    from scipy import optimize

    def residuals(x):
        _, m0, m1, m2, rep = _stage_values(x, seed_flux, eta_p, eta_c)
        return np.array(
            [
                3.0 * (source_squeezing(m0)[1] - source_db),
                3.0 * (source_squeezing(m1)[1] - post_optics_db),
                3.0 * (source_squeezing(m2)[1] - post_cut_db),
                rep.ratio_db - squeezing_db,
                0.7 * (rep.gain_db - attenuation_db),
            ]
        )

    x0 = [min(5.0, gain_bound), 1e-3, 1e-2, 0.95, 0.01]
    # The trust region rejects a trial step whose moments overflow, so
    # numpy's overflow warnings carry nothing; only a non-finite start fails.
    # Nor does a division by zero in its trust-region step solver, which a
    # gain bound of 1e300 meets.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not np.all(np.isfinite(residuals(np.asarray(x0, float)))):
            raise ValidationError(
                f"source.seed_flux {seed_flux:g} overflows the source moments "
                f"at the fit's starting point"
            )
        sol = optimize.least_squares(
            residuals,
            x0=x0,
            bounds=([1.0, 0.0, 0.0, 0.01, 0.0], [gain_bound, 10.0, 10.0, 1.0, 1.0]),
            xtol=1e-15,
            ftol=1e-15,
        )
    return tuple(float(v) for v in sol.x)


def build_chain(scenario: Scenario) -> SensingChain:
    """Calibrate every free parameter of the scenario and assemble the chain."""
    targets = scenario.stage_targets_db
    for label in ("source", "post_optics", "post_cut"):
        if label not in targets:
            raise ValidationError(f"calibration.stage_targets_db missing {label!r}")
    final = scenario.final_target

    x = _fit_source(
        scenario.gain_bound,
        scenario.seed_flux,
        targets["source"],
        targets["post_optics"],
        targets["post_cut"],
        final["squeezing_db"],
        final["attenuation_db"],
        final["eta_p"],
        final["eta_c"],
    )
    # As numpy scalars, as the fit evaluated them, so the stages repeat the
    # fit's arithmetic to the bit. A fit whose moments overflow misses the
    # staged targets below, so its overflow warnings carry nothing either.
    x = np.asarray(x, float)
    with np.errstate(over="ignore", invalid="ignore"):
        params, m0, m1, m2_abstract, final_rep = _stage_values(
            x, scenario.seed_flux, final["eta_p"], final["eta_c"]
        )
        residuals_db = {
            "source": source_squeezing(m0)[1] - targets["source"],
            "post_optics": source_squeezing(m1)[1] - targets["post_optics"],
            "post_cut": source_squeezing(m2_abstract)[1] - targets["post_cut"],
            "final": final_rep.ratio_db - final["squeezing_db"],
            "attenuation": final_rep.gain_db - final["attenuation_db"],
        }
    gain, zc, zu, eta_optics, fs = x
    balanced = [abs(residuals_db[k]) for k in ("source", "post_optics", "post_cut")]
    if not all(b <= 0.1 for b in balanced):
        raise FitInfeasibleError(
            "staged squeezing targets cannot be met within 0.1 dB",
            residuals_db=residuals_db,
        )

    cell_um = scenario.cell_um
    if cell_um is None:
        cell_um = _fit_straddle_cell_size(scenario, float(fs))
    grid = build_coherence_grid(
        scenario.waist_p_um, scenario.waist_c_um, cell_um, scenario.extent_um
    )

    # The grid is centered on both beams, so one cut gives every quadrant's
    # post-cut moments.
    cut = quadrant_cut(m1, grid)
    cut_moments = {q: cut.moments for q in QUADRANTS}

    # Geometric clipping of a conjugate quadrant beam by its layout window.
    qt_c = quadrant_transmission(
        GaussianBeam.from_waist(scenario.waist_c_um), scenario.layout
    )
    clip_c = [min(qt_c.window_fractions[q] / cut.eta_c, 1.0) for q in QUADRANTS]

    qe = scenario.quantum_efficiency
    eta_c = float(np.mean(clip_c)) * scenario.mask_transmission * qe

    # Per-quadrant probe transmission fitted to the measured residual
    # squeezing; the EOT transmission and window clipping set its scale and
    # the fit absorbs unmodeled path losses.
    channels_p = {}
    g_opt = {}
    reports = {}
    for q in QUADRANTS:
        target_db = scenario.residual_db[q - 1]
        eta_p = detection.probe_transmission_for_ratio(
            cut.moments, eta_c, 10.0 ** (target_db / 10.0)
        )
        if not 1e-4 <= eta_p <= 1.0:
            raise FitInfeasibleError(
                f"residual squeezing {target_db} dB unreachable for quadrant {q}"
            )
        channels_p[q] = eta_p
        rep = detection.squeezing_report(
            cut.moments, LossChannel(eta_p, eta_c), "optimal"
        )
        g_opt[q] = float(rep.gain)
        reports[q] = rep
        residuals_db[f"residual_q{q}"] = rep.ratio_db - target_db

    # Drive coefficients: the analytic twin-beam SNR is linear in voltage,
    # so each kappa follows in closed form from its threshold target.
    if scenario.kappa is not None:
        kappa = scenario.kappa
    else:
        kappa = []
        for q in QUADRANTS:
            r = scenario.resonances[q - 1]
            t = plasmonic.transmission_at(r, scenario.wavelength_nm)
            slope = abs(plasmonic.transduction_slope(r, scenario.wavelength_nm))
            if t <= 0 or slope <= 0:
                raise FitInfeasibleError(
                    f"sensor {q} has no transduction at the operating wavelength"
                )
            # In Python floats, which overflow to inf without a numpy
            # warning. A tiny target can underflow the divisor to 0; its
            # kappa is then inf too, which the signal check rejects.
            i_q = float(channels_p[q] * cut_moments[q].mean_p)
            s_off = reports[q].diff_variance
            divisor = i_q * slope * scenario.threshold_targets_mv[q - 1]
            kappa.append(t * math.sqrt(2.0 * s_off) / divisor if divisor else math.inf)
        kappa = tuple(kappa)

    budget = [
        StageBudget("source", source_squeezing(m0)[1], 1.0, 0.0),
        StageBudget("post_optics", source_squeezing(m1)[1], 1.0, 0.0),
        StageBudget("post_cut", source_squeezing(cut_moments[1])[1], 1.0, 0.0),
    ]
    for q in QUADRANTS:
        budget.append(
            StageBudget(
                f"sensor_q{q}", reports[q].ratio_db, g_opt[q], reports[q].gain_db
            )
        )

    return SensingChain(
        scenario=scenario,
        source_params=params,
        eta_optics=float(eta_optics),
        f_straddle=float(fs),
        cell_um=float(cell_um),
        grid=grid,
        source_moments=m0,
        optics_moments=m1,
        cut_moments=cut_moments,
        channels_p=channels_p,
        eta_c=eta_c,
        g_opt=g_opt,
        reports=reports,
        kappa=kappa,
        residuals_db=residuals_db,
        stage_budget=budget,
    )
