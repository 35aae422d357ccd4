"""Scenario configuration and the calibrated sensing chain.

A scenario file (YAML) holds the experiment description: source targets,
geometry, a declared coherence-cell size, per-sensor resonances, detector
properties, and sweep settings. :func:`build_chain` turns it into a fully
calibrated chain, every step in closed form:

1. the source gain, its uncorrelated excess noise and the imaging-path
   transmission, solved stage by stage from the three staged squeezing
   targets. The post-cut stage reads the covariance share a quadrant keeps
   from the quadrant cut of the declared grid; the grid is centered on
   both beams, so one cut gives every quadrant's moments. The expected
   post-sensor squeezing and attenuation are predictions, reported as
   residuals, not fitted;
2. per-quadrant probe transmission solved from the measured residual
   squeezing levels;
3. per-sensor drive coefficients solved so the twin-beam SNR = 1
   thresholds match their calibration targets.

The Monte Carlo layer is imported by the methods that use it, so loading
a scenario does not import it.
"""

from __future__ import annotations

import copy
import io
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from . import analysis, detection, plasmonic
from .errors import FitInfeasibleError, ValidationError
from .optics import (
    QUADRANT_SHARE,
    LossChannel,
    QuadrantLayout,
    apply_loss,
    quadrant_cut,
    quadrant_transmission,
)
from .plasmonic import EOTResonance
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
STAGES = ("source", "post_optics", "post_cut")
# Least transmission a calibrated path may have.
MIN_TRANSMISSION = 1e-4


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


def _seed(value) -> int:
    """The scenario seed: a non-negative integer, never truncated."""
    x = _number(value, "seed")
    if not (x.is_integer() and x >= 0):
        raise ValidationError(f"scenario key seed must be an integer >= 0, got {x:g}")
    return int(value) if isinstance(value, int) else int(x)


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
    cell_um: float
    quantum_efficiency: float
    resonances: tuple[EOTResonance, ...]
    modulation_frequency_hz: float
    kappa: tuple | None
    stage_targets_db: dict
    final_target: dict
    residual_db: tuple
    threshold_targets_mv: tuple
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

        raw_targets = _require(cal, "stage_targets_db", "calibration", dict)
        if set(raw_targets) != set(STAGES):
            raise ValidationError(
                f"calibration.stage_targets_db must hold exactly the labels "
                f"{', '.join(STAGES)}; got {', '.join(map(str, raw_targets))}"
            )
        stage_targets = {
            k: _number(raw_targets[k], f"calibration.stage_targets_db.{k}")
            for k in STAGES
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

        waist_p = _field(beam, "waist_p_um", "beam", above=0.0)
        waist_c = _field(beam, "waist_c_um", "beam", above=0.0)
        cell_um = _field(coh, "cell_um", "coherence", above=0.0)
        # Quadrants are independent only if a coherence cell is much
        # smaller than the beam; one as large as a waist is the whole beam.
        if not cell_um < min(waist_p, waist_c):
            raise ValidationError(
                f"scenario key coherence.cell_um {cell_um:g} must be smaller "
                f"than the beam waists ({waist_p:g}, {waist_c:g} um)"
            )
        return cls(
            raw=copy.deepcopy(cfg),
            seed=_seed(cfg.get("seed", 0)),
            seed_flux=_field(src, "seed_flux", "source", 1.0),
            wavelength_nm=_field(cfg, "wavelength_nm", "", 795.0),
            waist_p_um=waist_p,
            waist_c_um=waist_c,
            layout=layout,
            mask_transmission=_field(lay, "mask_transmission", "layout", 0.90),
            extent_um=_field(coh, "extent_um", "coherence"),
            cell_um=cell_um,
            quantum_efficiency=_field(det, "quantum_efficiency", "detector", 0.95),
            resonances=tuple(resonances),
            modulation_frequency_hz=_field(mod, "frequency_hz", "modulation", above=0.0),
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
    grid: CoherenceGrid
    cut: TwinBeamMoments
    channels_p: dict
    eta_c: float
    g_opt: dict
    reports: dict
    kappa: tuple
    residuals_db: dict
    stage_budget: list

    # -- per-pair measurement quantities -------------------------------

    def pair_channel(self, i: int) -> LossChannel:
        """Channel of any pair probed at quadrant i."""
        return LossChannel(self.channels_p[i], self.eta_c)

    def pair_moments(self, i: int, j: int) -> TwinBeamMoments:
        """Quadrant pair (p_i, c_j); uncorrelated quadrants share no covariance."""
        m = self.cut
        if i == j:
            return m
        return TwinBeamMoments(m.mean_p, m.mean_c, m.var_p, m.var_c, 0.0)

    def noise_off(self, i: int, j: int) -> float:
        """Modulation-off difference noise, using the correlated pair's g."""
        m = self.pair_moments(i, j)
        return detection.difference_noise(m, self.pair_channel(i), self.g_opt[i])

    def snl(self, i: int) -> float:
        """Shot-noise level of any pair probed at quadrant i."""
        m, g = self.cut, self.g_opt[i]
        return detection.snl_noise(m.mean_p, m.mean_c, self.pair_channel(i), g)

    def probe_only_noise(self, i: int) -> float:
        return detection.snl_noise(self.cut.mean_p, 0.0, self.pair_channel(i), 0.0)

    def detected_probe_mean(self, i: int) -> float:
        return self.channels_p[i] * self.cut.mean_p

    def signal(self, i: int, voltage_mv):
        """Signal power of sensor i at one drive voltage or an array of them."""
        return plasmonic.modulation_signal(
            self.scenario.resonances[i - 1],
            self.kappa[i - 1],
            voltage_mv,
            self.detected_probe_mean(i),
            self.scenario.wavelength_nm,
        )

    # -- sweeps ---------------------------------------------------------

    def snr_sweep(self, pair) -> dict:
        """Analytic SNR curves (twin, coherent, optimal) for one pair over
        the scenario's sweep voltages."""
        i, j = pair
        v = np.asarray(self.scenario.sweep_voltages_mv, float)
        s = self.signal(i, v)
        s_off = self.noise_off(i, j)
        snl = self.snl(i)
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
            apply_loss(self.pair_moments(i, j), self.pair_channel(i))
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
            for amp in np.sqrt(2.0 * self.signal(i, v)):
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


def _db_ratio(db: float, key: str) -> float:
    """The linear noise ratio ``10**(db/10)`` of the target ``key``."""
    try:
        ratio = 10.0 ** (db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValidationError(
            f"scenario key {key} = {db:g} dB has no finite noise ratio"
        )
    return ratio


def _solve_stages(r_source: float, r_optics: float, r_cut: float, k: float):
    """``(gain, eta_optics, feasible)`` meeting the staged linear noise ratios.

    Loss maps a noise ratio ``r`` to ``eta (r - 1) + 1``, so the post-optics
    target fixes ``eta_optics``. The quadrant cut keeps a quarter of every
    mean and variance and the share ``k`` of the covariance, which raises
    the ratio by ``8 (1/4 - k) eta_optics 2G(G - 1)/(2G - 1)``: zero at
    G = 1 and increasing with G, so the post-cut target has one root
    G >= 1. The source target then needs a non-negative uncorrelated excess
    noise, that is ``r_source >= 1/(2G - 1)``. Where the targets admit no
    such point, ``feasible`` is False and the returned point is the nearest
    physical one: the transmission clamped into ``[MIN_TRANSMISSION, 1]``
    and the gain raised to the least that meets both bounds.
    """
    eta = (r_optics - 1.0) / (r_source - 1.0) if r_source != 1.0 else math.inf
    feasible = 0.0 < eta <= 1.0
    eta = min(max(eta, MIN_TRANSMISSION), 1.0)
    c = (r_cut - r_optics) / (8.0 * (QUADRANT_SHARE - k) * eta)
    gain = 0.5 * (1.0 + c + math.hypot(1.0, c))
    least = max(0.5 + 0.5 / r_source, 1.0)
    if not least <= gain < math.inf:
        feasible, gain = False, least
    return gain, eta, feasible


def _stages(scenario: Scenario, grid: CoherenceGrid, gain, eta_optics, r_source):
    """Source parameters, the source, post-optics and cut moments, and the
    residual of each staged target and of the predicted final point.

    The source's excess noise is the one that meets the source target at
    ``gain``, or 0 where that would be negative.
    """
    ns = scenario.seed_flux
    mean_p, mean_c = gain * ns, (gain - 1.0) * ns
    try:
        zu = (r_source - 1.0 / (2.0 * gain - 1.0)) * (mean_p + mean_c)
        zu /= mean_p**2 + mean_c**2
        params = FwmSourceParams(gain, ns, excess_uncorrelated=max(zu, 0.0))
        m0 = fwm_moments(params)
    except OverflowError:
        raise ValidationError(
            f"source moments overflow at source.seed_flux {ns:g} and gain {gain:.6g}"
        ) from None
    m1 = apply_loss(m0, LossChannel(eta_optics, eta_optics))
    cut = quadrant_cut(m1, grid)
    targets = scenario.stage_targets_db
    residuals = {
        label: source_squeezing(m)[1] - targets[label]
        for label, m in zip(STAGES, (m0, m1, cut))
    }
    final = scenario.final_target
    rep = detection.squeezing_report(cut, LossChannel(final["eta_p"], final["eta_c"]))
    residuals["final"] = rep.ratio_db - final["squeezing_db"]
    residuals["attenuation"] = rep.gain_db - final["attenuation_db"]
    return params, m0, m1, cut, residuals


def build_chain(scenario: Scenario) -> SensingChain:
    """Calibrate every free parameter of the scenario and assemble the chain."""
    targets = scenario.stage_targets_db
    ratios = [
        _db_ratio(targets[label], f"calibration.stage_targets_db.{label}")
        for label in STAGES
    ]

    grid = build_coherence_grid(
        scenario.waist_p_um, scenario.waist_c_um, scenario.cell_um, scenario.extent_um
    )
    # The covariance share a quadrant keeps: the cut of unit moments.
    k = quadrant_cut(TwinBeamMoments(1.0, 1.0, 1.0, 1.0, 1.0), grid).cov
    gain, eta_optics, feasible = _solve_stages(*ratios, k)
    params, m0, m1, cut, residuals_db = _stages(
        scenario, grid, gain, eta_optics, ratios[0]
    )
    if not feasible:
        raise FitInfeasibleError(
            "staged squeezing targets need a gain below 1, negative excess "
            "noise or an optics transmission outside (0, 1]",
            residuals_db=residuals_db,
        )

    # Geometric clipping of a conjugate quadrant beam by its layout window.
    qt_c = quadrant_transmission(scenario.waist_c_um, scenario.layout)
    clip_c = [
        min(qt_c.window_fractions[q] / QUADRANT_SHARE, 1.0) for q in QUADRANTS
    ]

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
        ratio = _db_ratio(target_db, f"calibration.residual_db[{q - 1}]")
        eta_p = detection.probe_transmission_for_ratio(cut, eta_c, ratio)
        if not MIN_TRANSMISSION <= eta_p <= 1.0:
            raise FitInfeasibleError(
                f"residual squeezing {target_db} dB unreachable for quadrant {q}"
            )
        channels_p[q] = eta_p
        rep = detection.squeezing_report(cut, LossChannel(eta_p, eta_c))
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
            i_q = float(channels_p[q] * cut.mean_p)
            s_off = reports[q].diff_variance
            divisor = i_q * slope * scenario.threshold_targets_mv[q - 1]
            kappa.append(t * math.sqrt(2.0 * s_off) / divisor if divisor else math.inf)
        kappa = tuple(kappa)

    budget = [
        StageBudget("source", source_squeezing(m0)[1], 1.0, 0.0),
        StageBudget("post_optics", source_squeezing(m1)[1], 1.0, 0.0),
        StageBudget("post_cut", source_squeezing(cut)[1], 1.0, 0.0),
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
        eta_optics=eta_optics,
        grid=grid,
        cut=cut,
        channels_p=channels_p,
        eta_c=eta_c,
        g_opt=g_opt,
        reports=reports,
        kappa=kappa,
        residuals_db=residuals_db,
        stage_budget=budget,
    )
