"""Scenario configuration and the calibrated sensing chain.

A scenario file (YAML) holds the experiment description: source targets,
geometry, a declared coherence-cell size, per-sensor resonances, detector
properties, and sweep settings. :data:`SCHEMA` lists every key with its
default and bounds. :func:`build_chain` turns it into a fully calibrated
chain, every step in closed form:

1. the source gain, its uncorrelated excess noise and the imaging-path
   transmission, solved stage by stage from the three staged squeezing
   targets. The post-cut stage reads the covariance share a quadrant keeps
   from the quadrant cut of the coherence grid of the declared cell size;
   the grid is centered on both beams, so one cut gives every quadrant's
   moments. The expected post-sensor squeezing and attenuation are
   predictions, reported as residuals, not fitted;
2. per-quadrant probe transmission solved from the measured residual
   squeezing levels;
3. a transduction gate: every sensor must transmit light and have a
   non-zero resonance slope at the operating wavelength.

Each sensor's signal then follows from its threshold target alone: its
drive coefficient is the one that puts the twin-beam SNR = 1 threshold on
the target, so the signal is the modulation-off floor times
(V / threshold)^2 (:func:`plasmonic.modulation_signal`).

The Monte Carlo layer is imported by the methods that use it, so loading
a scenario does not import it.
"""

from __future__ import annotations

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
    _half_cells,
    build_coherence_grid,
    fwm_moments,
    source_squeezing,
)

__all__ = ["Scenario", "SensingChain", "build_chain", "load_scenario", "dump_scenario"]

QUADRANTS = (1, 2, 3, 4)
STAGES = ("source", "post_optics", "post_cut")
# Least transmission a calibrated path may have.
MIN_TRANSMISSION = 1e-4


class _Number:
    """A finite number in ``bounds``, an interval such as ``"[0, 1]"`` or
    ``"(0, inf)"``; required when ``default`` is None. An ``integer`` is
    kept exactly, never rounded through a float."""

    def __init__(self, bounds="(-inf, inf)", default=None, integer=False):
        self.bounds, self.default, self.integer = bounds, default, integer
        lo, hi = bounds[1:-1].split(",")
        self.lo, self.hi = float(lo), float(hi)
        self.lo_closed, self.hi_closed = bounds[0] == "[", bounds[-1] == "]"

    def read(self, value, path):
        if type(value) is float:
            x = value
        # A YAML boolean is an int to Python, and no number here.
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(
                f"scenario key {path} must be a number, got {type(value).__name__}"
            )
        else:
            try:
                x = float(value)
            except OverflowError:  # an int beyond the float range
                x = math.inf if value > 0 else -math.inf
        if not (
            (self.lo <= x if self.lo_closed else self.lo < x)
            and (x <= self.hi if self.hi_closed else x < self.hi)
        ):
            raise ValidationError(f"scenario key {path} {x:g} is outside {self.bounds}")
        if not self.integer:
            return x
        if not x.is_integer():
            raise ValidationError(f"scenario key {path} must be an integer, got {x:g}")
        return value if isinstance(value, int) else int(x)


FINITE = _Number()
POSITIVE = _Number("(0, inf)")
RESONANCE = {"lambda0_nm": FINITE, "fwhm_nm": POSITIVE, "t_max": _Number("[0, 1]")}

# Every scenario key. A mapping is a section, whose missing keys take
# their defaults; a pair ``(entry, n)`` is a list of n entries, or of at
# least one when n is None; None marks a key that is accepted and ignored.
# A key the table does not list is an error.
SCHEMA = {
    "seed": _Number("[0, inf)", 0, integer=True),
    "wavelength_nm": _Number("(0, inf)", 795.0),
    "beam": {"waist_p_um": POSITIVE, "waist_c_um": POSITIVE},
    "layout": {
        "window_um": POSITIVE,
        "gap_um": _Number("[0, inf)"),
        "tilt_deg": _Number("[0, 90)"),
        "mask_transmission": _Number("[0, 1]", 0.90),
    },
    "coherence": {"extent_um": None, "cell_um": POSITIVE},
    "detector": {"quantum_efficiency": _Number("[0, 1]", 0.95)},
    "resonances": (RESONANCE, 4),
    "modulation": {"frequency_hz": POSITIVE},
    "calibration": {
        "stage_targets_db": {label: FINITE for label in STAGES},
        "final": {
            "squeezing_db": FINITE,
            "attenuation_db": FINITE,
            "eta_p": _Number("[0, 1]", 0.5),
            "eta_c": _Number("[0, 1]", 0.9),
        },
        "residual_db": (FINITE, 4),
        "threshold_targets_mv": (POSITIVE, 4),
        # Still written by perfbench's scenario generator, as is
        # coherence.extent_um (the grid's reach follows from the waists);
        # both go with the harness refresh of ROADMAP item 1.
        "gain_bound": None,
    },
    "sweep": {"voltages_mv": (_Number("[0, inf)"), None)},
}


def _read(spec, value, path):
    """``value`` checked against ``spec``: numbers as floats (or an exact
    int), sections as dicts with defaults filled in, lists as tuples."""
    if type(spec) is _Number:
        return spec.read(value, path)
    if type(spec) is tuple:
        entry, n = spec
        if not isinstance(value, list):
            raise ValidationError(f"scenario key {path} must be a list")
        if (len(value) != n) if n else not value:
            count = f"exactly {n}" if n else "at least 1"
            raise ValidationError(f"scenario key {path} must list {count} entries")
        return tuple(_read(entry, v, f"{path}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, dict):
        raise ValidationError(f"scenario key {path or 'root'} must be a mapping")
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in spec:
            raise ValidationError(f"unknown scenario key: {prefix}{key}")
    out = {}
    for key, sub in spec.items():
        if key in value:
            if type(sub) is _Number:
                out[key] = sub.read(value[key], prefix + key)
            elif sub is not None:
                out[key] = _read(sub, value[key], prefix + key)
        elif type(sub) is dict:
            out[key] = _read(sub, {}, prefix + key)
        elif type(sub) is _Number and sub.default is not None:
            out[key] = sub.default
        elif sub is not None:
            raise ValidationError(f"missing scenario key: {prefix}{key}")
    return out


def _copy(value):
    """A copy of parsed YAML: new mappings and lists, shared scalars."""
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy(v) for v in value]
    return value


@dataclass
class Scenario:
    """Validated scenario configuration."""

    raw: dict

    seed: int
    wavelength_nm: float
    waist_p_um: float
    waist_c_um: float
    layout: QuadrantLayout
    mask_transmission: float
    cell_um: float
    quantum_efficiency: float
    resonances: tuple[EOTResonance, ...]
    modulation_frequency_hz: float
    stage_targets_db: dict
    final_target: dict
    residual_db: tuple
    threshold_targets_mv: tuple
    sweep_voltages_mv: tuple

    @classmethod
    def from_dict(cls, cfg: dict) -> "Scenario":
        v = _read(SCHEMA, cfg, "")
        beam, lay, coh, cal = v["beam"], v["layout"], v["coherence"], v["calibration"]
        waist_p, waist_c = beam["waist_p_um"], beam["waist_c_um"]
        # Quadrants are independent only if a coherence cell is much
        # smaller than the beam; one as large as a waist is the whole beam.
        if not coh["cell_um"] < min(waist_p, waist_c):
            raise ValidationError(
                f"scenario key coherence.cell_um {coh['cell_um']:g} must be smaller "
                f"than the beam waists ({waist_p:g}, {waist_c:g} um)"
            )
        # A grid too fine to build fails at load, not in calibration.
        _half_cells(waist_p, waist_c, coh["cell_um"])
        for i, r in enumerate(v["resonances"]):
            if not plasmonic.linewidth_evaluable(r["fwhm_nm"]):
                raise ValidationError(
                    f"scenario key resonances[{i}].fwhm_nm {r['fwhm_nm']:g} is outside "
                    f"the range where its Lorentzian can be evaluated"
                )
        resonances = tuple(
            EOTResonance(r["lambda0_nm"], r["fwhm_nm"], r["t_max"])
            for r in v["resonances"]
        )
        wavelength = v["wavelength_nm"]
        for i, r in enumerate(resonances):
            if not plasmonic.detuning_evaluable(r, wavelength):
                raise ValidationError(
                    f"scenario key wavelength_nm {wavelength:g} is too far from "
                    f"resonances[{i}] at {r.lambda0:g} nm to evaluate its Lorentzian"
                )
        voltages = v["sweep"]["voltages_mv"]
        if any(b <= a for a, b in zip(voltages, voltages[1:])):
            raise ValidationError("sweep.voltages_mv must be strictly increasing")
        return cls(
            raw=_copy(cfg),
            seed=v["seed"],
            wavelength_nm=wavelength,
            waist_p_um=waist_p,
            waist_c_um=waist_c,
            layout=QuadrantLayout(lay["window_um"], lay["gap_um"], lay["tilt_deg"]),
            mask_transmission=lay["mask_transmission"],
            cell_um=coh["cell_um"],
            quantum_efficiency=v["detector"]["quantum_efficiency"],
            resonances=resonances,
            modulation_frequency_hz=v["modulation"]["frequency_hz"],
            stage_targets_db=cal["stage_targets_db"],
            final_target=cal["final"],
            residual_db=cal["residual_db"],
            threshold_targets_mv=cal["threshold_targets_mv"],
            sweep_voltages_mv=voltages,
        )


def load_scenario(path=None) -> Scenario:
    """Parse a scenario YAML file, or the packaged default when ``path`` is None."""
    if path is None:
        ref = resources.files("quadsense").joinpath("data/default_scenario.yaml")
        text = ref.read_text(encoding="utf-8")
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"malformed scenario YAML: not UTF-8 text ({exc.reason})"
            ) from None
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ValidationError(f"malformed scenario YAML{where}: {problem}") from None
    except RecursionError:
        raise ValidationError("malformed scenario YAML: nested too deeply to parse") from None
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
    reports: dict
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
        return detection.difference_noise(m, self.pair_channel(i), self.reports[i].gain)

    def snl(self, i: int) -> float:
        """Shot-noise level of any pair probed at quadrant i."""
        m, g = self.cut, self.reports[i].gain
        return detection.snl_noise(m.mean_p, m.mean_c, self.pair_channel(i), g)

    def probe_only_noise(self, i: int) -> float:
        return detection.snl_noise(self.cut.mean_p, 0.0, self.pair_channel(i), 0.0)

    def signal(self, i: int, voltage_mv):
        """Signal power of sensor i at one drive voltage or an array of
        them: its modulation-off floor times (V / threshold target)^2."""
        return plasmonic.modulation_signal(
            self.reports[i].diff_variance,
            voltage_mv,
            self.scenario.threshold_targets_mv[i - 1],
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
        substreams (:func:`montecarlo.sample_pairs`) and of the
        ``(seed, 9, chunk)`` tone (:func:`montecarlo.sample_tone`), so a
        pair's curve does not depend on the other pairs swept. The draws
        are reduced chunk by chunk to :class:`montecarlo.Comoments` by
        :func:`montecarlo.fold_chunks`, so the curves do not depend on the
        worker count and the sweep holds one chunk of samples per worker
        whatever ``n_samples``.
        """
        from . import montecarlo

        v = np.asarray(self.scenario.sweep_voltages_mv, float)
        moments = [
            apply_loss(self.pair_moments(i, j), self.pair_channel(i))
            for i, j in pairs
        ]
        gains = [self.reports[i].gain for i, _ in pairs]

        def reduce_chunk(chunk, block):
            _, lo, size = chunk
            t = montecarlo.sample_tone(size, seed, start=lo, out=block[0, :size])
            draw = montecarlo.sample_pairs(
                moments, size, seed, start=lo, out=block[1:, :size]
            )
            parts = []
            for gain, (p, c) in zip(gains, draw):
                # The difference photocurrent p - g*c, formed in p's own
                # buffer, and a copy of the tone in c's, since both are
                # centred in place.
                c *= gain
                p -= c
                np.copyto(c, t)
                parts.append(montecarlo.Comoments.of(p, c))
            return parts

        stats = montecarlo.fold_chunks(reduce_chunk, n_samples, 5)
        curves = []
        for (i, j), acc in zip(pairs, stats):
            (s_off, tone_cov), (_, tone_var) = acc.cov()
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
    ``gain``, or 0 where that would be negative. The seed flux is 1; no
    noise ratio, and so no artifact, depends on it.
    """
    mean_p, mean_c = gain, gain - 1.0
    try:
        zu = (r_source - 1.0 / (2.0 * gain - 1.0)) * (mean_p + mean_c)
        zu /= mean_p**2 + mean_c**2
        params = FwmSourceParams(gain, 1.0, excess_uncorrelated=max(zu, 0.0))
        m0 = fwm_moments(params)
    except OverflowError:
        raise ValidationError(
            f"source moments overflow at the gain {gain:.6g} that "
            f"calibration.stage_targets_db.post_cut needs"
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

    grid = build_coherence_grid(scenario.waist_p_um, scenario.waist_c_um, scenario.cell_um)
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
        reports[q] = rep
        residuals_db[f"residual_q{q}"] = rep.ratio_db - target_db

    # Transduction gate: a sensor that transmits no light, or whose
    # resonance has no slope at the operating wavelength, has no signal
    # for its threshold target to scale.
    for q in QUADRANTS:
        r = scenario.resonances[q - 1]
        t = plasmonic.transmission_at(r, scenario.wavelength_nm)
        if t <= 0 or plasmonic.transduction_slope(r, scenario.wavelength_nm) == 0:
            raise FitInfeasibleError(
                f"sensor {q} has no transduction at the operating wavelength"
            )

    budget = [
        StageBudget("source", source_squeezing(m0)[1], 1.0, 0.0),
        StageBudget("post_optics", source_squeezing(m1)[1], 1.0, 0.0),
        StageBudget("post_cut", source_squeezing(cut)[1], 1.0, 0.0),
    ]
    for q, rep in reports.items():
        budget.append(StageBudget(f"sensor_q{q}", rep.ratio_db, rep.gain, rep.gain_db))

    return SensingChain(
        scenario=scenario,
        source_params=params,
        eta_optics=eta_optics,
        grid=grid,
        cut=cut,
        channels_p=channels_p,
        eta_c=eta_c,
        reports=reports,
        residuals_db=residuals_db,
        stage_budget=budget,
    )
