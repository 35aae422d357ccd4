"""Scenario configuration and the calibrated sensing chain.

A scenario file (YAML) holds the experiment description: source targets,
geometry, a declared coherence-cell size, per-sensor resonances, detector
properties, and sweep settings. :data:`SCHEMA` lists every key with its
default and bounds. :func:`build_chain` turns it into a fully calibrated
chain, every step in closed form:

1. the source gain, its uncorrelated excess noise and the imaging-path
   transmission, solved stage by stage from the three staged squeezing
   targets. The post-cut stage reads the covariance share a quadrant keeps
   from the coherence grid of the declared cell size; the grid is centered
   on both beams, so one quadrant cut gives every quadrant's moments. The
   expected post-sensor squeezing and attenuation are predictions,
   reported as residuals, not fitted;
2. per-quadrant probe transmission solved from the measured residual
   squeezing levels;
3. a transduction gate: every sensor must transmit light and have a
   non-zero resonance slope at the operating wavelength.

Each sensor's signal then follows from its threshold target alone: its
drive coefficient is the one that puts the twin-beam SNR = 1 threshold on
the target, so the signal is the modulation-off floor times
(V / threshold)^2 (:func:`plasmonic.modulation_signal`), and every
analytic SNR = 1 threshold is a closed form; only sampled ones are fitted.

The Monte Carlo layer, and with it numpy, is imported by the methods that
use it, so loading a scenario imports neither.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from importlib import resources

import yaml

from . import analysis, detection, plasmonic
from .errors import FitInfeasibleError, ValidationError
from .optics import (
    QUADRANT_SHARE,
    QUADRANTS,
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
        # both go with the harness refresh of ROADMAP item 2 (Step A).
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
            if sub is not None:
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
    try:
        yaml.safe_dump(scenario.raw, buf, sort_keys=True, default_flow_style=False)
    except RecursionError:
        raise ValidationError("malformed scenario YAML: nested too deeply to dump") from None
    return buf.getvalue()


@dataclass
class StageBudget:
    label: str
    squeezing_db: float
    gain: float
    gain_db: float


@dataclass
class SensingChain:
    """Scenario after calibration: everything the sweeps and oracles need,
    ``beam`` being the moments after the imaging optics, before the cut.
    The analytic noises and the sampled oracle both read a pair's
    :meth:`detected` moments, so the loss map is :func:`optics.apply_loss`.

    ``_memo`` keeps what the sweeps read, each value computed once, on
    first use, by the expression that computes it alone: a quadrant's
    detected matched and cross pair (its three cross pairs are one), its
    signals at the sweep voltages, and each SNR tuple keyed by quadrant
    and noise. A quadrant's pairs have the same detected means, so its
    matched and cross pairs share their coherent and optimal curves. A key
    filled twice gets the same value, so threads may share a chain."""

    scenario: Scenario
    source_params: FwmSourceParams
    eta_optics: float
    beam: TwinBeamMoments
    grid: CoherenceGrid
    cut: TwinBeamMoments
    channels_p: dict
    eta_c: float
    reports: dict
    residuals_db: dict
    stage_budget: list
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def detected(self, i: int, j: int) -> TwinBeamMoments:
        """Moments of the quadrant pair (p_i, c_j) after its loss channel."""
        key = ("detected", i, i == j)
        if key not in self._memo:
            self._memo[key] = apply_loss(self.pair_moments(i, j), self.pair_channel(i))
        return self._memo[key]

    def noise_off(self, i: int, j: int) -> float:
        """Modulation-off difference noise, using the correlated pair's g."""
        return detection.difference_noise(self.detected(i, j), self.reports[i].gain)

    def snl(self, i: int) -> float:
        """Shot-noise level of any pair probed at quadrant i."""
        return detection.snl_noise(self.detected(i, i), self.reports[i].gain)

    def signal(self, i: int, voltage_mv):
        """Signal power of sensor i at a drive voltage, or the list of
        powers at a sequence of them: its modulation-off floor times
        (V / threshold target)^2."""
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
        v = self.scenario.sweep_voltages_mv
        s = self._sweep_signal(i)
        d, g = self.detected(i, j), self.reports[i].gain
        noises = {
            "twin": detection.difference_noise(d, g),
            "coherent": detection.snl_noise(d, g),
            # The probe alone at its shot noise.
            "optimal": d.mean_p,
        }
        curves = {}
        for kind, n in noises.items():
            key = ("snr", i, n)
            if key not in self._memo:
                self._memo[key] = tuple(math.sqrt(x / n) for x in s)
            curves[kind] = analysis.SNRCurve(pair, kind, v, self._memo[key])
        return curves

    def _sweep_signal(self, i: int) -> list:
        """Sensor i's signal powers at the sweep voltages."""
        key = ("signal", i)
        if key not in self._memo:
            self._memo[key] = self.signal(i, self.scenario.sweep_voltages_mv)
        return self._memo[key]

    def sampled_snr_sweep(self, pairs, n_samples: int, seed: int) -> list:
        """Twin-beam SNR curves of ``pairs`` estimated from ``n_samples``
        simulated photocurrents, one :class:`analysis.SNRCurve` per pair,
        in order.

        Each swept point adds a drive tone ``t`` of the modeled amplitude
        ``amp`` to the difference photocurrent ``d``; its noise power is
        the sample variance of that sum, taken from the exact identity
        ``var(d + amp*t) = var(d) + 2*amp*cov(d, t) + amp**2 * var(t)``
        (all with ddof 0). :func:`montecarlo.sweep_statistics` draws those
        three statistics of the pairs' detected moments and gains from
        their exact distribution, one draw for all pairs, so a pair's
        curve does not depend on the other pairs swept and the cost does
        not depend on ``n_samples``.
        """
        from . import montecarlo

        v = self.scenario.sweep_voltages_mv
        stats = montecarlo.sweep_statistics(
            [self.detected(i, j) for i, j in pairs],
            [self.reports[i].gain for i, _ in pairs],
            n_samples,
            seed,
        )
        curves = []
        for (i, j), (s_off, tone_cov, tone_var) in zip(pairs, stats):
            snrs = []
            clamped = False
            for amp in (math.sqrt(2.0 * s) for s in self._sweep_signal(i)):
                s_on = s_off + 2.0 * amp * tone_cov + amp * amp * tone_var
                sig = analysis.signal_estimate(s_on, s_off)
                if sig < 0:
                    clamped = True
                    snrs.append(0.0)
                else:
                    snrs.append(math.sqrt(sig / s_off))
            curves.append(
                analysis.SNRCurve((i, j), "twin", v, tuple(snrs), clamped=clamped)
            )
        return curves

    def enhancement_report(self, i: int) -> analysis.EnhancementReport:
        """SNR = 1 thresholds of the pair (i, i) in closed form: an analytic
        SNR ``sqrt(s / n)``, with ``s = s_off * (V / V_target)**2``, crosses
        1 at ``V_target * sqrt(n / s_off)``."""
        rep = self.reports[i]
        v_max = self.scenario.sweep_voltages_mv[-1]
        # The signal grows with V, so the twin curve's largest swept point
        # has no threshold exactly when a fit of the whole curve has none.
        snr = math.sqrt(self.signal(i, v_max) / rep.diff_variance)
        analysis.threshold_voltage(analysis.SNRCurve((i, i), "twin", (v_max,), (snr,)))
        v_tb = self.scenario.threshold_targets_mv[i - 1]
        v_cs = v_tb * math.sqrt(rep.snl / rep.diff_variance)
        v_opt = v_tb * math.sqrt(self.detected(i, i).mean_p / rep.diff_variance)
        return analysis.EnhancementReport(
            pair=(i, i),
            v_tb=v_tb,
            v_cs=v_cs,
            v_opt=v_opt,
            enhancement_pct=(v_cs / v_tb - 1.0) * 100.0,
            extrapolated=max(v_tb, v_cs, v_opt) > v_max,
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
    channel = LossChannel(final["eta_p"], final["eta_c"])
    rep = detection.squeezing_report(apply_loss(cut, channel))
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
    gain, eta_optics, feasible = _solve_stages(*ratios, grid.cov_share)
    params, m0, m1, cut, residuals_db = _stages(
        scenario, grid, gain, eta_optics, ratios[0]
    )
    if not feasible:
        raise FitInfeasibleError(
            "staged squeezing targets need a gain below 1, negative excess "
            "noise or an optics transmission outside (0, 1]",
            residuals_db=residuals_db,
        )

    # Geometric clipping of a conjugate quadrant beam by its layout window:
    # the window's share of its quadrant's power. The windows are mirror
    # images, so that share is the layout's total transmission.
    clip = quadrant_transmission(scenario.waist_c_um, scenario.layout).total
    eta_c = clip * scenario.mask_transmission * scenario.quantum_efficiency

    # Per-quadrant probe transmission fitted to the measured residual
    # squeezing; the EOT transmission and window clipping set its scale and
    # the fit absorbs unmodeled path losses.
    channels_p = {}
    detected = {}
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
        detected[q] = apply_loss(cut, LossChannel(eta_p, eta_c))
        rep = detection.squeezing_report(detected[q])
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

    chain = SensingChain(
        scenario=scenario,
        source_params=params,
        eta_optics=eta_optics,
        beam=m1,
        grid=grid,
        cut=cut,
        channels_p=channels_p,
        eta_c=eta_c,
        reports=reports,
        residuals_db=residuals_db,
        stage_budget=budget,
    )
    # The matched pairs' detected moments, as the reports read them.
    chain._memo.update((("detected", q, True), d) for q, d in detected.items())
    return chain
