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

The chain is built once, an immutable :class:`SensingChain` holding one
:class:`Sensor` record per quadrant; :func:`_detected` is the one
statement of the cross-pair rule.

Each sensor's signal then follows from its threshold target alone: its
drive coefficient is the one that puts the twin-beam SNR = 1 threshold on
the target, so the signal is the modulation-off floor times
(V / threshold)^2 (:func:`plasmonic.modulation_signal`), and every
analytic SNR = 1 threshold is a closed form; only sampled ones are fitted.

The sampled sweep draws its statistics with the standard library's
``random``; nothing here imports numpy or the Monte Carlo layer.
"""

from __future__ import annotations

import io
import math
import random
from importlib import resources
from typing import NamedTuple

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
        # both go with the harness refresh of ROADMAP item 4 (Step A).
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


class Scenario(NamedTuple):
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


class StageBudget(NamedTuple):
    label: str
    squeezing_db: float
    gain: float
    gain_db: float


def sweep_statistics(moments, gains, n: int, seed: int) -> list:
    """``(s_off, tone_cov, tone_var)`` of ``n`` samples of each pair, of
    moments ``m`` in ``moments`` and gain ``g`` in ``gains``: the variance
    (ddof 0) of ``d = p - g*c``, its covariance with the tone
    ``t_k = cos(2*pi*k/n)``, and ``var(t)``, drawn from their exact
    distribution, not sampled.

    ``d`` is a constant plus ``w . z``, ``w = (a - g*b, -g*c)`` from the
    Cholesky factors of ``m`` (:meth:`TwinBeamMoments.cholesky`) and ``z``
    two standard normals. The tone spans whole periods, so ``sum(t) = 0``
    and ``t't = n/2`` (``n`` at ``n = 2``). Then ``y = Z't/sqrt(t't)``,
    ``Z`` the ``n`` draws of ``z``, is N(0, I), and the rest of their
    centred scatter, ``R``, is Wishart_2(n - 2, I), independent of ``y``:
    ``s_off = ((w.y)^2 + w'Rw)/n``, ``tone_cov = (w.y) sqrt(t't)/n`` and
    ``tone_var = t't/n``. ``y``, then ``R = LL'`` by Bartlett's
    decomposition (Odell & Feiveson, *JASA* 61, 199 (1966)), come from one
    ``random.Random(seed)``, one draw for all pairs: ``l11^2`` and
    ``l22^2`` are chi-square with ``n - 2`` and ``n - 3`` degrees of
    freedom, twice gammas of half those shapes, and ``l21`` is a standard
    normal. ``R = 0`` at ``n = 2``, and ``l22 = 0`` at ``n = 3``.
    """
    rng = random.Random(seed)
    y0 = rng.normalvariate(0.0, 1.0)
    y1 = rng.normalvariate(0.0, 1.0)
    l11 = l21 = l22 = 0.0
    if n > 2:
        l11 = math.sqrt(2.0 * rng.gammavariate((n - 2) / 2, 1.0))
        if n > 3:
            l22 = math.sqrt(2.0 * rng.gammavariate((n - 3) / 2, 1.0))
        l21 = rng.normalvariate(0.0, 1.0)
    tt = n / 2 if n > 2 else float(n)
    stats = []
    for m, g in zip(moments, gains):
        a, b, c = m.cholesky()
        w0, w1 = a - g * b, -g * c
        wy = w0 * y0 + w1 * y1
        # w'Rw = |L'w|^2, squared by multiplying: libm's pow is not always
        # correctly rounded, and the pinned curves must not rest on it.
        u, v = w0 * l11 + w1 * l21, w1 * l22
        wrw = u * u + v * v
        stats.append(((wy * wy + wrw) / n, wy * math.sqrt(tt) / n, tt / n))
    return stats


class Sensor(NamedTuple):
    """One calibrated sensor, built once by :func:`build_chain`: its probe
    transmission ``eta_p``, the optimal-gain noise ``report`` of its
    matched pair, its closed-form SNR = 1 ``thresholds_mv`` (twin-beam for
    its matched and its cross pairs, coherent, optimal) and the four
    analytic SNR ``lines`` through them, ``V / V_th`` over the sweep
    voltages (None where a threshold is 0)."""

    eta_p: float
    report: detection.NoiseReport
    thresholds_mv: tuple
    lines: tuple


def _detected(cut: TwinBeamMoments, channel: LossChannel, i: int, j: int):
    """Moments of the quadrant pair (p_i, c_j) of ``cut`` after ``channel``:
    uncorrelated quadrants share no covariance."""
    if i != j:
        cut = TwinBeamMoments(cut.mean_p, cut.mean_c, cut.var_p, cut.var_c, 0.0)
    return apply_loss(cut, channel)


class SensingChain(NamedTuple):
    """Scenario after calibration, built once by :func:`build_chain`, with
    ``beam`` the moments after the imaging optics, before the cut, and
    ``sensors`` one :class:`Sensor` per quadrant in :data:`QUADRANTS` order.
    Calibration, the analytic noises and the sampled oracle read every pair
    through :func:`_detected`, the one statement of the cross-pair rule, and
    :func:`optics.apply_loss` is the one loss map."""

    scenario: Scenario
    source_params: FwmSourceParams
    eta_optics: float
    beam: TwinBeamMoments
    grid: CoherenceGrid
    cut: TwinBeamMoments
    eta_c: float
    sensors: tuple[Sensor, ...]
    residuals_db: dict
    stage_budget: list

    # -- per-pair measurement quantities -------------------------------

    def pair_channel(self, i: int) -> LossChannel:
        """Channel of any pair probed at quadrant i."""
        return LossChannel(self.sensors[i - 1].eta_p, self.eta_c)

    def detected(self, i: int, j: int) -> TwinBeamMoments:
        """Moments of the quadrant pair (p_i, c_j) after its loss channel."""
        return _detected(self.cut, self.pair_channel(i), i, j)

    def signal(self, i: int, voltage_mv: float) -> float:
        """Signal power of sensor i at a drive voltage: its modulation-off
        floor times (V / threshold target)^2."""
        return plasmonic.modulation_signal(
            self.sensors[i - 1].report.diff_variance,
            voltage_mv,
            self.scenario.threshold_targets_mv[i - 1],
        )

    # -- sweeps ---------------------------------------------------------

    def snr_sweep(self, pair) -> dict:
        """Analytic SNR curves (twin, coherent, optimal) for one pair over
        the scenario's sweep voltages, each ``V / V_th``: the sensor's
        :attr:`Sensor.lines`, formed once by :func:`build_chain`, so every
        pair probed at one quadrant shares its coherent and optimal lines,
        and every cross pair its twin line."""
        i, j = pair
        v = self.scenario.sweep_voltages_mv
        # The largest swept signal is finite exactly when every one is.
        self.signal(i, v[-1])
        sensor = self.sensors[i - 1]
        matched, cross, *others = sensor.thresholds_mv
        v_th = (matched if i == j else cross, *others)
        # A threshold that underflows to 0 draws no line.
        if 0.0 in v_th:
            raise ValidationError(
                f"an SNR = 1 threshold of sensor {i} underflows to 0: its threshold "
                f"{matched:g} mV in calibration.threshold_targets_mv is too small"
            )
        twin, cross_twin, coherent, optimal = sensor.lines
        return {
            "twin": analysis.SNRCurve(pair, "twin", v, twin if i == j else cross_twin),
            "coherent": analysis.SNRCurve(pair, "coherent", v, coherent),
            "optimal": analysis.SNRCurve(pair, "optimal", v, optimal),
        }

    def sampled_snr_sweep(self, pairs, n_samples: int, seed: int) -> list:
        """Twin-beam SNR curves of ``pairs`` estimated from ``n_samples``
        simulated photocurrents, one :class:`analysis.SNRCurve` per pair,
        in order.

        Each swept point adds a drive tone ``t`` of the modeled amplitude
        ``amp`` to the difference photocurrent ``d``; its noise power is
        the sample variance of that sum, taken from the exact identity
        ``var(d + amp*t) = var(d) + 2*amp*cov(d, t) + amp**2 * var(t)``
        (all with ddof 0). :func:`sweep_statistics` draws those three
        statistics of the pairs' detected moments and gains from their
        exact distribution, one draw for all pairs, so a pair's curve does
        not depend on the other pairs swept and the cost does not depend
        on ``n_samples``.
        """
        v = self.scenario.sweep_voltages_mv
        stats = sweep_statistics(
            [self.detected(i, j) for i, j in pairs],
            [self.sensors[i - 1].report.gain for i, _ in pairs],
            n_samples,
            seed,
        )
        curves = []
        for (i, j), (s_off, tone_cov, tone_var) in zip(pairs, stats):
            # Every signal is formed, and so checked finite, before any is used.
            signals = [self.signal(i, vk) for vk in v]
            snrs = []
            clamped = False
            for amp in (math.sqrt(2.0 * s) for s in signals):
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
        """SNR = 1 thresholds of the pair (i, i), in closed form."""
        sensor = self.sensors[i - 1]
        v_max = self.scenario.sweep_voltages_mv[-1]
        # The signal grows with V, so the twin curve's largest swept point
        # has no threshold exactly when a fit of the whole curve has none.
        snr = math.sqrt(self.signal(i, v_max) / sensor.report.diff_variance)
        analysis.threshold_voltage(analysis.SNRCurve((i, i), "twin", (v_max,), (snr,)))
        v_tb, _, v_cs, v_opt = sensor.thresholds_mv
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
    """Source parameters, post-optics and cut moments, the balanced (g = 1)
    report of each stage, and the residuals of the staged and final targets.

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
    staged = {
        label: detection.squeezing_report(m, 1.0)
        for label, m in zip(STAGES, (m0, m1, cut))
    }
    targets = scenario.stage_targets_db
    residuals = {label: staged[label].ratio_db - targets[label] for label in STAGES}
    final = scenario.final_target
    d = apply_loss(cut, LossChannel(final["eta_p"], final["eta_c"]))
    rep = detection.squeezing_report(d, detection.optimal_gain(d))
    residuals["final"] = rep.ratio_db - final["squeezing_db"]
    residuals["attenuation"] = rep.gain_db - final["attenuation_db"]
    return params, m1, cut, staged, residuals


def build_chain(scenario: Scenario) -> SensingChain:
    """Calibrate every free parameter of the scenario and assemble the chain."""
    targets = scenario.stage_targets_db
    ratios = [
        _db_ratio(targets[label], f"calibration.stage_targets_db.{label}")
        for label in STAGES
    ]

    grid = build_coherence_grid(scenario.waist_p_um, scenario.waist_c_um, scenario.cell_um)
    gain, eta_optics, feasible = _solve_stages(*ratios, grid.cov_share)
    params, m1, cut, staged, residuals_db = _stages(
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
    clip = quadrant_transmission(scenario.waist_c_um, scenario.layout)
    eta_c = clip * scenario.mask_transmission * scenario.quantum_efficiency

    # Per-quadrant probe transmission fitted to the measured residual
    # squeezing; the EOT transmission and window clipping set its scale and
    # the fit absorbs unmodeled path losses.
    sensors = []
    for q in QUADRANTS:
        target_db = scenario.residual_db[q - 1]
        ratio = _db_ratio(target_db, f"calibration.residual_db[{q - 1}]")
        eta_p = detection.probe_transmission_for_ratio(cut, eta_c, ratio)
        if not MIN_TRANSMISSION <= eta_p <= 1.0:
            raise FitInfeasibleError(
                f"residual squeezing {target_db} dB unreachable for quadrant {q}"
            )
        channel = LossChannel(eta_p, eta_c)
        matched = _detected(cut, channel, q, q)
        rep = detection.squeezing_report(matched, detection.optimal_gain(matched))
        residuals_db[f"residual_q{q}"] = rep.ratio_db - target_db
        staged[f"sensor_q{q}"] = rep  # the stage budget's sensor row
        # An analytic SNR sqrt(s / n), with s = floor * (V / V_t)**2, crosses
        # 1 at V_t * sqrt(n / floor): V_t itself for the matched twin-beam
        # noise, the floor. Every cross pair probed at q has the same noise.
        # The coherent and optimal (probe-only) noises read only the
        # detected means, which all the quadrant's pairs share.
        other = _detected(cut, channel, q, q % len(QUADRANTS) + 1)
        cross = detection.difference_noise(other, rep.gain)
        v_t = scenario.threshold_targets_mv[q - 1]
        noises = (rep.diff_variance, cross, rep.snl, matched.mean_p)
        thresholds = tuple(v_t * math.sqrt(n / rep.diff_variance) for n in noises)
        # Each kind's analytic SNR curve is the line V / V_th, the same for
        # every pair that reads it; a threshold that underflows to 0 has none.
        lines = tuple(
            tuple([v / t for v in scenario.sweep_voltages_mv]) if t != 0.0 else None
            for t in thresholds
        )
        sensors.append(Sensor(eta_p, rep, thresholds, lines))

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

    return SensingChain(
        scenario=scenario,
        source_params=params,
        eta_optics=eta_optics,
        beam=m1,
        grid=grid,
        cut=cut,
        eta_c=eta_c,
        sensors=tuple(sensors),
        residuals_db=residuals_db,
        stage_budget=[
            StageBudget(label, rep.ratio_db, rep.gain, rep.gain_db)
            for label, rep in staged.items()
        ],
    )
