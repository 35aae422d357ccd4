"""Scenario-driven command-line front end.

Subcommands load a scenario file (or the packaged default), run the
requested analysis, and write plot-ready CSV/JSON artifacts into the
output directory. Outputs are byte-stable for fixed (scenario, seed).

Exit codes: 0 success, 2 validation (a ``--samples`` count that does not
fit in memory included), 3 numeric/consistency failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .analysis import threshold_voltage
from .errors import QuadsenseError, ValidationError
from .optics import optimize_waist, waist_scan
from .plasmonic import transmission_at
from .scenario import QUADRANTS, Scenario, build_chain, dump_scenario, load_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Most samples a stochastic subcommand accepts. verify holds one chunk of
# samples whatever the count, so the cap bounds its run time (days at this
# count), not memory, and fig4 draws no samples; a run that still finds no
# memory for its chunk buffers exits through the MemoryError branch of main.
MAX_SAMPLES = 10**12


def _fmt(value: float, db: bool = False) -> str:
    # dB to 3 decimals per output contract, everything else to a fixed
    # general format so reruns are byte-identical.
    if db:
        return f"{value:.3f}"
    return f"{value:.9g}"


def _write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")


# -- subcommands ----------------------------------------------------------


def _cmd_squeezing_budget(scenario: Scenario, args, out: Path) -> int:
    chain = build_chain(scenario)
    header = ["stage", "squeezing_db", "gain", "gain_db"]
    rows = []
    print(f"{'stage':<14s} {'squeezing_db':>12s} {'gain':>8s} {'gain_db':>8s}")
    for stage in chain.stage_budget:
        rows.append(
            [
                stage.label,
                _fmt(stage.squeezing_db, db=True),
                _fmt(stage.gain),
                _fmt(stage.gain_db, db=True),
            ]
        )
        print(
            f"{stage.label:<14s} {stage.squeezing_db:>12.3f} "
            f"{stage.gain:>8.4f} {stage.gain_db:>8.3f}"
        )
    _write_csv(out / "squeezing_budget.csv", header, rows)
    return EXIT_OK


def _cmd_optimize_beam(scenario: Scenario, args, out: Path) -> int:
    ds, totals = waist_scan(scenario.layout, (100.0, 1000.0))
    best_d, best_t = optimize_waist(scenario.layout, (ds, totals))
    header = ["diameter_um", "total_transmission"]
    rows = [[_fmt(d), _fmt(t)] for d, t in zip(ds, totals)]
    _write_csv(out / "beam_curve.csv", header, rows)
    print(f"best diameter {best_d:.1f} um, total transmission {best_t:.4f}")
    print(f"  each window: {best_t / 4:.4f}")
    return EXIT_OK


def _cmd_resonance_scan(scenario: Scenario, args, out: Path) -> int:
    header = ["wavelength_nm"] + [f"transmission_q{q}" for q in QUADRANTS]
    rows = []
    for k in range(181):  # 770 to 815 nm in 0.25 nm steps
        lam = 770.0 + 0.25 * k
        row = [_fmt(lam)]
        for q in QUADRANTS:
            row.append(_fmt(transmission_at(scenario.resonances[q - 1], lam)))
        rows.append(row)
    _write_csv(out / "resonance_scan.csv", header, rows)
    return EXIT_OK


def _sweep_rows(chain, pairs) -> list:
    rows = []
    for pair in pairs:
        curves = chain.snr_sweep(pair)
        for k, v in enumerate(curves["twin"].voltages):
            rows.append(
                [
                    _fmt(v),
                    f"{pair[0]}-{pair[1]}",
                    _fmt(curves["twin"].snr[k]),
                    _fmt(curves["coherent"].snr[k]),
                    _fmt(curves["optimal"].snr[k]),
                ]
            )
    return rows


def _enhancement_payload(reports: dict, sampled: dict | None = None) -> dict:
    payload = {}
    for q, rep in reports.items():
        entry = {
            "pair": list(rep.pair),
            "v_tb_mv": round(rep.v_tb, 6),
            "v_cs_mv": round(rep.v_cs, 6),
            "v_opt_mv": round(rep.v_opt, 6),
            "enhancement_pct": round(rep.enhancement_pct, 6),
            "extrapolated": rep.extrapolated,
        }
        if sampled is not None:
            entry["v_tb_sampled_mv"] = round(sampled[q], 6)
        payload[f"pair_{q}_{q}"] = entry
    return payload


def _cmd_snr_sweep(scenario: Scenario, args, out: Path) -> int:
    chain = build_chain(scenario)
    pairs = [(q, q) for q in QUADRANTS]
    header = ["voltage_mv", "pair", "snr_tb", "snr_cs", "snr_opt"]
    _write_csv(out / "snr_sweep.csv", header, _sweep_rows(chain, pairs))
    reports = {q: chain.enhancement_report(q) for q in QUADRANTS}
    _write_json(out / "enhancement.json", _enhancement_payload(reports))
    return EXIT_OK


def _cmd_fig3(scenario: Scenario, args, out: Path) -> int:
    """Noise power vs frequency bin around the drive tone, per quadrant.

    Four traces per quadrant, in dB relative to the pair's shot-noise
    level: the SNL reference, the squeezed modulation-off floor, and the
    floor plus the tone for two drive levels. The tone occupies the
    center bin only; the bin spacing stands in for the resolution
    bandwidth.
    """
    chain = build_chain(scenario)
    bin_hz = 250.0
    bins = range(-10, 11)
    drives = (120.0, 60.0)
    header = [
        "quadrant",
        "frequency_hz",
        "snl_db",
        "squeezed_db",
        f"drive_{drives[0]:.0f}mv_db",
        f"drive_{drives[1]:.0f}mv_db",
    ]
    rows = []
    for q in QUADRANTS:
        rep = chain.sensors[q - 1].report
        snl, s_off = rep.snl, rep.diff_variance
        signals = [chain.signal(q, v) for v in drives]
        for k in bins:
            freq = scenario.modulation_frequency_hz + k * bin_hz
            row = [str(q), _fmt(freq), _fmt(0.0, db=True), _fmt(rep.ratio_db, db=True)]
            for sig in signals:
                level = s_off + (sig if k == 0 else 0.0)
                row.append(_fmt(10.0 * math.log10(level / snl), db=True))
            rows.append(row)
    _write_csv(out / "fig3.csv", header, rows)
    return EXIT_OK


def _cmd_fig4(scenario: Scenario, args, out: Path) -> int:
    chain = build_chain(scenario)
    pairs = [(i, j) for i in QUADRANTS for j in QUADRANTS]
    header = ["voltage_mv", "pair", "snr_tb", "snr_cs", "snr_opt"]
    _write_csv(out / "fig4_sweep.csv", header, _sweep_rows(chain, pairs))

    curves = chain.sampled_snr_sweep(
        [(q, q) for q in QUADRANTS], args.samples, args.seed
    )
    sampled = {}
    for q, curve in zip(QUADRANTS, curves):
        sampled[q], _ = threshold_voltage(curve)
    reports = {q: chain.enhancement_report(q) for q in QUADRANTS}
    _write_json(out / "fig4_enhancement.json", _enhancement_payload(reports, sampled))
    for q, rep in reports.items():
        print(
            f"pair ({q},{q}): v_tb {rep.v_tb:.2f} mV "
            f"(sampled {sampled[q]:.2f}), v_cs {rep.v_cs:.2f} mV, "
            f"enhancement {rep.enhancement_pct:.2f}%"
        )
    return EXIT_OK


def _cmd_verify(scenario: Scenario, args, out: Path) -> int:
    # The fold makes no BLAS call, and an idle OpenBLAS worker thread would
    # spin on the CPUs its threads use. OpenBLAS reads the count when numpy
    # loads; a count the user set wins, and a caller that has already
    # loaded numpy keeps its environment.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import montecarlo

    checks = montecarlo.run_verification(build_chain(scenario), args.samples, args.seed)
    payload = {
        "n_samples": args.samples,
        "seed": args.seed,
        "passed": all(c.passed for c in checks),
        "checks": [c._asdict() for c in checks],
    }
    _write_json(out / "verify.json", payload)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: {c.statistic:.4g} (threshold {c.threshold:g})")
    return EXIT_OK if payload["passed"] else EXIT_NUMERIC


_COMMANDS = {
    "squeezing-budget": _cmd_squeezing_budget,
    "optimize-beam": _cmd_optimize_beam,
    "resonance-scan": _cmd_resonance_scan,
    "snr-sweep": _cmd_snr_sweep,
    "verify": _cmd_verify,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsense",
        description="Twin-beam quadrant sensing simulator",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument(
        "--scenario", default=None, help="scenario YAML (default: packaged scenario)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the scenario master seed"
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=1_000_000,
        help="sample count for stochastic subcommands",
    )
    parser.add_argument(
        "--out", default=".", help="output directory for artifact files"
    )
    parser.add_argument(
        "--dump-config",
        action="store_true",
        help="print the parsed scenario as YAML and exit",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is None:
            args.seed = scenario.seed
        if args.seed < 0:
            raise ValidationError("--seed must be >= 0")
        if args.samples < 2:
            raise ValidationError(
                f"--samples {args.samples} is below 2; a sample variance needs "
                f"two samples"
            )
        if args.samples > MAX_SAMPLES:
            raise ValidationError(
                f"--samples {args.samples} is above the cap of {MAX_SAMPLES:.0e}"
            )
        if args.dump_config:
            sys.stdout.write(dump_scenario(scenario))
            return EXIT_OK
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.subcommand](scenario, args, out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QuadsenseError as exc:
        message = str(exc)
        residuals = getattr(exc, "residuals_db", None)
        if residuals:
            terms = ", ".join(f"{k}={_fmt(v, db=True)}" for k, v in residuals.items())
            message += f" (residuals_db: {terms})"
        print(f"consistency error: {message}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print(
            f"validation error: --samples {args.samples} needs more memory than "
            f"is available",
            file=sys.stderr,
        )
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
