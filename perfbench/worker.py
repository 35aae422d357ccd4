"""In-process benchmark operations, run as a child of ``run.py``.

Modes:

``setup --seed N``
    Import the calibration layers and generate the scenario list; the
    parent times this cold process as the ``calibration-sweep`` set-up.
``sweep --seed N --blocks B --seconds S --result PATH [--spans PATH]``
    Calibrate and sweep the first B blocks of ten generated scenarios; no
    block starts after S seconds. With ``--spans``, run the first block
    untraced after one warm-up op, then again with tracing on, and write
    the spans.
``cli --spans PATH -- ARGS...``
    Run ``quadsense.cli.main(ARGS)`` with tracing on and write the spans.

The parent puts the repository's ``src`` directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import checks  # noqa: E402  (sibling module of this script)
import scenarios  # noqa: E402


def _generate(seed: int):
    cfgs = scenarios.generate(scenarios.default_config(SRC), seed)
    return cfgs, scenarios.digest(cfgs)


def _calibrate(cfg):
    from quadsense.scenario import QUADRANTS, Scenario, build_chain

    chain = build_chain(Scenario.from_dict(cfg))
    reports = [chain.enhancement_report(q) for q in QUADRANTS]
    sweeps = [chain.snr_sweep((i, j)) for i in QUADRANTS for j in QUADRANTS]
    return chain, reports, sweeps


def _run_block(block):
    """Time each op of a block, then classify its outcome.

    Outcomes: ``ok``; ``infeasible`` (a typed quadsense error, such as
    ``FitInfeasibleError``); ``miss`` (a staged target missed by more than
    the check's tolerance); ``wrong`` (a wrong or non-finite output, or an
    untyped exception).
    """
    from quadsense.errors import QuadsenseError

    timed = []
    start = time.perf_counter()
    for cfg in block:
        t0 = time.perf_counter()
        try:
            outcome = _calibrate(cfg)
        except QuadsenseError as exc:
            outcome = ("infeasible", f"{type(exc).__name__}: {exc}")
        except Exception:  # an untyped failure is a finding, not a crash
            outcome = ("wrong", traceback.format_exc(limit=3))
        timed.append((time.perf_counter() - t0, cfg, outcome))
    wall = time.perf_counter() - start

    ops = []
    for latency, cfg, outcome in timed:
        if isinstance(outcome[0], str):
            status, detail = outcome
        else:
            misses, wrong = checks.check_chain(*outcome, checks.targets_of(cfg))
            status = "wrong" if wrong else "miss" if misses else "ok"
            detail = "; ".join(wrong or misses)
        ops.append({"latency_s": latency, "status": status, "detail": detail})
    return wall, ops


def _blocks(cfgs):
    k = 0
    while True:
        lo = (k * scenarios.BLOCK) % len(cfgs)
        yield cfgs[lo : lo + scenarios.BLOCK]
        k += 1


def sweep(seed: int, blocks: int, seconds: float, result: Path, spans) -> None:
    t0 = time.perf_counter()
    import quadsense.scenario  # noqa: F401  (timed import)

    import_s = time.perf_counter() - t0
    cfgs, digest = _generate(seed)
    out = {"import_s": import_s, "digest": digest, "n_scenarios": len(cfgs)}
    if spans is None:
        walls, ops = [], []
        start = time.perf_counter()
        for _, block in zip(range(blocks), _blocks(cfgs)):
            if walls and time.perf_counter() - start > seconds:
                break
            wall, block_ops = _run_block(block)
            walls.append(wall)
            ops += block_ops
        out.update(block_walls=walls, ops=ops)
    else:
        import tracing

        block = cfgs[: scenarios.BLOCK]
        _run_block(block[:1])  # warm-up: first calls pay scipy's lazy imports
        untraced, ops = _run_block(block)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.op = "calibration-sweep"
        traced, traced_ops = _run_block(block)
        tracer.dump(spans)
        out.update(untraced_s=untraced, traced_s=traced, ops=ops + traced_ops)
    result.write_text(json.dumps(out), encoding="utf-8")


def traced_cli(argv: list, spans: Path) -> int:
    import tracing

    import quadsense.cli as cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op = argv[0]
    try:
        with tracer.span(f"cli.{argv[0]}"):
            return cli.main(argv)
    finally:
        tracer.dump(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "sweep", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=math.inf)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]
    if args.mode == "setup":
        import quadsense.scenario  # noqa: F401

        _generate(args.seed)
        return 0
    if args.mode == "sweep":
        sweep(args.seed, args.blocks, args.seconds, args.result, args.spans)
        return 0
    return traced_cli(cli_args, args.spans)


if __name__ == "__main__":
    sys.exit(main())
