"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Checks that the scenario generator is a pure function of its seed, that
the output checks reject a non-finite value and a missed target, and that
the exact-repeat counters of two traced runs of every subcommand and of a
calibration block are identical. Takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sibling module; puts this directory on sys.path
import checks
import scenarios
import tracing


def check_generator() -> None:
    base = scenarios.default_config(run.SRC)
    first = scenarios.digest(scenarios.generate(base, 1))
    assert first == scenarios.digest(scenarios.generate(base, 1)), "seed 1 differs"
    assert first != scenarios.digest(scenarios.generate(base, 2)), "seeds 1, 2 agree"
    print(f"generator: seed 1 -> {first[:16]}, repeatable; seed 2 differs")


def check_checks(work) -> None:
    targets = checks.targets_of(scenarios.default_config(run.SRC))
    out = work / "checks"
    out.mkdir()
    rows = ["stage,squeezing_db,gain,gain_db", "source,-5.160,1,0", "post_optics,nan,1,0"]
    (out / "squeezing_budget.csv").write_text("\n".join(rows) + "\n")
    problems, _ = checks.check_cli_op("squeezing-budget", out, targets)
    assert any("not finite" in p for p in problems), problems
    assert any("missing sensor_q1" in p for p in problems), problems
    (out / "verify.json").write_text('{"passed": false, "x": NaN}')
    problems, _ = checks.check_cli_op("verify", out, targets)
    assert len(problems) == 2, problems
    print("checks: reject non-finite values, missing rows and failed verification")


def traced_counts(work, tag: str, seed: int) -> dict:
    targets = checks.targets_of(scenarios.default_config(run.SRC))
    payloads = []
    for sub in run.SUBCOMMANDS:
        spans = work / f"{tag}_{sub}.json"
        op = run.cli_op(sub, work / tag / sub, seed, targets, spans=spans)
        assert not op["problems"], (sub, op["problems"])
        payloads.append(json.loads(spans.read_text("utf-8")))
    result, spans = work / f"{tag}_sweep.json", work / f"{tag}_spans.json"
    argv = [sys.executable, str(run.HERE / "worker.py"), "sweep", "--seed", str(seed)]
    argv += ["--result", str(result), "--spans", str(spans)]
    assert run.run_child(argv, work / f"{tag}_sweep_log.txt")["rc"] == 0
    payloads.append(json.loads(spans.read_text("utf-8")))
    return tracing.aggregate(payloads)


def check_exact_repeats(work) -> None:
    first, second = (traced_counts(work, tag, seed=7) for tag in ("a", "b"))
    names = list(tracing.EXACT_REPEAT) + [k for k in first if k.endswith(".calls")]
    differ = {k: (first[k], second[k]) for k in names if first[k] != second[k]}
    assert not differ, f"counters differ between traced runs: {differ}"
    assert first["montecarlo.normals_computed"] > 0
    assert first["optics.quadrant_transmission.calls_per_optimize_beam"] > 0
    for k in tracing.EXACT_REPEAT:
        print(f"  {k} = {first[k]}")
    print(f"exact repeats: {len(names)} counters identical across two traced runs")


def main() -> int:
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    check_generator()
    check_checks(work)
    check_exact_repeats(work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
