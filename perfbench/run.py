"""quadsense benchmark: cold CLI processes, sampled oracles, calibration sweep.

Run from the repository root:

    python3 perfbench/run.py --workload cli-analytic --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one op at a time):

``cli-analytic``
    Cold ``python -m quadsense.cli`` processes for squeezing-budget,
    optimize-beam, resonance-scan, snr-sweep and fig3 on the packaged
    scenario. Import and analytic optics dominate; the seed does not
    change the outputs.
``cli-sampled``
    Cold ``fig4`` then ``verify`` at the CLI default of 1M samples, with
    ``--seed`` from the workload seed. The Monte Carlo layer dominates.
``calibration-sweep``
    One worker process calibrates and sweeps scenarios generated from the
    seed (see ``scenarios.py``). Calibration dominates; import is paid once.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run. The
lines before it give every metric with its unit, the op outcomes and the
provenance of the run. Artifacts, span files and results go to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402

ANALYTIC = ("squeezing-budget", "optimize-beam", "resonance-scan", "snr-sweep", "fig3")
SAMPLED = ("fig4", "verify")
SUBCOMMANDS = ANALYTIC + SAMPLED
WORKLOADS = {"cli-analytic": ANALYTIC, "cli-sampled": SAMPLED, "calibration-sweep": ()}
# Seconds one pass takes on the reference host (2-core VM). A run does the
# passes that fill --seconds there, so every run of a workload times the
# same op list and its percentiles fall on the same ranks; on a slower host
# no pass starts after OVERRUN x --seconds.
PASS_S = {"cli-analytic": 6.0, "cli-sampled": 22.0, "calibration-sweep": 2.5}
OVERRUN = 1.25
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
DEPS = ("numpy", "scipy", "yaml")


# -- child processes --------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list, log: Path) -> dict:
    """Run one child to completion, its stdout and stderr going to ``log``.

    Returns its wall time, exit code and peak RSS.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=sink, stderr=sink)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def cli_op(subcommand: str, out: Path, seed: int, targets: dict, spans=None) -> dict:
    """One cold CLI process (traced through the worker when ``spans``)."""
    out.mkdir(parents=True)
    args = [subcommand, "--out", str(out)]
    if subcommand in SAMPLED:
        args += ["--seed", str(seed % 2**32)]
    if spans is None:
        argv = [sys.executable, "-m", "quadsense.cli"] + args
    else:
        argv = [sys.executable, str(HERE / "worker.py"), "cli", "--spans", str(spans)]
        argv += ["--"] + args
    op = run_child(argv, out / "log.txt")
    problems, digests = checks.check_cli_op(subcommand, out, targets)
    if op["rc"] != 0:
        problems.insert(0, f"exit code {op['rc']}")
    op.update(subcommand=subcommand, problems=problems, digests=digests)
    return op


def setup_times(workload: str, seed: int, work: Path) -> list:
    if workload == "calibration-sweep":
        argv = [sys.executable, str(HERE / "worker.py"), "setup", "--seed", str(seed)]
    else:
        argv = [sys.executable, "-m", "quadsense.cli", ANALYTIC[0], "--dump-config"]
    times = []
    for k in range(SETUP_REPEATS):
        probe = run_child(argv, work / f"setup_{k}.txt")
        if probe["rc"] != 0:
            raise RuntimeError(f"set-up probe exited {probe['rc']}: {argv}")
        times.append(probe["wall_s"])
    return times


# -- metrics ----------------------------------------------------------------


def tail(latencies: list) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND ops above it.

    Returns ``(value, percentile, n)``. With too few ops for that, the
    maximum is reported at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(walls, ops, setup, peak_rss_kb) -> tuple[dict, dict]:
    """The end-to-end metrics of one timed run, and notes printed beside them.

    Op latencies cover every attempted op: a refused calibration costs its
    caller the time until the refusal, and a fix that turns failures into
    successes must not read as a latency change. The successful-op median
    is printed in the notes.
    """
    latencies = [op["latency_s"] for op in ops]
    ok = [op["latency_s"] for op in ops if op["ok"]]
    value, pct, n = tail(latencies)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    notes = {
        "passes": len(walls),
        "op_tail_percentile": pct,
        "op_latency_samples": n,
        "op_p50_successful_s": statistics.median(ok) if ok else None,
        "fail_ratio": (len(ops) - len(ok)) / len(ops),
        "setup_samples_s": setup,
    }
    return metrics, notes


def import_split(work: Path) -> dict:
    """Per-module import seconds from ``python -X importtime`` (median of runs).

    ``<module>.import_s`` is the cumulative time of ``quadsense.<module>``,
    so it includes the third-party modules it was first to import.
    ``deps.import_s`` is the self time of every numpy, scipy and yaml
    module; ``deps.scipy_sparse.import_s`` the time of the outermost
    ``scipy.sparse*`` imports.
    """
    samples = []
    for k in range(IMPORTTIME_REPEATS):
        log = work / f"importtime_{k}.txt"
        argv = [sys.executable, "-X", "importtime", "-c", "import quadsense.cli"]
        if run_child(argv, log)["rc"] != 0:
            raise RuntimeError("import quadsense.cli failed")
        entries = []
        for line in log.read_text("utf-8").splitlines():
            if line.startswith("import time:") and "|" in line and "self [us]" not in line:
                self_us, cum_us, raw = line[len("import time:") :].split("|", 2)
                depth = (len(raw) - len(raw.lstrip()) - 1) // 2
                entries.append((depth, raw.strip(), int(self_us), int(cum_us)))
        cumulative = {name: cum for _, name, _, cum in entries}
        deps = sum(s for _, name, s, _ in entries if name.split(".")[0] in DEPS)
        # importtime prints a module after the imports it triggered; read
        # backwards, every module follows its ancestors.
        sparse, ancestors = 0, []
        for depth, name, _, cum in reversed(entries):
            ancestors = [a for a in ancestors if a[0] < depth]
            if name.startswith("scipy.sparse") and not any(
                a[1].startswith("scipy.sparse") for a in ancestors
            ):
                sparse += cum
            ancestors.append((depth, name))
        row = {f"{m}.import_s": cumulative.get(f"quadsense.{m}", 0) / 1e6 for m in tracing.MODULES}
        row["deps.import_s"] = deps / 1e6
        row["deps.scipy_sparse.import_s"] = sparse / 1e6
        samples.append(row)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- workloads --------------------------------------------------------------


def _cli_record(op: dict) -> dict:
    # Every CLI op runs the packaged default scenario, which the chain is
    # calibrated to: any failure there is a wrong output.
    ok = not op["problems"]
    return {
        "latency_s": op["wall_s"],
        "ok": ok,
        "wrong": not ok,
        "status": op["subcommand"],
        "detail": "; ".join(op["problems"]),
    }


def _sweep(seed: int, work: Path, *extra: str) -> tuple[dict, dict, list]:
    """Run the sweep worker; its result, its child record and its op records.

    Typed refusals and missed staged targets are known limits of the
    calibration model: they fail the op, but only a wrong output is wrong.
    """
    result = work / "sweep.json"
    argv = [sys.executable, str(HERE / "worker.py"), "sweep", "--seed", str(seed)]
    child = run_child(argv + ["--result", str(result), *extra], work / "sweep_log.txt")
    if child["rc"] != 0:
        raise RuntimeError(f"sweep worker exited {child['rc']}, see {work}")
    data = json.loads(result.read_text("utf-8"))
    ops = [
        dict(op, ok=op["status"] == "ok", wrong=op["status"] == "wrong")
        for op in data["ops"]
    ]
    return data, child, ops


def n_passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


def timed_cli(workload: str, seed: int, seconds: float, work: Path, targets: dict):
    setup = setup_times(workload, seed, work)
    walls, ops, digests = [], [], {}
    peak = 0
    start = time.perf_counter()
    for _ in range(n_passes(workload, seconds)):
        if walls and time.perf_counter() - start > OVERRUN * seconds:
            break
        pass_dir = work / f"pass{len(walls)}"
        t0 = time.perf_counter()
        results = [
            cli_op(sub, pass_dir / sub, seed, targets) for sub in WORKLOADS[workload]
        ]
        walls.append(time.perf_counter() - t0)
        for op in results:
            ops.append(_cli_record(op))
            peak = max(peak, op["maxrss_kb"])
            digests[op["subcommand"]] = op["digests"]
        shutil.rmtree(pass_dir)
    metrics, notes = end_to_end(walls, ops, setup, peak)
    notes["artifact_sha256"] = digests
    return metrics, notes, ops


def timed_sweep(seed: int, seconds: float, work: Path):
    setup = setup_times("calibration-sweep", seed, work)
    blocks = n_passes("calibration-sweep", seconds)
    extra = ["--blocks", str(blocks), "--seconds", str(OVERRUN * seconds)]
    data, child, ops = _sweep(seed, work, *extra)
    metrics, notes = end_to_end(data["block_walls"], ops, setup, child["maxrss_kb"])
    outcomes = ("ok", "miss", "infeasible", "wrong")
    notes.update(
        scenario_digest=data["digest"],
        scenarios_generated=data["n_scenarios"],
        in_process_import_s=data["import_s"],
        outcomes={s: sum(op["status"] == s for op in ops) for s in outcomes},
    )
    return metrics, notes, ops


def traced(workload: str, seed: int, work: Path, targets: dict):
    """Per-layer metrics: import split, cold subcommands, traced ops."""
    layer = import_split(work)
    ops, payloads = [], []
    untraced_s = traced_s = 0.0
    for sub in SUBCOMMANDS:
        op = cli_op(sub, work / "cold" / sub, seed, targets)
        ops.append(_cli_record(op))
        layer[f"cli.{sub}.wall_s"] = op["wall_s"]
        if sub not in WORKLOADS[workload]:
            continue
        # The traced twin runs right after, so both see the same machine.
        spans = work / f"spans_{sub}.json"
        twin = cli_op(sub, work / "traced" / sub, seed, targets, spans=spans)
        ops.append(_cli_record(twin))
        if spans.is_file():
            payloads.append(json.loads(spans.read_text("utf-8")))
        untraced_s += op["wall_s"]
        traced_s += twin["wall_s"]
    if workload == "calibration-sweep":
        spans = work / "spans.json"
        data, _, sweep_ops = _sweep(seed, work, "--spans", str(spans))
        payloads.append(json.loads(spans.read_text("utf-8")))
        untraced_s, traced_s = data["untraced_s"], data["traced_s"]
        ops += sweep_ops
    layer.update(tracing.aggregate(payloads))
    layer["tracing_overhead_s"] = traced_s - untraced_s
    notes = {"traced_wall_s": traced_s, "untraced_wall_s": untraced_s}
    return layer, notes, ops


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


# -- provenance and entry point ---------------------------------------------


def provenance(seed: int, workload: str) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "not a git checkout"
    except OSError:
        rev = "git not available"
    src = hashlib.sha256()
    for path in sorted((SRC / "quadsense").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": rev,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("pyyaml"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadsense" / "cli.py").is_file():
        print(f"error: no quadsense sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / args.workload / ("trace" if args.trace else "timed")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    targets = checks.targets_of(scenarios.default_config(SRC))

    if args.trace:
        metrics, notes, ops = traced(args.workload, args.seed, work, targets)
        metrics = {k: (v, layer_unit(k)) for k, v in metrics.items()}
    elif args.workload == "calibration-sweep":
        metrics, notes, ops = timed_sweep(args.seed, args.seconds, work)
    else:
        metrics, notes, ops = timed_cli(args.workload, args.seed, args.seconds, work, targets)

    failed = [op for op in ops if not op["ok"]]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)} ops)")
    for op in failed[:5]:
        print(f"failed op: {op['status']}: {op['detail'][:200]}")
    print(json.dumps({"provenance": provenance(args.seed, args.workload), "notes": notes}))
    result = {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
