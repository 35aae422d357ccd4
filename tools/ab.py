"""Paired, interleaved in-process A/B of the ``calibration-sweep`` op.

Usage, from the repository root::

    python tools/ab.py REV_A REV_B [--seed N]

Each rev's ``src/quadsense`` is exported with ``git archive`` into a package
of its own name, and a second copy of ``REV_A`` into a third, so that one
process imports all three. The op is the one perfbench's
``calibration-sweep`` workload times: ``Scenario.from_dict``,
``build_chain``, 4 ``enhancement_report`` and 16 ``snr_sweep`` calls, over
perfbench's generated scenarios for ``--seed``. In each of 12 rounds every
scenario runs once in each package back to back, in an order that cycles
through all six from round to round, so the host's drift lands on both
sides of a pair alike.

Per pair the change is ``log(t_B / t_A)``. The tool prints each round's
median op time per package, then, for B against A and for the A/A copy,
the median paired change, its 95 % interval from a bootstrap over rounds,
and the share of pairs in which the second package was faster. A change
is resolved when its interval lies clear of the A/A interval.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import math
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import scenarios  # noqa: E402  (perfbench's scenario generator)

BOOTSTRAP = 2000
ROUNDS = 12
# The order of A, B and A' in each round: every package runs first, second
# and third, and after each of the others, equally often over six rounds.
ORDERS = tuple(itertools.permutations(range(3)))


def export(rev: str, name: str, into: Path) -> str:
    """Export ``src/quadsense`` of ``rev`` as the package ``name`` under
    ``into``; returns the commit it resolved to."""
    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout

    commit = git("rev-parse", "--short", f"{rev}^{{commit}}").decode().strip()
    blob = git("archive", "--format=tar", f"--prefix={name}/", f"{commit}:src/quadsense")
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return commit


def make_op(package: str):
    """The ``calibration-sweep`` op of ``package``: a function of one
    scenario dict that returns its time in seconds. A typed error ends the
    op, as it does in perfbench."""
    mod = importlib.import_module(f"{package}.scenario")
    error = importlib.import_module(f"{package}.errors").QuadsenseError
    Scenario, build_chain, quadrants = mod.Scenario, mod.build_chain, mod.QUADRANTS
    pairs = [(i, j) for i in quadrants for j in quadrants]

    def op(cfg) -> float:
        t0 = time.perf_counter()
        try:
            chain = build_chain(Scenario.from_dict(cfg))
            for q in quadrants:
                chain.enhancement_report(q)
            for pair in pairs:
                chain.snr_sweep(pair)
        except error:
            pass
        return time.perf_counter() - t0

    return op


def summary(rounds: list, rng: random.Random) -> tuple:
    """``(change, low, high, faster)`` of per-round lists of paired log
    ratios: the median change, its bootstrap 95 % interval and the share
    of pairs below 0, the first three as fractions."""
    pooled = [r for ratios in rounds for r in ratios]
    medians = []
    for _ in range(BOOTSTRAP):
        draw = [r for _ in rounds for r in rounds[rng.randrange(len(rounds))]]
        medians.append(statistics.median(draw))
    medians.sort()
    low = medians[int(0.025 * BOOTSTRAP)]
    high = medians[int(0.975 * BOOTSTRAP) - 1]
    faster = sum(r < 0 for r in pooled) / len(pooled)
    return (
        math.expm1(statistics.median(pooled)),
        math.expm1(low),
        math.expm1(high),
        faster,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--seed", type=int, default=1, help="perfbench scenario seed")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        into = Path(tmp)
        names = ("qs_a", "qs_b", "qs_a2")
        revs = (args.rev_a, args.rev_b, args.rev_a)
        commits = [export(rev, name, into) for rev, name in zip(revs, names)]
        sys.path.insert(0, str(into))
        ops = [make_op(name) for name in names]
        text = (into / "qs_a" / "data" / "default_scenario.yaml").read_text("utf-8")
        cfgs = scenarios.generate(yaml.safe_load(text), args.seed)

        for cfg in cfgs:  # warm-up: first calls pay lazy imports
            for op in ops:
                op(cfg)
        times = []  # times[r][k]: per-scenario op times of package k in round r
        for r in range(ROUNDS):
            order = ORDERS[r % len(ORDERS)]
            row = [[0.0] * len(cfgs) for _ in ops]
            for n, cfg in enumerate(cfgs):
                for k in order:
                    row[k][n] = ops[k](cfg)
            times.append(row)

    label = {0: f"A {commits[0]}", 1: f"B {commits[1]}", 2: f"A' {commits[2]}"}
    print(f"{len(cfgs)} scenarios (seed {args.seed}) x {ROUNDS} rounds")
    heads = "  ".join(f"{label[k]:>14}" for k in range(3))
    print(f"round  first  {heads}  (median op, ms)")
    for r, row in enumerate(times):
        medians = "  ".join(f"{1e3 * statistics.median(t):>14.4f}" for t in row)
        first = label[ORDERS[r % len(ORDERS)][0]].split()[0]
        print(f"{r:>5}  {first:>5}  {medians}")
    rng = random.Random(0)
    for name, k in (("A -> B", 1), ("A -> A' (A/A)", 2)):
        ratios = [[math.log(b / a) for a, b in zip(row[0], row[k])] for row in times]
        change, low, high, faster = summary(ratios, rng)
        print(
            f"{name:<14} median paired change {100 * change:+.2f} % "
            f"[{100 * low:+.2f}, {100 * high:+.2f}] (95 % bootstrap over rounds); "
            f"second faster in {100 * faster:.0f} % of {sum(map(len, ratios))} pairs"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
