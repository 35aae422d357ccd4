"""No subcommand imports scipy. Loading the CLI or a scenario, dumping the
scenario, the five analytic subcommands and fig4 need only PyYAML: numpy
loads with the Monte Carlo layer, for verify alone. No case loads
dataclasses, and none without numpy loads inspect. Only verify loads a
thread pool. And the benchmark's tracer still finds every quadsense
function it hooks.

Every case runs in a fresh interpreter, since ``sys.modules`` of the test
process already holds whatever earlier tests imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadsense

SRC = str(Path(quadsense.__file__).resolve().parents[1])

PROBE = """
import importlib, json, sys
module = importlib.import_module(sys.argv[2])
argv = json.loads(sys.argv[1])
rc = module.main(argv) if argv else None
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def loaded_after(argv, cwd, module="quadsense.cli"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv), module],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "module, argv, rcs, numpy",
    [
        ("quadsense.cli", [], (None,), False),
        ("quadsense.scenario", [], (None,), False),
        ("quadsense.montecarlo", [], (None,), True),
        ("quadsense.cli", ["squeezing-budget", "--dump-config"], (0,), False),
        ("quadsense.cli", ["resonance-scan"], (0,), False),
        ("quadsense.cli", ["optimize-beam"], (0,), False),
        ("quadsense.cli", ["squeezing-budget"], (0,), False),
        ("quadsense.cli", ["snr-sweep"], (0,), False),
        ("quadsense.cli", ["fig3"], (0,), False),
        ("quadsense.cli", ["fig4", "--samples", "1000"], (0,), False),
        # 1000 samples are too few for the 0.2 dB snl_linearity bound, so
        # the run may exit 3; it still runs every check, the Fock oracle
        # included.
        ("quadsense.cli", ["verify", "--samples", "1000"], (0, 3), True),
    ],
    ids=[
        "import",
        "import-scenario",
        "import-montecarlo",
        "dump-config",
        "resonance-scan",
        "optimize-beam",
        "squeezing-budget",
        "snr-sweep",
        "fig3",
        "fig4",
        "verify",
    ],
)
def test_subcommand_imports_only_what_it_runs(tmp_path, module, argv, rcs, numpy):
    if argv:
        argv = argv + ["--out", str(tmp_path)]
    result = loaded_after(argv, tmp_path, module)
    assert result["rc"] in rcs
    loaded = [m for m in result["modules"] if m == "scipy" or m.startswith("scipy.")]
    assert loaded == []
    assert ("numpy" in result["modules"]) is numpy
    # Record types are named tuples: no case loads dataclasses, and only
    # numpy's own imports load inspect.
    assert "dataclasses" not in result["modules"]
    if not numpy:
        assert "inspect" not in result["modules"]


@pytest.mark.parametrize(
    "argv",
    [[], ["snr-sweep"], ["fig4", "--samples", "1000"]],
    ids=["import", "snr-sweep", "fig4"],
)
def test_analytic_paths_load_no_thread_pool(tmp_path, argv):
    # Only verify's sampled checks run chunks on a thread pool. Loading the
    # CLI and running an analytic subcommand import neither it nor them;
    # fig4 draws its sweep's statistics whole, with the standard library's
    # generator, and loads no Monte Carlo layer.
    if argv:
        argv = argv + ["--out", str(tmp_path)]
    result = loaded_after(argv, tmp_path)
    assert result["rc"] in (None, 0)
    assert "concurrent.futures" not in result["modules"]
    assert "quadsense.montecarlo" not in result["modules"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import tracing
from quadsense import montecarlo, scenario, source
tracer = tracing.Tracer()
tracing.install(tracer)
chain = scenario.build_chain(scenario.load_scenario())
grid = source.build_coherence_grid(16.0, 16.0, 8.0)
montecarlo.sample_photocurrents(grid, chain.cut, 10, 1, 0, np.empty((4, 2, 10)))
print(json.dumps(tracing.aggregate([{"spans": tracer.spans, "extra": tracer.extra}])))
"""


def test_perfbench_hooks_find_what_they_trace(tmp_path):
    # The benchmark's tracer wraps quadsense functions by name and reads
    # attributes of their arguments and results; a renamed one would fail
    # only the benchmark's own self-test.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(PERFBENCH)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["source.build_coherence_grid.calls_per_build_chain"] == 1
    assert metrics["scenario.grid_cells_axis.max"] > 0
    assert metrics["montecarlo.normals_computed"] > 0


TRACED_VERIFY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from quadsense import montecarlo, scenario
chain = scenario.build_chain(scenario.load_scenario())
tracer = tracing.Tracer()
tracing.install(tracer)
montecarlo.run_verification(chain, int(sys.argv[2]), 5)
print(json.dumps(tracing.aggregate([{"spans": tracer.spans, "extra": tracer.extra}])))
"""


def test_perfbench_hooks_stay_on_the_verification_path(chain, tmp_path):
    # The verification suite draws through the hooked samplers once per
    # chunk, so the traced normal count is that of whole-run draws: two per
    # sample for the bright pair, one per thinned value, and two per cell
    # of the chain's grid and sample for the partition batch.
    from quadsense import montecarlo

    n = 2 * montecarlo.CHUNK + 1
    cells = chain.grid.n_cells
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY, str(PERFBENCH), str(n)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["montecarlo.normals_computed"] == 4 * n + 2 * cells * n
    assert metrics["montecarlo.run_verification.calls"] == 1
    assert metrics["montecarlo.sample_pair.calls"] == 3
    assert metrics["montecarlo.thinning_loss.calls"] == 6
    assert metrics["montecarlo.sample_photocurrents.calls"] == 3
