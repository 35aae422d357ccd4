"""No subcommand imports scipy: the runtime needs only numpy and PyYAML.
The analytic paths load no thread pool. And the benchmark's tracer still
finds every quadsense function it hooks.

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
    "module, argv, rcs",
    [
        ("quadsense.cli", [], (None,)),
        ("quadsense.montecarlo", [], (None,)),
        ("quadsense.cli", ["resonance-scan"], (0,)),
        ("quadsense.cli", ["optimize-beam"], (0,)),
        ("quadsense.cli", ["squeezing-budget"], (0,)),
        ("quadsense.cli", ["snr-sweep"], (0,)),
        ("quadsense.cli", ["fig3"], (0,)),
        ("quadsense.cli", ["fig4", "--samples", "1000"], (0,)),
        # 1000 samples are too few for the 0.2 dB snl_linearity bound, so
        # the run may exit 3; it still runs every check, the Fock oracle
        # included.
        ("quadsense.cli", ["verify", "--samples", "1000"], (0, 3)),
    ],
    ids=[
        "import",
        "import-montecarlo",
        "resonance-scan",
        "optimize-beam",
        "squeezing-budget",
        "snr-sweep",
        "fig3",
        "fig4",
        "verify",
    ],
)
def test_subcommand_imports_only_the_scipy_it_runs(tmp_path, module, argv, rcs):
    if argv:
        argv = argv + ["--out", str(tmp_path)]
    result = loaded_after(argv, tmp_path, module)
    assert result["rc"] in rcs
    loaded = [m for m in result["modules"] if m == "scipy" or m.startswith("scipy.")]
    assert loaded == []


@pytest.mark.parametrize("argv", [[], ["snr-sweep"]], ids=["import", "snr-sweep"])
def test_analytic_paths_load_no_thread_pool(tmp_path, argv):
    # Only the sampled oracles run chunks on a thread pool; loading the CLI
    # and running an analytic subcommand import neither it nor them.
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
import tracing
from quadsense import montecarlo, scenario, source
tracer = tracing.Tracer()
tracing.install(tracer)
chain = scenario.build_chain(scenario.load_scenario())
grid = source.build_coherence_grid(16.0, 16.0, 8.0)
montecarlo.sample_photocurrents(grid, chain.cut, 10, 1)
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
from quadsense import montecarlo
tracer = tracing.Tracer()
tracing.install(tracer)
montecarlo.run_verification(int(sys.argv[2]), 5)
print(json.dumps(tracing.aggregate([{"spans": tracer.spans, "extra": tracer.extra}])))
"""


def test_perfbench_hooks_stay_on_the_verification_path(tmp_path):
    # The verification suite draws through the hooked samplers once per
    # chunk, so the traced normal count is that of whole-run draws: two per
    # sample for the bright pair, one per thinned value, and two per cell
    # and sample for the partition batch.
    from quadsense import montecarlo, source

    n = 2 * montecarlo.CHUNK + 1
    cells = source.build_coherence_grid(16.0, 16.0, 8.0).n_cells
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
