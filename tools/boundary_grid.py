"""The exit-code contract of the quadsense CLI on a fixed boundary grid.

Every case is the packaged default scenario file with one numeric leaf
edited in its text, with no YAML round trip, so every other byte of the
file, comments included, stays as shipped. The grid has two parts:

- ``numeric``: each of the file's 58 numeric leaves set to each of the 18
  :data:`VALUES`;
- ``other``: each leaf set to a string, ``true``, null or a one-item list
  of its own value, or deleted (:data:`OTHERS`).

Every case runs through ``quadsense.cli.main`` in process, and the
contract is that of the CLI's exit codes: exit 0, 2 or 3, exactly one
stderr line for a failure, and no NaN or inf in any artifact written.

Usage, from the repository root::

    PYTHONPATH=src python tools/boundary_grid.py [--record FILE]

runs all 1,334 cases through all 7 subcommands, ``--samples 20000`` for
the sampled ones, prints each contract break and exits 1 if there is one.
``--record`` also writes one JSON line per run with its exit code and
stderr, so that two trees can be compared run by run. The Tier-1 suite
imports :func:`cases`, :data:`SUBCOMMANDS`, :func:`run` and
:func:`contract_breaks` from here, so that it and the full grid run one
case list under one contract.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

import yaml

from quadsense import cli

# The values every numeric leaf takes in turn.
VALUES = (
    0.0,
    5e-324,
    sys.float_info.min,
    1e-300,
    -1e-300,
    1e-12,
    1e-6,
    0.5,
    1.0,
    1.0 - 2.0**-53,
    -1.0,
    3.0,
    89.99999999,
    1e6,
    1e12,
    1e300,
    -1e300,
    sys.float_info.max,
)
# The edits of the non-numeric part: the text each puts in place of the
# leaf's value (None deletes the leaf); ``{}`` stands for that value.
OTHERS = {
    "string": "x",
    "true": "true",
    "null": "null",
    "list": "[{}]",
    "deleted": None,
}
# Every subcommand, with the sample count the sampled ones take here.
SUBCOMMANDS = (
    ("squeezing-budget", ()),
    ("optimize-beam", ()),
    ("resonance-scan", ()),
    ("snr-sweep", ()),
    ("fig3", ()),
    ("fig4", ("--samples", "20000")),
    ("verify", ("--samples", "20000")),
)
# Artifact columns that hold labels, not numbers.
LABEL_COLUMNS = ("pair", "stage")
# The comma after a flow entry, with the spaces around it.
_COMMA_AFTER = re.compile(r"\s*, *")


def default_text() -> str:
    """The packaged default scenario file, as text."""
    ref = resources.files("quadsense").joinpath("data/default_scenario.yaml")
    return ref.read_text(encoding="utf-8")


def _float_text(x: float) -> str:
    """``x`` as a YAML float: PyYAML reads an exponent as a float only
    after a decimal point."""
    text = repr(x)
    return text.replace("e", ".0e", 1) if "e" in text and "." not in text else text


def leaves(text: str) -> list:
    """``(path, value, item)`` of every numeric scalar of the scenario
    ``text``, in file order: its key path, the span of its value in
    ``text``, and the span that deleting it removes (the whole line in a
    block mapping; the entry and one comma in a flow collection)."""
    found = []

    def walk(node, path):
        if isinstance(node, yaml.MappingNode):
            pairs = [(key.value, key, value) for key, value in node.value]
        elif isinstance(node, yaml.SequenceNode):
            pairs = [(k, value, value) for k, value in enumerate(node.value)]
        else:
            return
        for key, first, value in pairs:
            sub = f"{path}[{key}]" if type(key) is int else f"{path}.{key}" if path else key
            if isinstance(value, yaml.ScalarNode):
                if value.tag.endswith((":int", ":float")):
                    start, end = first.start_mark.index, value.end_mark.index
                    found.append((sub, (value.start_mark.index, end), _item(text, start, end, node)))
            else:
                walk(value, sub)

    walk(yaml.compose(text), "")
    return found


def _item(text, start, end, parent):
    """The span of ``text`` that deleting the entry at [start, end) of the
    collection ``parent`` removes."""
    if not parent.flow_style:
        return text.rfind("\n", 0, start) + 1, text.index("\n", end) + 1
    comma = _COMMA_AFTER.match(text, end)
    if comma:
        return start, comma.end()
    return text.rindex(",", 0, start), end  # the last entry: from the comma before it


def cases(part: str = "all") -> list:
    """``(name, text)`` of every case of ``part`` (``numeric``, ``other``
    or ``all``), numeric first, each leaf in file order."""
    text = default_text()
    found = leaves(text)
    out = []
    if part in ("numeric", "all"):
        for path, (lo, hi), _ in found:
            for x in VALUES:
                out.append((f"{path}={x!r}", text[:lo] + _float_text(x) + text[hi:]))
    if part in ("other", "all"):
        for path, (lo, hi), (a, b) in found:
            for name, edit in OTHERS.items():
                if edit is None:
                    out.append((f"{path}:{name}", text[:a] + text[b:]))
                else:
                    value = edit.format(text[lo:hi])
                    out.append((f"{path}:{name}", text[:lo] + value + text[hi:]))
    return out


def non_finite(path: Path) -> list:
    """The non-finite numbers of a CSV or JSON artifact."""
    if path.suffix == ".json":
        found = []
        json.loads(path.read_text(), parse_constant=found.append)
        return found
    rows = list(csv.reader(io.StringIO(path.read_text())))
    cells = [c for row in rows[1:] for k, c in enumerate(row) if rows[0][k] not in LABEL_COLUMNS]
    return [c for c in cells if not math.isfinite(float(c))]


def run(argv, out: Path):
    """``(exit code, stderr)`` of ``quadsense.cli.main(argv)`` writing into
    ``out``, its stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--out", str(out)])
    return rc, err.getvalue()


def contract_breaks(rc, err: str, out: Path) -> list:
    """How a run that exited ``rc``, printed ``err`` and wrote into ``out``
    breaks the contract: exit 0, 2 or 3, one stderr line for a failure,
    and only finite numbers in what was written."""
    breaks = []
    if rc not in (0, 2, 3):
        breaks.append(f"exit {rc}")
    if rc and err.count("\n") != 1:
        breaks.append(f"stderr {err!r}")
    for artifact in sorted(out.iterdir()) if out.exists() else ():
        if non_finite(artifact):
            breaks.append(f"non-finite numbers in {artifact.name}")
    return breaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", help="write each run's exit code and stderr here")
    args = parser.parse_args(argv)
    grid = cases()
    failures = runs = 0
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        record = stack.enter_context(open(args.record, "w")) if args.record else None
        scenario, out = tmp / "case.yaml", tmp / "out"
        for name, text in grid:
            scenario.write_text(text, encoding="utf-8")
            for cmd, extra in SUBCOMMANDS:
                rc, err = run((cmd, "--scenario", str(scenario), *extra), out)
                runs += 1
                for problem in contract_breaks(rc, err, out):
                    failures += 1
                    print(f"{name} {cmd}: {problem}")
                shutil.rmtree(out, ignore_errors=True)
                if record:
                    record.write(json.dumps({"case": name, "cmd": cmd, "rc": rc, "err": err}) + "\n")
    print(f"{len(grid)} cases, {runs} runs, {failures} contract breaks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
