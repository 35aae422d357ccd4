"""Span recording around the calls into each quadsense module.

:func:`install` replaces each traced function with a wrapper at every
place it is looked up: the defining module and every quadsense module that
imported it by name (``scenario.quadrant_cut``, ``cli.build_chain``, ...).
Functions imported at call time (``run_verification`` does so) read the
defining module's attribute, which is the wrapper. Spans stay in memory
until :meth:`Tracer.dump`. :func:`aggregate` turns span files into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time

TRACED = {
    "scenario": (
        "Scenario.from_dict",
        "build_chain",
        "SensingChain.snr_sweep",
        "SensingChain.enhancement_report",
        "SensingChain.sampled_snr_sweep",
    ),
    "source": ("build_coherence_grid", "fwm_moments"),
    "optics": ("quadrant_cut", "quadrant_transmission", "optimize_waist"),
    "plasmonic": ("transmission_at", "modulation_signal"),
    "detection": ("squeezing_report", "optimal_gain", "difference_noise"),
    "analysis": ("threshold_voltage",),
    "montecarlo": (
        "run_verification",
        "sample_photocurrents",
        "sample_pair",
        "thinning_loss",
        "stimulated_fock_moments",
    ),
}
MODULES = tuple(TRACED) + ("cli",)
# Counts that depend only on the inputs: they repeat exactly from one traced
# run to the next, so a change can cite them as counts (with every ``.calls``).
EXACT_REPEAT = (
    "source.build_coherence_grid.calls_per_build_chain",
    "source.fwm_moments.calls_per_build_chain",
    "source.grid_bytes_computed",
    "optics.quadrant_transmission.calls_per_optimize_beam",
    "scenario.grid_cells_axis.median",
    "scenario.grid_cells_axis.max",
    "montecarlo.normals_computed",
    "montecarlo.bytes_computed",
)
SAMPLERS = (
    "montecarlo.sample_photocurrents",
    "montecarlo.sample_pair",
    "montecarlo.thinning_loss",
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Work counts derived from call arguments or results, recorded on the span.
# A sampler draws one float64 normal per probe and conjugate value
# (2 per cell and sample for the per-cell sampler), thinning one per value.
_EXTRA = {
    "montecarlo.sample_photocurrents": lambda a, k, r: {
        "normals": 2 * _arg(a, k, 0, "grid").n_cells * int(_arg(a, k, 2, "n"))
    },
    "montecarlo.sample_pair": lambda a, k, r: {"normals": 2 * int(_arg(a, k, 1, "n"))},
    "montecarlo.thinning_loss": lambda a, k, r: {"normals": int(r.size)},
    "source.build_coherence_grid": lambda a, k, r: {"n_axis": r.n_axis},
    "scenario.build_chain": lambda a, k, r: {"n_axis": r.grid.n_axis},
}


class Tracer:
    """Collects ``[name, start, end, parent, op]`` spans in memory."""

    def __init__(self):
        self.spans = []
        self.extra = {}
        self.op = None
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if extra is not None:
                self.extra[idx] = extra(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        payload = {
            "spans": self.spans,
            "extra": {str(k): v for k, v in self.extra.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        parent = stack[-1] if stack else None
        self.idx = len(self.tracer.spans)
        self.tracer.spans.append(
            [self.name, time.perf_counter(), None, parent, self.tracer.op]
        )
        stack.append(self.idx)
        return self.idx

    def __exit__(self, *exc):
        self.tracer.spans[self.idx][2] = time.perf_counter()
        self.tracer._stack().pop()
        return False


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`TRACED` wherever quadsense looks it up."""
    modules = [importlib.import_module(f"quadsense.{m}") for m in MODULES]
    for modname, names in TRACED.items():
        mod = importlib.import_module(f"quadsense.{modname}")
        for qualname in names:
            label = f"{modname}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(label, raw.__func__)))
                else:
                    setattr(cls, attr, tracer.wrap(label, raw))
                continue
            original = getattr(mod, qualname)
            wrapped = tracer.wrap(label, original)
            for other in modules:
                for name, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, name, wrapped)


def metric_names() -> list:
    """Every name :func:`aggregate` reports, in a fixed order."""
    names = []
    for modname, funcs in TRACED.items():
        for qualname in funcs:
            names += [f"{modname}.{qualname}.calls", f"{modname}.{qualname}.self_s"]
    return names + [
        "source.build_coherence_grid.calls_per_build_chain",
        "source.fwm_moments.calls_per_build_chain",
        "source.grid_bytes_computed",
        "optics.quadrant_transmission.calls_per_optimize_beam",
        "scenario.grid_cells_axis.median",
        "scenario.grid_cells_axis.max",
        "montecarlo.normals_computed",
        "montecarlo.bytes_computed",
        "montecarlo.normals_per_s",
    ]


def _has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def aggregate(payloads: list) -> dict:
    """Per-layer metrics from the span dumps of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; children of one span run one after another on its thread,
    so their durations do not overlap.
    """
    calls = {}
    self_s = {}
    grid_calls_in_chain = fwm_calls_in_chain = chains = 0
    qt_calls_in_beam = beam_ops = 0
    grid_bytes = normals = 0
    sampler_s = 0.0
    chain_axes = []
    for payload in payloads:
        spans = payload["spans"]
        extra = {int(k): v for k, v in payload["extra"].items()}
        child_s = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent is not None:
                child_s[parent] += end - start
        beam_ops += sum(1 for s in spans if s[0] == "cli.optimize-beam")
        for idx, (name, start, end, parent, op) in enumerate(spans):
            if name.startswith("cli."):
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[idx]
            info = extra.get(idx, {})
            if name == "scenario.build_chain":
                chains += 1
                if "n_axis" in info:  # the calibration returned a chain
                    chain_axes.append(info["n_axis"])
            elif name == "source.build_coherence_grid":
                # coords plus the probe and conjugate strip weights, float64.
                grid_bytes += 3 * 8 * info["n_axis"]
                grid_calls_in_chain += _has_ancestor(spans, idx, "scenario.build_chain")
            elif name == "source.fwm_moments":
                fwm_calls_in_chain += _has_ancestor(spans, idx, "scenario.build_chain")
            elif name == "optics.quadrant_transmission":
                qt_calls_in_beam += op == "optimize-beam"
            if name in SAMPLERS:
                normals += info["normals"]
                sampler_s += end - start

    out = {}
    for modname, funcs in TRACED.items():
        for qualname in funcs:
            label = f"{modname}.{qualname}"
            out[f"{label}.calls"] = calls.get(label, 0)
            out[f"{label}.self_s"] = self_s.get(label, 0.0)
    out.update(
        {
            "source.build_coherence_grid.calls_per_build_chain": (
                grid_calls_in_chain / chains if chains else 0.0
            ),
            "source.fwm_moments.calls_per_build_chain": (
                fwm_calls_in_chain / chains if chains else 0.0
            ),
            "source.grid_bytes_computed": grid_bytes,
            "optics.quadrant_transmission.calls_per_optimize_beam": (
                qt_calls_in_beam / beam_ops if beam_ops else 0.0
            ),
            "scenario.grid_cells_axis.median": (
                statistics.median(chain_axes) if chain_axes else 0
            ),
            "scenario.grid_cells_axis.max": max(chain_axes, default=0),
            "montecarlo.normals_computed": normals,
            "montecarlo.bytes_computed": 8 * normals,
            "montecarlo.normals_per_s": normals / sampler_s if sampler_s else 0.0,
        }
    )
    return out
