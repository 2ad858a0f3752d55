"""Per-layer tracing of the anharmonic package from outside it.

Every public function of the seven layer modules (a module-level function whose
name has no leading underscore) is replaced, for the length of a ``patched``
block, by a wrapper that records one span per call: name, start, end, the
index of the enclosing span, and the benchmark operation that caused it.  The
package binds names with ``from .x import y``, so the wrapper is installed at
every module attribute that holds the original function, the defining module
included; calls inside the package then reach the wrapper exactly as the
benchmark's own calls do.  Arguments and return values pass through untouched,
so traced results are bit-identical to untraced ones.

Work counts come from return values: iterations and grid size from
``iterate_grid``, points from each ``Trajectory``, levels from ``eigenvalues``.
Accepted RK steps need ``propagate``'s ``trace`` rows, which cost time to
collect, so they are counted in a separate pass (``rk_step_counter``) that is
never timed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("model", "action", "integrate", "volterra", "spectral", "geometry", "checks")

# PathFrame methods that do real work.  The accessors point and sqrt_v are left
# unwrapped: cumulative_s calls them once per Gauss node, and a span each would
# cost more than the work it measures.
PATHFRAME_METHODS = ("__init__", "forcing", "cumulative_s", "reduced")

# metric -> span names whose outermost occurrences are summed
TIME_METRICS = {
    "spectral.determinant_s": ("spectral.spectral_determinant",),
    "spectral.eigenvalues_s": ("spectral.eigenvalues",),
    "spectral.r_zero_s": ("spectral.r_zero",),
    "spectral.sector_wronskian_s": ("spectral.sector_wronskian",),
    "integrate.propagate_s": ("integrate.propagate",),
    "integrate.sibuya_seed_s": ("integrate.sibuya_seed",),
    "integrate.frobenius_eval_s": ("integrate.frobenius_eval",),
    "integrate.choose_x_max_s": ("integrate.choose_x_max",),
    "volterra.iterate_grid_s": ("volterra.iterate_grid",),
    "volterra.error_functionals_s": ("volterra.error_functionals",),
    "volterra.volterra_solve_s": ("volterra.volterra_solve",),
    "action.wkb_phase_s": ("action.wkb_phase",),
    "action.pathframe_s": tuple("action.PathFrame." + m for m in PATHFRAME_METHODS),
    "geometry.check_admissible_s": ("geometry.check_admissible",),
    "geometry.trace_trajectory_s": ("geometry.trace_trajectory",),
    "geometry.stokes_complex_s": ("geometry.stokes_complex",),
    "model.turning_points_s": ("model.turning_points",),
    "checks.measured_wkb_deviation_s": ("checks.measured_wkb_deviation",),
}

# metric -> span name whose calls are counted
CALL_METRICS = {
    "spectral.determinant_calls": "spectral.spectral_determinant",
    "integrate.propagate_calls": "integrate.propagate",
    "integrate.sibuya_seed_calls": "integrate.sibuya_seed",
    "volterra.iterate_grid_calls": "volterra.iterate_grid",
    "action.wkb_phase_calls": "action.wkb_phase",
    "action.pathframe_forcing_calls": "action.PathFrame.forcing",
    "geometry.trace_trajectory_calls": "geometry.trace_trajectory",
    "model.turning_points_calls": "model.turning_points",
}

# counts read from return values, reported as they are
RESULT_COUNTS = ("volterra.iterations", "volterra.grid_nodes", "volterra.kernel_mb",
                 "geometry.trace_points")

DERIVED_METRICS = ("spectral.determinant_calls_per_level", "integrate.rk_steps",
                   "integrate.us_per_step", "trace.overhead_s", "trace.spans")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    return (list(TIME_METRICS) + list(CALL_METRICS) + list(RESULT_COUNTS)
            + list(DERIVED_METRICS) + [f"{layer}.self_s" for layer in LAYERS])


def _count_levels(counts: Counter, out) -> None:
    counts["levels"] += len(out)


def _count_grid(counts: Counter, out) -> None:
    z, iterations = out
    n = len(z)
    counts["volterra.iterations"] += iterations
    counts["volterra.grid_nodes"] += n
    # the dense complex kernel matrix is 16 n^2 bytes
    counts["volterra.kernel_mb"] = max(counts["volterra.kernel_mb"], 16.0 * n * n / 2 ** 20)


def _count_points(counts: Counter, out) -> None:
    counts["geometry.trace_points"] += len(out.points)


RESULT_COUNTERS = {
    "spectral.eigenvalues": _count_levels,
    "volterra.iterate_grid": _count_grid,
    "geometry.trace_trajectory": _count_points,
}


def _targets(package) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every wrapped callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", None, name, obj))
    frame_cls = importlib.import_module(f"{package.__name__}.action").PathFrame
    for meth in PATHFRAME_METHODS:
        out.append((f"action.PathFrame.{meth}", frame_cls, meth, frame_cls.__dict__[meth]))
    return out


@contextmanager
def patched(package, make_wrapper):
    """Install make_wrapper(span_name, fn) at every binding of each target.

    A wrapper that returns fn itself leaves that target alone.  Every binding
    is restored on exit, also when the block raises.
    """
    targets = _targets(package)  # imports every layer before bindings are searched
    prefix = package.__name__ + "."
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package.__name__ or name.startswith(prefix))]
    undo: list[tuple[object, str, object]] = []
    try:
        for span, owner, attr, fn in targets:
            wrapper = make_wrapper(span, fn)
            if wrapper is fn:
                continue
            if owner is not None:
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, fn))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, fn))
        yield
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


class Tracer:
    """In-memory span log: rows (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        count = RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if count is not None:
                count(counts, out)
            return out

        return traced

    def metrics(self, rk_steps: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        calls: Counter = Counter()
        for name, start, end, parent, _ in spans:
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, _), covered in zip(spans, child_time):
            self_s[name.split(".", 1)[0]] += end - start - covered

        out: dict[str, float] = dict.fromkeys(TIME_METRICS, 0.0)
        metric_of = {name: metric for metric, group in TIME_METRICS.items() for name in group}
        for name, start, end, parent, _ in spans:
            metric = metric_of.get(name)
            if metric is not None and not self._inside(parent, TIME_METRICS[metric]):
                out[metric] += end - start
        for metric, name in CALL_METRICS.items():
            out[metric] = calls[name]
        for metric in RESULT_COUNTS:
            out[metric] = self.counts[metric]
        levels = self.counts["levels"]
        out["spectral.determinant_calls_per_level"] = (
            out["spectral.determinant_calls"] / levels if levels else 0.0)
        out["integrate.rk_steps"] = rk_steps
        out["integrate.us_per_step"] = (
            1e6 * out["integrate.propagate_s"] / rk_steps if rk_steps else 0.0)
        out["trace.overhead_s"] = overhead_s
        out["trace.spans"] = len(spans)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def _inside(self, index: int, group) -> bool:
        while index >= 0:
            name, _, _, parent, _ = self.spans[index]
            if name in group:
                return True
            index = parent
        return False


def rk_step_counter(steps: list[int]):
    """make_wrapper for ``patched`` that counts propagate's accepted steps.

    Each call gets a fresh ``trace`` list and adds its length to steps[0];
    the integration itself is unchanged, since trace rows are only appended.
    """
    def make(name: str, fn):
        if name != "integrate.propagate":
            return fn
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            rows = bound.arguments.get("trace")
            if rows is None:
                rows = bound.arguments["trace"] = []
            before = len(rows)
            out = fn(*bound.args, **bound.kwargs)
            steps[0] += len(rows) - before
            return out

        return counting

    return make
