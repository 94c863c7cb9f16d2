"""Spans recorded from outside the program, and the per-layer metrics derived from them.

The tracer replaces each public function of the package's modules with a
wrapper under every name a caller looks it up by (`giant_atom.spectral.
characteristic_fn`, `giant_atom.field.beta_at_many`, ...), so calls between
modules are caught as well as calls from the benchmark.  A layer is the
module that defines the function.  Spans are kept in memory; a span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import statistics
import time

import numpy as np

LAYERS = ("core", "dde", "spectral", "darkstates", "field", "continuum", "cli")

# what a call of each function counts as work, read from its arguments and result
COUNTERS = {
    "characteristic_fn": lambda args, res: np.size(res),
    "characteristic_deriv": lambda args, res: np.size(res),
    "beta_at_many": lambda args, res: np.size(res),
    "beta_from_poles": lambda args, res: np.size(res),
    "integrate_beta": lambda args, res: (args[0].n_legs, (len(res.samples) - 1) // 2,
                                         res.t_max, res.samples.nbytes),
    "find_poles": lambda args, res: (len(res), len(res.flagged_cells)),
    "intensity_map": lambda args, res: sum(len(frame.values) for frame in res),
    "find_pairs": lambda args, res: len(res),
    "scan_lattice": lambda args, res: len(res.dots),
}

# span fields
SITE, FUNC, LAYER, PARENT, OUTER, START, END, COUNT = range(8)


class Tracer:
    """Installs span-recording wrappers and takes them out again."""

    def __init__(self):
        self.modules = [importlib.import_module("giant_atom")] + [
            importlib.import_module(f"giant_atom.{layer}") for layer in LAYERS]
        self.targets = {}
        for layer, module in zip(LAYERS, self.modules[1:]):
            names = ["main"] if layer == "cli" else module.__all__
            for name in names:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    self.targets[obj] = layer
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active = dict.fromkeys(LAYERS, 0)
        self._patched: list[tuple] = []

    def install(self) -> None:
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self.targets:
                    site = f"{module.__name__}.{attr}"
                    setattr(module, attr, self._wrap(obj, site, self.targets[obj]))
                    self._patched.append((module, attr, obj))

    def restore(self) -> None:
        """Put every original function back, and fail loudly if any wrapper is left."""
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()
        left = [f"{module.__name__}.{attr}" for module in self.modules
                for attr, obj in vars(module).items() if hasattr(obj, "_perfbench_site")]
        if left:
            raise RuntimeError(f"tracer left wrappers in place: {', '.join(left)}")

    def _wrap(self, fn, site, layer):
        spans, stack, active = self.spans, self._stack, self._active
        func = fn.__name__
        counter = COUNTERS.get(func)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [site, func, layer, stack[-1] if stack else -1, active[layer] == 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            active[layer] += 1
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                active[layer] -= 1
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, result)
            return result

        wrapper._perfbench_site = site
        return wrapper


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[list], wall_s: float, csv_rows: int, csv_bytes: int,
                  max_residual: float) -> dict[str, float]:
    """Per-layer metrics of one traced round of a workload."""
    dur = [(s[END] - s[START]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy_s = dict.fromkeys(LAYERS, 0.0)
    by_func = collections.defaultdict(list)
    for i, s in enumerate(spans):
        self_s[s[LAYER]] += dur[i] - child[i]
        if s[OUTER]:
            busy_s[s[LAYER]] += dur[i]
        by_func[s[FUNC]].append(i)

    def total(func, part=None, site=None, where=None):
        """Summed time and count of the spans of one function."""
        t, c = 0.0, 0
        for i in by_func[func]:
            s = spans[i]
            if (site is None or s[SITE] == site) and (where is None or where(s)):
                t += dur[i]
                if s[COUNT]:  # a call that raised counted nothing
                    c += s[COUNT] if part is None else s[COUNT][part]
        return t, c

    m = {}
    m["cli.self_s"] = self_s["cli"]
    m["cli.csv_rows"] = csv_rows
    m["cli.csv_mb"] = csv_bytes / 1e6
    m["cli.us_per_row"] = _ratio(self_s["cli"], csv_rows, 1e6)

    march_s, steps = total("integrate_beta", part=1)
    m["dde.busy_s"] = busy_s["dde"]
    m["dde.steps"] = steps
    marches = [spans[i][COUNT] for i in by_func["integrate_beta"] if spans[i][COUNT]]
    m["dde.intervals"] = sum(c[2] for c in marches)
    m["dde.us_per_step"] = _ratio(march_s, steps, 1e6)
    for n_legs in (3, 10, 30):
        t, c = total("integrate_beta", part=1, where=lambda s: s[COUNT] and s[COUNT][0] == n_legs)
        m[f"dde.us_per_step.N{n_legs}"] = _ratio(t, c, 1e6)
    m["dde.trace_mb"] = max((c[3] for c in marches), default=0) / 1e6
    interp_s, interp = total("beta_at_many")
    m["dde.interp_points"] = interp
    m["dde.ns_per_interp_point"] = _ratio(interp_s, interp, 1e9)

    f_s, f_points = total("characteristic_fn")
    fp_s, fp_points = total("characteristic_deriv")
    m["core.F_points"] = f_points
    m["core.Fp_points"] = fp_points
    m["core.busy_s"] = busy_s["core"]
    m["core.ns_per_point"] = _ratio(f_s + fp_s, f_points + fp_points, 1e9)

    _, roots = total("find_poles", part=0)
    _, flagged = total("find_poles", part=1)
    _, search_points = total("characteristic_fn", site="giant_atom.spectral.characteristic_fn")
    m["spectral.busy_s"] = busy_s["spectral"]
    m["spectral.self_s"] = self_s["spectral"]
    m["spectral.roots"] = roots
    m["spectral.F_points_per_root"] = _ratio(search_points, roots)
    m["spectral.flagged_seeds"] = flagged
    m["spectral.series_s"] = total("beta_from_poles")[0]

    quad = set(by_func["waveguide_probability"])
    map_s, map_points = total("intensity_map")
    quad_s = sum(dur[i] for i in quad.union(by_func["total_probability"]) if spans[i][OUTER])
    m["field.map_s"] = map_s
    m["field.map_points"] = map_points
    m["field.quad_s"] = quad_s
    m["field.quad_calls"] = len(quad)
    m["field.interp_points_per_quad"] = _ratio(
        total("beta_at_many", where=lambda s: s[PARENT] in quad)[1], len(quad))
    m["field.self_s"] = self_s["field"]
    m["field.max_residual"] = max_residual

    m["darkstates.busy_s"] = busy_s["darkstates"]
    m["darkstates.pairs"] = total("find_pairs")[1] + total("scan_lattice")[1]
    m["continuum.busy_s"] = busy_s["continuum"]
    m["bench.span_coverage_frac"] = _ratio(sum(self_s.values()), wall_s)
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
