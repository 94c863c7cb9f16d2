"""Print the DDE march's, the field quadrature's and the CSV export's cost.

The march table times integrate_beta over --t-max at N*gamma_tau = 0.1 and
omega_tau = 1 and divides by t_max, so set-up (the trace, the chunk map) is
included; the coupling is weak, so every M from 16 up gives a stable step.
The field table marches one trace per N at gamma_tau = 0.4/N**2,
omega_tau/2pi = 3.3 and M = 64 up to t_max, untimed, then times one call of
field.waveguide_probability at t = t_max - 0.5, the walk column.  Each run is
on a new trace object with the same samples, so the light-cone walk runs from
k = 0 every time rather than resuming where the previous run stopped.  The
last column, per_tau, is the mean time of one field.total_probability call
over the whole times 0 .. floor(t_max) in ascending order on one new trace
object: the walk resumes from call to call, so this is what a per-tau
diagnostic pays, its set-up included.  The csv table times each table the
way `simulate` writes it, per row, at README's point (N = 3, gamma_tau/2pi =
0.018, omega_tau/2pi = 0.3177449, M = 256) up to t_max: cli._write_csv on
the blocks of cli._beta_blocks (102,401 rows at t_max = 200) and of
cli._pxt_blocks (201 frames of 441 rows, sampled by field.intensity_map),
the blocks made inside the timed call; the trace is marched untimed.  BLAS
threads are whatever the environment sets.

Every cell is timed --repeat times and prints the best.  With --against REF
the package at git revision REF (git archive REF src/giant_atom, imported as
giant_atom_ref) is timed beside the work tree's in the same process: each
cell alternates calls between the two, REF's first, and prints the min and
median of REF's calls, then of the work tree's, then the ratio of the
medians, work tree over REF.  The machine's fast and slow phases then fall on
both sides alike, where two separate runs can differ by 2x.

    python .github/layer_timing.py
    python .github/layer_timing.py --n-legs 3 --steps-per-tau 16 --t-max 1000
    python .github/layer_timing.py --against HEAD~1

Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, "src")
import giant_atom.cli  # noqa: E402

PARTS = ("ref_min", "ref_med", "min", "med", "ratio")


def _load_ref(ref: str, tmp: str):
    """The package at git revision ref, extracted under tmp and imported as
    giant_atom_ref, its cli module included."""
    archive = subprocess.run(["git", "archive", ref, "src/giant_atom"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    root = os.path.join(tmp, "src", "giant_atom")
    spec = importlib.util.spec_from_file_location(
        "giant_atom_ref", os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package  # its relative imports resolve inside it
    spec.loader.exec_module(package)
    importlib.import_module("giant_atom_ref.cli")
    return package


def _cell(calls, scale: float, repeat: int) -> list[float]:
    """Time calls, one per package, alternating between them repeat times: the
    best, scaled, or with two packages the min and median of each and the
    ratio of the medians."""
    seconds = [[] for _ in calls]
    for _ in range(repeat):
        for call, side in zip(calls, seconds):
            start = time.perf_counter()
            call()
            side.append(time.perf_counter() - start)
    if len(calls) == 1:
        return [min(seconds[0]) * scale]
    ref, head = ([min(side) * scale, statistics.median(side) * scale] for side in seconds)
    return ref + head + [head[1] / ref[1]]


def _table(title: str, keys: list[str], names: list[str], rows, packages, repeat: int) -> None:
    """Print a table.  Each row is its key values, a factory that makes a
    package's calls, one per name, and the scale of each name's times."""
    if len(packages) > 1:
        names = [f"{name}:{part}" for name in names for part in PARTS]
    print(title)
    print(" ".join([f"{key:>6}" for key in keys] + [f"{name:>10}" for name in names]))
    for key, factory, scales in rows:
        columns = zip(*(factory(package) for package in packages))
        values = [v for calls, scale in zip(columns, scales) for v in _cell(calls, scale, repeat)]
        print(" ".join([f"{k:>6}" for k in key] + [f"{v:10.3f}" for v in values]))


def _readme_point(package, t_max: float):
    """README's simulate point, its trace to t_max and pxt.csv's grid."""
    params = package.GiantAtomParams(3, 2.0 * math.pi * 0.018, 2.0 * math.pi * 0.3177449)
    trace = package.integrate_beta(params, t_max)
    grid = package.field.GridSpec(-10.0, 12.0, 0.05, times=tuple(
        float(tau) for tau in np.linspace(0.0, trace.t_max, 201)))
    return params, trace, grid


def _csv_call(package, point, name: str, path: str):
    """The timed call of the csv table's row name at a _readme_point: its
    blocks and the writer."""
    params, trace, grid = point
    blocks = {"beta": (["t", "re_beta", "im_beta", "prob"],
                       lambda: package.cli._beta_blocks(trace, 1)),
              "pxt": (["t", "x", "p"], lambda: package.cli._pxt_blocks(params, trace, grid))}
    header, make = blocks[name]
    return lambda: package.cli._write_csv(path, header, make())


def _march_call(package, n_legs: int, m: int, t_max: float):
    params = package.GiantAtomParams(n_legs, 0.1 / n_legs, 1.0)
    return lambda: package.integrate_beta(params, t_max, m)


def _field_calls(package, n_legs: int, t_max: float):
    """The field table's walk and per_tau calls, on one trace marched untimed."""
    params = package.GiantAtomParams(n_legs, 0.4 / n_legs ** 2, 2.0 * math.pi * 3.3)
    trace = package.integrate_beta(params, t_max, 64)

    def walk():
        package.field.waveguide_probability(params, dataclasses.replace(trace), t_max - 0.5)

    def per_tau():
        fresh = dataclasses.replace(trace)
        for tau in range(int(t_max) + 1):
            package.field.total_probability(params, fresh, float(tau))

    return walk, per_tau


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-legs", type=int, nargs="+", default=[3, 10, 30, 100])
    parser.add_argument("--steps-per-tau", type=int, nargs="+", default=[16, 256, 2048])
    parser.add_argument("--t-max", type=float, default=200.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--against", metavar="REF", default=None,
                        help="also time the package at this git revision, alternating calls")
    args = parser.parse_args(argv)
    t_max, repeat = args.t_max, args.repeat
    with tempfile.TemporaryDirectory() as tmp:
        packages = [giant_atom]
        how = f"best of {repeat}"
        if args.against is not None:
            packages.insert(0, _load_ref(args.against, tmp))
            how = f"{repeat} alternating calls per side, {args.against} against the work tree"
        try:
            _table(f"integrate_beta, us per tau interval (t_max = {t_max:g}, {how})",
                   ["N", "M"], ["us"],
                   [((n, m), lambda p, n=n, m=m: [_march_call(p, n, m, t_max)], [1e6 / t_max])
                    for n in args.n_legs for m in args.steps_per_tau], packages, repeat)
            _table(f"field quadrature, ms per call (t = {t_max - 0.5:g}, M = 64, {how})",
                   ["N"], ["walk", "per_tau"],
                   [((n,), lambda p, n=n: _field_calls(p, n, t_max),
                     [1e3, 1e3 / (int(t_max) + 1)]) for n in args.n_legs], packages, repeat)
            points = {p: _readme_point(p, t_max) for p in packages}
            _, trace, grid = points[giant_atom]
            path = os.path.join(tmp, "table.csv")
            _table(f"csv export, us per row (t_max = {t_max:g}, {how})",
                   ["table", "rows"], ["us"],
                   [((name, rows), lambda p, name=name: [_csv_call(p, points[p], name, path)],
                     [1e6 / rows]) for name, rows in (("beta", len(trace.samples)),
                                                      ("pxt", len(grid.xs) * len(grid.times)))],
                   packages, repeat)
        finally:
            for name in [name for name in sys.modules if name.startswith("giant_atom_ref")]:
                del sys.modules[name]
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
