"""Print the cost of the march, field quadrature, CSV export, root search, walk and pole series.

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
diagnostic pays, its set-up included.  Each of the two is followed by its
minor page faults per call (ru_minflt, the median over the timed runs), since
memory that glibc hands back to the system between calls is faulted back in
by the next one, which moves the time from one run order to another.  The
csv table times each table the way `simulate` writes it, per row, at
README's point (N = 3, gamma_tau/2pi = 0.018, omega_tau/2pi = 0.3177449,
M = 256) up to t_max: cli._write_csv on the blocks of cli._beta_blocks
(102,401 rows at t_max = 200) and of cli._pxt_blocks (201 frames of 441
rows, sampled by field.intensity_map), the blocks made inside the timed
call; the trace is marched untimed.  The readme table times README's
"Command line" commands as a user runs them, milliseconds per fresh process:
`python -c pass` (pass), `python -c "import numpy"` (numpy), `python -c
"import giant_atom.cli"` (cli), then each README command, and simulate with
--pxt (pxt), as `python -m giant_atom.cli ... --out-dir <tmp>`; the child's
PYTHONPATH puts the timed package's src directory first.  The children run on
bytecode, as an installed package does: PYTHONPYCACHEPREFIX points them at a
temporary directory, PYTHONDONTWRITEBYTECODE is dropped from their
environment, and each row makes one untimed warm run per side before its timed
runs, so no timed run compiles a module.  The poles table
times characteristic_fn and characteristic_deriv together on 4,096 fixed
points of [-12, 0.5] x [-100, 100] at N = 3, 10 and 30, in nanoseconds per
point, and one find_poles call, re_min = -12, in milliseconds at the
benchmark's spectrum-wide windows (N = 3, 5, 10 with halfwidths 100, 50,
25) at gamma_tau/2pi = 0.03 and omega_tau/2pi = 0.3; it calls public
functions only, so any revision's package can be timed.  The walk table times
one spectral._winding_number call, in milliseconds, on the first rectangle
find_poles walks at each of those windows, [-12, gamma_tau] x [-omega_tau +-
halfwidth] at spacing pi/(4N), with the poles table's gamma_tau and
omega_tau; it times a revision whose _winding_number takes (params, rect,
spacing).  The series table times one beta_from_poles call, in milliseconds,
at the 4,001 times the benchmark's spectrum-wide jobs use, on the pole set of
each of the six seed-1 spectrum-wide jobs (perfbench/workloads.py's
parameters, each pole set found untimed by the timed package's find_poles).
BLAS threads are whatever the environment sets.  --tables picks the tables to
print, all seven by default.

Every cell is timed --repeat times and prints the best.  With --against REF
the package at git revision REF (git archive REF src/giant_atom, imported as
giant_atom_ref) is timed beside the work tree's in the same process: each
cell alternates calls between the two, REF's first, and prints the min and
median of REF's calls, then of the work tree's, then the ratio of the
medians, work tree over REF; the readme table's REF children run the
extracted archive's package.  The machine's fast and slow phases then fall on
both sides alike, where two separate runs can differ by 2x.

    python .github/layer_timing.py
    python .github/layer_timing.py --n-legs 3 --steps-per-tau 16 --t-max 1000
    python .github/layer_timing.py --against HEAD~1
    python .github/layer_timing.py --tables readme --repeat 9 --against HEAD~1
    python .github/layer_timing.py --tables poles --repeat 11 --against HEAD~1
    python .github/layer_timing.py --tables walk --repeat 11 --against HEAD~1
    python .github/layer_timing.py --tables series --repeat 11 --against HEAD~1

Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = ["src", str(ROOT / ".github"), str(ROOT / "perfbench")]
import giant_atom.cli  # noqa: E402
import workloads  # noqa: E402
from csv_ledger import readme_commands  # noqa: E402

PARTS = ("ref_min", "ref_med", "min", "med", "ratio")
TABLES = ("march", "field", "csv", "readme", "poles", "walk", "series")
F_LEGS = (3, 10, 30)
POLE_WINDOWS = ((3, 100.0), (5, 50.0), (10, 25.0))  # perfbench's spectrum-wide


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


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _cell(calls, scale: float, repeat: int, count: int = 0) -> list[float]:
    """Time calls, one per package, alternating between them repeat times: the
    best, scaled, or with two packages the min and median of each and the
    ratio of the medians.  With count, each package's median minor page
    faults (ru_minflt) per call follow, a timed call making count calls."""
    seconds = [[] for _ in calls]
    faults = [[] for _ in calls]
    for _ in range(repeat):
        for call, side, flt in zip(calls, seconds, faults):
            before = _minflt()
            start = time.perf_counter()
            call()
            side.append(time.perf_counter() - start)
            flt.append(_minflt() - before)
    per_call = [statistics.median(flt) / count for flt in faults] if count else []
    if len(calls) == 1:
        return [min(seconds[0]) * scale] + per_call
    ref, head = ([min(side) * scale, statistics.median(side) * scale] for side in seconds)
    return ref + head + [head[1] / ref[1]] + per_call


def _table(title: str, keys: list[str], names: list[str], rows, packages, repeat: int,
           counts: list[int] | None = None) -> None:
    """Print a table.  Each row is its key values, a factory that makes a
    package's calls, one per name, and the scale of each name's times.  With
    counts, the calls each name's timed call makes, each name's columns end
    with each package's minor page faults per call."""
    parts = list(PARTS) if len(packages) > 1 else [""]
    if counts:
        parts += ["ref_flt", "flt"] if len(packages) > 1 else ["flt"]
    counts = counts or [0] * len(names)
    names = [f"{name}:{part}" if part else name for name in names for part in parts]
    width = max(6, *(len(str(k)) for key, _, _ in rows for k in key))
    print(title)
    print(" ".join([f"{key:>{width}}" for key in keys] + [f"{name:>10}" for name in names]))
    for key, factory, scales in rows:
        columns = zip(*(factory(package) for package in packages))
        values = [v for calls, scale, count in zip(columns, scales, counts)
                  for v in _cell(calls, scale, repeat, count)]
        print(" ".join([f"{k:>{width}}" for k in key] + [f"{v:10.3f}" for v in values]))


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


def _readme_rows(out_dir: str) -> list[tuple[str, list[str]]]:
    """The readme table's row names and interpreter arguments."""
    commands = readme_commands()
    commands += [argv + ["--pxt"] for argv in commands if argv[0] == "simulate"]
    return [("pass", ["-c", "pass"]), ("numpy", ["-c", "import numpy"]),
            ("cli", ["-c", "import giant_atom.cli"])] + [
        ("pxt" if "--pxt" in argv else argv[0],
         ["-m", "giant_atom.cli", *(out_dir if arg == "out/" else arg for arg in argv)])
        for argv in commands]


def _process_call(package, args: list[str], cwd: str, pycache: str):
    """A fresh interpreter running args with package's src directory first on
    its PYTHONPATH, reading and writing bytecode under pycache; it runs once,
    untimed, before it is returned, so that the timed runs read bytecode."""
    src = str(Path(package.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def call():
        subprocess.run([sys.executable, *args], cwd=cwd, env=env, check=True,
                       stdout=subprocess.DEVNULL)

    call()
    return call


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


def _poles_params(package, n_legs: int):
    return package.GiantAtomParams(n_legs, 2.0 * math.pi * 0.03, 2.0 * math.pi * 0.3)


def _f_call(package, n_legs: int, s: np.ndarray):
    """F and F' at the points s, in one timed call."""
    params = _poles_params(package, n_legs)
    return lambda: (package.characteristic_fn(params, s), package.characteristic_deriv(params, s))


def _poles_call(package, n_legs: int, halfwidth: float):
    params = _poles_params(package, n_legs)
    return lambda: package.find_poles(params, re_min=-12.0, im_halfwidth=halfwidth)


def _walk_call(package, n_legs: int, halfwidth: float):
    """One winding walk on find_poles' first rectangle at a spectrum-wide window."""
    params = _poles_params(package, n_legs)
    center = -params.omega_tau
    rect = [-12.0, params.gamma_tau, center - halfwidth, center + halfwidth]
    return lambda: package.spectral._winding_number(params, rect, math.pi / (4.0 * n_legs))


def _series_call(package, inputs: dict, times: np.ndarray):
    """The pole series at times on a spectrum-wide job's pole set, found untimed."""
    params = package.GiantAtomParams(inputs["n_legs"], inputs["gamma_tau"], inputs["omega_tau"])
    poles = package.find_poles(params, re_min=-12.0, im_halfwidth=inputs["im_halfwidth"])
    return lambda: package.beta_from_poles(poles, times)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-legs", type=int, nargs="+", default=[3, 10, 30, 100])
    parser.add_argument("--steps-per-tau", type=int, nargs="+", default=[16, 256, 2048])
    parser.add_argument("--t-max", type=float, default=200.0)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--against", metavar="REF", default=None,
                        help="also time the package at this git revision, alternating calls")
    parser.add_argument("--tables", nargs="+", choices=TABLES, default=TABLES)
    args = parser.parse_args(argv)
    t_max, repeat, tables = args.t_max, args.repeat, args.tables
    with tempfile.TemporaryDirectory() as tmp:
        packages = [giant_atom]
        how = f"best of {repeat}"
        if args.against is not None:
            packages.insert(0, _load_ref(args.against, tmp))
            how = f"{repeat} alternating calls per side, {args.against} against the work tree"
        try:
            if "march" in tables:
                _table(f"integrate_beta, us per tau interval (t_max = {t_max:g}, {how})",
                       ["N", "M"], ["us"],
                       [((n, m), lambda p, n=n, m=m: [_march_call(p, n, m, t_max)],
                         [1e6 / t_max]) for n in args.n_legs for m in args.steps_per_tau],
                       packages, repeat)
            if "field" in tables:
                _table(f"field quadrature, ms per call (t = {t_max - 0.5:g}, M = 64, {how})",
                       ["N"], ["walk", "per_tau"],
                       [((n,), lambda p, n=n: _field_calls(p, n, t_max),
                         [1e3, 1e3 / (int(t_max) + 1)]) for n in args.n_legs], packages,
                       repeat, counts=[1, int(t_max) + 1])
            if "csv" in tables:
                points = {p: _readme_point(p, t_max) for p in packages}
                _, trace, grid = points[giant_atom]
                path = os.path.join(tmp, "table.csv")
                sizes = (("beta", len(trace.samples)), ("pxt", len(grid.xs) * len(grid.times)))
                _table(f"csv export, us per row (t_max = {t_max:g}, {how})",
                       ["table", "rows"], ["us"],
                       [((name, rows), lambda p, name=name: [_csv_call(p, points[p], name, path)],
                         [1e6 / rows]) for name, rows in sizes], packages, repeat)
            if "readme" in tables:
                out_dir, pycache = os.path.join(tmp, "out"), os.path.join(tmp, "pycache")
                _table(f"README commands, ms per fresh process on bytecode (one untimed warm "
                       f"run per side, {how})", ["command"], ["ms"],
                       [((name,), lambda p, child=child: [_process_call(p, child, tmp, pycache)],
                         [1e3]) for name, child in _readme_rows(out_dir)], packages, repeat)
            if "poles" in tables:
                rng = np.random.default_rng(0)
                s = rng.uniform(-12.0, 0.5, 4096) + 1j * rng.uniform(-100.0, 100.0, 4096)
                _table(f"F plus F', ns per point ({len(s)} points, {how})", ["N"], ["ns"],
                       [((n,), lambda p, n=n: [_f_call(p, n, s)], [1e9 / len(s)])
                        for n in F_LEGS], packages, repeat)
                _table(f"find_poles, ms per call (re_min = -12, {how})", ["N", "halfwidth"],
                       ["ms"], [((n, f"{hw:g}"), lambda p, n=n, hw=hw: [_poles_call(p, n, hw)],
                                 [1e3]) for n, hw in POLE_WINDOWS], packages, repeat)
            if "walk" in tables:
                _table(f"winding walk, ms per call (re_min = -12, {how})", ["N", "halfwidth"],
                       ["ms"], [((n, f"{hw:g}"), lambda p, n=n, hw=hw: [_walk_call(p, n, hw)],
                                 [1e3]) for n, hw in POLE_WINDOWS], packages, repeat)
            if "series" in tables:
                times = np.linspace(5.0, 60.0, 4001)
                _table(f"pole series, ms per call ({len(times)} times, {how})", ["job"], ["ms"],
                       [((job.name,), lambda p, job=job: [_series_call(p, job.inputs, times)],
                         [1e3]) for job in workloads.build("spectrum-wide", 1, tmp)],
                       packages, repeat)
        finally:
            for name in [name for name in sys.modules if name.startswith("giant_atom_ref")]:
                del sys.modules[name]
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
