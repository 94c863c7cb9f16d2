"""Command-line front end: reproducible CSV + manifest exports.

Each subcommand computes its tables and hands them to one writer, which makes
the output directory, writes every table as an RFC-4180-style CSV (header row,
UTF-8, LF line endings, 17 significant digits for floats), then a
manifest.json recording the input parameters, tool version, creation time, a
sha256 checksum of each output and the command's derived values, and prints
one line, "<command>: <summary>, wrote <files> to <dir>".  A result directory
is therefore self-describing and re-runnable.

Exit codes: 0 success, 1 I/O failure, 2 usage or validation error, 3
structural impossibility (e.g. a dark-pair search with two coupling points),
4 solver failure (a root search that disagrees with its winding number or
cannot place its rectangle, a diverging time integration, or a dark-pair
lattice point that fails its own dark-condition check).  Exit 2 covers every
rejected input, each before any output is written; README lists them.
Frequencies on the command line are given in cycles, i.e. as omega_tau/2pi and
gamma_tau/2pi, matching the usual parameter-plane axes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import (TWO_PI, GiantAtomParams, SolverError, StructuralImpossibilityError,
                   check_budget, check_int)
from . import continuum as continuum_mod
from . import darkstates, dde, field, spectral

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_STRUCTURAL = 3
EXIT_SOLVER = 4
# exit code of each error a command may raise, first match wins: a structural
# impossibility is also a ValueError
_EXIT_CODES = {StructuralImpossibilityError: EXIT_STRUCTURAL, ValueError: EXIT_USAGE,
               OSError: EXIT_IO, SolverError: EXIT_SOLVER}


# rows per block of beta.csv; each block is formatted by one string operation
CSV_BLOCK_ROWS = 4096

# Largest sampling grid a command builds in one piece: a profile's x
# positions or a heatmap's x-by-t points (scan lines are held to
# darkstates.MAX_LATTICE_POINTS instead).  A profile is formatted as one CSV
# block, about 200 MB per 2**20 rows, so a profile at this budget needs about
# 0.8 GB.
MAX_GRID_SAMPLES = 2 ** 22


def _column(values: np.ndarray) -> tuple[str, list]:
    """printf spec and Python values of one CSV column, chosen by dtype."""
    kind = values.dtype.kind
    if kind == "b":
        return "%s", ["true" if v else "false" for v in values.tolist()]
    return ("%d" if kind in "iu" else "%.17g"), values.tolist()


def _write_csv(path: str, header: list[str], blocks) -> str:
    """Write a CSV from column blocks and return the sha256 of its bytes.

    Each block is a list of equal-length arrays, one per header column; every
    column's printf spec follows its dtype (bool, integer, else float).
    """
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text: str) -> None:
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        put(",".join(header) + "\n")
        width = len(header)
        for block in blocks:
            rows = len(block[0])
            specs, columns = zip(*map(_column, block))
            flat = [None] * (rows * width)
            for i, values in enumerate(columns):
                flat[i::width] = values
            put((",".join(specs) + "\n") * rows % tuple(flat))
    return digest.hexdigest()


def _write_results(args, tables: dict, derived: dict | None, summary: str) -> None:
    """Write one result directory and print its summary line.

    tables maps each CSV name to (header, blocks), in file order; the manifest
    records every argument but the handler, with non-finite floats as strings.
    """
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = [{"path": name, "sha256": _write_csv(os.path.join(args.out_dir, name), *table)}
               for name, table in tables.items()]
    manifest = {
        "params": {key: str(value) if isinstance(value, float) and not math.isfinite(value)
                   else value for key, value in vars(args).items() if key != "func"},
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    if derived:
        manifest["derived"] = derived
    with open(os.path.join(args.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{args.command}: {summary}, wrote {', '.join(tables)} to {args.out_dir}")


def _beta_blocks(times: np.ndarray, samples: np.ndarray):
    """beta.csv columns in blocks of CSV_BLOCK_ROWS rows."""
    for start in range(0, len(samples), CSV_BLOCK_ROWS):
        b = samples[start:start + CSV_BLOCK_ROWS]
        # bit for bit what abs(b) ** 2 gives on each complex scalar: hypot, then
        # libm pow, which float_power calls per element.  np.abs(b), np.power
        # and array ** 2 square or take a SIMD path, and differ in the last bit.
        prob = np.float_power(np.hypot(b.real, b.imag), 2)
        yield [times[start:start + CSV_BLOCK_ROWS], b.real, b.imag, prob]


def _pxt_blocks(params: GiantAtomParams, trace, grid: field.GridSpec):
    """pxt.csv columns, one block per frame; the frames are sampled only once
    beta.csv is written, so the two never sit in memory together."""
    for f in field.intensity_map(params, trace, grid):
        yield [np.full(len(f.values), f.t), f.xs, f.values]


def _pair_table(pairs, *names: str) -> tuple[list[str], list]:
    """Header and single block of a DarkPair table, one column per named field;
    a name ending in _2pi is that field divided by 2pi."""
    columns = []
    for name in names:
        values = np.array([getattr(pair, name.removesuffix("_2pi")) for pair in pairs])
        columns.append(values / TWO_PI if name.endswith("_2pi") else values)
    return list(names), [columns]


def _grid(what: str, x_min: float, x_max: float, dx: float, frames: int = 1) -> field.GridSpec:
    """The window [x_min, x_max] at spacing dx, after holding its positions
    times frames to MAX_GRID_SAMPLES."""
    grid = field.GridSpec(x_min, x_max, dx)
    check_budget(what, ((x_max - x_min) / dx + 1) * frames, "samples", MAX_GRID_SAMPLES)
    return grid


def integer(text: str) -> int:
    """argparse type of every integer flag.  Each one ends up in float arithmetic,
    where an integer above 2**53 in magnitude is no longer exact or overflows."""
    value = int(text)
    if abs(value) > 2 ** 53:
        raise argparse.ArgumentTypeError("integer magnitude above 2**53")
    return value


def _params_from_args(args) -> GiantAtomParams:
    return GiantAtomParams(n_legs=args.n_legs,
                           gamma_tau=TWO_PI * args.gamma_tau_2pi,
                           omega_tau=TWO_PI * args.omega_tau_2pi)


def _cmd_simulate(args):
    params = _params_from_args(args)
    check_int("stride", args.stride, 1)
    if args.pxt:
        check_int("pxt_t_count", args.pxt_t_count, 1)
        x_min = args.pxt_x_min if args.pxt_x_min is not None else -10.0
        x_max = args.pxt_x_max if args.pxt_x_max is not None else (params.n_legs - 1) + 10.0
        grid = _grid("the heatmap", x_min, x_max, args.pxt_dx, args.pxt_t_count)
    trace = dde.integrate_beta(params, args.t_max, steps_per_tau=args.steps_per_tau)
    tables = {"beta.csv": (["t", "re_beta", "im_beta", "prob"],
                           _beta_blocks(trace.sample_times[::args.stride],
                                        trace.samples[::args.stride]))}
    if args.pxt:
        snap_times = np.linspace(0.0, trace.t_max, args.pxt_t_count)
        tables["pxt.csv"] = (["t", "x", "p"], _pxt_blocks(params, trace, dataclasses.replace(
            grid, times=tuple(float(t) for t in snap_times))))
    return tables, None, f"final |beta|^2 = {abs(trace.samples[-1]) ** 2:.6g}"


def _cmd_poles(args):
    params = _params_from_args(args)
    im_center = TWO_PI * args.im_center_2pi if args.im_center_2pi is not None else None
    poles = spectral.find_poles(params, re_min=args.re_min, im_center=im_center,
                                im_halfwidth=TWO_PI * args.im_halfwidth_2pi)
    tables = {"poles.csv": (["re_s", "im_s", "re_weight", "im_weight"],
                            [[poles.s.real, poles.s.imag,
                              poles.weights.real, poles.weights.imag]])}
    return (tables, {"winding_number": poles.winding, "n_poles": len(poles)},
            f"found {len(poles)} poles (winding {poles.winding})")


def _cmd_dark_search(args):
    pairs = darkstates.find_pairs(args.n_legs, p_max=args.p_max, q_max=args.q_max)
    tables = {"pairs.csv": _pair_table(pairs, "n1", "n2", "p", "q", "n", "omega_tau_2pi",
                                       "gamma_tau_2pi", "beat", "osc_amplitude", "rwa_ok")}
    return tables, {"n_pairs": len(pairs)}, f"{len(pairs)} coexisting pairs"


def _cmd_scan(args):
    scan = darkstates.scan_lattice(args.n_legs,
                                   omega_tau_max=TWO_PI * args.omega_tau_2pi_max,
                                   gamma_tau_max=TWO_PI * args.gamma_tau_2pi_max,
                                   line_samples=args.line_samples)
    tables = {
        "dots.csv": _pair_table(scan.dots, "omega_tau_2pi", "gamma_tau_2pi", "n1", "n2",
                                "osc_amplitude", "rwa_ok"),
        "lines.csv": (["n", "omega_tau_2pi", "gamma_tau_2pi"],
                      ([np.full(len(line.gamma_tau), line.n), line.omega_tau / TWO_PI,
                        line.gamma_tau / TWO_PI] for line in scan.lines)),
    }
    return (tables, {"n_dots": len(scan.dots), "n_lines": len(scan.lines)},
            f"{len(scan.dots)} pair dots and {len(scan.lines)} condition lines")


def _cmd_field(args):
    gamma_tau = TWO_PI * args.gamma_tau_2pi
    omega_tau = darkstates.dark_condition_omega_tau(args.n_legs, args.dark_n, gamma_tau)
    params = GiantAtomParams(n_legs=args.n_legs, gamma_tau=gamma_tau, omega_tau=omega_tau)
    record = field.dark_state_record(params, args.dark_n)
    xs = _grid("the profile", 0.0, args.n_legs - 1, args.x_step).xs
    tables = {"profile.csv": (["x", "p"], [[xs, field.bound_profile(params, args.dark_n, xs)]])}
    derived = {"omega_tau_2pi": omega_tau / TWO_PI, "amplitude": record.amplitude,
               "intensity": record.intensity, "rwa_ok": bool(record.rwa_ok)}
    return (tables, derived, f"dark index {args.dark_n} at omega_tau/2pi = "
            f"{omega_tau / TWO_PI:.6g}, I(n) = {record.intensity:.6g}")


def _cmd_continuum(args):
    gamma_T = args.gamma_t if args.gamma_t is not None else (TWO_PI * args.n) ** 2
    xs = _grid("the profile", 0.0, args.length, args.x_step).xs
    profile = continuum_mod.continuum_profile(gamma_T, args.n, args.length, xs)
    derived = {"gamma_T": gamma_T, "omega_T": TWO_PI * args.n - gamma_T / (TWO_PI * args.n),
               "total_intensity": continuum_mod.continuum_total_intensity(gamma_T, args.n)}
    return ({"profile.csv": (["x", "p"], [[xs, profile]])}, derived,
            f"n = {args.n}, Gamma*T = {gamma_T:.6g}")


def _add_system_flags(sub, *flags: str) -> None:
    """Declare the named system flags, each required."""
    table = {"--n-legs": (integer, "number of coupling points N (>= 2)"),
             "--gamma-tau-2pi": (float, "per-point relaxation, gamma*tau / 2pi"),
             "--omega-tau-2pi": (float, "transition frequency, omega*tau / 2pi")}
    for flag in flags:
        sub.add_argument(flag, type=table[flag][0], required=True, help=table[flag][1])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giant-atom",
        description="Simulate a multi-point emitter in a 1D waveguide and export "
                    "reproducible CSV data files.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", required=True,
                     help="result directory for the CSV files and manifest.json")

    def command(name: str, func, about: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, parents=[out], help=about)
        sub.set_defaults(func=func)
        return sub

    sim = command("simulate", _cmd_simulate, "integrate the delayed amplitude equation")
    _add_system_flags(sim, "--n-legs", "--gamma-tau-2pi", "--omega-tau-2pi")
    sim.add_argument("--t-max", type=float, required=True, help="final time in units of tau")
    sim.add_argument("--steps-per-tau", type=integer, default=dde.DEFAULT_STEPS_PER_TAU)
    sim.add_argument("--stride", type=integer, default=1,
                     help="write every k-th stored sample to beta.csv (k >= 1)")
    sim.add_argument("--pxt", action="store_true",
                     help="also write the field-intensity heatmap pxt.csv")
    sim.add_argument("--pxt-x-min", type=float, default=None)
    sim.add_argument("--pxt-x-max", type=float, default=None)
    sim.add_argument("--pxt-dx", type=float, default=0.05)
    sim.add_argument("--pxt-t-count", type=integer, default=201)

    pol = command("poles", _cmd_poles, "locate complex mode frequencies")
    _add_system_flags(pol, "--n-legs", "--gamma-tau-2pi", "--omega-tau-2pi")
    pol.add_argument("--re-min", type=float, default=spectral.DEFAULT_RE_MIN,
                     help="left edge of the search rectangle (1/tau units, < 0)")
    pol.add_argument("--im-center-2pi", type=float, default=None,
                     help="imaginary-axis centre / 2pi (default: -omega_tau/2pi)")
    pol.add_argument("--im-halfwidth-2pi", type=float, default=2.0)

    dark = command("dark-search", _cmd_dark_search, "enumerate coexisting dark pairs")
    _add_system_flags(dark, "--n-legs")
    dark.add_argument("--p-max", type=integer, default=12)
    dark.add_argument("--q-max", type=integer, default=12)

    scan = command("scan", _cmd_scan, "scan the parameter window for pair dots "
                                      "and single-dark-state lines")
    _add_system_flags(scan, "--n-legs")
    scan.add_argument("--omega-tau-2pi-max", type=float, required=True)
    scan.add_argument("--gamma-tau-2pi-max", type=float, required=True)
    scan.add_argument("--line-samples", type=integer, default=201)

    fld = command("field", _cmd_field, "trapped-field profile of a dark state")
    _add_system_flags(fld, "--n-legs", "--gamma-tau-2pi")
    fld.add_argument("--dark-n", type=integer, required=True)
    fld.add_argument("--x-step", type=float, default=field.DEFAULT_DX)

    cont = command("continuum", _cmd_continuum, "continuum-limit trapped profile")
    cont.add_argument("--n", type=integer, required=True)
    cont.add_argument("--gamma-t", type=float, default=None,
                      help="Gamma*T (default: the comb-pair limit (2 n pi)^2)")
    cont.add_argument("--length", type=float, default=1.0)
    cont.add_argument("--x-step", type=float, default=field.DEFAULT_DX)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _write_results(args, *args.func(args))
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
