"""Command-line front end: reproducible CSV + manifest exports.

Every subcommand writes RFC-4180-style CSV files (header row, UTF-8, LF line
endings, 17 significant digits for floats) plus a manifest.json recording the
input parameters, tool version, creation time, and a sha256 checksum of each
output, so a result directory is self-describing and re-runnable.

Exit codes: 0 success, 1 I/O failure, 2 usage or validation error (including
a trace longer than dde.MAX_TRACE_SAMPLES, or a --steps-per-tau too coarse for
the decay rate to march stably), 3 structural impossibility (e.g. a
dark-pair search with two coupling points), 4 solver failure (a root search
that disagrees with its winding number or cannot place its rectangle, a
diverging time integration, or a dark-pair lattice point that fails its own
dark-condition check).  A sampling grid (the x positions of a profile,
the x-by-t heatmap, or the samples of one scan line) may hold at most
MAX_GRID_SAMPLES points; larger or empty grids are rejected with exit 2
before anything is computed or written.
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
from .core import TWO_PI, GiantAtomParams, SolverError, StructuralImpossibilityError
from . import continuum as continuum_mod
from . import darkstates, dde, field, spectral

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_STRUCTURAL = 3
EXIT_SOLVER = 4


# rows per block of beta.csv; each block is formatted by one string operation
CSV_BLOCK_ROWS = 4096

# Largest sampling grid a command builds in one piece: a profile's x
# positions, a heatmap's x-by-t points, or the samples of one scan line.  A
# profile is formatted as one CSV block, about 200 MB per 2**20 rows, so a
# profile at this budget needs about 0.8 GB.
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


def _write_manifest(out_dir: str, command: str, params: dict, outputs: dict[str, str],
                    derived: dict | None = None) -> None:
    manifest = {
        "params": {"command": command, **params},
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "outputs": [{"path": name, "sha256": sha} for name, sha in outputs.items()],
    }
    if derived:
        manifest["derived"] = derived
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _beta_blocks(times: np.ndarray, samples: np.ndarray):
    """beta.csv columns in blocks of CSV_BLOCK_ROWS rows."""
    for start in range(0, len(samples), CSV_BLOCK_ROWS):
        b = samples[start:start + CSV_BLOCK_ROWS]
        # bit for bit what abs(b) ** 2 gives on each complex scalar: hypot, then
        # libm pow.  np.abs(b) and array ** 2 round differently in the last bit.
        prob = np.array([h ** 2 for h in np.hypot(b.real, b.imag).tolist()])
        yield [times[start:start + CSV_BLOCK_ROWS], b.real, b.imag, prob]


def _record_columns(records, *names: str) -> list[np.ndarray]:
    """One array per named attribute, across a sequence of records."""
    return [np.array([getattr(r, name) for r in records]) for name in names]


def _check_grid(what: str, count: float) -> None:
    """Reject a sampling grid of fewer than one or more than MAX_GRID_SAMPLES points."""
    if not (1 <= count <= MAX_GRID_SAMPLES):
        raise ValueError(f"{what} needs {count:.3g} samples; the grid must hold "
                         f"between 1 and {MAX_GRID_SAMPLES}")


def _profile_xs(stop: float, step: float) -> np.ndarray:
    """Positions 0, step, 2*step, ... through stop, within the grid budget."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"x-step must be positive and finite, got {step}")
    _check_grid("the profile", stop / step + 1)
    return np.arange(0.0, stop + 0.5 * step, step)


def _params_from_args(args) -> GiantAtomParams:
    return GiantAtomParams(n_legs=args.n_legs,
                           gamma_tau=TWO_PI * args.gamma_tau_2pi,
                           omega_tau=TWO_PI * args.omega_tau_2pi)


def _cmd_simulate(args) -> int:
    params = _params_from_args(args)
    if args.pxt:
        x_min = args.pxt_x_min if args.pxt_x_min is not None else -10.0
        x_max = args.pxt_x_max if args.pxt_x_max is not None else (params.n_legs - 1) + 10.0
        grid = field.GridSpec(x_min=x_min, x_max=x_max, dx=args.pxt_dx)
        _check_grid("the heatmap", ((x_max - x_min) / args.pxt_dx + 1) * args.pxt_t_count)
    trace = dde.integrate_beta(params, args.t_max, steps_per_tau=args.steps_per_tau)
    os.makedirs(args.out_dir, exist_ok=True)

    stride = max(1, args.stride)
    outputs = {"beta.csv": _write_csv(os.path.join(args.out_dir, "beta.csv"),
                                      ["t", "re_beta", "im_beta", "prob"],
                                      _beta_blocks(trace.sample_times[::stride],
                                                   trace.samples[::stride]))}

    if args.pxt:
        snap_times = np.linspace(0.0, trace.t_max, args.pxt_t_count)
        frames = field.intensity_map(params, trace, dataclasses.replace(
            grid, times=tuple(float(t) for t in snap_times)))
        outputs["pxt.csv"] = _write_csv(
            os.path.join(args.out_dir, "pxt.csv"), ["t", "x", "p"],
            ([np.full(len(f.values), f.t), f.xs, f.values] for f in frames))

    _write_manifest(args.out_dir, "simulate", _public_args(args), outputs)
    final = abs(trace.samples[-1]) ** 2
    print(f"simulate: wrote {', '.join(outputs)} to {args.out_dir} "
          f"(final |beta|^2 = {final:.6g})")
    return EXIT_OK


def _cmd_poles(args) -> int:
    params = _params_from_args(args)
    im_center = (TWO_PI * args.im_center_2pi if args.im_center_2pi is not None
                 else -params.omega_tau)
    poles = spectral.find_poles(params, re_min=args.re_min, im_center=im_center,
                                im_halfwidth=TWO_PI * args.im_halfwidth_2pi)
    os.makedirs(args.out_dir, exist_ok=True)
    sha = _write_csv(os.path.join(args.out_dir, "poles.csv"),
                     ["re_s", "im_s", "re_weight", "im_weight"],
                     [[poles.s.real, poles.s.imag, poles.weights.real, poles.weights.imag]])
    _write_manifest(args.out_dir, "poles", _public_args(args), {"poles.csv": sha},
                    derived={"winding_number": poles.winding,
                             "n_poles": len(poles)})
    print(f"poles: found {len(poles)} poles (winding {poles.winding}), "
          f"wrote poles.csv to {args.out_dir}")
    return EXIT_OK


def _cmd_dark_search(args) -> int:
    pairs = darkstates.find_pairs(args.n_legs, p_max=args.p_max, q_max=args.q_max)
    os.makedirs(args.out_dir, exist_ok=True)
    n1, n2, p, q, n, omega, gamma, beat, amp, rwa = _record_columns(
        pairs, "n1", "n2", "p", "q", "n", "omega_tau", "gamma_tau", "beat",
        "osc_amplitude", "rwa_ok")
    sha = _write_csv(os.path.join(args.out_dir, "pairs.csv"),
                     ["n1", "n2", "p", "q", "n", "omega_tau_2pi", "gamma_tau_2pi",
                      "beat", "osc_amplitude", "rwa_ok"],
                     [[n1, n2, p, q, n, omega / TWO_PI, gamma / TWO_PI, beat, amp, rwa]])
    _write_manifest(args.out_dir, "dark-search", _public_args(args), {"pairs.csv": sha},
                    derived={"n_pairs": len(pairs)})
    print(f"dark-search: {len(pairs)} coexisting pairs, wrote pairs.csv to {args.out_dir}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    _check_grid("each condition line", args.line_samples)
    scan = darkstates.scan_lattice(args.n_legs,
                                   omega_tau_max=TWO_PI * args.omega_tau_2pi_max,
                                   gamma_tau_max=TWO_PI * args.gamma_tau_2pi_max,
                                   line_samples=args.line_samples)
    os.makedirs(args.out_dir, exist_ok=True)
    omega, gamma, n1, n2, amp, rwa = _record_columns(
        scan.dots, "omega_tau", "gamma_tau", "n1", "n2", "osc_amplitude", "rwa_ok")
    outputs = {
        "dots.csv": _write_csv(
            os.path.join(args.out_dir, "dots.csv"),
            ["omega_tau_2pi", "gamma_tau_2pi", "n1", "n2", "osc_amplitude", "rwa_ok"],
            [[omega / TWO_PI, gamma / TWO_PI, n1, n2, amp, rwa]]),
        "lines.csv": _write_csv(
            os.path.join(args.out_dir, "lines.csv"), ["n", "omega_tau_2pi", "gamma_tau_2pi"],
            ([np.full(len(line.gamma_tau), line.n), line.omega_tau / TWO_PI,
              line.gamma_tau / TWO_PI] for line in scan.lines)),
    }
    _write_manifest(args.out_dir, "scan", _public_args(args), outputs,
                    derived={"n_dots": len(scan.dots), "n_lines": len(scan.lines)})
    print(f"scan: {len(scan.dots)} pair dots and {len(scan.lines)} condition lines, "
          f"wrote dots.csv and lines.csv to {args.out_dir}")
    return EXIT_OK


def _cmd_field(args) -> int:
    gamma_tau = TWO_PI * args.gamma_tau_2pi
    omega_tau = darkstates.dark_condition_omega_tau(args.n_legs, args.dark_n, gamma_tau)
    if omega_tau <= 0:
        raise ValueError(
            f"dark index {args.dark_n} forces omega_tau = {omega_tau:g} <= 0 at "
            f"this gamma_tau; no physical dark point exists"
        )
    params = GiantAtomParams(n_legs=args.n_legs, gamma_tau=gamma_tau, omega_tau=omega_tau)
    record = field.dark_state_record(params, args.dark_n)
    xs = _profile_xs(args.n_legs - 1, args.x_step)
    profile = field.bound_profile(params, args.dark_n, xs)
    os.makedirs(args.out_dir, exist_ok=True)
    sha = _write_csv(os.path.join(args.out_dir, "profile.csv"), ["x", "p"],
                     [[xs, profile]])
    _write_manifest(args.out_dir, "field", _public_args(args), {"profile.csv": sha},
                    derived={"omega_tau_2pi": omega_tau / TWO_PI,
                             "amplitude": record.amplitude,
                             "intensity": record.intensity,
                             "rwa_ok": bool(record.rwa_ok)})
    print(f"field: dark index {args.dark_n} at omega_tau/2pi = {omega_tau / TWO_PI:.6g}, "
          f"I(n) = {record.intensity:.6g}, wrote profile.csv to {args.out_dir}")
    return EXIT_OK


def _cmd_continuum(args) -> int:
    gamma_T = args.gamma_t if args.gamma_t is not None else (TWO_PI * args.n) ** 2
    omega_T = (args.omega_t if args.omega_t is not None
               else TWO_PI * args.n - gamma_T / (TWO_PI * args.n))
    xs = _profile_xs(args.length, args.x_step)
    profile = continuum_mod.continuum_profile(gamma_T, args.n, args.length, xs)
    os.makedirs(args.out_dir, exist_ok=True)
    sha = _write_csv(os.path.join(args.out_dir, "profile.csv"), ["x", "p"],
                     [[xs, profile]])
    _write_manifest(args.out_dir, "continuum", _public_args(args), {"profile.csv": sha},
                    derived={"gamma_T": gamma_T, "omega_T": omega_T,
                             "total_intensity":
                                 continuum_mod.continuum_total_intensity(gamma_T, args.n)})
    print(f"continuum: n = {args.n}, Gamma*T = {gamma_T:.6g}, wrote profile.csv "
          f"to {args.out_dir}")
    return EXIT_OK


def _public_args(args) -> dict:
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            value = str(value)
        out[key] = value
    return out


def _add_system_flags(sub, *, omega: bool = True) -> None:
    sub.add_argument("--n-legs", type=int, required=True,
                     help="number of coupling points N (>= 2)")
    sub.add_argument("--gamma-tau-2pi", type=float, required=True,
                     help="per-point relaxation, gamma*tau / 2pi")
    if omega:
        sub.add_argument("--omega-tau-2pi", type=float, required=True,
                         help="transition frequency, omega*tau / 2pi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giant-atom",
        description="Simulate a multi-point emitter in a 1D waveguide and export "
                    "reproducible CSV data files.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="integrate the delayed amplitude equation")
    _add_system_flags(sim)
    sim.add_argument("--t-max", type=float, required=True, help="final time in units of tau")
    sim.add_argument("--steps-per-tau", type=int, default=dde.DEFAULT_STEPS_PER_TAU)
    sim.add_argument("--stride", type=int, default=1,
                     help="write every k-th stored sample to beta.csv")
    sim.add_argument("--pxt", action="store_true",
                     help="also write the field-intensity heatmap pxt.csv")
    sim.add_argument("--pxt-x-min", type=float, default=None)
    sim.add_argument("--pxt-x-max", type=float, default=None)
    sim.add_argument("--pxt-dx", type=float, default=0.05)
    sim.add_argument("--pxt-t-count", type=int, default=201)
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=_cmd_simulate)

    pol = subs.add_parser("poles", help="locate complex mode frequencies")
    _add_system_flags(pol)
    pol.add_argument("--re-min", type=float, default=spectral.DEFAULT_RE_MIN,
                     help="left edge of the search rectangle (1/tau units, < 0)")
    pol.add_argument("--im-center-2pi", type=float, default=None,
                     help="imaginary-axis centre / 2pi (default: -omega_tau/2pi)")
    pol.add_argument("--im-halfwidth-2pi", type=float, default=2.0)
    pol.add_argument("--out-dir", required=True)
    pol.set_defaults(func=_cmd_poles)

    dark = subs.add_parser("dark-search", help="enumerate coexisting dark pairs")
    dark.add_argument("--n-legs", type=int, required=True)
    dark.add_argument("--p-max", type=int, default=12)
    dark.add_argument("--q-max", type=int, default=12)
    dark.add_argument("--out-dir", required=True)
    dark.set_defaults(func=_cmd_dark_search)

    scan = subs.add_parser("scan", help="scan the parameter window for pair dots "
                                        "and single-dark-state lines")
    scan.add_argument("--n-legs", type=int, required=True)
    scan.add_argument("--omega-tau-2pi-max", type=float, required=True)
    scan.add_argument("--gamma-tau-2pi-max", type=float, required=True)
    scan.add_argument("--line-samples", type=int, default=201)
    scan.add_argument("--out-dir", required=True)
    scan.set_defaults(func=_cmd_scan)

    fld = subs.add_parser("field", help="trapped-field profile of a dark state")
    fld.add_argument("--n-legs", type=int, required=True)
    fld.add_argument("--gamma-tau-2pi", type=float, required=True)
    fld.add_argument("--dark-n", type=int, required=True)
    fld.add_argument("--x-step", type=float, default=field.DEFAULT_DX)
    fld.add_argument("--out-dir", required=True)
    fld.set_defaults(func=_cmd_field)

    cont = subs.add_parser("continuum", help="continuum-limit trapped profile")
    cont.add_argument("--n", type=int, required=True)
    cont.add_argument("--gamma-t", type=float, default=None,
                      help="Gamma*T (default: the comb-pair limit (2 n pi)^2)")
    cont.add_argument("--omega-t", type=float, default=None,
                      help="Omega*T (default: from the continuum dark condition)")
    cont.add_argument("--length", type=float, default=1.0)
    cont.add_argument("--x-step", type=float, default=field.DEFAULT_DX)
    cont.add_argument("--out-dir", required=True)
    cont.set_defaults(func=_cmd_continuum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except StructuralImpossibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
