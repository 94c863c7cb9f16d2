"""Command-line front end: reproducible CSV + manifest exports.

Each subcommand computes its tables and hands them to one writer, which makes
the output directory, writes every table as an RFC-4180-style CSV (header row,
UTF-8, LF line endings; floats as C's %.17g, bit for bit, produced by numpy
array operations rather than one Python call per value, one call for all the
float columns of each piece of CSV_BLOCK_ROWS rows, and a bytes column, such
as pxt.csv's x and t formatted once into unpadded fields, as it is; each
piece's fields are NUL-padded and bytes.translate drops the NULs), then a
manifest.json recording the input parameters, tool version, creation time, a
sha256 checksum of each output and the command's derived values, and prints
one line, "<command>: <summary>, wrote <files> to <dir>".  A result directory
is therefore self-describing and re-runnable.  The argument parser is built
once per process and shared by every main() call.

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
import functools
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import (TWO_PI, GiantAtomParams, SolverError, StructuralImpossibilityError,
                   _abs_squared, check_budget, check_int)
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


# rows the CSV writer formats at once (beta.csv's blocks have this many): it
# joins consecutive short blocks and cuts long ones, so its working memory,
# about 2 MB for four float columns (8,192 values in one kernel call), does
# not grow with the table
CSV_BLOCK_ROWS = 2048

# Largest sampling grid a command builds in one piece: a profile's x
# positions or a heatmap's x-by-t points (scan lines are held to
# darkstates.MAX_LATTICE_POINTS instead).  The CSV writer formats a profile in
# pieces of CSV_BLOCK_ROWS rows, and a heatmap's x and t columns once, as
# unpadded text no wider than their longest field, so the grid's own arrays,
# 8 bytes per point and column, are what this bounds.
MAX_GRID_SAMPLES = 2 ** 22

# A float's CSV field is 32 bytes, four little-endian words: the sign and the
# "0.000" lead of 1e-4 <= |x| < 1 (word 0), the 17 digits with the point among
# them (18 bytes), the exponent suffix (5 bytes) and the separator.  Bytes a
# value does not use are NUL, and the writer drops every NUL.
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
_SCALE = 2.0 ** 128   # |x| * 2**128 times 10**n / 2**128, finite up to n = 325
_K0 = 309             # index of 10**0 in the tables over decimal exponents k


def _two_product(a, b):
    """hi, lo with hi + lo == a * b exactly (Dekker, Numer. Math. 18, 224, 1971)."""
    hi = a * b
    c = _SPLIT * a
    a1 = c - (c - a)
    c = _SPLIT * b
    b1 = c - (c - b)
    a2, b2 = a - a1, b - b1
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


@functools.cache
def _ascii4():
    """The 4 ASCII digits of each integer below 10**4 as one uint32 word, the
    leading digit in the low byte; read-only, shared by every call."""
    digits = np.arange(10 ** 4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    table = digits.astype(np.uint8).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


@functools.cache
def _decimal_tables():
    """The float kernel's tables; those over the decimal exponent k, -309 <= k
    <= 17, are indexed by k + _K0."""
    ceil10 = []     # the least double >= 10**k: a >= 10**k exactly iff a >= ceil10
    lead = []       # word 0 for x > 0, x < 0: [-], then "0." and -k-1 zeros if -4 <= k < 0
    suffix = []     # "e-05" in bytes 2-6 of the last digit word, none for -4 <= k < 17
    mask_rows = []  # the row of masks for each count of significant digits, ndig
    for k in range(-_K0, 18):
        c = 10 ** k if k >= 0 else 1 / 10 ** -k  # int / int rounds correctly
        num, den = float(c).as_integer_ratio()
        ceil10.append(float(c) if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0)
                      else math.nextafter(c, math.inf))
        fixed = -4 <= k < 17
        zeros = -k if fixed and k < 0 else 0
        point = 17 if zeros else k + 1 if fixed else 1  # digits before the point
        text = b"0." + b"0" * (zeros - 1) if zeros else b""
        lead += [text, b"-" + text]
        suffix.append(b"" if fixed else b"e%+03d" % k)
        mask_rows.append([point * 19 + (ndig if zeros else max(ndig, point) + (ndig > point))
                          for ndig in range(18)])
    hi, lo = [], []  # 10**(16 - k) / 2**128 as hi + lo, exact while 16 - k <= 22
    for n in range(16 + _K0, -1, -1):
        hi.append(10 ** n / 2 ** 128)
        num, den = hi[-1].as_integer_ratio()
        lo.append((10 ** n * den - num * 2 ** 128) / (2 ** 128 * den))
    # by point * 19 + keep: the digit words' masks for the bytes before the
    # point and after it (taken from the digits shifted by one byte), and the
    # point itself, each cut after keep bytes
    masks = np.zeros((18, 19, 3, 24), np.uint8)
    for point in range(18):
        for keep in range(19):
            masks[point, keep, 0, :min(point, keep)] = 0xFF
            masks[point, keep, 1, point + 1:keep] = 0xFF
            masks[point, keep, 2, point:min(point + 1, keep)] = ord(".")
    tables = (np.array(ceil10), np.array(hi), np.array(lo),
              np.array(lead, "S8").view(np.uint64), np.array(suffix, "S8").view(np.uint64) << 16,
              np.array(mask_rows).ravel(), masks.reshape(18 * 19, 9 * 8).view(np.uint64).T.copy())
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _significands(a: np.ndarray):
    """Decimal exponent and 17-digit significand of each normal double a < 1e16.

    Returns row = k + _K0, with 10**k <= a < 10**(k + 1) from log10 corrected
    by exact comparisons; q, the integer a * 10**(16 - k) rounded half to
    even, 10**17 carried into k + 1; and near_tie.  While 10**(16 - k) is a
    double (16 - k <= 22), one Dekker two-product makes q exact.  Beyond, the
    power is a double-double and the unrounded q is within 1e-13 of a unit,
    so q may be wrong only within 1e-13 of a tie: near_tie marks those.
    """
    ceil10, power_hi, power_lo = _decimal_tables()[:3]
    row = np.floor(np.log10(a)).astype(np.intp) + _K0
    row += (a >= ceil10[row + 1]).view(np.int8) - (a < ceil10[row]).view(np.int8)
    a = a * _SCALE
    hi, lo = _two_product(a, power_hi[row])
    lo += a * power_lo[row]
    rounded = np.rint(lo)
    near_tie = (row < _K0 - 6) & (np.abs(np.abs(lo - rounded) - 0.5) < 1e-13)
    q = hi.astype(np.int64) + rounded.astype(np.int64)
    carry = q == 10 ** 17
    q[carry] = 10 ** 16
    return row + carry, q, near_tie


def _digit_words(q: np.ndarray, zero: np.ndarray):
    """The 17 ASCII digits of each q as 3 words (bytes 0-16; "0" where zero),
    the same shifted up one byte, and the count of significant digits.  Digits
    2-17 are four 4-digit groups, each one _ascii4 word: two words to a uint64,
    the leading digit in the low byte."""
    first = q // 10 ** 16
    q = q - first * 10 ** 16
    high = q // 10 ** 8
    halves = np.stack([high, q - high * 10 ** 8])  # digits 2-9, 10-17
    groups = halves // 10 ** 4
    words = np.take(_ascii4(), np.stack([groups, halves - groups * 10 ** 4], axis=-1))
    rest = words.view(np.uint64)[..., 0]
    # significant digits: the bit length of each digit word counts its bytes
    bits = np.frexp((rest ^ 0x3030303030303030).astype(np.float64))[1]
    ndig = 1 + np.where(bits[1] > 0, 8 + (bits[1] + 7) // 8, (bits[0] + 7) // 8)
    digits = np.empty((3, len(q)), np.uint64)
    digits[0] = ord("0") + first * ~zero
    digits[1:] = rest >> 56
    digits[:2] |= rest << 8
    shifted = digits << 8
    shifted[1:] |= digits[:2] >> 56
    return digits, shifted, ndig


def _float_fields(x: np.ndarray, words: np.ndarray) -> None:
    """Write C's %.17g of each float64 into its row of words, (n, 4) uint64,
    laid out as above.  Subnormals, |x| >= 1e16, inf, nan and _significands'
    near ties take CPython's own %.17g."""
    lead, suffix, mask_rows, masks = _decimal_tables()[3:]
    a = np.abs(x)
    direct = (a >= sys.float_info.min) & (a < 1e16)
    zero = a == 0.0
    row, q, near_tie = _significands(np.where(direct, a, 1.0))
    digits, shifted, ndig = _digit_words(q, zero)
    mask = np.take(masks, np.take(mask_rows, row * 18 + ndig), axis=1)
    segment = digits & mask[:3]
    segment |= shifted & mask[3:6]
    segment |= mask[6:]
    segment[2] |= np.take(suffix, row)
    words[:, 0] = np.take(lead, 2 * row + np.signbit(x))
    words[:, 1:] = segment.T
    for i in np.flatnonzero(~(direct | zero) | near_tie).tolist():
        words[i] = np.frombuffer((b"%.17g" % x[i]).ljust(32, b"\0"), np.uint64)


def _float_text(x) -> np.ndarray:
    """C's %.17g of each float as bytes without NULs, for a column formatted
    once and written many times: an S array as wide as the longest field
    (S1 for no floats)."""
    x = np.asarray(x, np.float64)
    words = np.zeros((len(x), 4), np.uint64)
    _float_fields(x, words)
    words.view(np.uint8)[:, -1] = ord(",")
    return np.array(words.tobytes().translate(None, b"\0").split(b",")[:-1], "S")


def _csv_rows(columns) -> bytes:
    """The CSV bytes of equal-length columns, one row per element.

    Each value becomes a NUL-padded field of fixed width per column, ending in
    its separator, and bytes.translate drops the NULs.  Floats are C's %.17g,
    every float column of the piece formatted in one _float_fields call;
    integers astype("S"), which is %d for every integer dtype, bools
    "true"/"false", and bytes (dtype S, such as _float_text's) are written as
    they are.
    """
    texts = []
    for values in map(np.asarray, columns):
        kind = values.dtype.kind
        texts.append(np.where(values, b"true", b"false") if kind == "b"
                     else values.astype("S", copy=False) if kind in "iuS"
                     else values.astype(np.float64, copy=False))
    floats = [text for text in texts if text.dtype.kind == "f"]
    words = np.empty((len(floats), len(texts[0]), 4), np.uint64)
    _float_fields(np.array(floats).ravel(), words.reshape(-1, 4))
    fields = iter(words.view(np.uint8))
    widths = [32 if t.dtype.kind == "f" else t.itemsize // 8 * 8 + 8 for t in texts]
    buf = np.zeros((len(texts[0]), sum(widths)), np.uint8)
    end = 0
    for text, width in zip(texts, widths):
        field = buf[:, end:end + width]
        end += width
        source = (next(fields) if text.dtype.kind == "f"
                  else text.view(np.uint8).reshape(len(text), -1))
        field[:, :source.shape[1]] = source
        field[:, -1] = ord(",")
    buf[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")


def _pieces(blocks):
    """The rows of blocks, joined and cut into pieces of CSV_BLOCK_ROWS rows
    (the last may be shorter).  A piece holds views of the blocks' rows until
    it is full and then joins them in one concatenate per column, so each row
    is copied at most once; a piece within one block is a view of it."""
    held, rows = [], 0
    for block in blocks:
        while rows + len(block[0]) >= CSV_BLOCK_ROWS:
            cut = CSV_BLOCK_ROWS - rows
            held.append([column[:cut] for column in block])
            yield held[0] if len(held) == 1 else list(map(np.concatenate, zip(*held)))
            block = [column[cut:] for column in block]
            held, rows = [], 0
        if len(block[0]):
            held.append(block)
            rows += len(block[0])
    if rows:
        yield held[0] if len(held) == 1 else list(map(np.concatenate, zip(*held)))


def _write_csv(path: str, header: list[str], blocks) -> str:
    """Write a CSV from column blocks and return the sha256 of its bytes.

    Each block is a list of equal-length arrays, one per header column, and
    the blocks of one table agree on each column's dtype; every column's
    format follows its dtype (bool, integer, bytes, else float).
    """
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(data) -> None:
            digest.update(data)
            fh.write(data)

        put((",".join(header) + "\n").encode("utf-8"))
        for columns in _pieces(blocks):
            put(_csv_rows(columns))
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


def _beta_blocks(trace, stride: int):
    """beta.csv columns of every stride-th sample, in blocks of CSV_BLOCK_ROWS
    rows; each block's times are trace.sample_times' product on its own indices."""
    for start in range(0, len(trace.samples), CSV_BLOCK_ROWS * stride):
        stop = start + CSV_BLOCK_ROWS * stride
        b = trace.samples[start:stop:stride]
        yield [0.5 * trace.dt * np.arange(start, min(stop, len(trace.samples)), stride),
               b.real, b.imag, _abs_squared(b)]


def _pxt_blocks(params: GiantAtomParams, trace, grid: field.GridSpec):
    """pxt.csv columns, one block per frame; the frames are sampled only once
    beta.csv is written, so the two never sit in memory together.  The x and t
    columns are formatted once (_float_text), the frames' p values per block."""
    frames = field.intensity_map(params, trace, grid)
    xs, times = _float_text(grid.xs), _float_text([f.t for f in frames])
    for i, f in enumerate(frames):
        yield [times[i:i + 1].repeat(len(xs)), xs, f.values]


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
                           _beta_blocks(trace, args.stride))}
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned by every
    later one: main() parses each argv with it, and parse_args keeps nothing
    on it between calls.  Callers must not mutate it."""
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
    try:
        args = build_parser().parse_args(argv)
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
