import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from giant_atom import (DivergenceError, IncompleteSearchError, SearchPlacementError,
                        bound_profile, continuum, continuum_profile, darkstates, dde, field,
                        integrate_beta, spectral)
from giant_atom.cli import (CSV_BLOCK_ROWS, MAX_GRID_SAMPLES, _ascii4, _float_text, _pieces,
                            _pxt_blocks, _write_csv, build_parser, integer, main)
from conftest import single_dark_params
from test_field import phi_at_one_time

TWO_PI = 2.0 * math.pi

A1_FLAGS = ["--n-legs", "3", "--gamma-tau-2pi", "0.018",
            "--omega-tau-2pi", "0.3177448760652134"]
FIELD_FLAGS = ["field", "--n-legs", "3", "--gamma-tau-2pi", "0.018", "--dark-n", "1"]
SCAN_FLAGS = ["scan", "--n-legs", "3", "--omega-tau-2pi-max", "6",
              "--gamma-tau-2pi-max", "1"]
PXT_FLAGS = ["simulate", *A1_FLAGS, "--t-max", "5", "--pxt"]


def _subcommands():
    """Each subcommand's name and parser."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags_by_type():
    """(command, flag, type) for every option of every subcommand."""
    return [(name, action.option_strings[0], action.type)
            for name, sub in _subcommands().items() for action in sub._actions
            if action.option_strings]


INTEGER_FLAGS = [(command, flag) for command, flag, kind in _flags_by_type()
                 if kind is integer]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, bytes):
        return value.decode("ascii")
    return format(float(value), ".17g")


def reference_csv(path, header, rows):
    """Row-at-a-time writer, one value at a time: the byte reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def float_edges():
    """Floats at the float kernel's edges: signed zeros; each side of the -4 <= k
    < 17 fixed-layout bounds and of decade bounds that log10 can floor wrongly;
    1e-14 and 1e-70, doubles below their powers of ten whose 17 digits round up
    to 10**17 (the carry); 17 digits just below 1e-06; an exact tie, rounded to
    even (...12); the far path's near-ties x * 10**23 = j + 1/2 -+ 2**-51, from
    M * 5**23 = 2**50 -+ 1 (mod 2**51); subnormals, the least normal, inf, nan."""
    inverse = pow(5 ** 23, -1, 2 ** 51)
    near_ties = [math.ldexp((2 ** 50 + d) * inverse % 2 ** 51 + 2 ** 52, -74) for d in (-1, 1)]
    bounds = [v for b in (1e-5, 1e-4, 1e16, 1e17, 1e-100, 1e100)
              for v in (b, math.nextafter(b, 0.0), math.nextafter(b, math.inf))]
    return [0.0, -0.0, *bounds, *(-v for v in bounds), 1e-14, 1e-70, 9.9999999999999995e-07,
            100000000000000.125, *near_ties, 5e-324, -1e-310, 2.2250738585072014e-308,
            math.inf, -math.inf, math.nan, 1.0, 1000.0, 123456789012345.6, 0.5]


class TestCsvBytes:
    """The columnar writer reproduces the reference writer byte for byte."""

    def check(self, tmp_path, header, rows, blocks):
        reference_csv(tmp_path / "ref.csv", header, rows)
        sha = _write_csv(str(tmp_path / "new.csv"), header, blocks)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert sha == sha256(tmp_path / "new.csv")

    def test_mixed_python_and_numpy_scalars(self, tmp_path):
        flags = [True, np.bool_(False), np.bool_(True), False, True, False, True, False]
        ints = [0, np.int64(-7), 2**40, np.int32(12), -1, np.int64(9), 3, np.uint8(255)]
        floats = [math.nan, np.float64(math.inf), -math.inf, -0.0, 1e-300,
                  np.float64(0.1), 1.0 / 3.0, np.float64(-2.5e300)]
        whole = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        rows = list(zip(flags, ints, floats, whole))
        columns = [np.array(flags), np.array(ints), np.array(floats), np.array(whole)]
        self.check(tmp_path, ["flag", "count", "value", "whole"], rows, [columns])

    def test_empty_table_is_header_only(self, tmp_path):
        header = ["a", "b"]
        self.check(tmp_path, header, [], [])
        self.check(tmp_path, header, [], [[np.array([]), np.array([], dtype=bool)]])
        assert (tmp_path / "new.csv").read_text() == "a,b\n"

    def test_many_uneven_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * CSV_BLOCK_ROWS + 17
        xs = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        ks = rng.integers(-1000, 1000, n)
        edges = [0, 5, 5, CSV_BLOCK_ROWS + 5, n]
        blocks = [[xs[a:b], ks[a:b]] for a, b in zip(edges, edges[1:])]
        self.check(tmp_path, ["x", "k"], list(zip(xs, ks)), blocks)

    def test_float_edges(self, tmp_path):
        values = float_edges()
        assert format(100000000000000.125, ".17g") == "100000000000000.12"
        assert format(1e-14, ".17g") == "1e-14" and 1e-14 < Fraction(1, 10 ** 14)
        self.check(tmp_path, ["x"], [[v] for v in values], [[np.array(values)]])

    def test_float_text_column(self, tmp_path):
        # a column formatted once by _float_text is written as the same floats
        # are, beside a float column and in blocks of every kind of length
        bits = np.random.default_rng(31).integers(0, 2 ** 64, 10_000, dtype=np.uint64)
        xs = np.concatenate([float_edges(), bits.view(np.float64)])
        text = _float_text(xs)
        assert (text.dtype.kind == "S" and not any(b"\0" in v for v in text.tolist())
                and text.shape == xs.shape)
        edges = [0, 1, CSV_BLOCK_ROWS + 3, len(xs)]
        as_floats = _write_csv(str(tmp_path / "floats.csv"), ["x", "y"],
                               [[xs[a:b], xs[a:b][::-1]] for a, b in zip(edges, edges[1:])])
        as_text = _write_csv(str(tmp_path / "text.csv"), ["x", "y"],
                             [[text[a:b], xs[a:b][::-1]] for a, b in zip(edges, edges[1:])])
        assert (tmp_path / "text.csv").read_bytes() == (tmp_path / "floats.csv").read_bytes()
        assert as_text == as_floats

    def test_random_bit_patterns(self, tmp_path):
        # x: any 64-bit pattern; y: the same mantissas and signs with exponents
        # drawn over 2**-100 .. 2**66, both two-product paths and |y| >= 1e16
        rng = np.random.default_rng(29)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False)
        exponents = rng.integers(1023 - 100, 1023 + 67, len(bits), dtype=np.uint64)
        xs = bits.view(np.float64)
        ys = (bits & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)).view(np.float64)
        self.check(tmp_path, ["x", "y"], list(zip(xs, ys)), [[xs, ys]])

    def test_float_columns_split_by_other_columns(self, tmp_path):
        # dots.csv's column order: the piece's float columns are formatted
        # together, and each must come back to its own place among the others
        rng = np.random.default_rng(37)
        n = 2 * CSV_BLOCK_ROWS + 9
        bits = rng.integers(0, 2 ** 64, (3, n), dtype=np.uint64)
        a, b, c = bits.view(np.float64)
        edges = float_edges()
        a[:len(edges)], b[1:len(edges) + 1], c[2:len(edges) + 2] = edges, edges, edges
        ks, ms = rng.integers(-10 ** 6, 10 ** 6, n), rng.integers(0, 50, n)
        flags = rng.integers(0, 2, n).astype(bool)
        cuts = [0, 7, CSV_BLOCK_ROWS - 3, CSV_BLOCK_ROWS + 40, n]
        blocks = [[a[i:j], b[i:j], ks[i:j], ms[i:j], c[i:j], flags[i:j]]
                  for i, j in zip(cuts, cuts[1:])]
        self.check(tmp_path, ["a", "b", "k", "m", "c", "flag"],
                   list(zip(a, b, ks, ms, c, flags)), blocks)

    def test_table_without_floats(self, tmp_path):
        n = CSV_BLOCK_ROWS + 11
        ks = np.arange(n, dtype=np.int64) * 7919 - 10 ** 9
        flags = np.arange(n) % 3 == 0
        labels = np.array([b"w%d" % (i % 1000) for i in range(n)])
        self.check(tmp_path, ["k", "flag", "label"], list(zip(ks, flags, labels)),
                   [[ks, flags, labels]])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(), min_size=1, max_size=50))
    def test_any_floats(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp), ["x"], [[v] for v in values], [[np.array(values)]])

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_ints_of_every_dtype(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        values = np.array([info.min, info.max, 0, 1, info.max // 3, info.min // 7], dtype)
        self.check(tmp_path, ["k", "x"], [(int(k), float(k)) for k in values],
                   [[values, values.astype(np.float64)]])

    @pytest.mark.parametrize("stride", [1, 7])
    def test_simulate_beta_csv(self, tmp_path, stride):
        # prob is abs(b) ** 2 of each complex scalar; array forms of |b|^2
        # round differently in the last bit
        t_max = 20.0
        assert main(["simulate", *A1_FLAGS, "--t-max", str(t_max), "--stride", str(stride),
                     "--out-dir", str(tmp_path)]) == 0
        trace = integrate_beta(single_dark_params(3, 1, 0.018), t_max)
        times, samples = trace.sample_times[::stride], trace.samples[::stride]
        assert stride > 1 or len(samples) > 2 * CSV_BLOCK_ROWS
        reference_csv(tmp_path / "ref.csv", ["t", "re_beta", "im_beta", "prob"],
                      ((t, b.real, b.imag, abs(b) ** 2) for t, b in zip(times, samples)))
        assert sha256(tmp_path / "beta.csv") == sha256(tmp_path / "ref.csv")

    def test_trace_probabilities_are_the_prob_column(self, tmp_path):
        # one |b|^2 rule: %.17g round-trips, so the parsed column is the trace's
        # probabilities bit for bit (np.abs(b) ** 2 differs in the last bits)
        t_max = 20.0
        assert main(["simulate", *A1_FLAGS, "--t-max", str(t_max),
                     "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "beta.csv", newline="") as fh:
            prob = np.array([float(row["prob"]) for row in csv.DictReader(fh)])
        trace = integrate_beta(single_dark_params(3, 1, 0.018), t_max)
        assert prob.tobytes() == trace.probabilities.tobytes()

    def test_simulate_pxt_csv(self, tmp_path):
        # the heatmap against a row-at-a-time writer over frames sampled one at
        # a time; 40 frames are two blocks of field._FRAMES and a partial one
        t_max, count = 5.0, 40
        assert main([*PXT_FLAGS, "--pxt-t-count", str(count), "--out-dir", str(tmp_path)]) == 0
        params = single_dark_params(3, 1, 0.018)
        trace = integrate_beta(params, t_max)
        xs = field.GridSpec(-10.0, 12.0, 0.05).xs
        rows = ((t, x, p) for t in np.linspace(0.0, trace.t_max, count)
                for x, p in zip(xs, np.abs(phi_at_one_time(params, trace, xs, float(t))) ** 2))
        reference_csv(tmp_path / "ref.csv", ["t", "x", "p"], rows)
        assert sha256(tmp_path / "pxt.csv") == sha256(tmp_path / "ref.csv")


class TestWriterParts:
    """The parts of the CSV writer under the bytes: the digit table, the
    unpadded text columns and the pieces."""

    def test_digit_table(self):
        table = _ascii4()
        assert table.view("S4").tolist() == [b"%04d" % i for i in range(10 ** 4)]
        assert _ascii4() is table and not table.flags.writeable

    def test_float_text_is_as_wide_as_its_longest_field(self):
        # README's heatmap: t = 0 .. 200 and x = -10 .. 12 at 0.05
        times = _float_text(np.linspace(0.0, 200.0, 201))
        xs = _float_text(field.GridSpec(-10.0, 12.0, 0.05).xs)
        assert (times.dtype, xs.dtype) == (np.dtype("S3"), np.dtype("S21"))
        for text in (times, xs, _float_text(float_edges())):
            assert text.itemsize == max(map(len, text.tolist()))
        empty = _float_text([])
        assert empty.dtype.kind == "S" and empty.shape == (0,)

    def test_pieces_are_views_within_one_block(self, monkeypatch):
        # empty blocks, heatmap-sized frames and blocks longer than a piece,
        # over bytes, int and float columns: each block is cut on its own
        lengths = [0, 441, 441, 0, 441, 441, 441, 3 * CSV_BLOCK_ROWS + 5, 0, 441, 7,
                   2 * CSV_BLOCK_ROWS, 441, 0]
        n = sum(lengths)
        rng = np.random.default_rng(43)
        columns = [np.array([b"t%d" % (i % 997) for i in range(n)]),
                   rng.integers(-10 ** 6, 10 ** 6, n), rng.standard_normal(n)]
        edges = np.cumsum([0, *lengths])
        blocks = [[column[a:b] for column in columns] for a, b in zip(edges, edges[1:])]
        taken = []

        def feed():
            for i, block in enumerate(blocks):
                taken.append(i)
                yield block

        def refused(*args, **kwargs):
            raise AssertionError("the pieces joined rows")

        monkeypatch.setattr(np, "concatenate", refused)
        pieces = [(taken[-1], piece) for piece in _pieces(feed())]
        monkeypatch.undo()
        assert taken == list(range(len(blocks)))
        for i, block in enumerate(blocks):
            own = [piece for owner, piece in pieces if owner == i]
            assert all(0 < len(piece[0]) <= CSV_BLOCK_ROWS for piece in own)
            assert len(own) == -(-len(block[0]) // CSV_BLOCK_ROWS)
            for parts, column in zip(zip(*own), block):
                assert all(np.shares_memory(part, column) for part in parts)
                assert np.array_equal(np.concatenate(parts), column)
        for parts, column in zip(zip(*(piece for _, piece in pieces)), columns):
            whole = np.concatenate(parts)
            assert whole.dtype == column.dtype and np.array_equal(whole, column)

    @pytest.mark.parametrize("x_max, dx, count", [(12.0, 0.05, 11), (12.0, 0.05, 8),
                                                  (12.0, 0.0075, 3), (-9.0, 0.5, 5)])
    def test_pxt_blocks_are_whole_frames(self, x_max, dx, count):
        # README's 441 x positions (four frames a block, a short last block or
        # none), more positions than a piece holds (one frame a block), and
        # three positions (every frame in one block)
        params = single_dark_params(3, 1, 0.018)
        trace = integrate_beta(params, 5.0)
        grid = field.GridSpec(-10.0, x_max, dx,
                              times=tuple(float(t) for t in np.linspace(0.0, 5.0, count)))
        xs = grid.xs
        blocks = list(_pxt_blocks(params, trace, grid))
        for block in blocks:
            rows = len(block[0])
            assert [len(column) for column in block] == [rows] * 3
            assert rows % len(xs) == 0 and 0 < rows <= max(CSV_BLOCK_ROWS, len(xs))
        assert len(blocks) == -(-count // max(1, CSV_BLOCK_ROWS // len(xs)))
        t, x, p = map(np.concatenate, zip(*blocks))
        frames = field.intensity_map(params, trace, grid)
        assert np.array_equal(t, _float_text(grid.times).repeat(len(xs)))
        assert np.array_equal(x, np.tile(_float_text(xs), count))
        assert p.tobytes() == np.concatenate([f.values for f in frames]).tobytes()


class TestSimulate:
    def test_long_run_final_probability(self, tmp_path):
        rc = main(["simulate", *A1_FLAGS, "--t-max", "200", "--stride", "64",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "beta.csv")
        assert header == ["t", "re_beta", "im_beta", "prob"]
        final_prob = float(rows[-1][3])
        assert final_prob == pytest.approx(0.6651, rel=0.01)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["params"]["command"] == "simulate"
        assert manifest["outputs"][0]["path"] == "beta.csv"
        assert manifest["outputs"][0]["sha256"] == sha256(tmp_path / "beta.csv")

    def test_invalid_t_max_exits_2(self, tmp_path):
        rc = main(["simulate", *A1_FLAGS, "--t-max", "0", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_usage_error_exits_2(self, tmp_path):
        assert main(["simulate", "--bogus-flag", "1"]) == 2

    def test_io_failure_exits_1(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc = main(["simulate", *A1_FLAGS, "--t-max", "1",
                   "--out-dir", str(blocker / "sub")])
        assert rc == 1

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        args = ["simulate", *A1_FLAGS, "--t-max", "5", "--pxt",
                "--pxt-t-count", "11", "--pxt-dx", "0.1",
                "--pxt-x-min", "-3", "--pxt-x-max", "5"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert sha256(out1 / "beta.csv") == sha256(out2 / "beta.csv")
        assert sha256(out1 / "pxt.csv") == sha256(out2 / "pxt.csv")
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for m in (m1, m2):
            m["params"].pop("out_dir")
            m.pop("created_at")
        assert m1 == m2

    def test_seventeen_digit_round_trip(self, tmp_path):
        assert main(["simulate", *A1_FLAGS, "--t-max", "2",
                     "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "beta.csv")
        re0, im0 = float(rows[17][1]), float(rows[17][2])
        assert float(format(re0, ".17g")) == re0
        prob = float(rows[17][3])
        assert prob == pytest.approx(re0 * re0 + im0 * im0, rel=1e-12)

    def test_pxt_long_format(self, tmp_path):
        assert main(["simulate", *A1_FLAGS, "--t-max", "4", "--pxt",
                     "--pxt-t-count", "5", "--pxt-dx", "0.5",
                     "--pxt-x-min", "-1", "--pxt-x-max", "3",
                     "--out-dir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "pxt.csv")
        assert header == ["t", "x", "p"]
        assert len(rows) == 5 * 9
        assert all(float(r[2]) >= 0.0 for r in rows)


class TestPoles:
    def test_dark_root_in_output(self, tmp_path):
        rc = main(["poles", *A1_FLAGS, "--re-min", "-5",
                   "--im-halfwidth-2pi", "0.7", "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "poles.csv")
        assert header == ["re_s", "im_s", "re_weight", "im_weight"]
        target = -TWO_PI / 3.0
        assert any(abs(float(r[0])) < 1e-10 and abs(float(r[1]) - target) < 1e-8
                   for r in rows)


class TestDarkSearch:
    def test_two_legs_exits_3(self, tmp_path, capsys):
        rc = main(["dark-search", "--n-legs", "2", "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "cotangent" in capsys.readouterr().err

    def test_pairs_csv(self, tmp_path):
        rc = main(["dark-search", "--n-legs", "3", "--p-max", "5", "--q-max", "5",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "pairs.csv")
        assert header == ["n1", "n2", "p", "q", "n", "omega_tau_2pi",
                          "gamma_tau_2pi", "beat", "osc_amplitude", "rwa_ok"]
        row = next(r for r in rows if r[0] == "16" and r[1] == "14")
        assert float(row[5]) == pytest.approx(5.0, rel=1e-15)
        assert float(row[6]) == pytest.approx(0.384900, abs=5e-7)
        assert row[9] in ("true", "false")


class TestScan:
    def test_empty_window_writes_header_only_files(self, tmp_path):
        rc = main(["scan", "--n-legs", "3", "--omega-tau-2pi-max", "0.05",
                   "--gamma-tau-2pi-max", "0.01", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "dots.csv").read_text() == (
            "omega_tau_2pi,gamma_tau_2pi,n1,n2,osc_amplitude,rwa_ok\n")
        assert (tmp_path / "lines.csv").read_text() == "n,omega_tau_2pi,gamma_tau_2pi\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for out in manifest["outputs"]:
            assert out["sha256"] == sha256(tmp_path / out["path"])

    def test_dot_lattice_periodicity(self, tmp_path):
        rc = main(["scan", "--n-legs", "3", "--omega-tau-2pi-max", "6",
                   "--gamma-tau-2pi-max", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "dots.csv")
        dots = {(float(r[0]), float(r[1])) for r in rows}
        assert dots
        for om, gm in dots:
            if om <= 5.0:
                assert any(abs(o2 - om - 1.0) < 1e-12 and g2 == gm
                           for o2, g2 in dots)
        _, line_rows = read_csv(tmp_path / "lines.csv")
        assert line_rows

    @pytest.mark.parametrize("window", [["6", "1"], ["0.05", "0.01"]], ids=["lines", "empty"])
    def test_lines_csv_is_one_block(self, tmp_path, window):
        # every line in one block, written as a line-by-line writer writes them;
        # the empty window is the header alone
        argv = ["scan", "--n-legs", "3", "--omega-tau-2pi-max", window[0],
                "--gamma-tau-2pi-max", window[1], "--out-dir", str(tmp_path)]
        args = build_parser().parse_args(argv)
        header, blocks = args.func(args)[0]["lines.csv"]
        scan = darkstates.scan_lattice(3, TWO_PI * float(window[0]), TWO_PI * float(window[1]))
        rows = [(line.n, omega / TWO_PI, gamma / TWO_PI) for line in scan.lines
                for omega, gamma in zip(line.omega_tau, line.gamma_tau)]
        assert len(blocks) == 1 and [len(column) for column in blocks[0]] == [len(rows)] * 3
        assert main(argv) == 0
        reference_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "lines.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert bool(rows) == (window[0] == "6")


class TestFieldCmd:
    def test_profile_matches_library(self, tmp_path):
        rc = main(["field", "--n-legs", "3", "--gamma-tau-2pi", "0.018",
                   "--dark-n", "1", "--x-step", "0.05", "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "profile.csv")
        params = single_dark_params(3, 1, 0.018)
        for r in rows[:: 5]:
            assert float(r[1]) == pytest.approx(
                bound_profile(params, 1, float(r[0])), abs=1e-15)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["derived"]["omega_tau_2pi"] == pytest.approx(0.3177, abs=5e-5)
        assert manifest["derived"]["amplitude"] == pytest.approx(0.815532, abs=1e-6)

        # a step that does not divide N - 1 = 2 stops at the last point before it
        rc = main(["field", "--n-legs", "3", "--gamma-tau-2pi", "0.018",
                   "--dark-n", "1", "--x-step", "0.3", "--out-dir", str(tmp_path / "coarse")])
        assert rc == 0
        _, rows = read_csv(tmp_path / "coarse" / "profile.csv")
        assert [float(r[0]) for r in rows] == [0.3 * k for k in range(7)]

    def test_singular_index_exits_2(self, tmp_path):
        rc = main(["field", "--n-legs", "3", "--gamma-tau-2pi", "0.018",
                   "--dark-n", "3", "--out-dir", str(tmp_path)])
        assert rc == 2


class TestContinuumCmd:
    def test_sin4_profile(self, tmp_path):
        rc = main(["continuum", "--n", "1", "--x-step", "0.01",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "profile.csv")
        xs = np.array([float(r[0]) for r in rows])
        ps = np.array([float(r[1]) for r in rows])
        gamma_T = (TWO_PI) ** 2
        assert np.allclose(ps, continuum_profile(gamma_T, 1, 1.0, xs), atol=1e-15)
        assert ps[0] == 0.0 and ps[-1] == pytest.approx(0.0, abs=1e-15)
        assert ps.argmax() == len(ps) // 2  # single sin^4 hump


class TestFailures:
    @pytest.mark.parametrize("error", [IncompleteSearchError(found=3, expected=4),
                                       SearchPlacementError("no clear rectangle")])
    def test_root_search_failure_exits_4(self, tmp_path, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(spectral, "find_poles", fail)
        rc = main(["poles", *A1_FLAGS, "--out-dir", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == f"error: {error}\n"

    def test_winding_cap_exits_4(self, tmp_path, monkeypatch, capsys):
        # the window's lower edge runs 0.01 above the n = 1 dark root, so every
        # walk bisects, and with no bisection samples allowed every walk gives up
        monkeypatch.setattr(spectral, "_MAX_WINDING_POINTS", 0)
        out = tmp_path / "out"
        rc = main(["poles", *A1_FLAGS, "--re-min", "-5",
                   "--im-center-2pi", repr(4.01 / TWO_PI - 1.0 / 3.0),
                   "--im-halfwidth-2pi", repr(4.0 / TWO_PI), "--out-dir", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == ("error: could not place the search rectangle "
                                           "clear of all roots\n")
        assert not out.exists()

    def test_divergence_exits_4(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise DivergenceError("non-finite amplitude at t = 1")
        monkeypatch.setattr(dde, "integrate_beta", fail)
        rc = main(["simulate", *A1_FLAGS, "--t-max", "1", "--out-dir", str(tmp_path)])
        assert rc == 4
        assert capsys.readouterr().err == "error: non-finite amplitude at t = 1\n"

    @pytest.mark.parametrize("t_max", ["1e12", "1e308"])
    def test_oversized_trace_exits_2(self, tmp_path, capsys, t_max):
        rc = main(["simulate", *A1_FLAGS, "--t-max", t_max, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_oversized_interval_exits_2(self, tmp_path, monkeypatch, capsys):
        # a 5-sample trace whose march needs one interval of 2M + 1 = 129 samples
        monkeypatch.setattr(dde, "MAX_TRACE_SAMPLES", 128)
        rc = main(["simulate", *A1_FLAGS, "--t-max", "0.015625", "--steps-per-tau", "64",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.endswith("needs 129 samples, above the budget of 128\n")
        assert not (tmp_path / "out").exists()

    def test_largest_emitter_poles_exits_2_before_seeding(self, tmp_path, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("seeding started for a rejected emitter")
        monkeypatch.setattr(np.linalg, "eigvals", no_work)
        monkeypatch.setattr(spectral, "_newton", no_work)
        rc = main(["poles", "--n-legs", "65536", "--gamma-tau-2pi", "0.018",
                   "--omega-tau-2pi", "1", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "companion entries and seeds, above the budget" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_subnormal_coupling_poles_exits_0(self, tmp_path, capsys):
        # at omega / 2pi = 3 the trial of band -3 cancels omega, so the companion
        # matrix's lead coefficient is real and subnormal (N gamma / 2 = 9.4e-311)
        rc = main(["poles", "--n-legs", "3", "--gamma-tau-2pi", "1e-311",
                   "--omega-tau-2pi", "3", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_oversized_seed_grid_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spectral, "MAX_SEEDS", 100)
        rc = main(["poles", *A1_FLAGS, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the search rectangle needs") and "budget" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_stride_below_one_exits_2(self, tmp_path, monkeypatch, capsys, stride):
        def no_work(*args, **kwargs):
            raise AssertionError("integrated with a rejected stride")
        monkeypatch.setattr(dde, "integrate_beta", no_work)
        rc = main(["simulate", *A1_FLAGS, "--t-max", "1", "--stride", stride,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: stride must be >= 1, got {stride}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("center", ["nan", "inf", "-inf"])
    def test_non_finite_im_center_exits_2(self, tmp_path, capsys, center):
        rc = main(["poles", *A1_FLAGS, f"--im-center-2pi={center}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: im_center must be finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, budget", [
        (["dark-search", "--n-legs", "3", "--p-max", "5", "--q-max", "5"], 15),
        (SCAN_FLAGS, 22 * 201),
    ])
    def test_oversized_lattice_exits_2(self, tmp_path, monkeypatch, capsys, command, budget):
        # 15 pairs at p, q <= 5; the scan samples 201 points on each index up to
        # ceil(3 (6 + 1.5 cot(pi/3))) + 1 = 22, after 36 pair candidates
        monkeypatch.setattr(darkstates, "MAX_LATTICE_POINTS", budget - 1)
        rc = main([*command, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lattice points, above the budget" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        monkeypatch.setattr(darkstates, "MAX_LATTICE_POINTS", budget)
        assert main([*command, "--out-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("bounds", [("inf", "1"), ("1e308", "1"), ("6", "inf"),
                                        ("nan", "1"), ("6", "-1")])
    def test_non_finite_scan_window_exits_2(self, tmp_path, monkeypatch, capsys, bounds):
        monkeypatch.setattr(darkstates, "_sorted_pairs", None)
        rc = main(["scan", "--n-legs", "3", "--omega-tau-2pi-max", bounds[0],
                   "--gamma-tau-2pi-max", bounds[1], "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: window bounds must be positive and finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["poles", *A1_FLAGS, "--re-min", "-400"],
         "F overflows at re_min = -400 with n_legs = 3; move re_min towards 0"),
        (["poles", "--n-legs", "65536", "--gamma-tau-2pi", "0.018", "--omega-tau-2pi", "1"],
         "the search rectangle needs 2.15e+10 boundary samples, companion entries and seeds"),
        (["poles", *A1_FLAGS, "--re-min=-1e5"],
         "F overflows at re_min = -100000 with n_legs = 3; move re_min towards 0"),
        (["field", "--n-legs", "0", "--gamma-tau-2pi", "0.018", "--dark-n", "1"],
         "n_legs must be >= 2, got 0"),
        (["field", "--n-legs", "3", "--gamma-tau-2pi", "0.5", "--dark-n", "1"],
         "dark index 1 forces omega_tau = -0.626304 <= 0 at gamma_tau = 3.14159; "
         "no physical dark point exists"),
        (["continuum", "--n", "1", "--gamma-t", "1e-310"], "Gamma_T = 1e-310 is too small"),
        (["continuum", "--n", "1", "--gamma-t", "1e-200"], "Gamma_T = 1e-200 is too small"),
        (["continuum", "--n", "0"], "mode index must be >= 1, got 0"),
        (["continuum", "--n", "1", "--length", "1e-310"], "contact length 1e-310 is out of range"),
        (["continuum", "--n", "1", "--length", "1e308", "--x-step", "1e308"],
         "contact length 1e+308 is out of range"),
    ], ids=["poles-overflow", "poles-budget", "poles-deep", "field-n-legs-0",
            "field-omega-below-0", "continuum-gamma-inf-ratio",
            "continuum-gamma-overflowing-square", "continuum-n-0",
            "continuum-length-subnormal", "continuum-length-huge"])
    def test_unevaluable_input_exits_2(self, tmp_path, capsys, argv, message):
        rc = main([*argv, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_overflowing_trapped_field_exits_2(self, tmp_path, capsys):
        # the closed forms' (2 sin^2(n pi/N) + N gamma)^2 overflows past gamma ~ 1e154
        argv = ["field", "--n-legs", "3", "--dark-n", "2", "--gamma-tau-2pi"]
        rc = main([*argv, "1e160", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma_tau = 6.28319e+160 overflows") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert main([*argv, "1e150", "--out-dir", str(tmp_path / "finite")]) == 0

    def test_unstable_step_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--n-legs", "3", "--gamma-tau-2pi", "0.02",
                   "--omega-tau-2pi", "7.3", "--t-max", "200", "--steps-per-tau", "16",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: steps_per_tau = 16") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["dark-search", "--n-legs", "3"],
        ["scan", "--n-legs", "3", "--omega-tau-2pi-max", "6", "--gamma-tau-2pi-max", "1"],
    ])
    def test_lattice_self_check_exits_4(self, tmp_path, monkeypatch, capsys, command):
        exact = darkstates.dark_condition_omega_tau
        monkeypatch.setattr(darkstates, "dark_condition_omega_tau",
                            lambda *args: exact(*args) + 1e-3)
        rc = main([*command, "--out-dir", str(tmp_path / "out")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: lattice point (p=") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestIntegerFlags:
    """Every integer flag ends up in float arithmetic, so argparse rejects one
    above 2**53 in magnitude (exit 2) before any handler runs."""

    BASE = {"simulate": PXT_FLAGS, "poles": ["poles", *A1_FLAGS],
            "dark-search": ["dark-search", "--n-legs", "3"], "scan": SCAN_FLAGS,
            "field": FIELD_FLAGS, "continuum": ["continuum", "--n", "1"]}

    def test_every_integer_flag_is_bounded(self):
        assert not [flag for _, flag, kind in _flags_by_type() if kind is int]
        assert len(INTEGER_FLAGS) == 13 and {c for c, _ in INTEGER_FLAGS} == set(self.BASE)
        assert integer(str(2 ** 53)) == 2 ** 53 and integer(str(-2 ** 53)) == -2 ** 53

    @pytest.mark.parametrize("value", ["9" * 400, str(2 ** 53 + 1), str(-2 ** 53 - 1)],
                             ids=["400-digits", "2**53+1", "-2**53-1"])
    @pytest.mark.parametrize("command, flag", INTEGER_FLAGS)
    def test_huge_integer_exits_2(self, tmp_path, monkeypatch, capsys, command, flag, value):
        def no_work(*args, **kwargs):
            raise AssertionError("a handler ran with a huge integer flag")
        for module, name in [(dde, "integrate_beta"), (spectral, "find_poles"),
                             (darkstates, "find_pairs"), (darkstates, "scan_lattice"),
                             (darkstates, "dark_condition_omega_tau"),
                             (continuum, "continuum_profile")]:
            monkeypatch.setattr(module, name, no_work)
        rc = main([*self.BASE[command], flag, value, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: integer magnitude above 2**53\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["field", "--n-legs", "1000000000", "--gamma-tau-2pi", "1e-30", "--dark-n", "1",
         "--x-step", "10000"],
        ["simulate", "--n-legs", "1000000000", "--gamma-tau-2pi", "1e-30",
         "--omega-tau-2pi", "0.1", "--t-max", "1"],
        ["dark-search", "--n-legs", "1000000000", "--p-max", "1", "--q-max", "1"],
        ["scan", "--n-legs", "1000000000", "--omega-tau-2pi-max", "0.25",
         "--gamma-tau-2pi-max", "1e-9", "--line-samples", "3"],
    ])
    def test_huge_n_legs_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("O(N) work started for a rejected n_legs")
        monkeypatch.setattr(field, "characteristic_fn", no_work)
        monkeypatch.setattr(dde, "integrate_beta", no_work)
        monkeypatch.setattr(darkstates, "_sorted_pairs", no_work)
        rc = main([*argv, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: the emitter needs 1e+09 coupling points, "
                                           "above the budget of 65536\n")
        assert not (tmp_path / "out").exists()


class TestGridBudget:
    """Empty or oversized grids exit 2 before any output or integration.

    Every size here is rejected; the oversized ones would need terabytes, so
    an allocation attempt could not succeed either.
    """

    @pytest.mark.parametrize("argv", [
        [*FIELD_FLAGS, "--x-step", "0"],
        [*FIELD_FLAGS, "--x-step", "-0.1"],
        [*FIELD_FLAGS, "--x-step", "nan"],
        [*FIELD_FLAGS, "--x-step", "1e-12"],
        ["continuum", "--n", "1", "--x-step", "0"],
        ["continuum", "--n", "1", "--x-step", "-0.1"],
        ["continuum", "--n", "1", "--length", "1e300"],
        [*SCAN_FLAGS, "--line-samples", "0"],
        [*SCAN_FLAGS, "--line-samples", str(MAX_GRID_SAMPLES + 1)],
        [*PXT_FLAGS, "--pxt-t-count", "0"],
        [*PXT_FLAGS, "--pxt-t-count", "1000000000000"],
        [*PXT_FLAGS, "--pxt-dx", "1e-12"],
        [*PXT_FLAGS, "--pxt-dx", "0"],
    ])
    def test_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started on a rejected grid")
        monkeypatch.setattr(dde, "integrate_beta", no_work)
        monkeypatch.setattr(darkstates, "_sorted_pairs", no_work)
        rc = main([*argv, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_budget_is_exact(self, tmp_path, monkeypatch, capsys):
        # 9 positions (x = 0 .. 2 at 0.25) times 3 frames: 27 samples, frames counted
        argv = [*PXT_FLAGS, "--pxt-x-min", "0", "--pxt-x-max", "2", "--pxt-dx", "0.25",
                "--pxt-t-count", "3"]
        monkeypatch.setattr("giant_atom.cli.MAX_GRID_SAMPLES", 26)
        assert main([*argv, "--out-dir", str(tmp_path / "over")]) == 2
        assert capsys.readouterr().err.endswith("the heatmap needs 27 samples, "
                                                "above the budget of 26\n")
        monkeypatch.setattr("giant_atom.cli.MAX_GRID_SAMPLES", 27)
        assert main([*argv, "--out-dir", str(tmp_path / "at")]) == 0


def test_threads_flag_is_gone(tmp_path):
    rc = main(["poles", *A1_FLAGS, "--threads", "2", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()


# Flag values for the exit-contract sweep: one in four is zero, a negative, a
# subnormal, a float extreme or non-finite, the rest are ordinary for the flag.
# No ordinary value makes a run long: every size they reach is small.
def _values(ordinary, extreme):
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(ordinary if k else extreme))


FLOAT_VALUES = _values(["0.018", "0.5", "1", "3"],
                       ["0", "-1", "-2.5", "1e-310", "1e308", "-1e308", "nan", "inf", "-inf"])
INTEGER_VALUES = _values(["2", "3", "5"], ["0", "-1", str(2 ** 53)])
FLAG_VALUES = {"--re-min": _values(["-2.5", "-1"], ["0", "3", "-400", "-1e308", "nan"]),
               "--steps-per-tau": _values(["16", "64"], ["0", "-1", "5", str(2 ** 53)])}
SUBCOMMANDS = {name: [a for a in sub._actions if a.dest not in ("help", "out_dir")]
               for name, sub in _subcommands().items()}


@st.composite
def drawn_argv(draw):
    """A subcommand with its required flags and a random subset of the rest;
    --pxt-t-count is always set, so a heatmap never takes its default 201 frames."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for action in SUBCOMMANDS[command]:
        flag = action.option_strings[0]
        if not (action.required or flag == "--pxt-t-count" or draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(flag)
        else:
            values = FLAG_VALUES.get(
                flag, INTEGER_VALUES if action.type is integer else FLOAT_VALUES)
            argv.append(f"{flag}={draw(values)}")
    return argv


def _refuse(constant):
    raise ValueError(f"manifest.json holds {constant}, which is not JSON")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=drawn_argv())
@example(argv=["poles", *A1_FLAGS, "--re-min=-400"])
@example(argv=["field", "--n-legs=0", "--gamma-tau-2pi=0.018", "--dark-n=1"])
@example(argv=["field", "--n-legs=3", "--gamma-tau-2pi=0.5", "--dark-n=1"])
@example(argv=["continuum", "--n=1", "--gamma-t=1e-310"])
@example(argv=["continuum", "--n=1", "--omega-t=nan"])
def test_exit_contract(argv):
    """Any drawn argv exits 0, 2, 3 or 4, with no traceback and no warning.  A
    run that fails after parsing prints one error line and leaves no output
    directory; a run that succeeds writes a manifest without NaN or Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [*argv, "--out-dir", out]
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                build_parser().parse_args(argv)
                parsed = True
            except SystemExit:
                parsed = False
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            rc = main(argv)
        if rc == 0:
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_refuse)
            return
        assert rc in ((2, 3, 4) if parsed else (2,))
        assert not os.path.exists(out)
        if parsed:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_omega_t_flag_is_gone(tmp_path):
    # continuum derives Omega*T from the dark condition; it is not an input
    rc = main(["continuum", "--n", "1", "--omega-t", "5", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()


def test_python_m_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "giant_atom.cli", "continuum", "--n", "1",
                           "--out-dir", str(tmp_path)], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "profile.csv").exists()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_successive_main_calls_share_no_state(tmp_path):
    # main's one parser carries no flag, default or failure from one call to
    # the next: each result directory is the one a first call would write
    sim = ["simulate", *A1_FLAGS, "--t-max", "3"]

    def run(name, *flags):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([*sim, *flags, "--out-dir", str(out)]), out

    def params(out):
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return {key: value for key, value in manifest["params"].items() if key != "out_dir"}

    first = run("first")
    assert [run("pxt", "--pxt", "--pxt-t-count", "3")[0], run("stride", "--stride", "7")[0],
            run("bad", "--stride", "x")[0], run("again")[0]] == [0, 0, 2, 0]
    assert sorted(p.name for p in (tmp_path / "pxt").iterdir()) == [
        "beta.csv", "manifest.json", "pxt.csv"]
    # 2 * 256 * t_max + 1 samples, every 7th written
    assert len(read_csv(tmp_path / "stride" / "beta.csv")[1]) == len(range(0, 2 * 256 * 3 + 1, 7))
    assert not (tmp_path / "bad").exists()
    again = tmp_path / "again"
    assert sorted(p.name for p in again.iterdir()) == ["beta.csv", "manifest.json"]
    assert params(again) == params(first[1])
    assert (again / "beta.csv").read_bytes() == (first[1] / "beta.csv").read_bytes()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
