"""Mutation gate: break one line of the package at a time and expect a test to fail.

Each entry of MUTANTS names a file, an exact text that must occur there once,
the text that replaces it, and the pytest selector that should notice.  For
every entry src, tests, pyproject.toml and README.md (whose commands
tests/test_readme.py runs) are copied to a temporary directory; the copied
pyproject.toml names the one pytest plugin every run loads, hypothesis's.
An old text that is missing there or occurs more than once is an error, so a
refactor that moves a line fails loudly instead of passing silently.  The
selector must pass unmutated (checked once per selector): a red selector is an
error, not a kill, since it would fail whatever the edit did.  Then the edit
is applied and the selector is run with -x -q; a failure kills the mutant, and
a mutant whose selector still passes survives.  The entries are judged on every
core at once, each in its own tree and its own pytest process; two entries may
check one selector at the same time, which costs a run but changes no outcome.

    python .github/mutants.py

prints one line per mutant, in table order once all are judged, then the
survivors, and exits 0 when every mutant is killed, 1 when any survives and 2
on an error.  It uses only the standard library and pytest, and copies from the
repository this file sits in.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    selector: tuple[str, ...]


FIELD, DDE = "src/giant_atom/field.py", "src/giant_atom/dde.py"
DARK = "src/giant_atom/darkstates.py"
CONE = ("tests/test_field.py::TestConeQuadrature::test_matches_panel_loop",)
FLUX = ("tests/test_field.py::test_outgoing_flux_against_exact_series",)
ROW_CONE = ("tests/test_field.py::test_row_cone_matches_phi_cell_by_cell",)
RESUME = ("tests/test_field.py::test_resumed_flux_matches_a_cold_walk",)
RESUMES = ("tests/test_field.py::test_flux_walk_resumes_over_ascending_times",)
SHARED = ("tests/test_field.py::test_cached_patterns_are_shared_safely",)
MARCH = ("tests/test_dde.py::test_matches_scalar_march",)
SCAN = ("tests/test_darkstates.py::TestLatticeBudget::test_scan_counts_bound_the_work",)
CSV = ("tests/test_cli.py::TestCsvBytes",)

MUTANTS = (
    # field: the carried rows, the N-row window, the cell's cuts, the probe at
    # the node in place of the panel's midpoint (which the inside and the tails
    # both read), Simpson's weights, the mirrored prefix sums (phi_L) one row off
    # or read without reversing the nodes, a right panel group that is not the
    # left one mirrored, and a cached pattern left writable
    Mutant(FIELD, "carry = rows[1 - n_legs:]", "carry = 0.0 * rows[1 - n_legs:]", FLUX),
    Mutant(FIELD, "sliding_window_view(rows, n_legs, axis=0)",
           "sliding_window_view(rows, n_legs - 1, axis=0)", FLUX),
    Mutant(FIELD, "_cone_cell(min(f, 1.0 - f))", "_cone_cell(f)", CONE),
    Mutant(FIELD, "shifts - probes >= 0.0", "shifts - nodes >= 0.0", CONE),
    Mutant(FIELD, "shifts - probes >= 0.0", "shifts - nodes >= 0.0", FLUX),
    Mutant(FIELD, "np.tile([4.0, 2.0], k // 2)", "np.tile([2.0, 4.0], k // 2)", CONE),
    Mutant(FIELD, "ends + ends[::-1, ::-1]", "ends + np.roll(ends[::-1, ::-1], 1, axis=0)",
           ROW_CONE),
    Mutant(FIELD, "ends + ends[::-1, ::-1]", "ends + ends[::-1]", ROW_CONE),
    Mutant(FIELD, "(1.0 - a, a)):", "(1.0 - a, 1.0 - (1.0 - a))):", ROW_CONE),
    Mutant(FIELD, "array.flags.writeable = False", "array.flags.writeable = True", SHARED),
    # field: the heatmap's frame block one frame short
    Mutant(FIELD, "block = times[start:start + _FRAMES]",
           "block = times[start:start + _FRAMES - 1]",
           ("tests/test_field.py::TestIntensityMap::test_frames_match_phi_frame_by_frame",)),
    # field: the walk resumed from a cursor past t, without its carried rows,
    # from another trace's cursor, from another N's and from another frac(t)'s;
    # and never resumed
    Mutant(FIELD, "frac == f and done <= whole + 1)", "frac == f)", RESUME),
    Mutant(FIELD, "whole + 1, carry, power)", "whole + 1, 0.0 * carry, power)", RESUME),
    Mutant(FIELD, "(ref() is trace and legs", "(legs", RESUME),
    Mutant(FIELD, "legs == n_legs and frac", "frac", RESUME),
    Mutant(FIELD, "and frac == f and", "and", RESUME),
    Mutant(FIELD, "if not (ref() is trace and legs == n_legs and frac == f and done <= whole + 1):",
           "if not False:", RESUMES),
    # dde: the scan's start-value correction, the scan's reach, an interval's padded
    # last chunk left out, the scan's last doubling pass and an interval's start value
    # read one sample late; a trace allocated one sample short; a budget that counts
    # the trace alone, and one that counts one interval but not the last one's
    # overrun; the overrun left on the trace, and a cut that a tracer's snapshot of
    # the locals refuses
    Mutant(DDE, "np.subtract(local[:-1, -1], starts, out=carry[1:])",
           "np.copyto(carry[1:], local[:-1, -1])", MARCH),
    Mutant(DDE, "if n_chunks > 1:", "if n_chunks > 2:", MARCH),
    Mutant(DDE, "n_chunks = -(-m // _CHUNK)", "n_chunks = m // _CHUNK", MARCH),
    Mutant(DDE, "range((n_chunks - 1).bit_length())",
           "range((n_chunks - 1).bit_length() - 1)", MARCH),
    Mutant(DDE, "vb[0] = samples[2 * m * j]", "vb[0] = samples[2 * m * j + 1]", MARCH),
    Mutant(DDE, "size = 2 * m * (n_int - 1) + 1 + 2 * _CHUNK * n_chunks",
           "size = 2 * m * (n_int - 1) + 2 * _CHUNK * n_chunks", MARCH),
    Mutant(DDE, 'per tau", size,', 'per tau", 2.0 * n_steps + 1.0,',
           ("tests/test_dde.py::test_interval_scratch_checked_before_allocation",)),
    Mutant(DDE, 'per tau", size,', 'per tau", max(2.0 * n_steps + 1.0, 2 * m + 1),',
           ("tests/test_dde.py::test_budget_counts_the_last_intervals_overrun",)),
    Mutant(DDE, "samples.resize(2 * n_steps + 1, refcheck=False)", "pass",
           ("tests/test_dde.py::test_trace_is_cut_to_its_own_samples",)),
    Mutant(DDE, ", refcheck=False)", ")",
           ("tests/test_dde.py::test_trace_is_cut_under_a_tracer_that_reads_locals",)),
    # core: a trace that leaves the samples it is given writable, one that keeps
    # a view instead of copying it, and one that keeps a writable array it owns
    Mutant("src/giant_atom/core.py", "self.samples.flags.writeable = False", "pass",
           ("tests/test_field.py::test_walked_trace_cannot_change_under_the_flux",)),
    Mutant("src/giant_atom/core.py", 'object.__setattr__(self, "samples", self.samples.copy())',
           "pass", ("tests/test_field.py::test_trace_over_a_view_cannot_change_under_the_flux",)),
    Mutant("src/giant_atom/core.py", "if self.samples.flags.writeable or not",
           "if not", ("tests/test_field.py::"
                      "test_trace_over_an_array_with_an_earlier_view_cannot_change_under_the_flux",)),
    # dde: the dense output's snap onto a sample
    Mutant(DDE, "np.abs(pos - nearest) <= _GRID_SNAP", "np.abs(pos - nearest) < 0.0",
           ("tests/test_dde.py::TestDenseOutput::test_snapped_grid_hits_bit_identical",)),
    # cli: beta.csv's |b|^2 from an array form that rounds differently in the last
    # bit, and a manifest that leaves out --stride
    Mutant("src/giant_atom/cli.py", "np.float_power(np.hypot(b.real, b.imag), 2)",
           "np.abs(b) ** 2", ("tests/test_cli.py::TestCsvBytes::test_simulate_beta_csv",)),
    Mutant("src/giant_atom/cli.py", 'if key != "func"},', 'if key not in ("func", "stride")},',
           ("tests/test_readme.py::test_manifest_params_rerun_the_command",)),
    # cli: pxt.csv's t column formatted from the frame times rounded to float32
    Mutant("src/giant_atom/cli.py", "_float_text([f.t for f in frames])",
           "_float_text(np.float32([f.t for f in frames]))",
           ("tests/test_cli.py::TestCsvBytes::test_simulate_pxt_csv",)),
    # cli: the float kernel rounding half up instead of half to even, taking k from
    # log10 without its exact correction, and the scientific layout from k < -5
    Mutant("src/giant_atom/cli.py", "rounded = np.rint(lo)", "rounded = np.floor(lo + 0.5)",
           CSV),
    Mutant("src/giant_atom/cli.py",
           "row += (a >= ceil10[row + 1]).view(np.int8) - (a < ceil10[row]).view(np.int8)",
           "pass", CSV),
    Mutant("src/giant_atom/cli.py", "fixed = -4 <= k < 17", "fixed = -5 <= k < 17", CSV),
    # spectral: no seed at -(i omega + N gamma/2), the root of F's non-delayed part
    Mutant("src/giant_atom/spectral.py",
           "seeds = np.append(_chain_seeds(params, k_lo + np.arange(n_bands)),\n"
           "                      -1j * params.omega_tau - 0.5 * params.n_legs * params.gamma_tau)",
           "seeds = _chain_seeds(params, k_lo + np.arange(n_bands))",
           ("tests/test_spectral.py::test_weak_coupling_root_found_off_the_chains",)),
    # every check_budget call site, one unit too lax
    Mutant("src/giant_atom/core.py", '"coupling points", MAX_N_LEGS)',
           '"coupling points", MAX_N_LEGS + 1)',
           ("tests/test_core.py::TestInputRules::test_n_legs_bound",)),
    Mutant(DDE, '"samples", MAX_TRACE_SAMPLES)', '"samples", MAX_TRACE_SAMPLES + 1)',
           ("tests/test_dde.py::test_sample_budget_checked_before_allocation",)),
    Mutant("src/giant_atom/spectral.py", 'seeds", MAX_SEEDS)', 'seeds", MAX_SEEDS + 1)',
           ("tests/test_spectral.py::test_seed_budget_counts_walk_companions_and_seeds",)),
    Mutant(DARK, 'q_max),\n                 "lattice points", MAX_LATTICE_POINTS)',
           'q_max),\n                 "lattice points", MAX_LATTICE_POINTS + 1)',
           ("tests/test_darkstates.py::TestLatticeBudget::test_pair_count_is_exact",)),
    Mutant(DARK, '// 2),\n                 "lattice points", MAX_LATTICE_POINTS)',
           '// 2),\n                 "lattice points", MAX_LATTICE_POINTS + 1)', SCAN),
    Mutant(DARK, 'lines, "lattice points", MAX_LATTICE_POINTS)',
           'lines, "lattice points", MAX_LATTICE_POINTS + 1)', SCAN),
    Mutant("src/giant_atom/cli.py", '"samples", MAX_GRID_SAMPLES)',
           '"samples", MAX_GRID_SAMPLES + 1)',
           ("tests/test_cli.py::TestGridBudget::test_budget_is_exact",)),
    Mutant(FIELD, '"values", MAX_TRACE_SAMPLES)', '"values", MAX_TRACE_SAMPLES + 1)',
           ("tests/test_field.py::test_inside_cone_budget_is_exact",)),
)


def _copy(dest: Path) -> None:
    junk = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=junk)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _passes(work: Path, selector: tuple[str, ...]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selector]
    return subprocess.run(cmd, cwd=work, env=env, capture_output=True).returncode == 0


def _run(mutant: Mutant, clean: dict[tuple[str, ...], bool]) -> str:
    """'killed', 'survived', or the error that kept the mutant from being judged."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _copy(work)
        target = work / mutant.path
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.old) != 1:
            return f"error: the old text occurs {source.count(mutant.old)} times"
        if mutant.selector not in clean:
            clean[mutant.selector] = _passes(work, mutant.selector)
        if not clean[mutant.selector]:
            return "error: the selector fails unmutated"
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        return "survived" if _passes(work, mutant.selector) else "killed"


def _timed(mutant: Mutant, clean: dict[tuple[str, ...], bool]) -> tuple[str, float]:
    start = time.perf_counter()
    return _run(mutant, clean), time.perf_counter() - start


def main(table: tuple[Mutant, ...] = MUTANTS) -> int:
    clean: dict[tuple[str, ...], bool] = {}
    survivors, errors = [], 0
    begin = time.perf_counter()
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        judged = list(pool.map(lambda mutant: _timed(mutant, clean), table))
    for mutant, (outcome, seconds) in zip(table, judged):
        old, new = (" ".join(text.split()) for text in (mutant.old, mutant.new))
        label = f"{mutant.path}: {old!r} -> {new!r}"
        print(f"{outcome}: {label} ({seconds:.1f} s)")
        if outcome == "survived":
            survivors.append(label)
        errors += outcome.startswith("error")
    print(f"{len(table)} mutants, {len(survivors)} survived, {errors} errors, "
          f"{time.perf_counter() - begin:.1f} s")
    for label in survivors:
        print(f"survivor: {label}")
    return 2 if errors else 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
