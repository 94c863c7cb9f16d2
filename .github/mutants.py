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
CORE, SPECTRAL = "src/giant_atom/core.py", "src/giant_atom/spectral.py"
DARK, CONTINUUM = "src/giant_atom/darkstates.py", "src/giant_atom/continuum.py"
CONE = ("tests/test_field.py::TestConeQuadrature::test_matches_panel_loop",)
FLUX = ("tests/test_field.py::test_outgoing_flux_against_exact_series",)
ROW_CONE = ("tests/test_field.py::test_row_cone_matches_phi_cell_by_cell",)
RESUME = ("tests/test_field.py::test_resumed_flux_matches_a_cold_walk",)
RESUMES = ("tests/test_field.py::test_flux_walk_resumes_over_ascending_times",)
TOTAL = ("tests/test_field.py::test_total_probability_is_beta_squared_plus_the_field",)
SHARED = ("tests/test_field.py::test_cached_patterns_are_shared_safely",)
MARCH = ("tests/test_dde.py::test_matches_scalar_march",)
SCAN = ("tests/test_darkstates.py::TestLatticeBudget::test_scan_counts_bound_the_work",)
CSV = ("tests/test_cli.py::TestCsvBytes",)
DELAY_SUMS = ("tests/test_core.py::TestDelaySums",)
LIPSCHITZ = ("tests/test_spectral.py::TestRecoveryPaths::test_edge_on_dark_root_is_nudged",)
WALK = ("tests/test_spectral.py::test_winding_walk_evaluates_each_sample_once",)
BOUND = ("tests/test_spectral.py::test_accepted_ring_meets_the_bound_from_scratch",)
SERIES = ("tests/test_spectral.py::test_pole_series_on_a_time_grid_against_mpmath",)

MUTANTS = (
    # field: the carried rows, the N-row window one row short and stepping along
    # the nodes in place of the rows, the cell's cuts, the probe at the node in
    # place of the panel's midpoint (which the inside and the tails both read),
    # Simpson's weights, the mirrored prefix sums (phi_L) one row off or read
    # without reversing the nodes, a right panel group that is not the left one
    # mirrored, and a cached pattern left writable
    Mutant(FIELD, "carry, beta_t = rows[1 - n_legs:],", "carry, beta_t = 0.0 * rows[1 - n_legs:],",
           FLUX),
    Mutant(FIELD, "len(nodes), n_legs), rows.dtype", "len(nodes), n_legs - 1), rows.dtype", FLUX),
    Mutant(FIELD, "(s0, s1, s0))", "(s0, s1, s1))", FLUX),
    Mutant(FIELD, "_cone_cell(min(f, 1.0 - f))", "_cone_cell(f)", CONE),
    Mutant(FIELD, "shifts - probes >= 0.0", "shifts - nodes >= 0.0", CONE),
    Mutant(FIELD, "shifts - probes >= 0.0", "shifts - nodes >= 0.0", FLUX),
    Mutant(FIELD, "np.tile([4.0, 2.0], k // 2)", "np.tile([2.0, 4.0], k // 2)", CONE),
    Mutant(FIELD, "ends + ends[::-1, ::-1]", "ends + np.roll(ends[::-1, ::-1], 1, axis=0)",
           ROW_CONE),
    Mutant(FIELD, "ends + ends[::-1, ::-1]", "ends + ends[::-1]", ROW_CONE),
    Mutant(FIELD, "(1.0 - a, a)):", "(1.0 - a, 1.0 - (1.0 - a))):", ROW_CONE),
    Mutant(FIELD, "array.flags.writeable = False", "array.flags.writeable = True", SHARED),
    # field: the heatmap's frame block one frame short, and a wave counted on
    # its light cone's edge as if it had not yet arrived
    Mutant(FIELD, "block = times[start:start + _FRAMES]",
           "block = times[start:start + _FRAMES - 1]",
           ("tests/test_field.py::TestIntensityMap::test_frames_match_phi_frame_by_frame",)),
    Mutant(FIELD, "(delay >= 0.0) *", "(delay > 0.0) *",
           ("tests/test_field.py::TestFieldAmplitude::test_matches_the_sum_at_one_time",)),
    # field: the walk resumed from past t, without its carried rows, from
    # another trace's walk, from another N's and from another frac(t)'s; and
    # never resumed
    Mutant(FIELD, "frac == f and done <= whole + 1)", "frac == f)", RESUME),
    Mutant(FIELD, "whole + 1, carry, power, beta_t)", "whole + 1, 0.0 * carry, power, beta_t)",
           RESUME),
    Mutant(FIELD, "_walks.get(trace,", "_walks.get(next(iter(_walks), trace),",
           (*RESUME, "tests/test_field.py::test_calls_on_other_traces_leave_a_walk_alone")),
    Mutant(FIELD, "legs == n_legs and frac", "frac", RESUME),
    Mutant(FIELD, "and frac == f and", "and", RESUME),
    Mutant(FIELD, "if not (legs == n_legs and frac == f and done <= whole + 1):",
           "if not False:", RESUMES),
    # field: total_probability's beta(t) read from the block's first row in place of
    # its last, and from node 1 in place of y = 0; a cut within 1e-12 of a cell end
    # not snapped onto it, which leaves the cell without its node y = 0
    Mutant(FIELD, "complex(beta[-1, 0])", "complex(beta[0, 0])", TOTAL),
    Mutant(FIELD, "complex(beta[-1, 0])", "complex(beta[-1, 1])", TOTAL),
    Mutant(FIELD, "a if a >= 1e-12 else 0.0", "a",
           ("tests/test_field.py::test_total_probability_reads_beta_at_t_near_a_whole_tau",)),
    # dde: the scan's start-value correction, the scan's reach, an interval's padded
    # last chunk left out, the scan's last doubling pass and an interval's start value
    # read one sample late; the first delayed input carried without the term that
    # switches on at a ramp interval, and carried from the wrong entry; a trace
    # allocated one sample short; a budget that counts the trace alone, and one that
    # counts one interval but not the last one's overrun; the overrun left on the
    # trace, and a cut that a tracer's snapshot of the locals refuses
    Mutant(DDE, "np.subtract(local[:-1, -1], starts, out=carry[1:])",
           "np.copyto(carry[1:], local[:-1, -1])", MARCH),
    Mutant(DDE, "if n_chunks > 1:", "if n_chunks > 2:", MARCH),
    Mutant(DDE, "n_chunks = -(-m // _CHUNK)", "n_chunks = m // _CHUNK", MARCH),
    Mutant(DDE, "range((n_chunks - 1).bit_length())",
           "range((n_chunks - 1).bit_length() - 1)", MARCH),
    Mutant(DDE, "heads = samples[::2 * m]", "heads = samples[1::2 * m]", MARCH),
    Mutant(DDE, "vb[1] = vb[last] + weights[n - 1 - j] * heads[0]", "vb[1] = vb[last]", MARCH),
    Mutant(DDE, "vb[1] = vb[last]\n", "vb[1] = vb[last - 1]\n", MARCH),
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
    Mutant(CORE, "self.samples.flags.writeable = False", "pass",
           ("tests/test_field.py::test_walked_trace_cannot_change_under_the_flux",)),
    Mutant(CORE, 'object.__setattr__(self, "samples", self.samples.copy())', "pass",
           ("tests/test_field.py::test_trace_over_a_view_cannot_change_under_the_flux",)),
    Mutant(CORE, "if self.samples.flags.writeable or not", "if not",
           ("tests/test_field.py::"
            "test_trace_over_an_array_with_an_earlier_view_cannot_change_under_the_flux",)),
    # dde: the dense output's snap onto a sample
    Mutant(DDE, "np.abs(pos - nearest) <= _GRID_SNAP", "np.abs(pos - nearest) < 0.0",
           ("tests/test_dde.py::TestDenseOutput::test_snapped_grid_hits_bit_identical",)),
    # core: the one |b|^2 rule from an array form that rounds differently in the
    # last bit; cli: beta.csv's prob column not taken from it, and a manifest
    # that leaves out --stride
    Mutant(CORE, "np.float_power(np.hypot(b.real, b.imag), 2)", "np.abs(b) ** 2",
           ("tests/test_cli.py::TestCsvBytes::test_simulate_beta_csv",)),
    Mutant("src/giant_atom/cli.py", "_abs_squared(b)]", "np.abs(b) ** 2]",
           ("tests/test_cli.py::TestCsvBytes::test_trace_probabilities_are_the_prob_column",)),
    Mutant("src/giant_atom/cli.py", 'if key != "func"},', 'if key not in ("func", "stride")},',
           ("tests/test_readme.py::test_manifest_params_rerun_the_command",)),
    # cli: pxt.csv's t column formatted from the frame times rounded to float32,
    # and a short last block of frames given a full block's x column
    Mutant("src/giant_atom/cli.py", "_float_text([f.t for f in frames])",
           "_float_text(np.float32([f.t for f in frames]))",
           ("tests/test_cli.py::TestCsvBytes::test_simulate_pxt_csv",)),
    Mutant("src/giant_atom/cli.py", "np.tile(xs, len(frames[i:i + k]))", "np.tile(xs, k)",
           ("tests/test_cli.py::TestWriterParts::test_pxt_blocks_are_whole_frames",)),
    # cli: the float kernel rounding half up instead of half to even, taking k from
    # log10 without its exact correction, and the scientific layout from k < -5
    Mutant("src/giant_atom/cli.py", "rounded = np.rint(lo)", "rounded = np.floor(lo + 0.5)",
           CSV),
    Mutant("src/giant_atom/cli.py",
           "row += (a >= ceil10[row + 1]).view(np.int8) - (a < ceil10[row]).view(np.int8)",
           "pass", CSV),
    Mutant("src/giant_atom/cli.py", "fixed = -4 <= k < 17", "fixed = -5 <= k < 17", CSV),
    # cli: a piece's float columns formatted in reverse order, _float_text's fields
    # each taken one place late, a piece cut one row short of the next one's
    # start, and the digit table with its thousands and hundreds swapped
    Mutant("src/giant_atom/cli.py", "_float_fields(np.array(floats).ravel()",
           "_float_fields(np.array(floats[::-1]).ravel()", CSV),
    Mutant("src/giant_atom/cli.py", '.split(b"\\n")[:-1]', '.split(b"\\n")[1:]', CSV),
    Mutant("src/giant_atom/cli.py", "start + CSV_BLOCK_ROWS]", "start + CSV_BLOCK_ROWS - 1]",
           CSV),
    Mutant("src/giant_atom/cli.py", "np.array([1000, 100, 10, 1])", "np.array([100, 1000, 10, 1])",
           CSV),
    # core: F's and F''s delay sums, P's weight one too large and Q's without its
    # factor l; F' with the sign of its delay sum flipped; the term scale without
    # the rounding of exp(-s); spectral: the winding walk's |F'| bound without
    # its delay sum, and the values of a pass's midpoints put in one slot early
    # or taken at each bisected segment's end in place of its midpoint; a
    # segment's bound taken at the larger real part of its ends, and the pole
    # series' tables anchored only every 4096th row
    Mutant(CORE, "p += n_legs - l\n", "p += n_legs - l + 1\n", DELAY_SUMS),
    Mutant(CORE, "q += (n_legs - l) * l", "q += n_legs - l", DELAY_SUMS),
    Mutant(CORE, "1.0 - g * q", "1.0 + g * q",
           ("tests/test_core.py::TestCharacteristicAccuracy::test_against_mpmath",)),
    Mutant(CORE, "+ g * p + np.abs(s) * g * q)", "+ g * p)",
           ("tests/test_core.py::TestCharacteristicAccuracy::test_term_scale_against_mpmath",)),
    Mutant(SPECTRAL, "lipschitz = 1.0 + params.gamma_tau * q", "lipschitz = 1.0", LIPSCHITZ),
    Mutant(SPECTRAL, "np.insert(vals, at,", "np.insert(vals, at - 1,", WALK),
    Mutant(SPECTRAL, "characteristic_fn(params, mid))", "characteristic_fn(params, ring[at]))",
           WALK),
    Mutant(SPECTRAL, "np.minimum(ring[:-1].real", "np.maximum(ring[:-1].real", BOUND),
    Mutant(SPECTRAL, "_ANCHOR = 64 ", "_ANCHOR = 4096 ", SERIES),
    # spectral: no seed at -(i omega + N gamma/2), the root of F's non-delayed part
    Mutant(SPECTRAL,
           "seeds = np.append(_chain_seeds(params, k_lo + np.arange(n_bands)),\n"
           "                      -1j * params.omega_tau - 0.5 * params.n_legs * params.gamma_tau)",
           "seeds = _chain_seeds(params, k_lo + np.arange(n_bands))",
           ("tests/test_spectral.py::test_weak_coupling_root_found_off_the_chains",)),
    # darkstates: a pair's beat at half its value, the RWA cut at 0.2, pairs ordered
    # by (omega, n, gamma), and the dark line's cotangent taken at the full index;
    # continuum: the trapped intensity's 3/2 as 1.4, the profile's sin^4 as sin^2,
    # the comb limit 0.1% high, mode_offset_from_Gamma from sin in place of tan,
    # and the integer-root tolerance at 1e-6; field: total_intensity's shape
    # term over 2 n pi in place of 4 n pi, bound_profile's sines taken at the
    # full index, the pair's field beat off in phase by 1e-3, and the
    # dark-record tolerance at 1e-6
    Mutant(DARK, "beat = TWO_PI * (n1 - n2) / n_legs", "beat = math.pi * (n1 - n2) / n_legs",
           ("tests/test_darkstates.py::TestFindPairs::test_pair_551",)),
    Mutant(DARK, "DEFAULT_RWA_THRESHOLD = 0.1", "DEFAULT_RWA_THRESHOLD = 0.2",
           ("tests/test_darkstates.py::TestRwaCheck::test_huge_gamma_fails",)),
    Mutant(DARK, "key=lambda pr: (pr.omega_tau, pr.gamma_tau, pr.n)",
           "key=lambda pr: (pr.omega_tau, pr.n, pr.gamma_tau)",
           ("tests/test_darkstates.py::TestFindPairs::test_pairs_in_documented_order",)),
    Mutant(DARK, "arg = n % n_legs * math.pi", "arg = n * math.pi",
           ("tests/test_darkstates.py::test_lattice_pair_at_large_p_meets_its_dark_condition",)),
    Mutant(CONTINUUM, "1.5 * u / den", "1.4 * u / den",
           ("tests/test_continuum.py::TestProfile::test_peak_bound",)),
    Mutant(CONTINUUM, "/ L) ** 4", "/ L) ** 2",
           ("tests/test_continuum.py::TestProfile::test_integral_closed_form",)),
    Mutant(CONTINUUM, "Gamma_T_limit=(2.0 * n * math.pi) ** 2",
           "Gamma_T_limit=1.001 * (2.0 * n * math.pi) ** 2",
           ("tests/test_continuum.py::TestCombPair::test_limit_record_n1",)),
    Mutant(CONTINUUM, "2.0 * n_legs * math.tan(", "2.0 * n_legs * math.sin(",
           ("tests/test_continuum.py::TestCombPair::"
            "test_mode_offset_from_gamma_is_gamma_t_over_2n_pi",)),
    Mutant(CONTINUUM, "INTEGER_ROOT_TOL = 1e-9", "INTEGER_ROOT_TOL = 1e-6",
           ("tests/test_continuum.py::TestDarkIndices::test_root_1e8_off_an_integer_rejected",)),
    Mutant(FIELD, "(big_n / (4.0 * n * math.pi))", "(big_n / (2.0 * n * math.pi))",
           ("tests/test_field.py::TestTotalIntensity::test_quadrature_agreement",)),
    Mutant(FIELD, "k = n % big_n", "k = n",
           ("tests/test_field.py::TestBoundProfile::"
            "test_large_index_at_the_coupling_points_against_mpmath",)),
    Mutant(FIELD, "np.cos((w1 - w2) * ts)", "np.cos((w1 - w2) * ts + 1e-3)",
           ("tests/test_field.py::TestOscillatingIntensity::"
            "test_conservation_with_energy_matching",)),
    Mutant(FIELD, "_DARK_TOL = 1e-10", "_DARK_TOL = 1e-6",
           ("tests/test_field.py::TestDarkStateRecord::test_large_index_judged_on_term_scale",)),
    # every check_budget call site, one unit too lax
    Mutant(CORE, '"coupling points", MAX_N_LEGS)',
           '"coupling points", MAX_N_LEGS + 1)',
           ("tests/test_core.py::TestInputRules::test_n_legs_bound",)),
    Mutant(DDE, '"samples", MAX_TRACE_SAMPLES)', '"samples", MAX_TRACE_SAMPLES + 1)',
           ("tests/test_dde.py::test_sample_budget_checked_before_allocation",)),
    Mutant(SPECTRAL, 'seeds", MAX_SEEDS)', 'seeds", MAX_SEEDS + 1)',
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
