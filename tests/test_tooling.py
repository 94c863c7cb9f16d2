"""The repository's own tooling under .github/."""

import contextlib
import importlib.util
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line

LABEL = "a string constant, not a docstring"  # a trailing comment


class Box:
    """Class docstring."""

    def area(self, width,
             height):
        """Function docstring,
        over two lines."""
        "a second string statement is no docstring"
        return (width
                * height)


async def fetch():
    """Async function docstring."""
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / ".github" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # a script may put src on the path for itself
    return module


@pytest.fixture(scope="module")
def code_lines_module():
    return _load("code_lines")


def test_code_lines_skips_docstrings_comments_and_blanks(code_lines_module):
    # LABEL, class, both lines of the def, the second string, both return
    # lines, async def
    assert code_lines_module.code_lines(FIXTURE) == 8


def test_code_lines_exit_codes(code_lines_module, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert code_lines_module.main(["no-such-ref"]) == 1
    assert "cannot read src/giant_atom at no-such-ref" in capsys.readouterr().err
    assert code_lines_module.main(["a", "b"]) == 2
    assert capsys.readouterr().err.startswith("usage:")


@pytest.fixture(scope="module")
def layer_timing_tables():
    """The march table's, the field table's and the csv table's lines of one
    small run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _load("layer_timing").main(["--n-legs", "3", "--steps-per-tau", "16",
                                           "--t-max", "2", "--repeat", "1"]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 10
    return lines[:3], lines[3:6], lines[6:]


def test_march_timing_prints_one_row_per_case(layer_timing_tables):
    header, columns, *rows = layer_timing_tables[0]
    assert header == "integrate_beta, us per tau interval (t_max = 2, best of 1)"
    assert columns.split() == ["N", "M", "us"]
    [(n_legs, m, us)] = [row.split() for row in rows]
    assert (n_legs, m) == ("3", "16") and float(us) > 0.0


def test_field_timing_prints_one_row_per_case(layer_timing_tables):
    header, columns, *rows = layer_timing_tables[1]
    assert header == "field quadrature, ms per call (t = 1.5, M = 64, best of 1)"
    assert columns.split() == ["N", "walk", "per_tau"]
    [(n_legs, walk, per_tau)] = [row.split() for row in rows]
    assert n_legs == "3" and float(walk) > 0.0 and float(per_tau) > 0.0


def test_csv_timing_prints_one_row_per_table(layer_timing_tables):
    header, columns, *rows = layer_timing_tables[2]
    assert header == "csv export, us per row (t_max = 2, best of 1)"
    assert columns.split() == ["table", "rows", "us"]
    # beta.csv: 2 * 256 * t_max + 1 samples; pxt.csv: 201 frames of 441 points
    assert [row.split()[:2] for row in rows] == [["beta", "1025"], ["pxt", "88641"]]
    assert all(float(row.split()[2]) > 0.0 for row in rows)


def test_timing_against_a_revision_prints_both_sides_and_their_ratio():
    # HEAD's package beside the work tree's, each cell alternating between them
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _load("layer_timing").main(["--n-legs", "3", "--steps-per-tau", "16",
                                           "--t-max", "2", "--repeat", "2",
                                           "--against", "HEAD"]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 10
    assert lines[0] == ("integrate_beta, us per tau interval (t_max = 2, "
                        "2 alternating calls per side, HEAD against the work tree)")
    parts = ["ref_min", "ref_med", "min", "med", "ratio"]
    tables = {1: (["N", "M"], ["us"]), 4: (["N"], ["walk", "per_tau"]),
              7: (["table", "rows"], ["us"])}
    for at, (keys, names) in tables.items():
        assert lines[at - 1].endswith("2 alternating calls per side, HEAD against the work tree)")
        assert lines[at].split() == keys + [f"{n}:{p}" for n in names for p in parts]
        rows = lines[at + 1:at + 3] if at == 7 else [lines[at + 1]]
        for row in rows:
            values = [float(v) for v in row.split()[len(keys):]]
            assert len(values) == 5 * len(names) and all(v > 0.0 for v in values)
    assert "giant_atom_ref" not in sys.modules


# a two-file tree for mutants.py to copy: a budget comparison, the comment the
# inert edit touches, and one test that pins the comparison at its boundary,
# beside the pyproject.toml and README.md every copy takes; the toy needs no
# plugin, and loading the installed ones is most of each run's start-up
TOY_TREE = {
    "pyproject.toml": ('[tool.pytest.ini_options]\ntestpaths = ["tests"]\n'
                       'addopts = ["--disable-plugin-autoload"]\n'),
    "README.md": "# toy\n",
    "src/toy.py": (
        "# Most coupling points a job may ask for\n"
        "BUDGET = 100\n\n\n"
        "def check(count, budget=BUDGET):\n"
        "    if not count <= budget:\n"
        "        raise ValueError(f'{count} is above the budget of {budget}')\n"),
    "tests/test_toy.py": (
        "import pytest\n\nfrom toy import check\n\n\n"
        "def test_budget_rejects():\n"
        "    with pytest.raises(ValueError):\n"
        "        check(101)\n"
        "    check(100)\n"),
}


def _write_tree(root, tree):
    for name, text in tree.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")


def test_mutants_reports_the_inert_edit_as_a_survivor(capsys, monkeypatch, tmp_path):
    mutants = _load("mutants")
    _write_tree(tmp_path, TOY_TREE)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    toy = "src/toy.py"
    selector = ("tests/test_toy.py::test_budget_rejects",)
    killed = mutants.Mutant(toy, "if not count <= budget:", "if not count < budget:", selector)
    inert = mutants.Mutant(toy, "# Most coupling points", "# The most coupling points", selector)
    assert mutants.main((killed, inert)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"killed: {toy}: 'if not count <= budget:'")
    assert out[1].startswith(f"survived: {toy}: '# Most coupling points'")
    assert out[2].startswith("2 mutants, 1 survived, 0 errors")
    assert out[3:] == [f"survivor: {toy}: {inert.old!r} -> {inert.new!r}"]


# a failing property test beside a passing one, run under the repository's own
# pytest settings
FAILING_GIVEN = {
    "tests/test_given.py": (
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_property_fails(x):\n"
        "    assert x < 10\n\n\n"
        "def test_passes():\n"
        "    pass\n"),
}


def test_a_failing_given_test_is_reported(tmp_path):
    # hypothesis imports libcst to explain a failing example, and libcst's import
    # warning must not turn the report into an INTERNALERROR
    _write_tree(tmp_path, FAILING_GIVEN)
    shutil.copy2(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout
    assert "FAILED tests/test_given.py::test_property_fails" in done.stdout
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
