"""The repository's own tooling under .github/."""

import contextlib
import importlib.util
import io
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
    """The march table's lines and the field table's lines of one small run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _load("layer_timing").main(["--n-legs", "3", "--steps-per-tau", "16",
                                           "--t-max", "2", "--repeat", "1"]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 6
    return lines[:3], lines[3:]


def test_march_timing_prints_one_row_per_case(layer_timing_tables):
    header, columns, *rows = layer_timing_tables[0]
    assert header == "integrate_beta, us per tau interval (t_max = 2, best of 1)"
    assert columns.split() == ["N", "M", "us"]
    [(n_legs, m, us)] = [row.split() for row in rows]
    assert (n_legs, m) == ("3", "16") and float(us) > 0.0


def test_field_timing_prints_one_row_per_case(layer_timing_tables):
    header, columns, *rows = layer_timing_tables[1]
    assert header == "field quadratures, ms per call (t = 1.5, M = 64, best of 1)"
    assert columns.split() == ["N", "cone", "flux", "per_tau"]
    [(n_legs, cone, flux, per_tau)] = [row.split() for row in rows]
    assert n_legs == "3" and float(cone) > 0.0 and float(flux) > 0.0 and float(per_tau) > 0.0


# a two-file tree for mutants.py to copy: a budget comparison, the comment the
# inert edit touches, and one test that pins the comparison at its boundary,
# beside the pyproject.toml and README.md every copy takes
TOY_TREE = {
    "pyproject.toml": '[tool.pytest.ini_options]\ntestpaths = ["tests"]\n',
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


def test_mutants_reports_the_inert_edit_as_a_survivor(capsys, monkeypatch, tmp_path):
    mutants = _load("mutants")
    for name, text in TOY_TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    # the toy needs no plugin; loading the installed ones is most of each run's start-up
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
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
