"""The repository's own tooling under .github/."""

import importlib.util
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


def test_march_timing_prints_one_row_per_case(capsys):
    march_timing = _load("march_timing")
    assert march_timing.main(["--n-legs", "3", "--steps-per-tau", "16", "--t-max", "2",
                              "--repeat", "1"]) == 0
    header, columns, *rows = capsys.readouterr().out.splitlines()
    assert header == "integrate_beta, us per tau interval (t_max = 2, best of 1)"
    assert columns.split() == ["N", "M", "us"]
    [(n_legs, m, us)] = [row.split() for row in rows]
    assert (n_legs, m) == ("3", "16") and float(us) > 0.0


def test_mutants_reports_the_inert_edit_as_a_survivor(capsys):
    mutants = _load("mutants")
    core = "src/giant_atom/core.py"
    selector = ("tests/test_core.py::TestInputRules::test_budget_rejects",)
    killed = mutants.Mutant(core, "if not count <= budget:", "if not count < budget:", selector)
    inert = mutants.Mutant(core, "# Most coupling points", "# The most coupling points", selector)
    assert mutants.main((killed, inert)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"killed: {core}: 'if not count <= budget:'")
    assert out[1].startswith(f"survived: {core}: '# Most coupling points'")
    assert out[2].startswith("2 mutants, 1 survived, 0 errors")
    assert out[3:] == [f"survivor: {core}: {inert.old!r} -> {inert.new!r}"]
