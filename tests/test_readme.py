import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from giant_atom import cli, dark_amplitude

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(text: str, lang: str = "") -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_library_example_runs(capsys):
    blocks = _blocks(README.read_text(encoding="utf-8"), "python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = float(capsys.readouterr().out.split()[-1])
    target = dark_amplitude(3, 1, 2.0 * math.pi * 0.018) ** 2
    assert abs(target - 0.665) < 1e-3
    assert abs(printed - target) <= 0.01 * target


def _command_block() -> list[list[str]]:
    """The command lines of README's "Command line" block, each split as a
    shell would, continuation lines joined and comments and blanks left out."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = _blocks(section)[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in commands if argv]


def test_command_line_block_runs(tmp_path, capsys):
    commands = _command_block()
    assert commands and all(argv[0] == "giant-atom" for argv in commands)
    for i, argv in enumerate(commands):
        out_dir = tmp_path / f"{i}-{argv[1]}"
        args = [str(out_dir) if arg == "out/" else arg for arg in argv[1:]]
        assert str(out_dir) in args
        assert cli.main(args) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{argv[1]}: ")
        assert lines[0].endswith(f" to {out_dir}")

        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        listed = {out["path"]: out["sha256"] for out in manifest["outputs"]}
        assert set(listed) == {path.name for path in out_dir.glob("*.csv")}
        for name, sha in listed.items():
            assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == sha
        assert manifest["params"]["command"] == argv[1]


def _readme_commands() -> list[list[str]]:
    """README's command lines without giant-atom and --out-dir, plus a short
    simulate that also writes the heatmap at non-default settings."""
    commands = [[arg for arg in argv[1:] if arg not in ("--out-dir", "out/")]
                for argv in _command_block()]
    simulate = next(argv for argv in commands if argv[0] == "simulate")
    t_max = simulate.index("--t-max") + 1
    return commands + [[*simulate[:t_max], "5", *simulate[t_max + 1:], "--stride", "3",
                        "--pxt", "--pxt-x-min", "-3", "--pxt-t-count", "11"]]


def _argv_from_params(params: dict) -> list[str]:
    """The command line a manifest's params describe, without --out-dir: each key
    becomes --key-with-dashes, true a bare flag, and null and false are left out."""
    argv = [params["command"]]
    for key, value in params.items():
        if key not in ("command", "out_dir") and value is not None and value is not False:
            argv += [f"--{key.replace('_', '-')}"] + ([] if value is True else [str(value)])
    return argv


def _run(argv: list[str], out_dir: Path) -> dict:
    assert cli.main([*argv, "--out-dir", str(out_dir)]) == 0, argv
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_manifest_params_rerun_the_command(tmp_path, capsys, argv):
    first = _run(argv, tmp_path / "first")
    rebuilt = _argv_from_params(first["params"])
    second = _run(rebuilt, tmp_path / "second")
    capsys.readouterr()
    assert second["params"] == {**first["params"], "out_dir": str(tmp_path / "second")}
    assert second["outputs"] == first["outputs"]  # every CSV name and sha256
    assert second.get("derived") == first.get("derived")
