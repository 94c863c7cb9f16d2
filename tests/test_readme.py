import hashlib
import json
import math
import re
import shlex
from pathlib import Path

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


def test_command_line_block_runs(tmp_path, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = _blocks(section)[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
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
