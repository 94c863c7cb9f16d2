import math
import re
from pathlib import Path

from giant_atom import dark_amplitude

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = float(capsys.readouterr().out.split()[-1])
    target = dark_amplitude(3, 1, 2.0 * math.pi * 0.018) ** 2
    assert abs(target - 0.665) < 1e-3
    assert abs(printed - target) <= 0.01 * target
