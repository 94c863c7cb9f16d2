"""Print the code lines of each module of src/giant_atom and their total.

A code line holds at least one token that is neither a comment nor a line
break and lies outside every docstring; blank lines, comment lines and
docstrings are not counted.  With no argument the work tree is read; with a
git revision (python .github/code_lines.py HEAD~1) each module is read at that
revision through `git show`.

Run from the root of the repository.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/giant_atom"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def modules(ref: str | None) -> dict[str, str]:
    if ref is None:
        return {p.as_posix(): p.read_text(encoding="utf-8")
                for p in sorted(Path(PACKAGE).glob("*.py"))}
    names = subprocess.run(["git", "ls-tree", "--name-only", f"{ref}:{PACKAGE}"],
                           check=True, capture_output=True, text=True).stdout.split()
    return {f"{PACKAGE}/{name}": subprocess.run(
                ["git", "show", f"{ref}:{PACKAGE}/{name}"],
                check=True, capture_output=True, text=True).stdout
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python .github/code_lines.py [REF]", file=sys.stderr)
        return 2
    try:
        sources = modules(argv[0] if argv else None)
    except subprocess.CalledProcessError as exc:
        print(f"cannot read {PACKAGE} at {argv[0]}: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    total = 0
    for path, source in sources.items():
        count = code_lines(source)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
