"""Compare the CSVs of the README commands against the committed ledger.

Runs every command of README's "Command line" block through
giant_atom.cli.main, with --pxt added to simulate so that the heatmap is
covered too, each into its own temporary directory.  Then prints one line per
CSV: "same", "changed" (ledger sha256 -> new sha256), "new" (not in the
ledger) or "gone" (in the ledger but not written), and a count.

The ledger, .github/csv_ledger.txt, holds one "<sha256>  <command>/<file>"
line per CSV.  `--write` replaces it with the hashes of this tree; a change
that moves output bytes updates the ledger in the same commit, so that its
diff shows which files moved.

The comparison is informational: beta.csv, pxt.csv and poles.csv depend on
LAPACK and BLAS rounding, which can differ from machine to machine, so a
difference still exits 0.  A command that fails, or an unreadable ledger,
exits 1.

Run from the root of the repository: python .github/csv_ledger.py [--write]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")
from giant_atom import cli  # noqa: E402

LEDGER = Path(".github/csv_ledger.txt")


def readme_commands() -> list[list[str]]:
    """README's command lines without the program name, simulate with --pxt."""
    section = Path("README.md").read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.findall(r"^```\n(.*?)^```", section, re.MULTILINE | re.DOTALL)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.replace("\\\n", " ").splitlines()]
    return [argv + ["--pxt"] if argv[0] == "simulate" else argv for argv in commands if argv]


def run_hashes() -> dict[str, str]:
    """sha256 of every CSV the commands write, keyed "<command>/<file>"."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in readme_commands():
            out_dir = Path(tmp) / argv[0]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([str(out_dir) if arg == "out/" else arg for arg in argv])
            if code != 0:
                raise RuntimeError(f"giant-atom {shlex.join(argv)} exited {code}")
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            for output in manifest["outputs"]:
                data = (out_dir / output["path"]).read_bytes()
                hashes[f"{argv[0]}/{output['path']}"] = hashlib.sha256(data).hexdigest()
    return hashes


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python .github/csv_ledger.py [--write]", file=sys.stderr)
        return 2
    try:
        hashes = run_hashes()
        ledger = {} if argv else {name: sha for sha, name in (
            line.split() for line in LEDGER.read_text(encoding="utf-8").splitlines())}
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"csv ledger: {exc}", file=sys.stderr)
        return 1
    if argv:
        LEDGER.write_text("".join(f"{sha}  {name}\n" for name, sha in hashes.items()),
                          encoding="utf-8")
        print(f"wrote {len(hashes)} sha256 to {LEDGER}")
        return 0
    counts = dict.fromkeys(("same", "changed", "new", "gone"), 0)
    for name in [*hashes, *(name for name in ledger if name not in hashes)]:
        old, new = ledger.get(name), hashes.get(name)
        if old == new:
            status, shown = "same", new
        elif old is None:
            status, shown = "new", new
        elif new is None:
            status, shown = "gone", old
        else:
            status, shown = "changed", f"{old} -> {new}"
        counts[status] += 1
        print(f"{status:8s}{name:24s}{shown}")
    print(f"{len(hashes)} CSVs written: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
