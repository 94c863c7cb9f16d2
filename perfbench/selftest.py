"""The benchmark's own test, on shrunken jobs (--smoke).

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

It checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that a deliberately wrong reference is counted as a failed
job rather than crashing the run, that tracing puts every wrapped function
back, and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def _smoke(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--smoke"]


def test_every_metric_on_every_workload():
    for workload in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = _bench(*_smoke(workload["name"], trace))
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in SPEC[kind]}, (workload, trace)


def test_wrong_reference_counts_as_failure():
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    true_amp = workloads.dark_amp
    workloads.dark_amp = lambda *args: 1.05 * true_amp(*args)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(_smoke("cli-readme", 0))
    finally:
        workloads.dark_amp = true_amp
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["success_frac"]["value"] < 1.0


def test_tracer_restores_every_function():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import giant_atom.field
    import giant_atom.spectral
    import spans

    originals = (giant_atom.spectral.characteristic_fn, giant_atom.field.beta_at_many)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(giant_atom.spectral.characteristic_fn, "_perfbench_site")
        assert hasattr(giant_atom.field.beta_at_many, "_perfbench_site")
    finally:
        tracer.restore()
    assert (giant_atom.spectral.characteristic_fn, giant_atom.field.beta_at_many) == originals


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _bench(*_smoke("cli-readme", 0), cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
