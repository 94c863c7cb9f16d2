"""Benchmark of the giant-atom pipeline on seeded workloads.

    python3 perfbench/run.py --workload cli-readme --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's own `src/` tree, with
GIANT_ATOM_THREADS cleared so the default single-threaded path is measured,
and BLAS held to one thread: on a small shared machine idle BLAS threads
spinning beside the program made run-to-run spread several times larger.
After one untimed warm-up job the workload's job list is run in rounds until
--seconds is used up; only the calls into the program are timed.  Every job
is checked against an independent reference after it runs.

The speed of a small shared machine changes from millisecond to millisecond
between a fast and a slow state, and the share of time spent slow drifts
over seconds and minutes, so raw seconds of the same code spread by up to
1.5x between runs: too far to bound a change.  Each timed call is therefore
measured against a reference of about 0.2 ms: a plain interpreter loop and
the formatting of one CSV row.  It is sampled REF_BRACKET times just before
and just after the call, and every REF_INTERVAL seconds during it from a
SIGALRM handler (about 1% of the call's time, left in it).  The call's time
is divided by the median sample.  On interleaved timings of the workloads'
jobs this left a quartile spread over 20 s windows of 0.04-0.06, against
0.07-0.11 when sampling only beside the call and 0.20-0.27 raw.  The row
formatting lowered it on the CLI jobs; numpy or dict work in the reference
raised it.  `wall_norm` and `cpu_norm` are the workload's wall and CPU time
in these reference units: the sum over jobs of each job's median ratio over
rounds.  Raw seconds stay in the run record and in the per-layer metrics
`bench.wall_s` and `bench.ref_ms`.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain rounds
with traced ones and prints the per-layer metrics.  The metric names and
units are those of BENCHMARK.json.  The last line of standard output is one
JSON object; the run record (environment, inputs, per-round timings, the
sha256 of every CSV written, every miss) is written to .bench_out/.  --smoke
shrinks every job, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
SETUP_IMPORTS = 10
REF_LOOP = 3_000       # interpreter iterations in one reference sample
REF_ROW = [0.123456789 * i for i in range(60)]  # formatted once per reference sample
REF_BRACKET = 10       # reference samples just before and just after a timed call
REF_INTERVAL = 0.02    # seconds between reference samples during a timed call
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import giant_atom"], env=env, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - start


class ReferenceClock:
    """Times a call together with the speed of the machine beside and during it."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def sample(self, *_signal) -> None:
        acc = 0
        cpu = time.process_time()
        start = time.perf_counter()
        for i in range(REF_LOOP):
            acc += i * i
        ",".join(format(v, ".17g") for v in REF_ROW)
        self.walls.append(time.perf_counter() - start)
        self.cpus.append(time.process_time() - cpu)

    def time(self, fn):
        """fn's result, wall and CPU seconds, and the median reference sample's
        wall and CPU seconds."""
        self.walls.clear()
        self.cpus.clear()
        for _ in range(REF_BRACKET):
            self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        try:
            cpu = time.process_time()
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(REF_BRACKET):
            self.sample()
        return result, wall, cpu, statistics.median(self.walls), statistics.median(self.cpus)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS},
    }


class Runner:
    """Runs jobs, times the program calls, checks outputs and keeps the record."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.sha256: dict[str, dict] = {}
        self.residual = 0.0
        kinds = ("plain", "traced")
        self.times = {k: {j.name: [] for j in jobs} for k in kinds}
        self.norm = {k: {j.name: [] for j in jobs} for k in kinds}
        self.cpu = {j.name: [] for j in jobs}
        self.cpu_norm = {j.name: [] for j in jobs}
        self.ref: list[float] = []  # median reference sample of each plain call
        self.clock = ReferenceClock()

    def fail(self, job, round_no, message):
        """Record a miss; a job with several misses counts as one failed job."""
        if not self.failures or self.failures[-1]["attempt"] != self.attempted:
            self.failed += 1
        self.failures.append({"job": job.name, "round": round_no,
                              "attempt": self.attempted, "miss": message})

    def job(self, job, round_no, kind):
        """One job: untimed set-up, timed call, untimed check.  Returns the outcome."""
        job.prepare()
        self.attempted += 1
        try:
            if kind:
                result, wall, cpu, ref_wall, ref_cpu = self.clock.time(job.run)
            else:
                result = job.run()
            outcome = job.check(result)
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            self.fail(job, round_no, f"{type(exc).__name__}: {exc}")
            return None
        first = self.sha256.setdefault(job.name, outcome.csv_sha256)
        if first != outcome.csv_sha256:
            outcome.failures.append("CSV bytes differ from the first round")
        for miss in outcome.failures:
            self.fail(job, round_no, miss)
        self.residual = max(self.residual, outcome.residual)
        if kind:
            self.times[kind][job.name].append(wall)
            self.norm[kind][job.name].append(wall / ref_wall)
            if kind == "plain":
                self.ref.append(ref_wall)
                self.cpu[job.name].append(cpu)
                self.cpu_norm[job.name].append(cpu / ref_cpu)
        return outcome

    def round(self, round_no, kind):
        """All jobs once; returns the timed seconds and the CSV rows and bytes written."""
        wall = rows = size = 0
        for job in self.jobs:
            outcome = self.job(job, round_no, kind)
            if outcome is not None:
                wall += self.times[kind][job.name][-1]
                rows += outcome.csv_rows
                size += outcome.csv_bytes
        return wall, rows, size

    def total(self, samples):
        """Time for the whole job list: the sum of each job's median over rounds."""
        return sum(statistics.median(s) for s in samples.values() if s)


def load_metrics(trace: int) -> dict[str, str]:
    """Metric names and units this mode must print, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args) -> tuple[dict, Runner, int, list[float]]:
    import workloads
    import spans

    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.build(args.workload, args.seed, str(work), smoke=args.smoke)
    runner = Runner(jobs)
    tracer = spans.Tracer() if args.trace else None
    layer_rounds = []
    # Set-up is timed between rounds, spread over the run like the jobs: a
    # fresh interpreter's import time moves with the machine's state, which
    # a burst of imports at the start would catch at one moment only.
    imports = 0 if args.trace else 3 if args.smoke else SETUP_IMPORTS
    setup = []
    try:
        if imports:
            import_seconds()  # untimed: leaves the bytecode caches written
        runner.job(jobs[0], 0, None)  # warm-up
        start = time.perf_counter()
        longest = 0.0
        round_no = 0
        min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
        while True:
            round_no += 1
            began = time.perf_counter()
            if args.trace and round_no % 2 == 0:
                tracer.install()
                try:
                    wall, rows, size = runner.round(round_no, "traced")
                finally:
                    tracer.restore()
                layer_rounds.append(spans.layer_metrics(tracer.spans, wall, rows, size,
                                                        runner.residual))
                tracer.spans.clear()
            else:
                runner.round(round_no, "plain")
            longest = max(longest, time.perf_counter() - began)
            while len(setup) < imports * min(1.0, (time.perf_counter() - start) / args.seconds):
                setup.append(import_seconds())
            if round_no >= min_rounds and time.perf_counter() - start + longest > args.seconds:
                break
        while len(setup) < imports:
            setup.append(import_seconds())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = spans.median_metrics(layer_rounds)
        plain = runner.total(runner.norm["plain"])
        metrics["bench.trace_overhead_frac"] = runner.total(runner.norm["traced"]) / plain - 1.0
        metrics["bench.wall_s"] = runner.total(runner.times["plain"])
        metrics["bench.ref_ms"] = 1e3 * statistics.median(runner.ref)
    else:
        metrics = {
            "wall_norm": runner.total(runner.norm["plain"]),
            "cpu_norm": runner.total(runner.cpu_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_frac": 1.0 - runner.failed / runner.attempted,
            "setup_s": statistics.median(setup),
        }
    return metrics, runner, round_no, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink every job")
    args = parser.parse_args(argv)

    if not (SRC / "giant_atom" / "__init__.py").is_file():
        print(f"error: no giant_atom package under {SRC}", file=sys.stderr)
        return 2
    units = load_metrics(args.trace)
    os.environ.pop("GIANT_ATOM_THREADS", None)
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    metrics, runner, rounds, setup = measure(args)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")

    failed = runner.failed
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "rounds": rounds,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures,
        "field_max_residual": runner.residual,
        "setup_s": setup,
        "jobs": [{"name": j.name, "inputs": j.inputs, "csv_sha256": runner.sha256.get(j.name),
                  "wall_s": {k: v[j.name] for k, v in runner.times.items()},
                  "wall_norm": {k: v[j.name] for k, v in runner.norm.items()},
                  "cpu_s": runner.cpu[j.name],
                  "cpu_norm": runner.cpu_norm[j.name]} for j in runner.jobs],
        "reference_ms": [1e3 * r for r in runner.ref],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"run record: {path}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
