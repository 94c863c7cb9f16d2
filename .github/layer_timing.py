"""Print the DDE march's and the field quadrature's cost against N and M.

The march table times integrate_beta over --t-max at N*gamma_tau = 0.1 and
omega_tau = 1 and divides by t_max, so set-up (the trace, the chunk map) is
included; the coupling is weak, so every M from 16 up gives a stable step.
The field table marches one trace per N at gamma_tau = 0.4/N**2,
omega_tau/2pi = 3.3 and M = 64 up to t_max, untimed, then times one call of
field.waveguide_probability at t = t_max - 0.5, the walk column.  Each run is
on a new trace object with the same samples, so the light-cone walk runs from
k = 0 every time rather than resuming where the previous run stopped.  The
last column, per_tau, is the mean time of one field.total_probability call
over the whole times 0 .. floor(t_max) in ascending order on one new trace
object: the walk resumes from call to call, so this is what a per-tau
diagnostic pays, its set-up included.  The csv table times cli._write_csv
alone, per row, on the blocks `simulate` writes at README's point (N = 3,
gamma_tau/2pi = 0.018, omega_tau/2pi = 0.3177449, M = 256) up to t_max:
beta.csv's (102,401 rows at t_max = 200) and pxt.csv's, 201 frames of 441
rows, both built untimed first.  Every time is the best of --repeat runs.
BLAS threads are whatever the environment sets.

    python .github/layer_timing.py
    python .github/layer_timing.py --n-legs 3 --steps-per-tau 16 --t-max 1000

Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, "src")
from giant_atom import GiantAtomParams, cli, field, integrate_beta  # noqa: E402


def _best_s(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-legs", type=int, nargs="+", default=[3, 10, 30, 100])
    parser.add_argument("--steps-per-tau", type=int, nargs="+", default=[16, 256, 2048])
    parser.add_argument("--t-max", type=float, default=200.0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    t_max, t, repeat = args.t_max, args.t_max - 0.5, args.repeat
    print(f"integrate_beta, us per tau interval (t_max = {t_max:g}, best of {repeat})")
    print(f"{'N':>4} {'M':>6} {'us':>10}")
    for n_legs in args.n_legs:
        params = GiantAtomParams(n_legs, 0.1 / n_legs, 1.0)
        for m in args.steps_per_tau:
            best = _best_s(lambda m=m: integrate_beta(params, t_max, m), repeat)
            print(f"{n_legs:4d} {m:6d} {best / t_max * 1e6:10.2f}")
    print(f"field quadrature, ms per call (t = {t:g}, M = 64, best of {repeat})")
    print(f"{'N':>4} {'walk':>10} {'per_tau':>10}")
    whole = range(int(t_max) + 1)
    for n_legs in args.n_legs:
        params = GiantAtomParams(n_legs, 0.4 / n_legs ** 2, 2.0 * math.pi * 3.3)
        trace = integrate_beta(params, t_max, 64)
        walk = _best_s(lambda: field.waveguide_probability(params, dataclasses.replace(trace), t),
                       repeat) * 1e3

        def per_tau(params=params, trace=trace):
            fresh = dataclasses.replace(trace)
            for tau in whole:
                field.total_probability(params, fresh, float(tau))

        each = _best_s(per_tau, repeat) / len(whole) * 1e3
        print(f"{n_legs:4d} {walk:10.2f} {each:10.3f}")
    params = GiantAtomParams(3, 2.0 * math.pi * 0.018, 2.0 * math.pi * 0.3177449)
    trace = integrate_beta(params, t_max)
    grid = field.GridSpec(-10.0, 12.0, 0.05, times=tuple(
        float(tau) for tau in np.linspace(0.0, trace.t_max, 201)))
    tables = {"beta": (["t", "re_beta", "im_beta", "prob"], list(cli._beta_blocks(trace, 1))),
              "pxt": (["t", "x", "p"], list(cli._pxt_blocks(params, trace, grid)))}
    print(f"csv writer, us per row (t_max = {t_max:g}, best of {repeat})")
    print(f"{'table':>6} {'rows':>8} {'us':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (header, blocks) in tables.items():
            path = os.path.join(tmp, f"{name}.csv")
            rows = sum(len(block[0]) for block in blocks)
            best = _best_s(lambda: cli._write_csv(path, header, blocks), repeat)
            print(f"{name:>6} {rows:8d} {best / rows * 1e6:8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
