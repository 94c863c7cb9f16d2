"""Print the DDE march's cost in microseconds per tau interval against N and M.

Each case times integrate_beta over a fixed t_max (best of --repeat runs) and
divides by t_max, so set-up (the trace, the chunk map) is included.  The
coupling is weak (N*gamma_tau = 0.1), so every M from 16 up gives a stable
step.  BLAS threads are whatever the environment sets; the march's products
are small enough to run on one.

    python .github/march_timing.py
    python .github/march_timing.py --n-legs 3 --steps-per-tau 16 --t-max 1000

Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import sys
import time

sys.path.insert(0, "src")
from giant_atom import GiantAtomParams, integrate_beta  # noqa: E402


def march_us_per_interval(n_legs: int, steps_per_tau: int, t_max: float, repeat: int) -> float:
    params = GiantAtomParams(n_legs, 0.1 / n_legs, 1.0)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        integrate_beta(params, t_max, steps_per_tau)
        best = min(best, time.perf_counter() - start)
    return best / t_max * 1e6


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-legs", type=int, nargs="+", default=[3, 10, 30])
    parser.add_argument("--steps-per-tau", type=int, nargs="+", default=[16, 256, 2048])
    parser.add_argument("--t-max", type=float, default=200.0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"integrate_beta, us per tau interval (t_max = {args.t_max:g}, "
          f"best of {args.repeat})")
    print(f"{'N':>4} {'M':>6} {'us':>10}")
    for n_legs in args.n_legs:
        for m in args.steps_per_tau:
            us = march_us_per_interval(n_legs, m, args.t_max, args.repeat)
            print(f"{n_legs:4d} {m:6d} {us:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
