"""Print the DDE march's and the two field quadratures' cost against N and M.

The march table times integrate_beta over --t-max at N*gamma_tau = 0.1 and
omega_tau = 1 and divides by t_max, so set-up (the trace, the chunk map) is
included; the coupling is weak, so every M from 16 up gives a stable step.
The field table marches one trace per N at gamma_tau = 0.4/N**2,
omega_tau/2pi = 3.3 and M = 64 up to t_max, untimed, then times one call of
the inside cone (field._cone_integral) and one of the outgoing flux
(field._outgoing_flux) at t = t_max - 0.5.  Every time is the best of
--repeat runs.  BLAS threads are whatever the environment sets.

    python .github/layer_timing.py
    python .github/layer_timing.py --n-legs 3 --steps-per-tau 16 --t-max 1000

Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

sys.path.insert(0, "src")
from giant_atom import GiantAtomParams, field, integrate_beta  # noqa: E402


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
    print(f"field quadratures, ms per call (t = {t:g}, M = 64, best of {repeat})")
    print(f"{'N':>4} {'cone':>10} {'flux':>10}")
    for n_legs in args.n_legs:
        params = GiantAtomParams(n_legs, 0.4 / n_legs ** 2, 2.0 * math.pi * 3.3)
        trace = integrate_beta(params, t_max, 64)
        cone, flux = (_best_s(lambda part=part: part(params, trace, t), repeat) * 1e3
                      for part in (field._cone_integral, field._outgoing_flux))
        print(f"{n_legs:4d} {cone:10.2f} {flux:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
