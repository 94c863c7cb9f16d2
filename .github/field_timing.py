"""Print the two field quadratures' cost in milliseconds per call against N.

Each case marches one trace at gamma_tau = 0.4/N**2, omega_tau/2pi = 3.3 and
M = 64 steps per tau up to t, then times one call of the inside cone
(field._cone_integral) and one of the outgoing flux (field._outgoing_flux) at
t, best of --repeat calls.  The march is not timed.  BLAS threads are
whatever the environment sets.

    python .github/field_timing.py
    python .github/field_timing.py --n-legs 3 --t 5.5 --repeat 1

Run from the root of the repository.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

sys.path.insert(0, "src")
from giant_atom import GiantAtomParams, field, integrate_beta  # noqa: E402


def _best_ms(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-legs", type=int, nargs="+", default=[3, 10, 30, 100])
    parser.add_argument("--t", type=float, default=199.5)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"field quadratures, ms per call (t = {args.t:g}, M = 64, best of {args.repeat})")
    print(f"{'N':>4} {'cone':>10} {'flux':>10}")
    for n_legs in args.n_legs:
        params = GiantAtomParams(n_legs, 0.4 / n_legs ** 2, 2.0 * math.pi * 3.3)
        trace = integrate_beta(params, args.t, 64)
        cone, flux = (_best_ms(lambda part=part: part(params, trace, args.t), args.repeat)
                      for part in (field._cone_integral, field._outgoing_flux))
        print(f"{n_legs:4d} {cone:10.2f} {flux:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
