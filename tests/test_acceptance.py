"""End-to-end acceptance suite.

Each test exercises one gate criterion at its stated tolerance and prints one
PASS/FAIL line (run with -s to see them as they happen).
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from giant_atom import (
    GiantAtomParams,
    StructuralImpossibilityError,
    beta_at,
    beta_at_many,
    beta_from_poles,
    bound_profile,
    continuum_total_intensity,
    dark_amplitude,
    dark_condition_omega_tau,
    find_pairs,
    find_poles,
    integrate_beta,
    scan_lattice,
    total_intensity,
    total_probability,
)
from conftest import brute_force_pairs, single_dark_params

TWO_PI = 2.0 * math.pi


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_dark_condition_caption_match():
    w1 = dark_condition_omega_tau(3, 1, TWO_PI * 0.018) / TWO_PI
    w4 = dark_condition_omega_tau(3, 4, TWO_PI * 0.073) / TWO_PI
    ok = (abs(w1 - 0.3177) <= 5e-5 and abs(w1 - 0.317) <= 0.001
          and abs(w4 - 1.2701) <= 5e-5 and abs(w4 - 1.27) <= 0.005)
    report(1, ok, f"omega_tau/2pi(n=1) = {w1:.6f} (0.317 +- 0.001), "
                  f"(n=4) = {w4:.6f} (1.27 +- 0.005)")


def test_criterion_02_long_time_trapping(dark_n1_params, dark_n1_trace_200):
    a = dark_amplitude(3, 1, dark_n1_params.gamma_tau)
    target = a * a
    final = abs(dark_n1_trace_200.samples[-1]) ** 2
    ok = abs(final - target) <= 0.01 * target and abs(target - 0.6651) < 5e-5
    report(2, ok, f"|beta(200)|^2 = {final:.6f} vs A(1)^2 = {target:.6f} (+-1%)")


def _refined_minima(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Interior minima located by a parabola through the three nearest samples."""
    out = []
    step = ts[1] - ts[0]
    for i in range(1, len(ys) - 1):
        if ys[i] < ys[i - 1] and ys[i] <= ys[i + 1]:
            denom = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
            shift = 0.5 * (ys[i - 1] - ys[i + 1]) / denom if denom else 0.0
            out.append(ts[i] + shift * step)
    return np.asarray(out)


def test_criterion_03_oscillating_bound_state(pair_551, pair_551_params, pair_trace_130):
    beat_exact = 4.0 * math.pi / 3.0
    a = dark_amplitude(3, 16, pair_551_params.gamma_tau)
    mean_exact = 2.0 * a * a

    ts = pair_trace_130.sample_times
    prob = pair_trace_130.probabilities
    sel = ts > 100.0
    tw, pw = ts[sel], prob[sel]

    minima = _refined_minima(tw, pw)
    period = (minima[-1] - minima[0]) / (len(minima) - 1)
    beat = TWO_PI / period
    period_count = int(math.floor((tw[-1] - tw[0]) / period))
    upto = np.searchsorted(tw, tw[0] + period_count * period)
    mean = np.trapezoid(pw[:upto + 1], tw[:upto + 1]) / (tw[upto] - tw[0])

    ok = (abs(beat - beat_exact) <= 1e-3 * beat_exact
          and abs(mean - mean_exact) <= 0.02 * mean_exact
          and pw.min() < 1e-3
          and abs(mean_exact - 0.05871) < 5e-5)
    report(3, ok, f"beat = {beat:.6f} (4pi/3 +- 0.1%), mean = {mean:.6f} "
                  f"({mean_exact:.5f} +- 2%), minima = {pw.min():.2e} (< 1e-3)")


def test_criterion_04_spectral_time_domain_equivalence():
    details = []
    ok = True
    for n, g2 in ((1, 0.018), (4, 0.073)):
        p = single_dark_params(3, n, g2)
        tr = integrate_beta(p, 50.5, 1024)
        ts = np.linspace(5.0, 50.0, 901)
        ref = beta_at_many(tr, ts)
        shallow = find_poles(p, re_min=-12.0, im_halfwidth=25.0)
        err_12 = np.abs(beta_from_poles(shallow, ts) - ref).max()
        deep = find_poles(p, re_min=-20.0, im_halfwidth=100.0)
        err_20 = np.abs(beta_from_poles(deep, ts) - ref).max()
        ok = ok and err_12 < 1e-4 and err_20 < err_12
        details.append(f"n={n}: err(-12) = {err_12:.2e}, err(-20) = {err_20:.2e}")
    report(4, ok, "; ".join(details) + " (< 1e-4, strictly decreasing)")


def test_criterion_05_unitarity_random_parameters():
    rng = np.random.default_rng(7)
    worst = 0.0
    cases = []
    for _ in range(3):
        n = int(rng.integers(2, 6))
        g2 = rng.uniform(0.01, 0.05)
        w2 = rng.uniform(10.0, 20.0)
        p = GiantAtomParams(n, TWO_PI * g2, TWO_PI * w2)
        tr = integrate_beta(p, 51.0, 2048)
        errs = [abs(total_probability(p, tr, t) - 1.0) for t in (5.0, 20.0, 50.0)]
        worst = max(worst, max(errs))
        cases.append(f"N={n}: {max(errs):.2e}")
    ok = worst <= 1e-3
    report(5, ok, "max ||beta|^2 + int p - 1| per set: " + ", ".join(cases)
                  + " (<= 1e-3)")


def test_criterion_06_quadrature_vs_closed_form():
    worst = 0.0
    count = 0
    for n_legs in range(2, 9):
        p = GiantAtomParams(n_legs, 0.7, 5.0)
        for n in range(1, 2 * n_legs + 1):
            if n % n_legs == 0:
                continue
            total = sum(quad(lambda x: bound_profile(p, n, x), m, m + 1.0,
                             epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                        for m in range(n_legs - 1))
            rel = abs(total - total_intensity(p, n)) / total_intensity(p, n)
            worst = max(worst, rel)
            count += 1
    ok = worst <= 1e-9
    report(6, ok, f"{count} (N, n) combinations, worst relative gap {worst:.2e} (<= 1e-9)")


def test_criterion_07_two_leg_intensity_bound():
    def intensity(g):
        return total_intensity(GiantAtomParams(2, g, 1.0), 1)

    grid = np.linspace(1e-3, 10.0, 2001)
    interior_max_at = grid[np.argmax([intensity(g) for g in grid])]
    h = 1e-5
    g_star = brentq(lambda g: (intensity(g + h) - intensity(g - h)) / (2.0 * h),
                    0.3, 3.0, xtol=1e-13)
    value = intensity(g_star)
    ok = (abs(g_star - 1.0) <= 1e-9 and abs(value - 0.25) <= 1e-9
          and abs(interior_max_at - 1.0) < 0.01)
    report(7, ok, f"argmax gamma_tau = {g_star:.12f} (1 +- 1e-9), "
                  f"I = {value:.12f} (1/4 +- 1e-9)")


def test_criterion_08_continuum_bound_and_convergence():
    def intensity(gamma_T):
        return continuum_total_intensity(gamma_T, 1)

    h = 1e-4
    g_star = brentq(lambda g: (intensity(g + h) - intensity(g - h)) / (2.0 * h),
                    5.0, 60.0, xtol=1e-10)
    u_err = abs(2.0 * math.pi ** 2 / g_star - 1.0)
    v_err = abs(intensity(g_star) - 0.375)

    gamma_T = 11.0
    limit = continuum_total_intensity(gamma_T, 1)
    errs = [abs(total_intensity(GiantAtomParams(m, gamma_T / m**3, 1.0), 1) - limit)
            for m in (8, 16, 32, 64, 128)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = u_err <= 1e-9 and v_err <= 1e-9 and min(orders) >= 1.0
    report(8, ok, f"max 3/8 at 2 n^2 pi^2/Gamma_T = 1 (+- {u_err:.1e}), "
                  f"value gap {v_err:.1e}, empirical orders {[f'{o:.2f}' for o in orders]}")


def test_criterion_09_lattice_properties():
    scan = scan_lattice(3, TWO_PI * 6.0, TWO_PI * 1.0)
    keyed = {(d.p, d.q, d.n): d for d in scan.dots}
    periodic = bool(keyed)
    for (p, q, n), dot in keyed.items():
        if dot.omega_tau <= TWO_PI * 5.0:
            image = keyed.get((p + 1, q + 1, n))
            periodic = periodic and image is not None \
                and image.gamma_tau == dot.gamma_tau \
                and abs(image.omega_tau - dot.omega_tau - TWO_PI) < 1e-12

    brute = brute_force_pairs(3)
    closed = {(pr.n1, pr.n2) for pr in find_pairs(3, 20, 20)
              if pr.n1 <= 60 and pr.n2 <= 60}

    try:
        find_pairs(2)
        two_leg_empty = False
    except StructuralImpossibilityError:
        two_leg_empty = not scan_lattice(2, TWO_PI * 6.0, TWO_PI * 1.0).dots

    ok = periodic and brute == closed and two_leg_empty
    report(9, ok, f"{len(keyed)} dots 2pi-periodic: {periodic}; brute-force set "
                  f"({len(brute)} pairs) == closed form: {brute == closed}; "
                  f"N=2 empty: {two_leg_empty}")


def test_criterion_10_pair_conservation(pair_551, pair_551_params, pair_trace_130):
    from giant_atom import oscillating_intensity

    p = pair_551_params
    a1 = dark_amplitude(3, pair_551.n1, p.gamma_tau)
    a2 = dark_amplitude(3, pair_551.n2, p.gamma_tau)
    ts = np.linspace(0.0, 4.5, 601)
    atom = a1 * a1 + a2 * a2 + 2.0 * a1 * a2 * np.cos(pair_551.beat * ts)
    closed_total = atom + oscillating_intensity(p, pair_551, ts)
    closed_spread = closed_total.max() - closed_total.min()

    expected = a1 * a1 + a2 * a2 + total_intensity(p, pair_551.n1) \
        + total_intensity(p, pair_551.n2)
    samples = []
    for t in (104.0, 104.6, 105.1, 105.9):
        inside = _intensity_inside_atom(p, pair_trace_130, t)
        samples.append(abs(beta_at(pair_trace_130, t)) ** 2 + inside)
    samples = np.asarray(samples)
    field_spread = samples.max() - samples.min()

    ok = (closed_spread <= 1e-12 and field_spread <= 1e-3
          and np.all(np.abs(samples - expected) <= 0.01 * expected)
          and abs(expected - 0.34240) < 5e-5)
    report(10, ok, f"closed-form spread {closed_spread:.1e} (<= 1e-12); "
                   f"field-quadrature spread {field_spread:.1e} (<= 1e-3), "
                   f"value {samples.mean():.5f} vs {expected:.5f} (+-1%)")


def _intensity_inside_atom(params, trace, t):
    """Field probability between the outermost coupling points only."""
    from giant_atom.field import _cone_integral

    return _cone_integral(params, trace, t, 0.0, float(params.n_legs - 1))
