import dataclasses
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from giant_atom import (
    AmplitudeTrace,
    GiantAtomParams,
    GridSpec,
    beta_at,
    bound_profile,
    characteristic_fn,
    dark_amplitude,
    dark_condition_omega_tau,
    dark_frequency,
    dark_state_record,
    field_amplitude,
    integrate_beta,
    intensity_map,
    oscillating_intensity,
    total_intensity,
    total_probability,
    waveguide_probability,
)
from giant_atom import field
from giant_atom.dde import beta_at_many
from giant_atom.field import DEFAULT_DX, _light_cone
from test_dde import exact_beta

TWO_PI = 2.0 * math.pi


def phi_at_one_time(params, trace, xs, t):
    """phi at one instant, each point's positions inside its light cone read in
    one dense-output call: the sum _phi makes, written out for a scalar t."""
    total = np.zeros(len(xs), dtype=complex)
    for xm in params.coupling_points:
        on = t - np.abs(xs - xm) >= 0.0
        total[on] += beta_at_many(trace, np.clip(t - np.abs(xs[on] - xm), 0.0, trace.t_max))
    return (-1j * math.sqrt(0.5 * params.gamma_tau)) * total


class TestFieldAmplitude:
    def test_matches_the_sum_at_one_time(self, dark_n1_params, dark_n1_trace_200):
        # before any wavefront, on and between the coupling points, far out,
        # and at t_max
        xs = np.array([-12.0, -0.3, 0.0, 0.5, 1.0, 1.75, 2.0, 9.9, 30.0])
        for t in (0.0, 0.4, 1.3, 10.0, 77.7, 200.0):
            ref = phi_at_one_time(dark_n1_params, dark_n1_trace_200, xs, t)
            got = [field_amplitude(dark_n1_params, dark_n1_trace_200, x, t) for x in xs]
            assert np.array(got).tobytes() == ref.tobytes()
            assert np.abs(ref).max() > 0.0

    def test_causality_before_wavefront(self, dark_n1_params, dark_n1_trace_200):
        assert field_amplitude(dark_n1_params, dark_n1_trace_200, 30.0, 10.0) == 0j

    def test_outside_atom_vanishes_long_time(self, dark_n1_params, dark_n1_trace_200):
        # outside the outermost coupling points the dark-mode phasors cancel
        p = abs(field_amplitude(dark_n1_params, dark_n1_trace_200, -5.0, 150.0)) ** 2
        assert p < 1e-12

    def test_vanishes_at_outermost_points_long_time(self, dark_n1_params, dark_n1_trace_200):
        for x in (0.0, 2.0):
            p = abs(field_amplitude(dark_n1_params, dark_n1_trace_200, x, 150.0)) ** 2
            assert p < 1e-12

    def test_retarded_time_range_error(self, dark_n1_params, dark_n1_trace_200):
        with pytest.raises(ValueError):
            field_amplitude(dark_n1_params, dark_n1_trace_200, 0.5, 500.0)


class TestIntensityMap:
    def test_unitarity_at_rotating_wave_point(self):
        p = GiantAtomParams(4, TWO_PI * 0.019, TWO_PI * 13.002)
        tr = integrate_beta(p, 21.0, 2048)
        for t in (5.0, 20.0):
            assert total_probability(p, tr, t) == pytest.approx(1.0, abs=1e-3)

    def test_unitarity_exact_before_wavepackets_overlap(self, dark_n1_params):
        # with disjoint wavepackets the emitted probability is exactly the
        # atomic loss, independent of any rotating-wave subtleties
        tr = integrate_beta(dark_n1_params, 1.0, 256)
        assert total_probability(dark_n1_params, tr, 0.4) == pytest.approx(1.0, abs=1e-9)

    def test_matches_stationary_profile(self, dark_n1_params, dark_n1_trace_200):
        grid = GridSpec(0.0, 2.0, 0.005, times=(100.0,))
        frame = intensity_map(dark_n1_params, dark_n1_trace_200, grid)[0]
        exact = bound_profile(dark_n1_params, 1, frame.xs)
        assert np.abs(frame.values - exact).max() <= 0.01 * exact.max()

    def test_long_time_convergence_monotone(self, dark_n1_params, dark_n1_trace_200):
        grid_xs = GridSpec(0.0, 2.0, 0.01, times=(50.0, 100.0, 200.0))
        frames = intensity_map(dark_n1_params, dark_n1_trace_200, grid_xs)
        exact = bound_profile(dark_n1_params, 1, frames[0].xs)
        sups = [np.abs(f.values - exact).max() for f in frames]
        assert sups[1] <= sups[0] + 1e-8
        assert sups[2] <= sups[1] + 1e-8
        assert max(sups) < 1e-6

    def test_vacuum_at_t_zero(self, dark_n1_params, dark_n1_trace_200):
        # sampled off the coupling points (where the onset convention puts the
        # lone just-switched-on sample), the initial field is identically zero
        grid = GridSpec(-3.013, 4.987, 0.25, times=(0.0,))
        frame = intensity_map(dark_n1_params, dark_n1_trace_200, grid)[0]
        assert np.all(frame.values == 0.0)

    @pytest.mark.parametrize("count", [1, 16, 17, 201])
    def test_frames_match_phi_frame_by_frame(self, dark_n1_params, dark_n1_trace_200, count):
        # a whole number of _FRAMES-frame blocks only at 16; from t_max down to
        # 0 on squares, so the early frames, where the wavefronts have not yet
        # reached the window's ends, are many
        t_max = dark_n1_trace_200.t_max
        times = tuple(float(t) for t in t_max * np.linspace(1.0, 0.0, count) ** 2)
        assert times[0] == t_max and (count == 1 or sum(t < 10.0 for t in times) >= 2)
        grid = GridSpec(-10.0, 12.0, 0.05, times=times)
        frames = intensity_map(dark_n1_params, dark_n1_trace_200, grid)
        assert [f.t for f in frames] == list(times)
        for f in frames:
            phi = field._phi(dark_n1_params, dark_n1_trace_200, grid.xs, f.t)
            assert phi.tobytes() == phi_at_one_time(dark_n1_params, dark_n1_trace_200,
                                                    grid.xs, f.t).tobytes()
            assert (f.x_min, f.x_max, f.dx) == (grid.x_min, grid.x_max, grid.dx)
            assert f.values.tobytes() == (np.abs(phi) ** 2).tobytes()

    def test_grid_validation(self, dark_n1_params, dark_n1_trace_200):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 0.1, times=(1.0,))
        with pytest.raises(ValueError):
            intensity_map(dark_n1_params, dark_n1_trace_200,
                          GridSpec(0.0, 1.0, 0.1, times=()))
        with pytest.raises(ValueError):
            intensity_map(dark_n1_params, dark_n1_trace_200,
                          GridSpec(0.0, 1.0, 0.1, times=(1e6,)))


class TestBoundProfile:
    def test_zero_at_ends_and_outside(self, dark_n1_params):
        assert bound_profile(dark_n1_params, 1, 0.0) == 0.0
        assert bound_profile(dark_n1_params, 1, 2.0) == pytest.approx(0.0, abs=1e-30)
        assert bound_profile(dark_n1_params, 1, -0.3) == 0.0
        assert bound_profile(dark_n1_params, 1, 2.3) == 0.0

    @pytest.mark.parametrize("x", [1e308, -1e308, math.inf, -math.inf, math.nan])
    def test_far_outside_is_zero_without_warnings(self, x):
        # the closed form is evaluated on [0, N-1] only: far outside it overflows,
        # and inf - inf is invalid (tier-1 turns either warning into an error)
        p = GiantAtomParams(3, 0.1, 1.0)
        assert bound_profile(p, 1, x) == 0.0
        out = bound_profile(p, 1, np.array([0.5, x]))
        assert out[1] == 0.0 and out[0] == bound_profile(p, 1, 0.5) > 0.0

    def test_multiple_of_n_legs_identically_zero(self, dark_n1_params):
        xs = np.linspace(0.0, 2.0, 101)
        assert np.all(bound_profile(dark_n1_params, 3, xs) == 0.0)

    def test_interior_matches_long_time_field(self, dark_n1_params, dark_n1_trace_200):
        x = 0.5
        direct = abs(field_amplitude(dark_n1_params, dark_n1_trace_200, x, 200.0)) ** 2
        assert direct == pytest.approx(bound_profile(dark_n1_params, 1, x), rel=0.01)

    @pytest.mark.parametrize("n", [1, 3 * 10 ** 6 + 1, 3 * 10 ** 9 + 1, 2 ** 53 - 1])
    @pytest.mark.parametrize("n_legs", [3, 5])
    def test_large_index_at_the_coupling_points_against_mpmath(self, n_legs, n):
        # at x = 0 .. N-1 the sines' arguments are whole multiples of pi/N, taken
        # mod N; at the full index the error read 5.4e-11 (N = 3) and 3.2e-10
        # (N = 5) of the peak at n = 3e6 + 1, 2.7e-7 and 5.8e-7 at 3e9 + 1, and
        # p(N-1) was not 0; 2**53 - 1 (1 mod 3 and mod 5) is the CLI's largest
        # index, where n m' itself is no longer exact in a float
        mpmath = pytest.importorskip("mpmath")
        p = GiantAtomParams(n_legs, 0.1, 1.0)
        xs = np.arange(float(n_legs))
        with mpmath.workdps(60):
            g, s2 = mpmath.mpf(p.gamma_tau), mpmath.sin(n * mpmath.pi / n_legs) ** 2
            pref = 8 * g * s2 / (2 * s2 + n_legs * g) ** 2
            exact = np.array([float(pref * mpmath.sin(n * mpmath.pi * (m + 1) / n_legs) ** 2
                                    * mpmath.sin(n * mpmath.pi * m / n_legs) ** 2)
                              for m in range(n_legs)])
        got = bound_profile(p, n, xs)
        assert np.abs(got - exact).max() <= 4 * np.finfo(float).eps * exact.max()
        assert got[-1] == 0.0

    def test_invalid_index(self, dark_n1_params):
        with pytest.raises(ValueError):
            bound_profile(dark_n1_params, 0, 0.5)
        with pytest.raises(ValueError):
            bound_profile(dark_n1_params, -1, 0.5)


class TestTotalIntensity:
    def test_two_legs_closed_form(self):
        for g in (0.2, 1.0, 3.7):
            p = GiantAtomParams(2, g, 1.0)
            assert total_intensity(p, 1) == pytest.approx(g / (1.0 + g) ** 2, rel=1e-14)
        assert total_intensity(GiantAtomParams(2, 1.0, 1.0), 1) == pytest.approx(0.25, rel=1e-14)

    def test_quadrature_agreement(self, dark_n1_params):
        total = sum(quad(lambda x: bound_profile(dark_n1_params, 1, x), a, a + 1.0,
                         epsabs=1e-13, epsrel=1e-12)[0] for a in (0.0, 1.0))
        assert total == pytest.approx(total_intensity(dark_n1_params, 1), rel=1e-9)

    def test_markov_limit_vanishes(self):
        assert total_intensity(GiantAtomParams(3, 1e-8, 1.0), 1) < 1e-7

    def test_multiple_of_n_legs_is_zero(self, dark_n1_params):
        assert total_intensity(dark_n1_params, 3) == total_intensity(dark_n1_params, 6) == 0.0

    def test_invalid_index(self, dark_n1_params):
        with pytest.raises(ValueError):
            total_intensity(dark_n1_params, 0)

    @pytest.mark.parametrize("gamma_tau", [1e-320, 1e-200, 1e200, 1.7e308])
    def test_multiple_of_n_legs_is_zero_where_the_formula_cannot_be_evaluated(self, gamma_tau):
        # (N gamma)^2 underflows to 0 or overflows here, so only sin^2 = 0 gives 0
        p = GiantAtomParams(3, gamma_tau, 1.0)
        assert total_intensity(p, 3) == dark_amplitude(3, 6, gamma_tau) == 0.0
        assert np.all(bound_profile(p, 6, np.linspace(-1.0, 3.0, 9)) == 0.0)

    def test_overflowing_denominator_names_gamma_tau(self):
        # (2 sin^2(2 pi/3) + 3 gamma)^2 overflows past gamma ~ 1e154, at a physical
        # dark point (cot(2 pi/3) < 0 keeps omega positive); below that it is finite
        def dark_point(gamma_2pi):
            g = TWO_PI * gamma_2pi
            return GiantAtomParams(3, g, dark_condition_omega_tau(3, 2, g))

        message = r"gamma_tau = 6\.28319e\+160 overflows"
        with pytest.raises(ValueError, match=message):
            total_intensity(dark_point(1e160), 2)
        with pytest.raises(ValueError, match=message):
            bound_profile(dark_point(1e160), 2, 0.5)
        assert 0.0 < total_intensity(dark_point(1e150), 2) < 1e-150
        assert 0.0 < bound_profile(dark_point(1e150), 2, 0.5) < 1e-150


class TestOscillatingIntensity:
    def test_conservation_with_energy_matching(self, pair_551, pair_551_params):
        # the atomic beat and the field beat cancel exactly when the mean dark
        # frequency equals the transition frequency
        a1 = dark_amplitude(3, pair_551.n1, pair_551.gamma_tau)
        a2 = dark_amplitude(3, pair_551.n2, pair_551.gamma_tau)
        ts = np.linspace(0.0, 3.0, 301)
        atom = a1 * a1 + a2 * a2 + 2.0 * a1 * a2 * np.cos(pair_551.beat * ts)
        both = atom + oscillating_intensity(pair_551_params, pair_551, ts)
        assert both.max() - both.min() < 1e-12

    def test_component_values(self, pair_551, pair_551_params):
        assert total_intensity(pair_551_params, 16) == pytest.approx(0.14381, abs=5e-6)
        assert total_intensity(pair_551_params, 14) == pytest.approx(0.13988, abs=5e-6)
        a1 = dark_amplitude(3, 16, pair_551.gamma_tau)
        a2 = dark_amplitude(3, 14, pair_551.gamma_tau)
        const = a1 * a1 + a2 * a2 + 0.14381 + 0.13988
        assert const == pytest.approx(0.34240, abs=5e-5)

    def test_time_average_over_beat_period(self, pair_551, pair_551_params):
        period = TWO_PI / pair_551.beat
        avg = quad(lambda t: oscillating_intensity(pair_551_params, pair_551, t),
                   0.0, period, epsabs=1e-12, epsrel=1e-12)[0] / period
        expected = total_intensity(pair_551_params, 16) + total_intensity(pair_551_params, 14)
        assert avg == pytest.approx(expected, rel=1e-9)

    def test_two_mode_quadrature_equivalence(self, pair_551, pair_551_params):
        # integrate the asymptotic two-mode field over the atom, pointwise in t
        p = pair_551_params
        a1 = dark_amplitude(3, pair_551.n1, p.gamma_tau)
        a2 = dark_amplitude(3, pair_551.n2, p.gamma_tau)
        w1 = dark_frequency(3, pair_551.n1)
        w2 = dark_frequency(3, pair_551.n2)

        def quad_intensity(t):
            total = 0.0
            for a, b in ((0.0, 1.0), (1.0, 2.0)):
                xs = np.linspace(a, b, 4001)
                phi = np.zeros(len(xs), dtype=complex)
                for xm in (0.0, 1.0, 2.0):
                    u = t - np.abs(xs - xm)
                    phi += a1 * np.exp(-1j * w1 * u) + a2 * np.exp(-1j * w2 * u)
                total += simpson(0.5 * p.gamma_tau * np.abs(phi) ** 2, dx=(b - a) / 4000)
            return total

        for t in (0.0, 0.37, 0.75, 1.2):
            closed = oscillating_intensity(p, pair_551, t)
            assert quad_intensity(t) == pytest.approx(closed, rel=1e-6)

    def test_pair_of_other_n_legs_rejected(self, pair_551):
        # (p, q, n) = (5, 5, 1) reads n1 = 26, n2 = 24 at N = 5, not 16 and 14
        params = GiantAtomParams(5, pair_551.gamma_tau, pair_551.omega_tau)
        with pytest.raises(ValueError, match="inconsistent with n_legs"):
            oscillating_intensity(params, pair_551, 0.0)

    def test_mismatched_pair_rejected(self, pair_551, dark_n1_params):
        with pytest.raises(ValueError):
            oscillating_intensity(dark_n1_params, pair_551, 0.0)


class TestDarkStateRecord:
    def test_record_fields(self, dark_n1_params):
        rec = dark_state_record(dark_n1_params, 1)
        assert rec.n == 1
        assert rec.omega_n == dark_frequency(3, 1)
        assert rec.amplitude == pytest.approx(0.815532, abs=1e-6)
        assert rec.intensity == pytest.approx(total_intensity(dark_n1_params, 1), rel=1e-15)
        assert rec.rwa_ok

    def test_rejects_non_dark_point(self):
        p = GiantAtomParams(3, TWO_PI * 0.018, TWO_PI * 0.5)
        with pytest.raises(ValueError, match="not dark"):
            dark_state_record(p, 1)

    def test_rejects_index_without_atomic_amplitude(self, dark_n1_params):
        with pytest.raises(ValueError, match="multiple"):
            dark_state_record(dark_n1_params, 3)

    def test_large_index_judged_on_term_scale(self):
        # |F(-i Omega_n)| = 1.4e-6 here is rounding against |Omega_n| ~ 2.1e10,
        # so an absolute bound of 1e-8 rejected a true dark point
        n, g = 10_000_000_001, TWO_PI * 0.018
        omega = dark_condition_omega_tau(3, n, g)
        rec = dark_state_record(GiantAtomParams(3, g, omega), n)
        assert rec.n == n
        with pytest.raises(ValueError, match="not dark at index 10000000001"):
            dark_state_record(GiantAtomParams(3, g, omega * (1.0 + 1e-6)), n)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_off_dark_omega_rejected(self, n):
        g = TWO_PI * 0.018
        omega = dark_condition_omega_tau(3, n, g)
        dark_state_record(GiantAtomParams(3, g, omega), n)
        with pytest.raises(ValueError, match="not dark"):
            dark_state_record(GiantAtomParams(3, g, omega + 1e-6), n)

    def test_every_index_dark_under_the_absolute_bound_still_passes(self):
        # the former rule, |F(-i Omega_n)| <= 1e-8, accepted these points; all
        # indices to 300 and 300 spread up to 10**6, at weak and strong coupling
        indices = sorted({*range(1, 301), *np.unique(np.geomspace(300, 10 ** 6, 300).astype(int))})
        accepted = 0
        for n_legs in (2, 3, 5, 10, 30):
            for g2 in (0.018, 0.25):
                for n in indices:
                    try:  # a multiple of n_legs, or no physical dark point
                        omega = dark_condition_omega_tau(n_legs, n, TWO_PI * g2)
                    except ValueError:
                        continue
                    p = GiantAtomParams(n_legs, TWO_PI * g2, omega)
                    if abs(characteristic_fn(p, -1j * dark_frequency(n_legs, n))) <= 1e-8:
                        assert dark_state_record(p, n).n == n
                        accepted += 1
        assert accepted > 4000


def test_waveguide_probability_window_grows(dark_n1_params):
    # emitted probability keeps rising toward 1 - A(1)^2 as transients escape
    tr = integrate_beta(dark_n1_params, 40.0, 256)
    p5 = waveguide_probability(dark_n1_params, tr, 5.0)
    p40 = waveguide_probability(dark_n1_params, tr, 40.0)
    assert p40 > p5 > 0.0
    amp = dark_amplitude(3, 1, dark_n1_params.gamma_tau)
    assert abs(beta_at(tr, 40.0)) ** 2 + p40 == pytest.approx(1.0, abs=0.05)


def test_total_probability_keeps_the_cross_term_at_the_readme_point():
    # the density |phi_R + phi_L|^2 keeps the cross term of the right- and
    # left-moving waves inside the atom; at omega_tau/2pi ~ 0.32 it does not
    # average away, so the total stays about 3.1e-2 above 1 at any fine step
    params = GiantAtomParams(3, TWO_PI * 0.018, TWO_PI * 0.3177449)
    residual = {}
    for m in (256, 1024):
        trace = integrate_beta(params, 60.0, m)
        residual[m] = np.array([total_probability(params, trace, t) - 1.0
                                for t in (5.0, 20.0, 60.0)])
    assert residual[256].min() >= 1e-2
    assert np.abs(residual[256] - residual[1024]).max() <= 1e-3


def panel_loop_probability(params, trace, t):
    """Field probability by the per-panel loop: every wavefront cut listed one
    by one over the whole light cone, one Simpson panel at a time.  The
    reference for the vectorised half-cone quadrature."""
    t = float(max(t, 0.0))
    xm = params.coupling_points
    lo, hi = -t, (params.n_legs - 1) + t
    cuts = {lo, hi}
    for x0 in xm:
        if lo < x0 < hi:
            cuts.add(float(x0))
        for k in range(int(math.floor(t + 1e-12)) + 1):
            for edge in (x0 - (t - k), x0 + (t - k)):
                if lo < edge < hi:
                    cuts.add(float(edge))
    pts = sorted(cuts)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a < 1e-12:
            continue
        active = (t - np.abs(0.5 * (a + b) - xm)) > 0.0
        if not active.any():
            continue
        nsub = int(math.ceil((b - a) / DEFAULT_DX))
        nsub = max(2, nsub + nsub % 2)
        xs = np.linspace(a, b, nsub + 1)
        phi = sum(beta_at_many(trace, np.clip(t - np.abs(xs - x0), 0.0, trace.t_max))
                  for x0 in xm[active])
        total += simpson(0.5 * params.gamma_tau * np.abs(phi) ** 2, dx=(b - a) / nsub)
    return total


CONE_TIMES = (0.0, 1e-13, 0.5, 1.0 - 1e-13, 1.0, 2.5 - 1e-13, 2.5, 2.5 + 1e-13, 2.7,
              5.0 - 1e-13, 5.0 + 1e-13, 15.99, 16.0, 16.3, 33.3, 40.0)


@pytest.fixture(scope="module", params=[2, 3, 4, 7], ids=lambda n: f"N{n}")
def cone_case(request):
    params = GiantAtomParams(request.param, 0.05, TWO_PI * 3.3)
    return params, integrate_beta(params, 40.0, 256)


class TestConeQuadrature:
    @pytest.mark.parametrize("t", CONE_TIMES)
    def test_matches_panel_loop(self, cone_case, t):
        # covers slice edges on a coupling point (t = 16) and off one (t = 33.3),
        # cuts that nearly coincide (t within 1e-13 of a whole number), a cell's two
        # inner cuts meeting or swapping order (t within 1e-13 of 2.5), and
        # right-going wavefronts inside the left half (t = 2.7)
        params, trace = cone_case
        ref = panel_loop_probability(params, trace, t)
        assert abs(waveguide_probability(params, trace, t) - ref) <= 1e-8

    @pytest.mark.parametrize("t", (0.5, 5.0 + 1e-13, 16.3, 33.3, 40.0))
    def test_mirror_symmetric_halves(self, cone_case, t):
        # the coupling points mirror about the centre c, so p(c - y, t) = p(c + y, t)
        # out to the edge of the light cone
        params, trace = cone_case
        centre = 0.5 * (params.n_legs - 1)
        ys = np.linspace(0.0, centre + t, 2001)
        left = np.abs(field._phi(params, trace, centre - ys, t)) ** 2
        right = np.abs(field._phi(params, trace, centre + ys, t)) ** 2
        assert right.max() > 0.0
        assert np.abs(left - right).max() <= 1e-12


def cone_by_cells(params, trace, t):
    """The inside integral from _phi, one cell and one panel at a time, on the
    panels _light_cone(...)[0] builds: each panel's nodes are pulled 1e-13 inside
    it, so a wave counts on the panel by the panel, and a wavefront end reads
    beta(0) to within that shift."""
    f = t - math.floor(t)
    a = min(f, 1.0 - f)
    a = a if a >= 1e-12 else 0.0  # _cone_cell's snap: a cut this close to a cell end is on it
    total = 0.0
    # three groups between the cuts, the right one the left one mirrored
    for start, width in ((0.0, a), (a, (1.0 - a) - a), (1.0 - a, a)):
        if width >= 1e-12:
            panels = max(2, 2 * math.ceil(width / (2 * DEFAULT_DX)))  # even, at least 2
            ys = np.linspace(start + 1e-13, start + width - 1e-13, panels + 1)
            for c in range(params.n_legs - 1):
                p = np.abs(field._phi(params, trace, c + ys, t)) ** 2
                total += simpson(p, dx=width / (len(ys) - 1))
    return total


@pytest.fixture(scope="module")
def n30_case():
    params = GiantAtomParams(30, 0.05, TWO_PI * 3.3)
    return params, integrate_beta(params, 40.0, 256)


@pytest.mark.parametrize("t", (0.3, 7.6, 12.5, 28.9, 29.0, 33.3, 40.0))
def test_row_cone_matches_phi_cell_by_cell(n30_case, t):
    # N = 30: the prefix sums over 29 rows either way, before every wave has
    # crossed the atom (t < 29) and after
    params, trace = n30_case
    ref = cone_by_cells(params, trace, t)
    assert ref > 0.0
    assert abs(_light_cone(params, trace, t)[0] - ref) <= 1e-11


@pytest.mark.parametrize("t_max", [200.0, 200.3, 0.7])
def test_waveguide_probability_at_the_trace_end(t_max):
    # at t_max = 200 the last whole interval ends on the trace's last sample,
    # which the flux reads at offset 1 of that interval, not past the trace;
    # a trace shorter than one tau has no whole interval at all
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    trace = integrate_beta(params, t_max, 256)
    t = trace.t_max
    assert (t == 200.0) == (t_max == 200.0)
    ref = panel_loop_probability(params, trace, t)
    assert abs(waveguide_probability(params, trace, t) - ref) <= 1e-8


def exact_flux(params, t, nodes=16):
    """gamma * int_0^t |sum_l beta(u - l) Theta(u - l)|^2 du from the exact series,
    Gauss-Legendre on each piece between whole u, where every copy is smooth."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.append(np.arange(math.ceil(t)), t)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        u = a + 0.5 * (b - a) * (x + 1.0)
        e = sum(exact_beta(params.n_legs, params.gamma_tau, params.omega_tau, u - l)
                for l in range(params.n_legs) if l <= a)
        total += 0.5 * (b - a) * np.sum(w * np.abs(e) ** 2)
    return params.gamma_tau * total


@pytest.mark.parametrize("n_legs", [2, 3])
def test_outgoing_flux_against_exact_series(monkeypatch, n_legs):
    # what the tails hold is the march's O(h^4) error, not the quadrature's:
    # about 2e-10 at M = 2048 and 7e-7 at M = 256
    params = GiantAtomParams(n_legs, 0.05, TWO_PI * 3.3)
    times = (2.5, 2.7, 3.0)
    exact = [exact_flux(params, t) for t in times]
    for block in (field._BLOCK, 1):  # one block, and a carry across every interval
        monkeypatch.setattr(field, "_BLOCK", block)
        errs = {}
        for m in (256, 2048):
            trace = integrate_beta(params, 3.0, m)
            errs[m] = np.array([abs(waveguide_probability(params, trace, t)
                                    - _light_cone(params, trace, t)[0] - ref)
                                for t, ref in zip(times, exact)])
        assert errs[2048].max() <= 1e-9
        assert np.all(errs[256] > 1000.0 * errs[2048])


def cold_walk(params, trace, t):
    """waveguide_probability with the light-cone walk run from k = 0, on a new
    object with the trace's samples, which has no walk of its own yet.  A walk
    at another N to t_max, on another such object, goes first; a call reads
    only its own trace's walk, so that one changes nothing here."""
    other = GiantAtomParams(params.n_legs + 1, params.gamma_tau, params.omega_tau)
    waveguide_probability(other, dataclasses.replace(trace), trace.t_max)
    return waveguide_probability(params, dataclasses.replace(trace), t)


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("n_legs", [2, 7])
def test_flux_blocks_match(monkeypatch, n_legs, block):
    # at N = 7 the carry of N - 1 rows reaches back across several blocks; both
    # sides are cold walks, so neither reads a walk the other left
    params = GiantAtomParams(n_legs, 0.05, TWO_PI * 3.3)
    trace = integrate_beta(params, 40.0, 256)
    ref = [cold_walk(params, trace, t) for t in CONE_TIMES]
    monkeypatch.setattr(field, "_BLOCK", block)
    got = [cold_walk(params, trace, t) for t in CONE_TIMES]
    assert np.abs(np.subtract(got, ref)).max() <= 1e-14


@pytest.fixture(scope="module")
def flux_traces():
    params = {n: GiantAtomParams(n, 0.05, TWO_PI * 3.3) for n in (2, 7)}
    return params, [integrate_beta(params[n], 40.0, 256) for n in (2, 7)]


WHOLE_TIMES = (1.0, 2.0, 5.0, 16.0, 33.0, 40.0)
RESUME_CALLS = {  # (N, trace, t) in the order called
    "ascending": [(2, 0, t) for t in CONE_TIMES],
    "descending": [(2, 0, t) for t in CONE_TIMES[::-1]],
    "repeated": [(2, 0, t) for t in (16.3, 16.3, 16.0, 33.3, 33.3, 40.0, 40.0)],
    "n_alternating": [(n, 0, t) for n, t in zip(itertools.cycle((2, 2, 7, 7)), CONE_TIMES)],
    "traces_interleaved": [(7, i, t) for i, t in zip(itertools.cycle((0, 0, 1, 1)), CONE_TIMES)],
    # at whole times only: every call shares frac(t) = 0, so a walk is told apart
    # from the last one by its trace, N and position alone
    "descending_whole": [(2, 0, t) for t in WHOLE_TIMES[::-1]],
    "n_alternating_whole": [(n, 0, t) for n, t in zip(itertools.cycle((2, 7)), WHOLE_TIMES)],
    "traces_interleaved_whole": [(7, i, t) for i, t in zip(itertools.cycle((0, 1)), WHOLE_TIMES)],
}


# the patterns every call shares, built once per cut
CACHED = (field._cone_cell,)


@pytest.mark.parametrize("case", RESUME_CALLS)
def test_resumed_flux_matches_a_cold_walk(flux_traces, case):
    # a call on the trace object and N of the last flux walk, not before where it
    # stopped, resumes it; any other call walks from u = 0
    params, traces = flux_traces
    calls = [(params[n], traces[i], t) for n, i, t in RESUME_CALLS[case]]
    cold = [cold_walk(p, trace, t) for p, trace, t in calls]
    got = [waveguide_probability(p, trace, t) for p, trace, t in calls]
    assert np.abs(np.subtract(got, cold)).max() <= 1e-14


def test_walked_trace_cannot_change_under_the_flux():
    # a trace built by hand over a writable array keeps it read-only: halving it
    # between walks at t = 10 and 12 would leave the flux resuming from the old
    # samples (0.1742 at t = 12, against 0.0556 on a new object over the halved ones)
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    made = integrate_beta(params, 20.0, 64)
    trace = AmplitudeTrace(made.dt, made.samples.copy(), made.t_max)
    waveguide_probability(params, trace, 10.0)
    with pytest.raises(ValueError, match="read-only"):
        trace.samples[:] *= 0.5
    got = waveguide_probability(params, trace, 12.0)
    assert abs(got - cold_walk(params, trace, 12.0)) <= 1e-14


def test_trace_over_a_view_cannot_change_under_the_flux():
    # a trace built over a view of a writable array copies it, so halving the
    # base between walks at t = 10 and 12 leaves t = 12 as a cold walk over the
    # unhalved samples reads it (a trace that kept the view read 0.1742, against
    # 0.0556 on a new object over the halved samples); the traces integrate_beta
    # and dataclasses.replace build own their samples and copy nothing
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    made = integrate_beta(params, 20.0, 64)
    base = made.samples.copy()
    trace = AmplitudeTrace(made.dt, base[:], made.t_max)
    waveguide_probability(params, trace, 10.0)
    base *= 0.5
    got = waveguide_probability(params, trace, 12.0)
    assert abs(got - cold_walk(params, made, 12.0)) <= 1e-14
    assert not np.shares_memory(trace.samples, base)
    assert made.samples.flags.owndata
    assert dataclasses.replace(made).samples is made.samples


def test_trace_over_an_array_with_an_earlier_view_cannot_change_under_the_flux():
    # a view made before the trace, of a writable array that owns its memory, is
    # not the trace's: halving through it between walks at t = 10 and 12 leaves
    # t = 12 as a cold walk over the unhalved samples reads it (0.22240; a trace
    # that kept the array read 0.17424)
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    made = integrate_beta(params, 20.0, 64)
    base = made.samples.copy()
    view = base[:]
    trace = AmplitudeTrace(made.dt, base, made.t_max)
    waveguide_probability(params, trace, 10.0)
    view *= 0.5
    got = waveguide_probability(params, trace, 12.0)
    assert abs(got - cold_walk(params, made, 12.0)) <= 1e-14
    assert not np.shares_memory(trace.samples, base)


def test_resumed_flux_under_threads(flux_traces):
    # four threads walk ascending times over and over on one trace and N,
    # switching every microsecond, so one resumes the walk while another walks
    # on from it: a call may only read a published state, never write it; the
    # cached patterns start empty, so the threads also race to build them
    params, traces = flux_traces
    cold = {t: cold_walk(params[2], traces[0], t) for t in CONE_TIMES}
    for helper in CACHED:
        helper.cache_clear()

    def walk():
        return [waveguide_probability(params[2], traces[0], t) - cold[t]
                for _ in range(8) for t in CONE_TIMES]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(walk) for _ in range(4)]
            errs = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert np.abs(errs).max() <= 1e-14


def test_flux_walk_resumes_over_ascending_times(monkeypatch):
    # each block of the walk hands beta_at_many one row of nodes per k; 25
    # ascending whole times on one trace walk its rows k = 0 .. 98 once, where
    # walks from k = 0 would take 3 + 7 + ... + 99 = 1,275
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    trace = integrate_beta(params, 98.0, 16)
    walked = []

    def counting(trace, ts):
        walked.append(len(ts))
        return beta_at_many(trace, ts)

    monkeypatch.setattr(field, "beta_at_many", counting)
    for t in range(2, 99, 4):
        waveguide_probability(params, trace, float(t))
    assert sum(walked) == 99


def test_interleaved_traces_each_resume_their_own_walk(monkeypatch):
    # traces at N = 3 and 4, called in turn at 25 ascending whole times, each
    # walk their rows k = 0 .. 98 once, 198 rows in all; with one walk shared by
    # all traces, each call walked its trace from k = 0, 2 * 1,275 = 2,550 rows
    traces = []
    for n_legs in (3, 4):
        params = GiantAtomParams(n_legs, 0.05, TWO_PI * 3.3)
        traces.append((params, integrate_beta(params, 98.0, 16)))
    walked = []

    def counting(trace, ts):
        walked.append(len(ts))
        return beta_at_many(trace, ts)

    monkeypatch.setattr(field, "beta_at_many", counting)
    for t in range(2, 99, 4):
        for params, trace in traces:
            waveguide_probability(params, trace, float(t))
    assert sum(walked) == 198


def test_calls_on_other_traces_leave_a_walk_alone(flux_traces):
    # total_probability at whole times 1 .. 40 on new objects of the N = 2 and
    # 7 traces reads the same bits whether the two are called in turn or one
    # after the other; with one walk shared by all traces, the calls in turn
    # each walked from k = 0 and differed by up to 2.2e-16
    params, traces = flux_traces
    pairs = [(params[n], trace) for n, trace in zip((2, 7), traces)]
    times = np.arange(1.0, 41.0)
    fresh = [(p, dataclasses.replace(trace)) for p, trace in pairs]
    in_turn = [[total_probability(p, trace, t) for p, trace in fresh] for t in times]
    alone = []
    for p, trace in pairs:
        fresh = dataclasses.replace(trace)
        alone.append([total_probability(p, fresh, t) for t in times])
    assert np.array_equal(np.transpose(in_turn), alone)


def test_cached_patterns_are_shared_safely():
    # traces at two steps and two N, interleaved at cuts a = 0 and about 0.3, share
    # the cached cells; each value must be the one built from empty caches, and no
    # caller may write into what the caches hold
    params = {n: GiantAtomParams(n, 0.05, TWO_PI * 3.3) for n in (2, 5)}
    traces = {(n, m): integrate_beta(params[n], 7.0, m) for n in (2, 5) for m in (256, 2048)}
    times = (3.0, 3.3, 6.0, 6.3)
    calls = [(n, m, t) for t in times for n, m in traces]

    def run(clear):
        # new trace objects, so both runs start with no walk to resume
        fresh = {key: dataclasses.replace(trace) for key, trace in traces.items()}
        values = []
        for n, m, t in calls:
            for helper in CACHED if clear else ():
                helper.cache_clear()
            values.append(total_probability(params[n], fresh[n, m], t))
        return values

    for helper in CACHED:
        helper.cache_clear()
    shared = run(clear=False)
    assert all(helper.cache_info().hits for helper in CACHED)
    assert shared == run(clear=True)
    cuts = {min(t % 1.0, 1.0 - t % 1.0) for t in times}
    assert cuts == {0.0, 3.3 % 1.0}
    for array in itertools.chain(*map(field._cone_cell, cuts)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_waveguide_probability_memory_does_not_grow_with_t():
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    trace = integrate_beta(params, 4000.0, 16)

    def peak(t):
        tracemalloc.start()
        try:
            waveguide_probability(params, trace, t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000.0) <= 2.0 * peak(400.0)


def test_inside_cone_budget_checked_before_allocation():
    # at MAX_N_LEGS the cone would hold N-1 rows of 201 nodes and their prefix sums,
    # 26 M values
    params = GiantAtomParams(2 ** 16, 1e-6, 1.0)
    trace = integrate_beta(params, 1.0, 16)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^the inside cone of 65536 coupling points "
                                             "needs 2.63e[+]07 values, above the budget of "
                                             "16777216$"):
            total_probability(params, trace, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_inside_cone_budget_is_exact(monkeypatch):
    # N = 3 at a whole t: N-1 = 2 rows of one cell's 201 nodes and their 2 prefix sums
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    trace = integrate_beta(params, 2.0, 16)
    ref = total_probability(params, trace, 2.0)
    monkeypatch.setattr(field, "MAX_TRACE_SAMPLES", 803)
    with pytest.raises(ValueError, match="needs 804 values, above the budget of 803$"):
        total_probability(params, trace, 2.0)
    monkeypatch.setattr(field, "MAX_TRACE_SAMPLES", 804)
    assert total_probability(params, trace, 2.0) == ref


def test_inside_cone_interpolates_no_rows_of_its_own(monkeypatch):
    # the inside reads the last N-1 rows of the walk the tails take, so at N = 3
    # and t = 2 beta is interpolated only on the walk's rows k = 0, 1, 2 of one
    # cell's 201 nodes, and later calls at the same t interpolate nothing
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    trace = integrate_beta(params, 2.0, 16)
    asked = []

    def counting(trace, ts):
        asked.append(np.size(ts))
        return beta_at_many(trace, ts)

    monkeypatch.setattr(field, "beta_at_many", counting)
    _light_cone(params, trace, 2.0)
    assert asked == [603]
    _light_cone(params, trace, 2.0)
    waveguide_probability(params, trace, 2.0)
    assert asked == [603]


# one t repeated; t_max = 8 (M = 64), 7.25 the one quarter cut
TOTAL_TIMES = (0.0, 1e-13, 0.2, 0.5, 2.5, 3.0, 3.0, 7.25, 8.0)


@pytest.mark.parametrize("order", ["ascending", "by_frac"])
@pytest.mark.parametrize("n_legs", [2, 3, 10, 30, 100])
def test_total_probability_is_beta_squared_plus_the_field(n_legs, order):
    # bit for bit, on a walk resumed where the times share frac(t) and ascend,
    # on cold walks, and at a repeated t, whose walk has no new rows; beta(t)
    # is node y = 0 of the walk's last row, or the one the walk kept
    params = GiantAtomParams(n_legs, 0.4 / n_legs ** 2, TWO_PI * 3.3)
    trace = integrate_beta(params, 8.0, 64)
    times = TOTAL_TIMES if order == "ascending" else sorted(TOTAL_TIMES, key=lambda t: (t % 1.0, t))
    beta2 = [abs(beta_at(trace, t)) ** 2 for t in times]
    # each side walks its own new trace object, so neither resumes the other's walk
    walked = dataclasses.replace(trace)
    got = [total_probability(params, walked, t) for t in times]
    walked = dataclasses.replace(trace)
    assert got == [b + waveguide_probability(params, walked, t) for b, t in zip(beta2, times)]
    cold = [total_probability(params, dataclasses.replace(trace), t) for t in times]
    assert cold == [b + waveguide_probability(params, dataclasses.replace(trace), t)
                    for b, t in zip(beta2, times)]


def test_total_probability_makes_one_dense_output_call(monkeypatch):
    # 25 ascending whole times on one trace: each call interpolates only its new
    # rows of 201 nodes, in one call, so the rows k = 0 .. 98 are read once and
    # beta(t) is node y = 0 of the last of them; a repeated t has no new rows
    # and interpolates nothing
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    trace = integrate_beta(params, 98.0, 16)
    calls = []

    def counting(trace, ts):
        calls[-1].append(np.array(ts, dtype=float).ravel())
        return beta_at_many(trace, ts)

    monkeypatch.setattr(field, "beta_at_many", counting)
    for t in [*range(2, 99, 4), 98]:
        calls.append([])
        total_probability(params, trace, float(t))
    assert [len(asked) for asked in calls] == [1] * 25 + [0]
    asked = [points for points, in calls[:-1]]
    assert [len(points) // 201 for points in asked] == [3] + [4] * 24
    assert all(len(points) % 201 == 0 for points in asked)
    rows = np.concatenate(asked).reshape(99, 201)
    assert np.array_equal(rows[:, 0], np.arange(99.0))  # node y = 0 of row k is k


@pytest.mark.parametrize("a", (0.0, 1e-13, 5e-13, 0.3, 0.5 - 1e-13, 0.5))
def test_cone_cell_starts_at_y_zero(a):
    # total_probability reads beta(t) at the cell's first node, so it is y = 0
    # exactly, also for a cut within 1e-12 of the cell's end
    assert field._cone_cell(a)[0][0] == 0.0


@pytest.mark.parametrize("t", (5e-13, 3.0 - 5e-13, 3.0 + 5e-13))
def test_total_probability_reads_beta_at_t_near_a_whole_tau(t):
    # at M = 2048 a sample is 1/4096 apart, so t within 5e-13 of one is past the
    # dense output's 1e-9-sample snap: beta(t) must be read at node y = 0 itself,
    # not at the cut a = 5e-13 beside it
    params = GiantAtomParams(3, 0.05, TWO_PI * 3.3)
    trace = integrate_beta(params, 4.0, 2048)
    field_part = waveguide_probability(params, dataclasses.replace(trace), t)
    want = abs(beta_at(trace, t)) ** 2 + field_part
    assert total_probability(params, dataclasses.replace(trace), t) == want
