import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from giant_atom import (
    GiantAtomParams,
    IncompleteSearchError,
    SearchPlacementError,
    beta_at_many,
    beta_from_poles,
    characteristic_deriv,
    characteristic_fn,
    dark_amplitude,
    dark_frequency,
    find_pairs,
    find_poles,
    integrate_beta,
    spectral,
)
from giant_atom.core import _term_scale
from conftest import single_dark_params
from test_dde import exact_beta

TWO_PI = 2.0 * math.pi


def test_dark_root_found(dark_n1_params):
    ps = find_poles(dark_n1_params, re_min=-5.0, im_halfwidth=4.0)
    target = -1j * dark_frequency(3, 1)
    hits = [s for s in ps.s if abs(s - target) < 1e-8]
    assert len(hits) == 1
    assert abs(hits[0].real) < 1e-10


def test_pair_point_two_imaginary_roots(pair_551_params):
    # rectangle of height 4*pi centred on the transition frequency
    ps = find_poles(pair_551_params, re_min=-6.0, im_halfwidth=TWO_PI)
    darks = sorted(complex(d).imag for d in ps.dark_modes(tol=1e-9))
    assert len(darks) == 2
    assert darks[0] == pytest.approx(-32.0 * math.pi / 3.0, abs=1e-8)
    assert darks[1] == pytest.approx(-28.0 * math.pi / 3.0, abs=1e-8)


def test_far_rectangle_is_empty():
    p = GiantAtomParams(3, 20.0, 3.0)
    ps = find_poles(p, re_min=-0.5, im_center=200.0, im_halfwidth=3.0)
    assert len(ps) == 0
    assert ps.winding == 0
    assert isinstance(ps.flagged_cells, tuple)
    with pytest.raises(ValueError):
        beta_from_poles(ps, 1.0)


def test_residuals_separation_and_order(dark_n1_params):
    ps = find_poles(dark_n1_params, re_min=-9.0, im_halfwidth=30.0)
    res = np.abs(characteristic_fn(dark_n1_params, ps.s))
    assert res.max() < 1e-11
    diffs = np.abs(ps.s[:, None] - ps.s[None, :])[np.triu_indices(len(ps), 1)]
    assert diffs.min() > 1e-8
    assert np.all(np.diff(ps.s.imag) >= 0)  # sorted on (Im, Re)
    assert np.allclose(ps.weights, 1.0 / characteristic_deriv(dark_n1_params, ps.s))


def test_strong_coupling_roots_judged_on_their_own_scale():
    # N = 30 at gamma*tau ~ 1: Newton reaches all 21 roots, but three stop at
    # |F| = 1.1e-11 to 3.0e-11 against terms of size 8e2 to 2e3, which an
    # absolute |F| < 1e-11 test rejected (18 of 21, IncompleteSearchError)
    p = GiantAtomParams(30, 0.9888432350176786, 147.19696968770057)
    ps = find_poles(p, re_min=-7.8315839651922134, im_center=-146.0496786348859,
                    im_halfwidth=2.3727906108223933)
    assert len(ps) == ps.winding == 21
    res = np.abs(characteristic_fn(p, ps.s))
    assert np.sum(res > 1e-11) == 3
    scale = np.abs(ps.s) + p.omega_tau + 15 * p.gamma_tau + p.gamma_tau * sum(
        (30 - l) * np.exp(-l * ps.s.real) for l in range(1, 30))
    assert np.all(res <= 1e-13 * scale)


@pytest.mark.parametrize("re_min", [-8.0, -20.0])
def test_tall_window_roots_judged_with_the_rounding_of_exp(re_min):
    # N = 3 at the n = 1 dark point, |Im s| up to 2500: Newton reaches every
    # root, but above |Im s| ~ 1300 the rounding of exp(-s), eps * |s| * |F'|,
    # outgrows the other terms, and without it the scale rejected 246 of 1592
    p = single_dark_params(3, 1, 0.018)
    ps = find_poles(p, re_min=re_min, im_halfwidth=2500.0)
    assert len(ps) == ps.winding == 1592


def test_two_roots_between_two_walk_samples_are_counted():
    # at omega = pi the top edge Im s = -pi is a line on which F is real, and two
    # roots lie on it 0.04 apart, against a first-pass spacing of 0.052: each
    # turns F's phase by pi, so a rule on phase steps saw no turn between them
    # and counted 5.  Bisecting by the walk's |F'| bound closes in on the two
    # roots on the edge, so the walk gives up there, and one nudge clears it.
    p = GiantAtomParams(15, TWO_PI * 0.015625, TWO_PI * 0.5)
    ps = find_poles(p, re_min=-1.0, im_center=-1.0 - math.pi, im_halfwidth=1.0)
    assert len(ps) == ps.winding == 6
    assert ps.re_min == -1.0 - spectral._NUDGE


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_legs=st.integers(2, 30), gamma_2pi=st.floats(0.001, 0.25),
       omega_2pi=st.floats(0.5, 25.0), re_min=st.floats(-8.0, -1.0),
       halfwidth=st.floats(0.1, 2.5), offset=st.floats(-5.0, 5.0))
def test_find_poles_sweep(n_legs, gamma_2pi, omega_2pi, re_min, halfwidth, offset):
    """Every drawn window finds as many roots as the boundary winds, all inside
    the settled rectangle, each passing the relative residual test, each
    weighted by 1/F'."""
    p = GiantAtomParams(n_legs, TWO_PI * gamma_2pi, TWO_PI * omega_2pi)
    ps = find_poles(p, re_min=re_min, im_center=offset - p.omega_tau, im_halfwidth=halfwidth)
    s = ps.s
    assert len(s) == ps.winding
    assert np.all((s.real >= ps.re_min) & (s.real <= ps.re_max)
                  & (s.imag >= ps.im_min) & (s.imag <= ps.im_max))
    assert np.all(np.abs(characteristic_fn(p, s)) <= spectral._RESIDUAL_TOL * _term_scale(p, s))
    np.testing.assert_array_equal(ps.weights, 1.0 / characteristic_deriv(p, s))


@st.composite
def dark_windows(draw):
    """A single dark point (N 2-30) or a find_pairs point (N 3-7), one of its
    dark indices, and a window that holds the dark root -i*Omega_n."""
    if draw(st.booleans()):
        n_legs = draw(st.integers(2, 30))
        n = draw(st.integers(1, 3 * n_legs).filter(lambda n: n % n_legs))
        try:
            p = single_dark_params(n_legs, n, draw(st.floats(0.001, 0.25)))
        except ValueError:  # the index forces omega_tau <= 0 at this coupling
            assume(False)
    else:
        n_legs = draw(st.integers(3, 7))
        pair = draw(st.sampled_from(find_pairs(n_legs, p_max=12, q_max=12)))
        p = GiantAtomParams(n_legs, pair.gamma_tau, pair.omega_tau)
        n = draw(st.sampled_from((pair.n1, pair.n2)))
    halfwidth = draw(st.floats(0.1, 2.5))
    offset = draw(st.floats(-0.9, 0.9)) * halfwidth
    return p, n, draw(st.floats(-8.0, -1.0)), offset, halfwidth


@settings(max_examples=150, deadline=None, derandomize=True)
@given(window=dark_windows())
def test_find_poles_sweep_at_dark_points(window):
    """At single dark and pair points the search is complete, as in
    test_find_poles_sweep, and finds the dark root once."""
    p, n, re_min, offset, halfwidth = window
    dark = -1j * dark_frequency(p.n_legs, n)
    ps = find_poles(p, re_min=re_min, im_center=dark.imag + offset, im_halfwidth=halfwidth)
    s = ps.s
    assert len(s) == ps.winding
    assert np.all((s.real >= ps.re_min) & (s.real <= ps.re_max)
                  & (s.imag >= ps.im_min) & (s.imag <= ps.im_max))
    assert np.all(np.abs(characteristic_fn(p, s)) <= spectral._RESIDUAL_TOL * _term_scale(p, s))
    np.testing.assert_array_equal(ps.weights, 1.0 / characteristic_deriv(p, s))
    assert np.sum(np.abs(s - dark) <= 1e-9 * (1.0 + abs(dark))) == 1


def test_no_growing_modes_random_sweep():
    rng = np.random.default_rng(3)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        p = GiantAtomParams(n, TWO_PI * rng.uniform(0.01, 0.5),
                            TWO_PI * rng.uniform(0.2, 4.0))
        ps = find_poles(p, re_min=-8.0, im_halfwidth=12.0)
        assert len(ps) > 0
        assert ps.s.real.max() <= 1e-10


def test_pole_sum_converges_to_causal_amplitude(dark_n1_params):
    # the truncated series converges (monotonically over these nested
    # rectangles) to the known bare exponential at early times
    p = dark_n1_params
    c = -1j * p.omega_tau - 1.5 * p.gamma_tau
    rects = [(-6.0, 15.0), (-9.0, 45.0), (-12.0, 135.0)]
    for t in (0.5, 0.1):
        exact = np.exp(c * t)
        errs = []
        for re_min, hw in rects:
            ps = find_poles(p, re_min=re_min, im_halfwidth=hw)
            errs.append(abs(beta_from_poles(ps, t) - exact))
        assert errs[0] > errs[1] > errs[2]
    # near t -> 0+ the series approaches the unit initial amplitude
    ps = find_poles(p, re_min=-12.0, im_halfwidth=135.0)
    assert abs(beta_from_poles(ps, 0.1) - 1.0) < 0.25


@pytest.mark.parametrize("omega_tau", [single_dark_params(3, 1, 0.018).omega_tau, TWO_PI * 0.5],
                         ids=["dark", "off-dark"])
def test_pole_series_truncation_against_exact_series(omega_tau):
    # Error of the truncated pole series against the exact finite series of
    # 1/F (mpmath, independent of both the DDE and the root search), t in [5, 20].
    # At N = 3 the root chains run at Re s ~ -ln(|Im s| / gamma) / 2, so they
    # reach Re s = -8 only near |Im s| ~ gamma * e^16 ~ 1e6: every re_min here
    # lies left of all roots of the rectangle, and its height H, grown with
    # re_min, sets what is left out.  The omitted roots nearest the axis sit
    # where the chains leave the rectangle, at sigma_H = -ln(H / gamma) / 2, so
    # the error at t >= t_min is bounded by C * exp(sigma_H * t_min), C = 0.1
    # (measured: 0.011 to 0.04 of the envelope).
    p = GiantAtomParams(3, TWO_PI * 0.018, omega_tau)
    ts = np.linspace(5.0, 20.0, 16)
    exact = exact_beta(3, p.gamma_tau, p.omega_tau, ts)
    errs = []
    for re_min, height in [(-8.0, 25.0), (-12.0, 100.0), (-20.0, 400.0)]:
        ps = find_poles(p, re_min=re_min, im_halfwidth=height)
        err = np.abs(beta_from_poles(ps, ts) - exact).max()
        sigma = -0.5 * math.log(height / p.gamma_tau)
        assert err <= 0.1 * math.exp(sigma * ts[0])
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_long_time_limit_is_single_dark_mode(dark_n1_params):
    ps = find_poles(dark_n1_params, re_min=-8.0, im_halfwidth=25.0)
    a = dark_amplitude(3, 1, dark_n1_params.gamma_tau)
    assert a == pytest.approx(0.815532, abs=1e-6)
    t = 150.0
    expected = a * np.exp(-1j * dark_frequency(3, 1) * t)
    assert abs(beta_from_poles(ps, t) - expected) < 1e-6


@pytest.mark.parametrize("n,g2", [(1, 0.018), (4, 0.073)])
def test_agreement_with_time_domain(n, g2):
    p = single_dark_params(3, n, g2)
    tr = integrate_beta(p, 50.5, 1024)
    ts = np.linspace(5.0, 50.0, 901)
    ref = beta_at_many(tr, ts)
    ps1 = find_poles(p, re_min=-10.0, im_halfwidth=25.0)
    err1 = np.abs(beta_from_poles(ps1, ts) - ref).max()
    assert err1 < 1e-4
    ps2 = find_poles(p, re_min=-20.0, im_halfwidth=100.0)
    err2 = np.abs(beta_from_poles(ps2, ts) - ref).max()
    assert err2 < err1


def test_pole_series_in_blocks_matches_one_shot(dark_n1_params, monkeypatch):
    # 35 times in blocks of 3, the last one short, against one matrix product
    ps = find_poles(dark_n1_params, re_min=-8.0, im_halfwidth=25.0)
    ts = np.linspace(0.5, 40.0, 35).reshape(5, 7)
    one_shot = np.exp(ts[..., None] * ps.s) @ ps.weights
    monkeypatch.setattr(spectral, "MAX_SEEDS", 3 * len(ps) + 1)
    blocked = beta_from_poles(ps, ts)
    assert blocked.shape == ts.shape
    assert np.all(np.abs(blocked - one_shot) <= 1e-15 * np.abs(one_shot))


def test_argument_validation(dark_n1_params):
    with pytest.raises(ValueError):
        find_poles(dark_n1_params, re_min=1.0)
    with pytest.raises(ValueError):
        find_poles(dark_n1_params, re_min=-5.0, im_halfwidth=-1.0)
    ps = find_poles(dark_n1_params, re_min=-5.0, im_halfwidth=4.0)
    with pytest.raises(ValueError):
        beta_from_poles(ps, 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, [1.0, math.nan]],
                         ids=["nan", "inf", "-inf", "array-with-nan"])
def test_pole_series_rejects_non_finite_times(dark_n1_params, t):
    ps = find_poles(dark_n1_params, re_min=-5.0, im_halfwidth=4.0)
    with pytest.raises(ValueError, match="need finite t > 0"):
        beta_from_poles(ps, t)


def test_newton_retires_converged_and_unevaluable_seeds(dark_n1_params, monkeypatch):
    sizes = []
    fn = spectral.characteristic_fn

    def counted(params, s):
        sizes.append(np.size(s))
        return fn(params, s)

    monkeypatch.setattr(spectral, "characteristic_fn", counted)
    root = -1j * dark_frequency(3, 1)
    far = complex(-1e4, 0.0)  # exp(-s) overflows, so the step is not finite
    out = spectral._newton(dark_n1_params, np.array([root, far, root + 1e-3]))
    assert out[1] == far
    assert abs(out[0] - root) < 1e-12 and abs(out[2] - root) < 1e-12
    assert sizes[:2] == [3, 1] and len(sizes) < 10


def test_seed_budget_counts_walk_companions_and_seeds(dark_n1_params, monkeypatch):
    # re_min = -12, halfwidth 25 at N = 3 around -Omega_1: Im s in [-27.0, 23.0].
    # The first walk samples the 12.1 x 50 boundary every pi/12: 47 + 191 + 47 +
    # 191 = 476.  The bands -5..4 are 10 trials, each a 2 x 2 companion (4
    # entries) giving 6 chain seeds: 100.  One more seed sits at
    # -(i omega + N gamma/2): 577 in all, of which 61 seeds go to Newton in a
    # single call.
    newton, sizes = spectral._newton, []

    def counted(params, seeds):
        sizes.append(len(seeds))
        return newton(params, seeds)

    monkeypatch.setattr(spectral, "_newton", counted)
    monkeypatch.setattr(spectral, "MAX_SEEDS", 576)
    with pytest.raises(ValueError, match="needs 577 boundary samples, companion entries and "
                                         "seeds, above the budget of 576"):
        find_poles(dark_n1_params, re_min=-12.0, im_halfwidth=25.0)
    assert sizes == []
    monkeypatch.setattr(spectral, "MAX_SEEDS", 577)
    assert len(find_poles(dark_n1_params, re_min=-12.0, im_halfwidth=25.0)) > 0
    assert sizes == [61]


@pytest.mark.parametrize("n_legs, gamma_tau", [(2, 1e-300), (3, 1e-310), (5, 5e-324)])
def test_weak_coupling_root_found_off_the_chains(n_legs, gamma_tau):
    # the one root near -i omega is on no chain: its band's chain seed lands
    # near Re s = ln(gamma) / (N - 1), where F overflows, so the seed at
    # -(i omega + N gamma / 2) must find it (and at 5e-324, w underflows to 0
    # without a warning)
    ps = find_poles(GiantAtomParams(n_legs, gamma_tau, 1.0), re_min=-8.0, im_halfwidth=10.0)
    assert len(ps) == ps.winding == 1
    assert abs(ps.s[0] + 1j) < 1e-12


@pytest.mark.parametrize("omega_2pi", [3.0, 0.5])
@pytest.mark.parametrize("n_legs", [3, 10])
def test_subnormal_lead_does_not_overflow(n_legs, omega_2pi):
    # a trial whose Im s0 cancels omega leaves the companion's lead coefficient
    # N gamma / 2, real and below 1 / DBL_MAX: numpy's complex division by it
    # overflowed (a trial sat at Im s0 = -pi too, so omega / 2pi = 0.5 did)
    p = GiantAtomParams(n_legs, 1e-310, TWO_PI * omega_2pi)
    ps = find_poles(p, im_halfwidth=2.0 * TWO_PI)
    assert len(ps) == ps.winding == 1
    assert abs(ps.s[0] + 1j * p.omega_tau) < 1e-12


def test_largest_emitter_rejected_before_any_eigensolve(monkeypatch):
    # N = 2**16 passes MAX_N_LEGS, but one 65535 x 65535 companion alone is
    # 4.3e9 entries: the budget must refuse it before building anything
    def no_work(*args):
        raise AssertionError("seeding started for a rejected emitter")

    monkeypatch.setattr(np.linalg, "eigvals", no_work)
    monkeypatch.setattr(spectral, "_newton", no_work)
    with pytest.raises(ValueError, match="companion entries and seeds, above the budget"):
        find_poles(GiantAtomParams(2 ** 16, 0.1, 2.0))


def test_wide_rectangle_rejected_before_the_walk(monkeypatch):
    # the right edge is Re s = gamma: at gamma = 1e8 the first walk alone would
    # sample the boundary 5e8 times, so the budget counts those samples too
    def no_walk(*args):
        raise AssertionError("walked a boundary the budget refuses")

    monkeypatch.setattr(spectral, "_winding_number", no_walk)
    with pytest.raises(ValueError, match=r"needs 5\.09e\+08 boundary samples"):
        find_poles(GiantAtomParams(2, 1e8, 1.0), im_halfwidth=1.0)


def test_seed_budget_overflowing_rectangle(dark_n1_params):
    # the side lengths overflow to inf; rejected without converting them to ints
    with pytest.raises(ValueError, match="budget"):
        find_poles(dark_n1_params, re_min=-1e300, im_halfwidth=1e308)


@pytest.mark.parametrize("im_center", [math.nan, math.inf, -math.inf])
def test_non_finite_im_center_rejected_before_seeding(dark_n1_params, monkeypatch, im_center):
    def no_newton(*args):
        raise AssertionError("seeds were built around a non-finite centre")

    monkeypatch.setattr(spectral, "_newton", no_newton)
    with pytest.raises(ValueError, match="im_center must be finite"):
        find_poles(dark_n1_params, im_center=im_center)


@pytest.mark.parametrize("n_legs, deep, shallow", [(3, -400.0, -300.0), (2, -800.0, -700.0)])
def test_overflowing_left_edge_rejected_before_the_walk(monkeypatch, n_legs, deep, shallow):
    # F's terms grow like exp(-(N-1) Re s) and overflow near Re s = -710/(N-1);
    # these grids are far under MAX_SEEDS, so the seed budget cannot catch them
    params = GiantAtomParams(n_legs, 0.1, 5.0)
    assert len(find_poles(params, re_min=shallow, im_halfwidth=1.0)) == 1

    def no_walk(*args):
        raise AssertionError("walked a boundary where F overflows")

    monkeypatch.setattr(spectral, "_winding_number", no_walk)
    with pytest.raises(ValueError, match=rf"^F overflows at re_min = {deep:g} with "
                                         rf"n_legs = {n_legs}; move re_min towards 0$"):
        find_poles(params, re_min=deep, im_halfwidth=1.0)


class TestRecoveryPaths:
    """The nudge and both search failures, each forced.

    The window is the one test_dark_root_found searches around the n = 1 dark point.
    """

    WINDOW = dict(re_min=-5.0, im_halfwidth=4.0)

    def test_edge_on_dark_root_is_nudged(self, dark_n1_params):
        omega_1 = dark_frequency(3, 1)
        centre = -omega_1 + 4.0  # the lower edge runs through -i Omega_1
        ps = find_poles(dark_n1_params, im_center=centre, **self.WINDOW)
        assert abs(centre - 4.0 + omega_1) < 1e-9
        assert sum(abs(s + 1j * omega_1) < 1e-10 for s in ps.s) == 1
        assert ps.winding == len(ps)
        nudge = spectral._NUDGE
        assert (ps.re_min, ps.re_max, ps.im_min, ps.im_max) == (
            -5.0 - nudge, dark_n1_params.gamma_tau + nudge,
            centre - 4.0 - nudge, centre + 4.0 + nudge)

    def test_no_converged_seed_raises_incomplete(self, dark_n1_params, monkeypatch):
        # a short count raises at once: one Newton call, one boundary walk
        expected = len(find_poles(dark_n1_params, **self.WINDOW))
        winding, calls, walks = spectral._winding_number, [], []

        def stalls(params, seeds):
            calls.append(len(seeds))
            return seeds.astype(complex)

        def counted(params, rect, spacing):
            walks.append(list(rect))
            return winding(params, rect, spacing)

        monkeypatch.setattr(spectral, "_newton", stalls)
        monkeypatch.setattr(spectral, "_winding_number", counted)
        with pytest.raises(IncompleteSearchError) as info:
            find_poles(dark_n1_params, **self.WINDOW)
        assert info.value.found == 0 and info.value.expected == expected > 0
        assert len(calls) == 1 and len(walks) == 1

    def test_boundary_never_clear_raises_placement(self, dark_n1_params, monkeypatch):
        def always_near(*args, **kwargs):
            return None

        monkeypatch.setattr(spectral, "_winding_number", always_near)
        with pytest.raises(SearchPlacementError):
            find_poles(dark_n1_params, **self.WINDOW)

    def test_placement_failure_builds_no_seed(self, dark_n1_params, monkeypatch):
        walks = []

        def no_newton(*args):
            raise AssertionError("Newton ran before the rectangle was placed")

        monkeypatch.setattr(spectral, "_winding_number", lambda *args, **kw: walks.append(1))
        monkeypatch.setattr(spectral, "_newton", no_newton)
        with pytest.raises(SearchPlacementError):
            find_poles(dark_n1_params, **self.WINDOW)
        assert len(walks) == 12


def test_winding_cap_counts_only_bisection_samples(dark_n1_params, monkeypatch):
    # the boundary starts at 102 samples, above the cap, and settles after
    # 4 bisection passes that add one sample each
    omega_1 = dark_frequency(3, 1)
    rect = [-5.0, dark_n1_params.gamma_tau, -omega_1 + 0.01, -omega_1 + 8.01]
    spacing = math.pi / 12  # half the N = 3 cell, as find_poles walks it
    assert len(spectral._boundary_points(rect, spacing)) == 102
    monkeypatch.setattr(spectral, "_MAX_WINDING_POINTS", 50)
    assert spectral._winding_number(dark_n1_params, rect, spacing) == 2


def test_winding_cap_gives_up_and_placement_fails(dark_n1_params, monkeypatch):
    # the window of the test above bisects on its first pass, and so does every
    # nudged copy of it: with no bisection samples allowed each walk gives up
    omega_1 = dark_frequency(3, 1)
    rect = [-5.0, dark_n1_params.gamma_tau, -omega_1 + 0.01, -omega_1 + 8.01]
    monkeypatch.setattr(spectral, "_MAX_WINDING_POINTS", 0)
    assert spectral._winding_number(dark_n1_params, rect, math.pi / 12) is None
    walk, walks = spectral._winding_number, []

    def counted(params, rect, spacing):
        walks.append(walk(params, rect, spacing))
        return walks[-1]

    monkeypatch.setattr(spectral, "_winding_number", counted)
    with pytest.raises(SearchPlacementError):
        find_poles(dark_n1_params, re_min=-5.0, im_center=-omega_1 + 4.01, im_halfwidth=4.0)
    assert walks == [None] * 12


def loop_dedupe(roots, residuals):
    """Reference: walk the (Im, Re)-sorted roots, merging each into the kept
    root it lies within _SEPARATION of and keeping the lower residual."""
    order = np.lexsort((roots.real, roots.imag))
    kept, kept_res = [], []
    for z, r in zip(roots[order], residuals[order]):
        if kept and abs(z - kept[-1]) <= spectral._SEPARATION:
            if r < kept_res[-1]:
                kept[-1], kept_res[-1] = z, r
            continue
        kept.append(complex(z))
        kept_res.append(float(r))
    return np.asarray(kept, dtype=complex)


class TestDedupe:
    SEP = spectral._SEPARATION

    def test_cluster_keeps_lowest_residual(self):
        roots = np.array([3 + 2j, 1 + 1j, 1 + 1j + 0.4 * self.SEP, 2j, 1 + 1j + 0.8 * self.SEP])
        res = np.array([4e-12, 3e-12, 1e-12, 5e-12, 2e-12])
        out = spectral._dedupe(roots, res)
        assert out.tolist() == [1 + 1j + 0.4 * self.SEP, 2j, 3 + 2j]

    def test_tie_keeps_first_in_im_re_order(self):
        roots = np.array([-1 + 5j + 0.5j * self.SEP, -1 + 5j + 0.5 * self.SEP, -1 + 5j])
        out = spectral._dedupe(roots, np.full(3, 1e-12))
        assert out.tolist() == [-1 + 5j]

    def test_empty_input(self):
        out = spectral._dedupe(np.empty(0, dtype=complex), np.empty(0))
        assert out.shape == (0,) and out.dtype == complex

    def test_permutation_invariant_and_matches_loop(self):
        rng = np.random.default_rng(8)
        centres = rng.uniform(-9, 0, 40) + 1j * rng.uniform(-30, 30, 40)
        copies = rng.integers(1, 5, 40)
        roots = np.repeat(centres, copies)
        roots = roots + 0.3 * self.SEP * (rng.uniform(-1, 1, len(roots))
                                          + 1j * rng.uniform(-1, 1, len(roots)))
        res = rng.choice([1e-12, 2e-12, 3e-12], len(roots))  # ties included
        expected = spectral._dedupe(roots, res)
        assert len(expected) == 40
        np.testing.assert_array_equal(expected, loop_dedupe(roots, res))
        for _ in range(5):
            perm = rng.permutation(len(roots))
            np.testing.assert_array_equal(spectral._dedupe(roots[perm], res[perm]), expected)


class TestBoundaryBand:
    """An edge placed just inside, on or just outside a root: the winding
    guard alone decides whether the rectangle grows, and the search still
    returns exactly the roots a wide search finds inside its rectangle."""

    OFFSETS = [0.0, 1e-11, -1e-11, 3e-10, -3e-10, 9e-10, -9e-10, 2e-9, -2e-9]
    HALFWIDTH = 4.0

    @pytest.fixture(scope="class")
    def reference(self, dark_n1_params):
        return find_poles(dark_n1_params, re_min=-9.0, im_halfwidth=30.0)

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("edge", ["lower", "upper", "left"])
    def test_edge_near_root(self, dark_n1_params, reference, edge, offset):
        hw, omega = self.HALFWIDTH, dark_n1_params.omega_tau
        dark = -dark_frequency(3, 1)  # Im of the dark root -i Omega_1
        window = [z for z in reference.s if abs(z.imag + omega) < hw and z.real > -5.0]
        left = min(window, key=lambda z: z.real)
        kwargs = {"lower": dict(re_min=-5.0, im_center=dark + offset + hw),
                  "upper": dict(re_min=-5.0, im_center=dark + offset - hw),
                  "left": dict(re_min=left.real + offset, im_center=-omega)}[edge]
        ps = find_poles(dark_n1_params, im_halfwidth=hw, **kwargs)
        assert ps.winding == len(ps)
        s, r = ps.s, reference.s
        assert np.all((s.real >= ps.re_min) & (s.real <= ps.re_max)
                      & (s.imag >= ps.im_min) & (s.imag <= ps.im_max))
        expected = r[(r.real >= ps.re_min) & (r.real <= ps.re_max)
                     & (r.imag >= ps.im_min) & (r.imag <= ps.im_max)]
        assert len(s) == len(expected)
        assert np.abs(s - expected).max() <= 1e-12
