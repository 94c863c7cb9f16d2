import math

import numpy as np
import pytest

from giant_atom import (
    GiantAtomParams,
    beta_at_many,
    beta_from_poles,
    characteristic_deriv,
    characteristic_fn,
    dark_amplitude,
    dark_frequency,
    find_poles,
    integrate_beta,
    spectral,
)
from conftest import single_dark_params

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


def test_argument_validation(dark_n1_params):
    with pytest.raises(ValueError):
        find_poles(dark_n1_params, re_min=1.0)
    with pytest.raises(ValueError):
        find_poles(dark_n1_params, re_min=-5.0, im_halfwidth=-1.0)
    ps = find_poles(dark_n1_params, re_min=-5.0, im_halfwidth=4.0)
    with pytest.raises(ValueError):
        beta_from_poles(ps, 0.0)


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


def test_seed_budget_counts_refinement_grid(dark_n1_params, monkeypatch):
    # re_min = -12, halfwidth 25 at N = 3 (cell pi/6): a 24 x 96 base grid and
    # a 47 x 191 refinement grid, 11,281 seeds in all
    def no_newton(*args):
        raise AssertionError("seeds were built for a rejected rectangle")

    monkeypatch.setattr(spectral, "MAX_SEEDS", 11_280)
    monkeypatch.setattr(spectral, "_newton", no_newton)
    with pytest.raises(ValueError, match="budget of 11280"):
        find_poles(dark_n1_params, re_min=-12.0, im_halfwidth=25.0)
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "MAX_SEEDS", 11_281)
    assert len(find_poles(dark_n1_params, re_min=-12.0, im_halfwidth=25.0)) > 0


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
