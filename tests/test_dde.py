import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giant_atom import dde
from giant_atom import (
    AmplitudeTrace,
    DivergenceError,
    GiantAtomParams,
    beta_at,
    beta_at_many,
    dark_amplitude,
    integrate_beta,
)

TWO_PI = 2.0 * math.pi


def scalar_march(params, t_max, steps_per_tau, beta0=1.0 + 0.0j):
    """Step-by-step RK4 method of steps, one Python loop iteration per step:
    the reference the interval-vectorised march must reproduce."""
    m = steps_per_tau
    n = params.n_legs
    gamma = params.gamma_tau
    h = 1.0 / m
    n_steps = max(1, math.ceil(t_max / h - 1e-12))
    decay = -1j * params.omega_tau - 0.5 * n * gamma
    # (half-index delay, coupling weight, first step index where the term is live)
    terms = [(2 * l * m, gamma * (n - l), l * m) for l in range(1, n)]

    samples = [0j] * (2 * n_steps + 1)
    y = complex(beta0)
    samples[0] = y
    sixth = h / 6.0
    half = 0.5 * h
    eighth = 0.125 * h
    for k in range(n_steps):
        live = [(d, w) for d, w, first in terms if k >= first]
        base = 2 * k
        a1 = decay * y
        for d, w in live:
            a1 -= w * samples[base - d]
        y2 = y + half * a1
        a2 = decay * y2
        for d, w in live:
            a2 -= w * samples[base + 1 - d]
        y3 = y + half * a2
        a3 = decay * y3
        for d, w in live:
            a3 -= w * samples[base + 1 - d]
        y4 = y + h * a3
        a4 = decay * y4
        for d, w in live:
            a4 -= w * samples[base + 2 - d]
        y_next = y + sixth * (a1 + 2.0 * (a2 + a3) + a4)
        # end slope on this step's branch (terms switching on at the right
        # endpoint are still off), so the Hermite midpoint stays clean
        f_end = a4 + decay * (y_next - y4)
        samples[base + 1] = 0.5 * (y + y_next) + eighth * (a1 - f_end)
        samples[base + 2] = y_next
        y = y_next
    return np.asarray(samples, dtype=complex)


def exact_beta(n_legs, gamma_tau, omega_tau, ts):
    """Exact amplitude from the finite series of 1/F(s), at 40 digits:

    beta(t) = sum_k sum_L (-gamma)^k C_k(L) (t-L)^k/k! exp(-a (t-L)) Theta(t-L),
    a = i*omega + N*gamma/2, with C_k(L) the coefficient of z^L in P(z)^k and
    P(z) = sum_{l=1}^{N-1} (N-l) z^l.  Only k <= L <= t contribute.
    """
    poly = [0] + [n_legs - l for l in range(1, n_legs)]
    powers = [[1]]
    for _ in range(int(max(ts))):
        prev = powers[-1]
        nxt = [0] * (len(prev) + n_legs - 1)
        for i, c in enumerate(prev):
            for l, w in enumerate(poly):
                nxt[i + l] += c * w
        powers.append(nxt)
    out = []
    with mpmath.workdps(40):
        a = mpmath.mpc(0.5 * n_legs * gamma_tau, omega_tau)
        g = -mpmath.mpf(gamma_tau)
        for t in ts:
            t = mpmath.mpf(t)
            total = mpmath.mpc(0)
            for k, coeffs in enumerate(powers):
                for L, c in enumerate(coeffs):
                    if c and L <= t:
                        u = t - L
                        total += g ** k * c * u ** k / mpmath.factorial(k) * mpmath.exp(-a * u)
            out.append(complex(total))
    return np.array(out)


def test_validation():
    p = GiantAtomParams(3, 0.1, 1.0)
    with pytest.raises(ValueError):
        integrate_beta(p, 0.0)
    with pytest.raises(ValueError):
        integrate_beta(p, -1.0)
    with pytest.raises(ValueError):
        integrate_beta(p, 5.0, steps_per_tau=8)


def test_unstable_step_rejected():
    # |R(z)| of RK4 at z = h*(-i*omega - N*gamma/2) is 1.0785 here: the march
    # would grow without bound, so it is refused before anything is allocated
    p = GiantAtomParams(3, TWO_PI * 0.02, TWO_PI * 7.3)
    z = (-1j * p.omega_tau - 1.5 * p.gamma_tau) / 16
    growth = abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    assert growth == pytest.approx(1.0785, abs=5e-5)
    with pytest.raises(ValueError, match=r"steps_per_tau = 16 .*\|R\| = 1\.0785"):
        integrate_beta(p, 200.0, steps_per_tau=16)
    tr = integrate_beta(p, 200.0, steps_per_tau=32)
    assert np.abs(tr.samples).max() <= 1.0 + 1e-9


def test_divergence_reports_first_non_finite_time():
    # w_1 * beta(0) = 40 * 1e308 overflows in the first delayed stage sum, so
    # the first non-finite sample is the midpoint of the first step after t = 1
    p = GiantAtomParams(3, 20.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=r"at t = 1\.03125$"):
            integrate_beta(p, 3.0, 16, beta0=1e308)
        with pytest.raises(DivergenceError, match=r"at t = 0$"):
            integrate_beta(p, 3.0, 16, beta0=complex("nan"))


def test_sample_budget_checked_before_allocation(monkeypatch):
    p = GiantAtomParams(3, 0.1, 1.0)
    for t_max in (1e12, 1e308):
        with pytest.raises(ValueError, match="budget"):
            integrate_beta(p, t_max)
    # t_max = 1 at 16 steps per tau needs exactly 33 samples
    monkeypatch.setattr(dde, "MAX_TRACE_SAMPLES", 33)
    assert len(integrate_beta(p, 1.0, steps_per_tau=16).samples) == 33
    monkeypatch.setattr(dde, "MAX_TRACE_SAMPLES", 32)
    with pytest.raises(ValueError, match="budget"):
        integrate_beta(p, 1.0, steps_per_tau=16)


def test_interval_scratch_checked_before_allocation(monkeypatch):
    # t_max = 1/64 at 64 steps per tau is a 5-sample trace, but the march's
    # scratch grows with one interval, 2M + 1 = 129 samples, at any t_max
    p = GiantAtomParams(3, 0.1, 1.0)
    monkeypatch.setattr(dde, "MAX_TRACE_SAMPLES", 128)
    with pytest.raises(ValueError, match="needs 129 samples, above the budget of 128$"):
        integrate_beta(p, 1 / 64, steps_per_tau=64)
    monkeypatch.setattr(dde, "MAX_TRACE_SAMPLES", 129)
    assert len(integrate_beta(p, 1 / 64, steps_per_tau=64).samples) == 5


def test_initial_condition_and_contractivity(dark_n1_trace_200):
    assert dark_n1_trace_200.samples[0] == 1.0 + 0.0j
    assert np.abs(dark_n1_trace_200.samples).max() <= 1.0 + 1e-9


def test_pre_delay_exponential(dark_n1_params):
    # before the first delay interval closes, the dynamics is a bare exponential
    tr = integrate_beta(dark_n1_params, 3.0, 256)
    c = -1j * dark_n1_params.omega_tau - 1.5 * dark_n1_params.gamma_tau
    ts = tr.sample_times
    sel = ts < 1.0
    err = np.abs(tr.samples[sel] - np.exp(c * ts[sel])).max()
    assert err < 1e-9


def test_second_interval_analytic(dark_n1_params):
    # on [1, 2] the equation has one active delayed term with a known kernel:
    # beta(t) = exp(c t) - gamma*(N-1)*(t-1)*exp(c (t-1))
    p = dark_n1_params
    tr = integrate_beta(p, 2.5, 256)
    c = -1j * p.omega_tau - 1.5 * p.gamma_tau
    ts = tr.sample_times
    sel = (ts >= 1.0) & (ts <= 2.0)
    exact = np.exp(c * ts[sel]) - p.gamma_tau * 2.0 * (ts[sel] - 1.0) * np.exp(c * (ts[sel] - 1.0))
    assert np.abs(tr.samples[sel] - exact).max() < 1e-9


def test_markov_limit_exponential_decay():
    # gamma_tau -> 0 with a transition slow enough that the delay phases are
    # negligible: |beta|^2 = exp(-N^2 gamma t) over three amplitude lifetimes
    gamma_tau = 4e-6
    p = GiantAtomParams(3, gamma_tau, 0.002)
    t_max = 3.0 / (4.5 * gamma_tau)
    tr = integrate_beta(p, t_max, 16)
    expected = np.exp(-9.0 * gamma_tau * tr.sample_times)
    rel = np.abs(tr.probabilities / expected - 1.0).max()
    assert rel < 1e-4


def test_long_time_trapping(dark_n1_params, dark_n1_trace_200):
    a = dark_amplitude(3, 1, dark_n1_params.gamma_tau)
    final = abs(dark_n1_trace_200.samples[-1]) ** 2
    assert final == pytest.approx(a * a, rel=0.01)
    assert a * a == pytest.approx(0.6651, abs=5e-5)


def test_oscillating_pair_envelope(pair_551_params, pair_trace_130):
    a = dark_amplitude(3, 16, pair_551_params.gamma_tau)
    assert a == pytest.approx(0.17133, abs=5e-6)
    ts = pair_trace_130.sample_times
    prob = pair_trace_130.probabilities
    late = prob[ts >= 100.0]
    assert late.min() < 1e-3
    assert late.max() == pytest.approx((2.0 * a) ** 2, rel=0.01)
    assert (2.0 * a) ** 2 == pytest.approx(0.1174, abs=5e-5)


class TestDenseOutput:
    def test_t_zero(self, dark_n1_trace_200):
        assert beta_at(dark_n1_trace_200, 0.0) == 1.0 + 0.0j

    def test_grid_hits_bit_identical(self, dark_n1_trace_200):
        tr = dark_n1_trace_200
        for k in (1, 7, 512, 513, 100001):
            t = k * 0.5 * tr.dt
            assert beta_at(tr, t) == complex(tr.samples[k])

    # a time within _GRID_SNAP half-steps of a sample reads that sample: at a
    # whole tau, inside a piece and at the last sample
    @pytest.mark.parametrize("offset", [-0.5 * dde._GRID_SNAP, 0.5 * dde._GRID_SNAP])
    @pytest.mark.parametrize("k", [7 * 512, 3700, -1], ids=["whole-tau", "in-piece", "last"])
    def test_snapped_grid_hits_bit_identical(self, dark_n1_trace_200, k, offset):
        tr = dark_n1_trace_200
        k %= len(tr.samples)
        assert beta_at(tr, (k + offset) * 0.5 * tr.dt) == complex(tr.samples[k])

    def test_shortest_trace(self):
        # t_max below one step still marches two steps: 5 samples, and off-grid
        # times read the bare decay, not a stencil wrapped round to samples[-1]
        p = GiantAtomParams(3, 0.1, 1.0)
        tr = integrate_beta(p, 1e-3, 16)
        assert len(tr.samples) == 5 and tr.t_max == 0.125
        decay = -1j * p.omega_tau - 1.5 * p.gamma_tau
        ts = np.array([0.001, 0.01, 0.02, 0.05, 0.07, 0.1, 0.12])
        assert np.abs(beta_at_many(tr, ts) - np.exp(decay * ts)).max() < 1e-7

    def test_three_sample_trace_rejected(self):
        tr = AmplitudeTrace(dt=1 / 16, samples=np.ones(3, dtype=complex), t_max=1 / 16)
        with pytest.raises(ValueError, match="at least 4 samples"):
            beta_at(tr, 0.01)

    def test_midpoint_refinement(self, dark_n1_params):
        tr_a = integrate_beta(dark_n1_params, 10.0, 256)
        tr_b = integrate_beta(dark_n1_params, 10.0, 512)
        mids = tr_a.sample_times[:-1] + 0.25 * tr_a.dt
        err = np.abs(beta_at_many(tr_a, mids) - beta_at_many(tr_b, mids)).max()
        assert err < 1e-8

    def test_range_error(self, dark_n1_trace_200):
        with pytest.raises(ValueError):
            beta_at(dark_n1_trace_200, -0.5)
        with pytest.raises(ValueError):
            beta_at(dark_n1_trace_200, dark_n1_trace_200.t_max + 1.0)
        with pytest.raises(ValueError):
            beta_at_many(dark_n1_trace_200, np.array([1.0, 1e9]))

    def test_nan_time_rejected(self, dark_n1_trace_200):
        # beta_at relies on beta_at_many's range check, which must not let nan through
        with pytest.raises(ValueError, match="outside trace range"):
            beta_at(dark_n1_trace_200, math.nan)
        with pytest.raises(ValueError, match="outside trace range"):
            beta_at_many(dark_n1_trace_200, np.array([1.0, math.nan]))


def test_convergence_order(dark_n1_params):
    # fourth-order marching: halving the step shrinks the max-norm error by ~16
    ref = integrate_beta(dark_n1_params, 20.0, 512)
    e = {}
    for m in (32, 64):
        tr = integrate_beta(dark_n1_params, 20.0, m)
        k = 512 // m
        e[m] = np.abs(tr.samples - ref.samples[::k]).max()
    assert e[32] / e[64] >= 2**3 * 0.9


def test_linearity(dark_n1_params):
    scale = 0.3 - 0.4j
    tr1 = integrate_beta(dark_n1_params, 10.0, 64)
    tr2 = integrate_beta(dark_n1_params, 10.0, 64, beta0=scale)
    err = np.abs(tr2.samples - scale * tr1.samples).max()
    assert err < 1e-13


@pytest.mark.parametrize("steps_per_tau", [16, 17, 100, 256, 1040, 2048])
@pytest.mark.parametrize("n_legs", [2, 3, 10, 30])
def test_matches_scalar_march(n_legs, steps_per_tau):
    # every delay term live for the last 1.37 tau, ending in a partial interval
    p = GiantAtomParams(n_legs, 0.5 / n_legs, 2.0)
    t_max = n_legs + 0.37
    ref = scalar_march(p, t_max, steps_per_tau)
    tr = integrate_beta(p, t_max, steps_per_tau)
    assert len(tr.samples) == len(ref)
    assert np.abs(tr.samples - ref).max() <= 1e-10


@pytest.mark.parametrize("steps_per_tau", [16, 17])
@pytest.mark.parametrize("n_legs", [3, 10])
def test_matches_scalar_march_over_long_horizon(n_legs, steps_per_tau):
    # the Markov regime over 1000.3 tau: thousands of intervals, each one chunk
    # (M = 16) or two padded chunks (M = 17), so an error carried from interval
    # to interval would build up
    p = GiantAtomParams(n_legs, 0.4 / (n_legs ** 2 * 1000.0), 1e-3)
    t_max = 1000.3
    ref = scalar_march(p, t_max, steps_per_tau)
    tr = integrate_beta(p, t_max, steps_per_tau)
    assert len(tr.samples) == len(ref)
    assert np.abs(tr.samples - ref).max() <= 1e-12


def test_exact_series_error_and_order():
    # absolute error and order 4 against the exact series, at the samples on
    # whole tau and at midpoint samples (first, middle and last step of each tau)
    p = GiantAtomParams(3, 0.2, 3.0)
    err_whole, err_mid = {}, {}
    for m in (16, 32, 64, 128, 256):
        tr = integrate_beta(p, 12.0, m)
        whole = np.arange(13) * 2 * m
        mids = np.array([2 * (j * m + i) + 1 for j in range(12) for i in (0, m // 2, m - 1)])
        for err, idx in ((err_whole, whole), (err_mid, mids)):
            exact = exact_beta(3, p.gamma_tau, p.omega_tau, tr.sample_times[idx])
            err[m] = np.abs(tr.samples[idx] - exact).max()
    for err in (err_whole, err_mid):
        for m in (16, 32, 64, 128, 256):
            assert err[m] < 1.25e-4 * (16 / m) ** 4
        for m in (16, 32, 64, 128):
            assert err[m] / err[2 * m] >= 14.0


@settings(max_examples=90, deadline=None, derandomize=True)
@given(n_legs=st.integers(2, 30), drive=st.floats(0.001, 0.6), omega_tau=st.floats(0.5, 3.0),
       t_max=st.floats(1.0, 4.0))
def test_exact_series_sweep(n_legs, drive, omega_tau, t_max):
    """The bound and order 4 of test_exact_series_error_and_order, over N 2-30
    at short t, in that test's regime: omega_tau up to its 3 and the delayed
    drive gamma * sum_l (N - l) = gamma * N (N - 1) / 2 up to its 0.6.  The
    fixed bound is RK4's t |a|^5 h^4 / 120 at |a| ~ 3, t ~ 4; it is no bound at
    a larger omega or stronger coupling."""
    p = GiantAtomParams(n_legs, drive / (n_legs * (n_legs - 1) / 2), omega_tau)
    err_whole, err_mid = {}, {}
    for m in (16, 32, 64, 128, 256):
        tr = integrate_beta(p, t_max, m)
        steps = np.arange((len(tr.samples) - 1) // 2)
        whole = np.arange(0, len(tr.samples), 2 * m)
        mids = 2 * steps[np.isin(steps % m, (0, m // 2, m - 1))] + 1
        for err, idx in ((err_whole, whole), (err_mid, mids)):
            exact = exact_beta(n_legs, p.gamma_tau, p.omega_tau, tr.sample_times[idx])
            err[m] = np.abs(tr.samples[idx] - exact).max()
    for err in (err_whole, err_mid):
        for m in (16, 32, 64, 128, 256):
            assert err[m] < 1.25e-4 * (16 / m) ** 4
        for m in (16, 32, 64, 128):
            assert err[m] / err[2 * m] >= 14.0
