import math

import numpy as np
import pytest

from giant_atom import dde
from giant_atom import (
    GiantAtomParams,
    beta_at,
    beta_at_many,
    dark_amplitude,
    integrate_beta,
)

TWO_PI = 2.0 * math.pi


def test_validation():
    p = GiantAtomParams(3, 0.1, 1.0)
    with pytest.raises(ValueError):
        integrate_beta(p, 0.0)
    with pytest.raises(ValueError):
        integrate_beta(p, -1.0)
    with pytest.raises(ValueError):
        integrate_beta(p, 5.0, steps_per_tau=8)


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
