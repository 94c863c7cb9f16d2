import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giant_atom import (
    AmplitudeTrace,
    ComplexFreq,
    FieldGrid,
    GiantAtomParams,
    characteristic_deriv,
    characteristic_fn,
    dark_frequency,
    params_from_physical,
    params_to_physical,
)
from giant_atom.core import worker_count

TWO_PI = 2.0 * math.pi


class TestParams:
    def test_physical_example(self):
        # 5 GHz transition, 18 MHz per-point rate, 1 ns neighbour delay
        p = params_from_physical(5e9, 18e6, 1e-9, 3)
        assert p.n_legs == 3
        assert p.gamma_tau == pytest.approx(0.1131, abs=5e-5)
        assert p.omega_tau == pytest.approx(31.416, abs=5e-4)
        assert p.gamma_tau == 18e6 * (TWO_PI * 1e-9)
        assert p.omega_tau == 5e9 * (TWO_PI * 1e-9)

    def test_scale_invariance(self):
        base = params_from_physical(5e9, 18e6, 1e-9, 3)
        for k in (2.0, 4.0, 8.0, 0.5):
            scaled = params_from_physical(5e9 * k, 18e6 * k, 1e-9 / k, 3)
            assert scaled.gamma_tau == base.gamma_tau
            assert scaled.omega_tau == base.omega_tau

    def test_round_trip_bit_identical(self):
        p0 = GiantAtomParams(3, TWO_PI * 0.018, TWO_PI * 0.317)
        for tau_s in (2.0**-33, 1.0 / TWO_PI):
            omega_hz, gamma_hz = params_to_physical(p0, tau_s)
            p1 = params_from_physical(omega_hz, gamma_hz, tau_s, 3)
            assert p1.gamma_tau == p0.gamma_tau
            assert p1.omega_tau == p0.omega_tau

    @pytest.mark.parametrize("kwargs,field", [
        (dict(omega_hz=0.0, gamma_hz=1.0, tau_s=1.0, n_legs=3), "omega_hz"),
        (dict(omega_hz=1.0, gamma_hz=-2.0, tau_s=1.0, n_legs=3), "gamma_hz"),
        (dict(omega_hz=1.0, gamma_hz=1.0, tau_s=0.0, n_legs=3), "tau_s"),
        (dict(omega_hz=1.0, gamma_hz=1.0, tau_s=1.0, n_legs=1), "n_legs"),
    ])
    def test_validation_names_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            params_from_physical(**kwargs)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_legs"):
            GiantAtomParams(1, 0.1, 1.0)
        with pytest.raises(ValueError, match="gamma_tau"):
            GiantAtomParams(3, 0.0, 1.0)
        with pytest.raises(ValueError, match="omega_tau"):
            GiantAtomParams(3, 0.1, -1.0)

    def test_coupling_points(self):
        p = GiantAtomParams(4, 0.1, 1.0)
        assert np.array_equal(p.coupling_points, [0.0, 1.0, 2.0, 3.0])


class TestCharacteristicFn:
    def test_zero_argument(self):
        # exp(0) = 1 collapses the delay sum to N*(N-1)/2
        for n, g2, w2 in ((2, 0.1, 0.4), (3, 0.018, 0.317), (5, 0.08, 1.3)):
            p = GiantAtomParams(n, TWO_PI * g2, TWO_PI * w2)
            expect = 1j * p.omega_tau + 0.5 * n * n * p.gamma_tau
            assert characteristic_fn(p, 0j) == pytest.approx(expect, rel=1e-14)

    def test_large_real_s(self):
        p = GiantAtomParams(2, 0.3, 1.1)
        s = 200.0 + 0.0j
        # the delayed term is ~gamma*exp(-200), utterly negligible
        drift = characteristic_fn(p, s) - (s + 1j * p.omega_tau + 0.5 * 2 * 0.3)
        assert abs(drift) < 1e-80

    def test_dark_point_root(self, dark_n1_params):
        s = -1j * dark_frequency(3, 1)
        assert abs(characteristic_fn(dark_n1_params, s)) < 1e-12

    def test_accepts_complex_freq_and_arrays(self, dark_n1_params):
        s = ComplexFreq(re=-0.5, im=-2.0)
        a = characteristic_fn(dark_n1_params, s)
        b = characteristic_fn(dark_n1_params, complex(s))
        assert a == b
        arr = np.array([0j, -0.5 - 2.0j])
        vals = characteristic_fn(dark_n1_params, arr)
        assert vals.shape == (2,)
        assert vals[1] == b

    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(-4.0, 1.0), im=st.floats(-40.0, 40.0),
           g2=st.floats(0.005, 0.5), w2=st.floats(0.1, 5.0),
           n=st.integers(2, 6))
    def test_quasi_periodic_structure(self, re, im, g2, w2, n):
        # shifting s by 2*pi*i leaves every delay term alone, so F shifts by 2*pi*i
        p = GiantAtomParams(n, TWO_PI * g2, TWO_PI * w2)
        s = complex(re, im)
        lhs = characteristic_fn(p, s + TWO_PI * 1j)
        rhs = characteristic_fn(p, s) + TWO_PI * 1j
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(-3.0, 1.0), im=st.floats(-20.0, 20.0),
           g2=st.floats(0.005, 0.5), w2=st.floats(0.1, 5.0),
           n=st.integers(2, 6))
    def test_derivative_matches_central_difference(self, re, im, g2, w2, n):
        p = GiantAtomParams(n, TWO_PI * g2, TWO_PI * w2)
        s = complex(re, im)
        h = 1e-5 * (1.0 + abs(s))
        fd = (characteristic_fn(p, s + h) - characteristic_fn(p, s - h)) / (2.0 * h)
        exact = characteristic_deriv(p, s)
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


class TestDomainTypes:
    def test_complex_freq(self):
        m = ComplexFreq.from_complex(-1e-12 - 2.0j)
        assert m.is_dark()
        assert not ComplexFreq(-0.3, 1.0).is_dark()
        assert complex(ComplexFreq(-0.25, 1.5)) == -0.25 + 1.5j
        with pytest.raises(ValueError):
            ComplexFreq(math.nan, 0.0)

    def test_amplitude_trace_grid(self):
        tr = AmplitudeTrace(dt=0.25, samples=np.array([1 + 0j, 0.5j, 0.25 + 0j]),
                            t_max=0.25)
        assert np.allclose(tr.sample_times, [0.0, 0.125, 0.25])
        assert tr.steps_per_tau == 4
        assert np.allclose(tr.probabilities, [1.0, 0.25, 0.0625])

    def test_field_grid_axis(self):
        g = FieldGrid(x_min=-1.0, x_max=1.0, dx=0.5, values=np.zeros(5), t=2.0)
        assert np.allclose(g.xs, [-1.0, -0.5, 0.0, 0.5, 1.0])


class TestWorkerCount:
    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert [worker_count(t) for t in (-3, 0, 1, 2, 3, 100_000)] == [1, 1, 1, 2, 2, 2]

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(8) == 1
