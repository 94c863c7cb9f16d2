import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giant_atom import (
    MAX_N_LEGS,
    AmplitudeTrace,
    ComplexFreq,
    FieldGrid,
    GiantAtomParams,
    GridSpec,
    bound_profile,
    characteristic_deriv,
    characteristic_fn,
    continuum_profile,
    continuum_total_intensity,
    dark_amplitude,
    dark_condition_omega_tau,
    dark_frequency,
    dark_state_record,
    find_pairs,
    find_poles,
    integrate_beta,
    intensity_map,
    params_from_physical,
    params_to_physical,
    rwa_check,
    scan_lattice,
    total_intensity,
)

from giant_atom.core import check_budget, check_int, check_positive

TWO_PI = 2.0 * math.pi


class TestInputRules:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_positive_rejects(self, value):
        with pytest.raises(ValueError, match="^x must be positive and finite"):
            check_positive("x", value)

    @pytest.mark.parametrize("value", [True, 2.5, math.inf, math.nan])
    def test_integer_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="^k must be an integer"):
            check_int("k", value, 1)

    def test_integer_range_and_conversion(self):
        with pytest.raises(ValueError, match=r"^k must be >= 2, got 1$"):
            check_int("k", 1, 2)
        assert check_int("k", 3.0, 2) == 3 and type(check_int("k", np.int64(4), 2)) is int
        assert check_int("k", 10 ** 400, 2) == 10 ** 400

    @pytest.mark.parametrize("count", [101, 1e300, math.inf, math.nan])
    def test_budget_rejects(self, count):
        with pytest.raises(ValueError, match="^the job needs .* cells, above the budget of 100$"):
            check_budget("the job", count, "cells", 100)
        check_budget("the job", 100, "cells", 100)

    def test_n_legs_bound(self):
        assert GiantAtomParams(MAX_N_LEGS, 0.1, 1.0).n_legs == MAX_N_LEGS
        with pytest.raises(ValueError, match="coupling points, above the budget of 65536"):
            GiantAtomParams(MAX_N_LEGS + 1, 0.1, 1.0)

    NEGATIVE = r"must be >= \d+, got a value below -2\*\*53$"

    # an int past float range, or an infinite grid end, is a ValueError, not an OverflowError
    @pytest.mark.parametrize("call, match", [
        (lambda: GiantAtomParams(10 ** 400, 0.1, 1.0), "the emitter needs inf coupling points"),
        (lambda: find_pairs(3, 10 ** 400, 2), "the pair search needs inf lattice points"),
        (lambda: integrate_beta(GiantAtomParams(3, 0.1, 1.0), 1.0, steps_per_tau=10 ** 400),
         "needs inf samples"),
        (lambda: GridSpec(-math.inf, 0.0).xs, "finite number of points"),
        (lambda: GridSpec(0.0, math.inf).xs, "finite number of points"),
        # a huge negative int is shown by its bound; past 4300 digits str() itself raises
        (lambda: dark_frequency(3, -10 ** 400), NEGATIVE),
        (lambda: find_pairs(3, -10 ** 400, 2), NEGATIVE),
        (lambda: integrate_beta(GiantAtomParams(3, 0.1, 1.0), 1.0, steps_per_tau=-10 ** 400),
         NEGATIVE),
        (lambda: dark_frequency(3, -10 ** 5000), NEGATIVE),
        (lambda: find_pairs(3, -10 ** 5000, 2), NEGATIVE),
        (lambda: integrate_beta(GiantAtomParams(3, 0.1, 1.0), 1.0, steps_per_tau=-10 ** 5000),
         NEGATIVE),
    ], ids=["n_legs", "p_max", "steps_per_tau", "x_min", "x_max",
            "n_below_e400", "p_max_below_e400", "steps_per_tau_below_e400",
            "n_below_e5000", "p_max_below_e5000", "steps_per_tau_below_e5000"])
    def test_value_error_not_overflow(self, call, match):
        with pytest.raises(ValueError, match=match) as info:
            call()
        assert len(str(info.value)) < 200

    # a mode index past 2**53 is not exact in floats; past float range it overflowed
    @pytest.mark.parametrize("call", [
        lambda n: dark_frequency(3, n),
        lambda n: dark_condition_omega_tau(3, n, 0.1),
        lambda n: dark_amplitude(3, n, 0.1),
        lambda n: rwa_check(3, n, 0.1, 2.0),
        lambda n: bound_profile(GiantAtomParams(3, 0.1, 2.0), n, 0.5),
        lambda n: total_intensity(GiantAtomParams(3, 0.1, 2.0), n),
        lambda n: dark_state_record(GiantAtomParams(3, 0.1, 2.0), n),
        lambda n: continuum_profile(1.0, n, 1.0, 0.5),
        lambda n: continuum_total_intensity(1.0, n),
    ], ids=["dark_frequency", "dark_condition_omega_tau", "dark_amplitude", "rwa_check",
            "bound_profile", "total_intensity", "dark_state_record", "continuum_profile",
            "continuum_total_intensity"])
    def test_mode_index_above_2_53(self, call):
        for n in (2 ** 53 + 1, 10 ** 400 + 1):
            with pytest.raises(ValueError, match=r"^mode index must be <= 2\*\*53$"):
                call(n)

    def test_dark_frequency_checks_its_index(self):
        assert dark_frequency(3, 2 ** 53) == TWO_PI * 2 ** 53 / 3
        for n in (0, 1.5, -3):
            with pytest.raises(ValueError, match="mode index"):
                dark_frequency(3, n)
        assert not rwa_check(3, -10 ** 400, 0.1, 2.0)  # n < 1 is never acceptable, not an error


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


class TestCharacteristicAccuracy:
    """F and F' against the same sums evaluated exactly at 40 digits."""

    @pytest.mark.parametrize("n_legs", [2, 3, 5, 10, 30])
    def test_against_mpmath(self, n_legs):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n_legs)
        s = rng.uniform(-12.0, 0.5, 120) + 1j * rng.uniform(-800.0, 800.0, 120)
        s = np.append(s, [complex(re, im) for re in (-12.0, 0.5) for im in (-800.0, 800.0)])
        gamma, omega = rng.uniform(0.01, 1.0), rng.uniform(0.1, 10.0)
        p = GiantAtomParams(n_legs=n_legs, gamma_tau=gamma, omega_tau=omega)
        f = characteristic_fn(p, s)
        fp = characteristic_deriv(p, s)
        with mpmath.workdps(40):
            for k, sk in enumerate(s):
                sm = mpmath.mpc(sk.real, sk.imag)
                terms = [(n_legs - l) * mpmath.exp(-sm * l) for l in range(1, n_legs)]
                f_ref = sm + 1j * omega + 0.5 * n_legs * gamma + gamma * sum(terms)
                fp_ref = 1 - gamma * sum(l * t for l, t in zip(range(1, n_legs), terms))
                scale_f = abs(sk) + omega + 0.5 * n_legs * gamma + gamma * float(
                    sum(abs(t) for t in terms))
                scale_fp = 1.0 + gamma * float(
                    sum(l * abs(t) for l, t in zip(range(1, n_legs), terms)))
                assert abs(complex(f_ref) - f[k]) <= 1e-14 * scale_f, sk
                assert abs(complex(fp_ref) - fp[k]) <= 1e-14 * scale_fp, sk


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


RECORD_PARAMS = GiantAtomParams(n_legs=3, gamma_tau=0.05, omega_tau=TWO_PI * 3.3)
ARRAY_RECORDS = {  # each computes one result whose record holds arrays
    "AmplitudeTrace": lambda: integrate_beta(RECORD_PARAMS, 2.0, 16),
    "FieldGrid": lambda: intensity_map(RECORD_PARAMS, integrate_beta(RECORD_PARAMS, 2.0, 16),
                                       GridSpec(-1.0, 3.0, 0.5, times=(1.5,)))[0],
    "PoleSet": lambda: find_poles(RECORD_PARAMS, re_min=-5.0, im_halfwidth=4.0),
    "LatticeScan": lambda: scan_lattice(3, TWO_PI * 2.0, TWO_PI * 0.5),
}


@pytest.mark.parametrize("record", ARRAY_RECORDS)
def test_records_holding_arrays_compare_by_identity(record):
    # a generated __eq__ over ndarray fields raises on the arrays' ambiguous truth
    # value; these records compare by identity, and hash
    first, second = ARRAY_RECORDS[record](), ARRAY_RECORDS[record]()
    assert type(first).__name__ == record
    assert first != second
    assert first == first and hash(first) == hash(first)
