import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from giant_atom import (
    GiantAtomParams,
    bound_profile,
    comb_pair_limit,
    continuum_dark_indices,
    continuum_profile,
    continuum_total_intensity,
    find_pairs,
    total_intensity,
)

TWO_PI = 2.0 * math.pi


class TestDarkIndices:
    def test_constructed_integer_root(self):
        gamma_T = math.pi ** 2
        omega_T = TWO_PI - 0.5 * math.pi  # dark condition solved for n = 1
        assert continuum_dark_indices(omega_T, gamma_T) == [1]

    def test_generic_parameters_give_nothing(self):
        assert continuum_dark_indices(math.e, math.sqrt(2.0)) == []

    @pytest.mark.parametrize("n,gamma_T", [(1, 3.0), (2, 17.0), (5, 40.0)])
    def test_back_substitution(self, n, gamma_T):
        omega_T = TWO_PI * n - gamma_T / (TWO_PI * n)
        found = continuum_dark_indices(omega_T, gamma_T)
        assert n in found
        for k in found:
            assert TWO_PI * k - gamma_T / (TWO_PI * k) == pytest.approx(omega_T, abs=1e-12)

    def test_never_two_positive_solutions(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            omega_T = rng.uniform(0.1, 60.0)
            gamma_T = rng.uniform(0.1, 200.0)
            assert len(continuum_dark_indices(omega_T, gamma_T)) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            continuum_dark_indices(-1.0, 2.0)
        with pytest.raises(ValueError):
            continuum_dark_indices(1.0, 0.0)

    @pytest.mark.parametrize("omega_T", [1e200, 1e17])
    def test_root_past_2_53_rejected(self, omega_T):
        # omega_T^2 overflows at 1e200; at 1e17 the root 1.6e16 is past 2**53,
        # where every float is an integer
        with pytest.raises(ValueError, match=r"^the dark-condition root .* is past 2\*\*53"):
            continuum_dark_indices(omega_T, 1.0)


class TestProfile:
    def test_integral_closed_form(self):
        for n, gamma_T, L in ((1, 5.0, 1.0), (2, 30.0, 2.5)):
            val = quad(lambda x: continuum_profile(gamma_T, n, L, x), 0.0, L,
                       epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            u = 2.0 * n * n * math.pi ** 2 / gamma_T
            assert val == pytest.approx(1.5 * u / (u + 1.0) ** 2, rel=1e-10)
            assert val == pytest.approx(continuum_total_intensity(gamma_T, n), rel=1e-10)

    def test_endpoints_and_outside(self):
        assert continuum_profile(5.0, 1, 1.0, 0.0) == 0.0
        assert continuum_profile(5.0, 1, 1.0, 1.0) == pytest.approx(0.0, abs=1e-30)
        assert continuum_profile(5.0, 1, 1.0, -0.1) == 0.0
        assert continuum_profile(5.0, 1, 1.0, 1.1) == 0.0

    def test_peak_bound(self):
        # the trapped intensity never exceeds 3/8, attained at 2 n^2 pi^2 = Gamma T
        best = max(continuum_total_intensity(g, 1) for g in np.linspace(1.0, 100.0, 4001))
        assert best <= 0.375 + 1e-12
        assert continuum_total_intensity(2.0 * math.pi ** 2, 1) == pytest.approx(0.375, rel=1e-14)

    def test_discrete_profile_converges(self):
        gamma_T, n = 11.0, 1
        sups = []
        for n_legs in (8, 32, 128):
            prm = GiantAtomParams(n_legs, gamma_T / n_legs**3, 1.0)
            xs = np.linspace(0.0, n_legs - 1.0, 601)
            discrete = n_legs * np.asarray(bound_profile(prm, n, xs))
            length = (n_legs - 1.0) / n_legs
            limit = continuum_profile(gamma_T, n, length, xs / n_legs)
            sups.append(np.abs(discrete - limit).max())
        assert sups[0] > sups[1] > sups[2]
        assert sups[0] / sups[2] > 10.0  # at least first-order in 1/N


@pytest.mark.parametrize("gamma_T", [1e-310, 1e-200])
@pytest.mark.parametrize("call", [lambda g: continuum_profile(g, 1, 1.0, [0.25, 0.5]),
                                  lambda g: continuum_total_intensity(g, 1)],
                         ids=["profile", "total_intensity"])
def test_overflowing_mode_ratio_rejected(call, gamma_T):
    # 2 pi^2 / Gamma_T is inf at 1e-310; at 1e-200 it is finite but (u + 1)^2 overflows
    with pytest.raises(ValueError, match=r"^Gamma_T = .* is too small for index n = 1: "):
        call(gamma_T)
    assert 0.0 < continuum_total_intensity(1e-150, 1) < 1e-150


@pytest.mark.parametrize("n, L", [(1, 1e-310), (1, 1e308), (2 ** 53, 1e293)])
def test_overflowing_contact_length_rejected(n, L):
    # 4/L overflows at 1e-310, and n pi L at the other two
    shown = re.escape(f"{L:g}")
    with pytest.raises(ValueError, match=rf"^contact length {shown} is out of range"):
        continuum_profile(1.0, n, L, [0.0, L])


def test_total_intensity_convergence_order():
    gamma_T, n = 11.0, 1
    limit = continuum_total_intensity(gamma_T, n)
    errs = [abs(total_intensity(GiantAtomParams(m, gamma_T / m**3, 1.0), n) - limit)
            for m in (8, 16, 32, 64, 128)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.0


class TestCombPair:
    def test_limit_record_n1(self):
        rec = comb_pair_limit(1, 64)
        assert rec.Gamma_T_limit == pytest.approx((TWO_PI) ** 2, rel=1e-15)
        assert rec.omega_tau == pytest.approx(TWO_PI, rel=1e-15)
        assert (rec.pair.n1, rec.pair.n2) == (65, 63)
        assert rec.mode_offset_T == pytest.approx(TWO_PI, rel=1e-15)

    def test_matches_pair_search(self):
        rec = comb_pair_limit(1, 16)
        found = next(p for p in find_pairs(16, 1, 1) if p.n == 1)
        assert rec.pair == found

    def test_frequency_offsets_converge(self):
        devs = []
        for n_legs in (8, 16, 32, 64, 128):
            rec = comb_pair_limit(1, n_legs)
            devs.append(abs(rec.mode_offset_from_Gamma - rec.mode_offset_T))
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[0] / devs[-1] > 16.0  # decays at least like 1/N
        gdevs = [abs(comb_pair_limit(1, m).Gamma_T - comb_pair_limit(1, m).Gamma_T_limit)
                 for m in (8, 16, 32, 64, 128)]
        assert all(a > b for a, b in zip(gdevs, gdevs[1:]))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            comb_pair_limit(4, 8)  # needs n < N/2
        with pytest.raises(ValueError):
            comb_pair_limit(1, 2)
