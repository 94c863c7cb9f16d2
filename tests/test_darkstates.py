import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giant_atom import (
    GiantAtomParams,
    StructuralImpossibilityError,
    characteristic_fn,
    dark_amplitude,
    dark_condition_omega_tau,
    dark_frequency,
    find_pairs,
    rwa_check,
    darkstates,
    scan_lattice,
)
from conftest import brute_force_pairs

TWO_PI = 2.0 * math.pi


class TestSingleDarkStates:
    def test_condition_values(self):
        assert dark_condition_omega_tau(3, 1, TWO_PI * 0.018) / TWO_PI == \
            pytest.approx(0.3177, abs=5e-5)
        assert dark_condition_omega_tau(3, 4, TWO_PI * 0.073) / TWO_PI == \
            pytest.approx(1.2701, abs=5e-5)

    @pytest.mark.parametrize("n_legs,gamma_tau", [(4, 0.3), (6, 1.7), (8, 0.05)])
    def test_half_filling_is_pi(self, n_legs, gamma_tau):
        # cot(pi/2) = 0, so the condition pins omega_tau = pi exactly
        val = dark_condition_omega_tau(n_legs, n_legs // 2, gamma_tau)
        assert val == pytest.approx(math.pi, abs=1e-13)

    def test_singular_index_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            dark_condition_omega_tau(3, 3, 0.1)
        with pytest.raises(ValueError):
            dark_condition_omega_tau(3, 0, 0.1)
        with pytest.raises(ValueError):
            dark_condition_omega_tau(3, -2, 0.1)

    def test_nonphysical_dark_point_rejected(self):
        # cot(pi/3) = 0.577, so at gamma_tau = pi the n = 1 condition is below 0
        with pytest.raises(ValueError, match=r"^dark index 1 forces omega_tau = -0.626304 <= 0 "
                                             r"at gamma_tau = 3.14159; no physical dark point"):
            dark_condition_omega_tau(3, 1, math.pi)

    def test_amplitude_values(self):
        assert dark_amplitude(3, 1, 0.113097) == pytest.approx(0.815532, abs=5e-7)
        assert dark_amplitude(3, 16, 2.418399) == pytest.approx(0.171327, abs=5e-7)

    def test_amplitude_markov_limit(self):
        assert 1.0 - dark_amplitude(3, 1, 1e-9) < 1e-8

    def test_amplitude_multiple_of_n_legs(self):
        assert dark_amplitude(3, 6, 0.5) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(n_legs=st.integers(2, 9), n=st.integers(1, 30), g2=st.floats(1e-3, 2.0))
    def test_amplitude_in_unit_interval(self, n_legs, n, g2):
        a = dark_amplitude(n_legs, n, TWO_PI * g2)
        assert 0.0 <= a < 1.0
        if n % n_legs:
            assert a > 0.0


class TestRwaCheck:
    def test_weak_coupling_point_ok(self, dark_n1_params):
        # relative detuning (N gamma / 2 Omega) cot(pi/3) ~ 0.049 < 0.1
        assert rwa_check(3, 1, dark_n1_params.gamma_tau, dark_n1_params.omega_tau)

    def test_nonpositive_index(self):
        assert not rwa_check(3, 0, 0.1, 2.0)
        assert not rwa_check(3, -4, 0.1, 2.0)

    def test_huge_gamma_fails(self):
        p = GiantAtomParams(3, TWO_PI * 5.0, TWO_PI * 0.3)
        omega_n = dark_frequency(3, 1)
        assert abs(omega_n - p.omega_tau) / p.omega_tau > 0.1
        assert not rwa_check(3, 1, p.gamma_tau, p.omega_tau)

    def test_threshold_configurable(self, dark_n1_params):
        assert not rwa_check(3, 1, dark_n1_params.gamma_tau,
                             dark_n1_params.omega_tau, threshold=0.01)


class TestClosedFormInputs:
    """The closed forms check n_legs as GiantAtomParams does, and rwa_check
    its omega_tau, instead of dividing by zero or overflowing."""

    @pytest.mark.parametrize("n_legs, match", [
        (0, "n_legs must be >= 2, got 0"), (1, "n_legs must be >= 2, got 1"),
        (-3, "n_legs must be >= 2, got -3"), (2.5, "n_legs must be an integer"),
        (2 ** 16 + 1, "above the budget of 65536"),
        (10 ** 400, "the emitter needs inf coupling points"),
    ], ids=["0", "1", "-3", "2.5", "2**16+1", "10**400"])
    @pytest.mark.parametrize("call", [
        lambda n_legs: dark_frequency(n_legs, 1),
        lambda n_legs: dark_condition_omega_tau(n_legs, 1, 0.1),
        lambda n_legs: dark_amplitude(n_legs, 1, 0.1),
        lambda n_legs: rwa_check(n_legs, 1, 0.1, 2.0),
    ], ids=["dark_frequency", "dark_condition_omega_tau", "dark_amplitude", "rwa_check"])
    def test_n_legs_checked(self, call, n_legs, match):
        with pytest.raises(ValueError, match=match):
            call(n_legs)

    @pytest.mark.parametrize("call", [
        lambda: find_pairs(70000, p_max=1, q_max=1),
        lambda: scan_lattice(70000, math.pi / 2, 1e-9, 3),
    ], ids=["find_pairs", "scan_lattice"])
    def test_lattice_searches_check_n_legs(self, monkeypatch, call):
        def no_work(*args, **kwargs):
            raise AssertionError("a lattice search enumerated with n_legs above the budget")
        monkeypatch.setattr(darkstates, "_sorted_pairs", no_work)
        with pytest.raises(ValueError, match="the emitter needs 7e[+]04 coupling points, "
                                             "above the budget of 65536"):
            call()

    @pytest.mark.parametrize("omega_tau", [0.0, -1.0, math.nan, math.inf])
    def test_rwa_check_needs_positive_omega(self, omega_tau):
        with pytest.raises(ValueError, match="omega_tau must be positive and finite"):
            rwa_check(3, 1, 0.1, omega_tau)


class TestFindPairs:
    def test_pair_551(self, pair_551):
        assert (pair_551.n1, pair_551.n2) == (16, 14)
        assert pair_551.omega_tau / TWO_PI == pytest.approx(5.0, rel=1e-15)
        assert pair_551.gamma_tau / TWO_PI == pytest.approx(0.384900, abs=5e-7)
        assert pair_551.beat == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
        a = dark_amplitude(3, 16, pair_551.gamma_tau)
        assert pair_551.osc_amplitude == pytest.approx(a * a, rel=1e-12)

    def test_smallest_lattice_point(self):
        pair = next(p for p in find_pairs(3, 2, 2) if (p.p, p.q, p.n) == (1, 1, 1))
        assert (pair.n1, pair.n2) == (4, 2)
        assert pair.omega_tau / TWO_PI == pytest.approx(1.0, rel=1e-15)
        assert pair.gamma_tau / TWO_PI == pytest.approx(0.38490, abs=5e-6)

    def test_shift_periodicity(self):
        pairs = {(p.p, p.q, p.n): p for p in find_pairs(3, 6, 6)}
        for (p, q, n), pair in pairs.items():
            if (p + 1, q + 1, n) in pairs:
                shifted = pairs[(p + 1, q + 1, n)]
                assert shifted.gamma_tau == pair.gamma_tau  # bitwise equal
                assert shifted.omega_tau - pair.omega_tau == pytest.approx(TWO_PI, abs=1e-12)

    def test_two_coupling_points_impossible(self):
        with pytest.raises(StructuralImpossibilityError, match="cotangent"):
            find_pairs(2)

    def test_pair_identities_exact(self):
        # both dark conditions, the energy matching, and the split frequencies
        # Omega +- (N gamma / 2) cot(n pi / N) all hold to 1e-12
        for n_legs in (3, 4, 5, 6, 7, 8):
            for pair in find_pairs(n_legs, 12, 12):
                for idx in (pair.n1, pair.n2):
                    cond = dark_condition_omega_tau(n_legs, idx, pair.gamma_tau)
                    assert abs(cond - pair.omega_tau) <= 1e-12
                w1 = dark_frequency(n_legs, pair.n1)
                w2 = dark_frequency(n_legs, pair.n2)
                assert abs(0.5 * (w1 + w2) - pair.omega_tau) <= 1e-12
                arg = pair.n * math.pi / n_legs
                split = 0.5 * n_legs * pair.gamma_tau * math.cos(arg) / math.sin(arg)
                assert abs(w1 - (pair.omega_tau + split)) <= 1e-12
                assert abs(w2 - (pair.omega_tau - split)) <= 1e-12
                assert abs((w1 - w2) - pair.beat) <= 1e-12

    def test_pairs_are_characteristic_roots(self):
        for pair in find_pairs(3, 3, 3)[:6]:
            params = GiantAtomParams(3, pair.gamma_tau, pair.omega_tau)
            for idx in (pair.n1, pair.n2):
                s = -1j * dark_frequency(3, idx)
                assert abs(characteristic_fn(params, s)) < 1e-10

    @pytest.mark.parametrize("n_legs", [3, 4, 5])
    def test_brute_force_oracle_equivalence(self, n_legs):
        brute = brute_force_pairs(n_legs)
        closed = {(p.n1, p.n2) for p in find_pairs(n_legs, 20, 20)
                  if p.n1 <= 60 and p.n2 <= 60}
        assert brute == closed

    def test_pairs_in_documented_order(self):
        # N = 5 has two indices n per (p, q); ordering by (omega, n, gamma) in
        # place of (omega, gamma, n) moves 35 of these 156 pairs
        keys = [(pr.omega_tau, pr.gamma_tau, pr.n) for pr in find_pairs(5, 12, 12)]
        assert len(keys) == 156
        assert keys == sorted(keys)


@pytest.mark.parametrize("n_legs, p", [(3, 83_456), (5, 83_443), (6, 83_452),
                                       (3, 10 ** 6), (5, 10 ** 6), (6, 10 ** 6)])
def test_lattice_pair_at_large_p_meets_its_dark_condition(n_legs, p):
    # the first three p at q = n = 1 where cot(n1 pi / N), taken at the full index
    # n1 = p N + 1, loses enough digits to fail the pair's own dark-condition
    # check; cot has period N in n, so the index is reduced mod N first
    pair = darkstates._lattice_pair(n_legs, p, 1, 1)
    assert (pair.n1, pair.n2) == (p * n_legs + 1, n_legs - 1)


def test_large_index_trig_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    n, gamma_tau = 3 * 10 ** 6 + 1, 100.0
    with mpmath.workdps(40):
        arg = n * mpmath.pi / 3
        sin2 = float(mpmath.sin(arg) ** 2)
        omega = float(2 * arg - 1.5 * gamma_tau * mpmath.cot(arg))
    # taken at the full index, sin^2 is off by 5.4e-11 relative and omega by 6.7 eps
    assert darkstates._sin2(3, n) == pytest.approx(sin2, rel=2 * np.finfo(float).eps)
    assert darkstates._sin2(3, 3 * 10 ** 6) == 0.0
    assert abs(dark_condition_omega_tau(3, n, gamma_tau) - omega) <= np.finfo(float).eps * omega


class TestScanLattice:
    def test_window_periodicity(self):
        scan = scan_lattice(3, TWO_PI * 6.0, TWO_PI * 1.0)
        assert len(scan.dots) > 0
        keyed = {(d.p, d.q, d.n): d for d in scan.dots}
        for (p, q, n), dot in keyed.items():
            if dot.omega_tau <= TWO_PI * 6.0 - TWO_PI:
                shifted = keyed[(p + 1, q + 1, n)]
                assert shifted.gamma_tau == dot.gamma_tau
                assert shifted.omega_tau - dot.omega_tau == pytest.approx(TWO_PI, abs=1e-12)

    def test_two_legs_has_no_dots(self):
        scan = scan_lattice(2, TWO_PI * 6.0, TWO_PI * 2.0)
        assert scan.dots == ()
        assert len(scan.lines) > 0  # single-dark-state lines still exist

    def test_every_dot_is_a_line_intersection(self):
        scan = scan_lattice(3, TWO_PI * 4.0, TWO_PI * 1.0)
        for dot in scan.dots:
            assert dot.n1 != dot.n2
            for idx in (dot.n1, dot.n2):
                cond = dark_condition_omega_tau(3, idx, dot.gamma_tau)
                assert abs(cond - dot.omega_tau) < 1e-10

    def test_lines_satisfy_condition(self):
        scan = scan_lattice(4, TWO_PI * 2.0, TWO_PI * 0.5)
        for line in scan.lines:
            for g, w in zip(line.gamma_tau[1:], line.omega_tau[1:]):
                assert dark_condition_omega_tau(4, line.n, g) == pytest.approx(w, abs=1e-12)


class TestLatticeBudget:
    """Each count is taken before enumeration and bounds what is enumerated.

    Only small monkeypatched budgets are exercised: a broken check at the real
    budget would start an enumeration of billions of points.
    """

    @staticmethod
    def spy(monkeypatch):
        counts, candidates = {}, []
        check, sorted_pairs = darkstates.check_budget, darkstates._sorted_pairs

        def spy_check(what, count, *rest):
            counts[what] = count
            check(what, count, *rest)

        def spy_pairs(n_legs, pq, *rest):
            pq = list(pq)
            candidates.append(len(pq) * ((n_legs - 1) // 2))
            return sorted_pairs(n_legs, pq, *rest)

        monkeypatch.setattr(darkstates, "check_budget", spy_check)
        monkeypatch.setattr(darkstates, "_sorted_pairs", spy_pairs)
        return counts, candidates

    @pytest.mark.parametrize("n_legs, p_max, q_max", [(3, 5, 5), (4, 6, 3), (7, 2, 9),
                                                       (6, 1, 1)])
    def test_pair_count_is_exact(self, monkeypatch, n_legs, p_max, q_max):
        counts, candidates = self.spy(monkeypatch)
        found = len(find_pairs(n_legs, p_max, q_max))
        assert counts["the pair search"] == candidates[0] == found

        monkeypatch.setattr(darkstates, "MAX_LATTICE_POINTS", found)
        assert len(find_pairs(n_legs, p_max, q_max)) == found
        monkeypatch.setattr(darkstates, "MAX_LATTICE_POINTS", found - 1)
        monkeypatch.setattr(darkstates, "_lattice_pair", None)  # any enumeration fails
        with pytest.raises(ValueError, match=f"budget of {found - 1}"):
            find_pairs(n_legs, p_max, q_max)

    @pytest.mark.parametrize("n_legs, omega_2pi, gamma_2pi, samples", [
        (3, 6.0, 1.0, 201), (3, 0.5, 0.01, 7), (5, 3.5, 0.4, 33), (4, 2.0, 0.5, 1),
        (2, 6.0, 2.0, 11), (3, 2.5, 0.01, 5),
    ])
    def test_scan_counts_bound_the_work(self, monkeypatch, n_legs, omega_2pi, gamma_2pi,
                                        samples):
        counts, candidates = self.spy(monkeypatch)
        scan = scan_lattice(n_legs, TWO_PI * omega_2pi, TWO_PI * gamma_2pi, samples)
        assert counts["the scan's pair search"] == candidates[0] >= len(scan.dots)
        assert counts["the scan's line sampling"] >= sum(len(line.gamma_tau)
                                                         for line in scan.lines)

        for what, count in list(counts.items()):
            monkeypatch.setattr(darkstates, "MAX_LATTICE_POINTS", int(count) - 1)
            monkeypatch.setattr(darkstates, "_lattice_pair", None)
            with pytest.raises(ValueError, match=re.escape(f"{what} needs {count:.3g}")):
                scan_lattice(n_legs, TWO_PI * omega_2pi, TWO_PI * gamma_2pi, samples)
            monkeypatch.undo()

    @pytest.mark.parametrize("omega_tau_max, gamma_tau_max", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
        (-math.inf, 1.0), (0.0, 1.0), (1.0, -1.0),
    ])
    def test_scan_rejects_bad_window(self, monkeypatch, omega_tau_max, gamma_tau_max):
        monkeypatch.setattr(darkstates, "_sorted_pairs", None)
        with pytest.raises(ValueError, match="window bounds must be positive and finite"):
            scan_lattice(3, omega_tau_max, gamma_tau_max)

    @pytest.mark.parametrize("samples, rule", [(0, ">= 1"), (-1, ">= 1"), (1.5, "an integer"),
                                               (10 ** 400, None)],
                             ids=["zero", "negative", "fraction", "huge"])
    def test_scan_rejects_bad_line_samples(self, monkeypatch, samples, rule):
        monkeypatch.setattr(darkstates, "_sorted_pairs", None)
        match = f"^line_samples must be {rule}" if rule else "line sampling needs inf"
        with pytest.raises(ValueError, match=match):
            scan_lattice(3, 6.0, 1.0, line_samples=samples)

    def test_integral_floats_enumerate_like_ints(self):
        # check_int accepts 3.0 as an integer; the enumeration must then use its int
        assert find_pairs(3.0, 5.0, 5.0) == find_pairs(3, 5, 5)
        lines = scan_lattice(3.0, 6.0, 1.0, 11.0).lines
        assert [line.n for line in lines] == [line.n for line in scan_lattice(3, 6.0, 1.0, 11).lines]

    def test_huge_finite_window_counts_to_inf(self, monkeypatch):
        # the line count overflows to inf and is rejected at any budget
        monkeypatch.setattr(darkstates, "MAX_LATTICE_POINTS", 10 ** 300)
        monkeypatch.setattr(darkstates, "_sorted_pairs", None)
        with pytest.raises(ValueError, match="needs inf lattice points"):
            scan_lattice(3, 1.0, 1e307)
