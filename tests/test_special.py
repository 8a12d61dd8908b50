import math

import numpy as np
import pytest

from kreinspec import special
from kreinspec.errors import DomainError
from kreinspec.special import BesselOrder, bessel_j, bessel_j_derivative, bessel_zero, tan_fixed_point

from oracles import series_bessel_j, series_bessel_zero, tan_fixed_point_oracle

# frozen oracle outputs (reproduced by the series/bisection code in oracles.py)
J01 = 2.404825557695773
J11 = 3.831705970207512
T1 = 4.493409457909064
T2 = 7.725251836937707


def test_frozen_values_match_oracle():
    assert series_bessel_zero(0, 1) == pytest.approx(J01, rel=1e-14)
    assert series_bessel_zero(2, 1) == pytest.approx(J11, rel=1e-14)
    assert tan_fixed_point_oracle(1) == pytest.approx(T1, rel=1e-14)
    assert tan_fixed_point_oracle(2) == pytest.approx(T2, rel=1e-14)


class TestBesselOrder:
    def test_half_integer_only(self):
        assert BesselOrder(3).nu == 1.5
        with pytest.raises(DomainError):
            BesselOrder(-1)
        with pytest.raises(DomainError):
            bessel_j(0.3, 1.0)
        with pytest.raises(DomainError):
            bessel_j(500.5, 1.0)


class TestBesselJ:
    def test_half_order_at_pi(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at pi
        assert abs(bessel_j(0.5, math.pi)) < 1e-15

    def test_first_zero_of_j0(self):
        assert abs(bessel_j(0, J01)) <= 1e-12

    def test_small_argument_leading_term(self):
        assert bessel_j(1, 1e-4) == pytest.approx(5e-5, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(0, 0.0)
        with pytest.raises(DomainError):
            bessel_j(0, -1.0)
        with pytest.raises(DomainError):
            bessel_j(0, 2e4)

    @pytest.mark.parametrize("twice_order", [0, 1, 2, 3, 5, 8, 13, 24])
    @pytest.mark.parametrize("x", [0.03, 0.7, 2.9, 6.4, 11.5])
    def test_against_series_oracle(self, twice_order, x):
        # the alternating series cancels ~exp(x)/|J| of each term, so the
        # oracle itself carries roughly eps * exp(x) absolute error
        ref = series_bessel_j(twice_order, x)
        tol = max(1e-12, 3e-16 * math.exp(x) / max(abs(ref), 1e-12))
        assert bessel_j(twice_order / 2.0, x) == pytest.approx(ref, rel=tol, abs=1e-280)

    def test_half_order_closed_forms(self):
        for x in (0.2, 1.0, 7.7, 50.0, 431.0):
            amp = math.sqrt(2.0 / (math.pi * x))
            assert bessel_j(0.5, x) == pytest.approx(amp * math.sin(x), rel=1e-12)
            j32 = amp * (math.sin(x) / x - math.cos(x))
            assert bessel_j(1.5, x) == pytest.approx(j32, rel=1e-12, abs=1e-15)

    def test_derivative_matches_difference_quotient(self):
        for nu in (0.0, 1.0, 2.5):
            x, h = 5.3, 1e-6
            num = (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2 * h)
            assert bessel_j_derivative(nu, x) == pytest.approx(num, rel=1e-8)


class TestBesselZero:
    def test_sine_zeros_exact(self):
        for k in (1, 3, 17, 120, 100_000):
            assert bessel_zero(0.5, k) == pytest.approx(k * math.pi, rel=1e-12)

    def test_first_zeros_frozen(self):
        assert bessel_zero(0, 1) == pytest.approx(J01, rel=1e-13)
        assert bessel_zero(1, 1) == pytest.approx(J11, rel=1e-13)

    def test_against_series_oracle(self):
        for twice_order in (0, 1, 2, 4, 7):
            for k in (1, 2):
                ref = series_bessel_zero(twice_order, k)
                assert bessel_zero(twice_order / 2.0, k) == pytest.approx(ref, rel=1e-12)

    def test_residuals_small(self):
        for twice_order in range(0, 41, 5):
            nu = twice_order / 2.0
            for k in (1, 2, 5, 11, 20):
                z = bessel_zero(nu, k)
                assert abs(bessel_j(nu, z)) <= 1e-10

    def test_zero_monotonicity_in_order(self):
        # nu grid 0, 1/2, ..., 20; k up to 20
        prev = [bessel_zero(0.0, k) for k in range(1, 21)]
        for twice_order in range(1, 41):
            cur = [bessel_zero(twice_order / 2.0, k) for k in range(1, 21)]
            assert all(c > p for c, p in zip(cur, prev))
            prev = cur

    def test_interlacing(self):
        for twice_order in range(0, 40, 2):
            nu = twice_order / 2.0
            for k in range(1, 20):
                a = bessel_zero(nu, k)
                b = bessel_zero(nu + 1.0, k)
                c = bessel_zero(nu, k + 1)
                assert a < b < c

    def test_large_order_small_index(self):
        # scan regime; residual is the only cheap certificate here
        z = bessel_zero(500, 1)
        assert 500.0 < z < 530.0
        assert abs(bessel_j(500, z)) <= 1e-12

    def test_index_validation(self):
        with pytest.raises(DomainError):
            bessel_zero(0, 0)
        with pytest.raises(DomainError):
            bessel_zero(0, 100_001)


class TestTanFixedPoint:
    def test_frozen_roots(self):
        assert tan_fixed_point(1) == pytest.approx(T1, rel=1e-12)
        assert tan_fixed_point(2) == pytest.approx(T2, rel=1e-12)

    def test_brackets(self):
        for m in range(1, 101):
            t = tan_fixed_point(m)
            assert m * math.pi < t < (2 * m + 1) * math.pi / 2.0

    def test_matches_oracle(self):
        for m in (1, 2, 3, 9, 40):
            assert tan_fixed_point(m) == pytest.approx(tan_fixed_point_oracle(m), rel=1e-13)

    def test_index_array_matches_scalar_calls(self):
        m = np.arange(1, 201)
        roots = tan_fixed_point(m)
        assert roots.shape == m.shape
        want = np.array([tan_fixed_point(int(k)) for k in m])
        assert roots.tobytes() == want.tobytes()
        assert tan_fixed_point(m.reshape(20, 10)).shape == (20, 10)

    def test_cross_identity_with_three_halves_zeros(self):
        # J_{3/2} is proportional to sin x / x - cos x, so its zeros solve tan x = x
        for m in range(1, 51):
            assert tan_fixed_point(m) == pytest.approx(bessel_zero(1.5, m), rel=1e-11)


class TestNewtonStops:
    """Newton converging from one side must stop, not bisect away from the root."""

    def test_bessel_zero_evaluations(self, monkeypatch):
        calls = []
        for name in ("_eval_j", "_eval_j_pair"):
            inner = getattr(special, name)
            monkeypatch.setattr(special, name,
                                lambda order, x, inner=inner: calls.append(x) or inner(order, x))
        worst = 0
        for twice_order in range(0, 81, 3):
            order = BesselOrder(twice_order)
            for k in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 400, 1000):
                if not special._mcmahon_is_reliable(special._mcmahon_terms(order, k)[1]):
                    continue
                calls.clear()
                bessel_zero(order.nu, k)
                worst = max(worst, len(calls))
        # two bracket ends and a few Newton steps from the McMahon guess
        assert worst <= 6

    def test_tan_fixed_point_evaluations(self, monkeypatch):
        calls = []
        inner = special._tan_pair
        monkeypatch.setattr(special, "_tan_pair", lambda t: calls.append(t) or inner(t))
        worst = 0
        for m in list(range(1, 200)) + [1000, 5000, 99_999]:
            calls.clear()
            tan_fixed_point(m)
            worst = max(worst, len(calls))
        # one evaluation of t cos t - sin t per step, the bracket end included
        assert worst <= 6


class TestBatchedZeros:
    @pytest.mark.parametrize("parity", [0, 1])
    def test_batch_evaluation_matches_scalar(self, parity):
        # the scalar recurrence is the reference for the vectorized one
        rng = np.random.default_rng(11 + parity)
        ells = np.sort(rng.integers(0, 140, 300))
        x = rng.uniform(0.5, 130.0, 300)
        values, derivs = special._eval_pairs(parity, ells, x)
        want = [special._eval_j_pair(BesselOrder(2 * ell + parity), xi)
                for ell, xi in zip(ells.tolist(), x.tolist())]
        np.testing.assert_allclose(values, [v for v, _ in want], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(derivs, [d for _, d in want], rtol=1e-14, atol=1e-15)

    def test_family_zeros_are_cached_with_their_reach(self, monkeypatch):
        monkeypatch.setattr(special, "_zero_cache", {})
        twice_orders = list(range(3, 60, 2))
        first = special._family_zeros(twice_orders, 40.0)
        # a lower bound reuses the arrays, also for a subset of the orders
        again = special._family_zeros(twice_orders[::3], 30.0)
        assert all(a is b for a, b in zip(again, first[::3]))
        # a higher bound recomputes, and extends what was there
        wider = special._family_zeros(twice_orders, 80.0)
        for short, full in zip(first, wider):
            assert full is not short and len(full) > len(short)
            assert full[:len(short)].tolist() == pytest.approx(short.tolist(), rel=1e-14)
