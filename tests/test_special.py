import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinspec import special
from kreinspec.errors import DomainError
from kreinspec.special import BesselOrder, _eval_j_pair, bessel_j, bessel_zero, tan_fixed_point

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
            assert _eval_j_pair(BesselOrder(int(2 * nu)), x)[1] == pytest.approx(num, rel=1e-8)


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


# (twice_order, x, J_nu(x), J_nu'(x)) as recorded while the scalar path still
# had its own normalization and derivative rules.  The x of 5e-4 takes the
# power series in bessel_j (J' always comes from the recurrence); then x near
# 1, near the turning point x ~ nu of orders 100 and 500, and at 1e4.
RECORDED_VALUES = [
    (0, 0.0005, "0x1.fffffde7210c8p-1", "-0x1.0624dca5aa40ap-12"),
    (1, 0.0005, "0x1.244f96076c7b1p-6", "0x1.1d75b5650bd13p+4"),
    (0, 1.0, "0x1.87c7fdbd7b8f0p-1", "-0x1.c29c9ee970c6dp-2"),
    (1, 1.0, "0x1.57c14f27a1dc5p-1", "0x1.86c2b0992cf7fp-4"),
    (5, 0.97, "0x1.795cd0a3f3f68p-5", "0x1.cbbeee9da4ec4p-4"),
    (200, 100.0, "0x1.8ab7c7e3ae411p-4", "0x1.3548ef0615a82p-6"),
    (201, 104.0, "0x1.264e0cfa305b9p-3", "0x1.641792859859ep-9"),
    (1000, 500.0, "0x1.cdad33bfdfaebp-5", "0x1.a9f01eb3b19c4p-8"),
    (999, 520.0, "-0x1.0de2f7c1dcd71p-4", "-0x1.0ef5dae53ec5bp-10"),
    (0, 10000.0, "-0x1.d10dd0a51d323p-8", "-0x1.de14236ae3d56p-9"),
    (1, 10000.0, "-0x1.3f9cce37722b5p-9", "-0x1.f1e0274dda11cp-8"),
    (600, 10000.0, "0x1.4ba91548d2eafp-8", "-0x1.943f9860023d4p-8"),
    (1000, 10000.0, "-0x1.c1280ca3be37bp-8", "-0x1.0c05333b4dcd2p-8"),
]

# (nu, k, j_{nu,k}) recorded with the values above, each from a cold zero
# cache: the first four by McMahon's expansion and a Halley step on the
# Taylor series, the last three from the family scan of their order alone.
RECORDED_ZEROS = [
    (0.5, 1, "0x1.921fb54442d18p+1"),
    (2.5, 40, "0x1.019062c7309b1p+7"),
    (1.5, 7, "0x1.784fad6c5b1dcp+4"),
    (59.5, 12000, "0x1.273f7be635284p+15"),
    (3, 1, "0x1.9854928f8b729p+2"),
    (0, 1, "0x1.33d152e971b40p+1"),
    (20, 2, "0x1.df62baa84bd59p+4"),
]


class TestRecordedBits:
    @pytest.mark.parametrize("twice_order, x, value, slope", RECORDED_VALUES)
    def test_values_and_derivatives(self, twice_order, x, value, slope):
        assert bessel_j(twice_order / 2.0, x).hex() == value
        assert _eval_j_pair(BesselOrder(twice_order), x)[1].hex() == slope

    @pytest.mark.parametrize("nu, k, zero", RECORDED_ZEROS)
    def test_zeros(self, nu, k, zero, monkeypatch):
        # computed here, not read from what another test cached
        monkeypatch.setattr(special, "_zero_cache", {})
        assert bessel_zero(nu, k).hex() == zero


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
        inner = special._eval_j_pair
        monkeypatch.setattr(special, "_eval_j_pair",
                            lambda order, x: calls.append(x) or inner(order, x))
        worst = 0
        for twice_order in range(0, 81, 3):
            order = BesselOrder(twice_order)
            for k in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 400, 1000):
                if not special._mcmahon_is_reliable(special._mcmahon_terms(order, k)[1]):
                    continue
                calls.clear()
                bessel_zero(order.nu, k)
                worst = max(worst, len(calls))
        # one evaluation at the McMahon guess: the Taylor series it seeds gives
        # the signs at the bracket ends and the Halley step, whose point the
        # cubic stop accepts
        assert worst <= 1

    def test_tan_fixed_point_evaluations(self, monkeypatch):
        calls = []
        inner = special._tan_pair
        monkeypatch.setattr(special, "_tan_pair", lambda t: calls.append(t) or inner(t))
        worst = 0
        for m in list(range(1, 200)) + [1000, 5000, 99_999]:
            calls.clear()
            tan_fixed_point(m)
            worst = max(worst, len(calls))
        # one evaluation of t cos t - sin t per step, the bracket end included:
        # two Halley steps from the guess
        assert worst <= 3


class TestBatchedZeros:
    @pytest.mark.parametrize("parity", [0, 1])
    def test_batch_evaluation_matches_scalar(self, parity):
        # the scalar recurrence is the reference for the scan table
        rng = np.random.default_rng(11 + parity)
        ells = np.unique(np.r_[0, 1, rng.integers(2, 60, 20)])
        grid = special._SCAN_STEP * np.arange(1, 88)
        values, derivs = special._scan_table(parity, ells, grid)
        assert values.shape == derivs.shape == (len(ells), len(grid))
        # The scan seeds each point past x, the scalar recurrence past its
        # order too.  Integer orders are normalized by Miller's sum, cut off
        # at the seed, so they match it to rounding only where both seed at
        # the same order, above the top order; below it they differ by about
        # J_seed(x), up to 1.3e-13 here.
        cols = grid > ells[-1] if parity == 0 else grid > 0.0
        want = np.array([[_eval_j_pair(BesselOrder(2 * ell + parity), x)
                          for x in grid[cols].tolist()] for ell in ells.tolist()])
        np.testing.assert_allclose(values[:, cols], want[..., 0], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(derivs[:, cols], want[..., 1], rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_one_point_loop_matches_the_grid_loop_bit_for_bit(self, parity):
        # _scan_table runs either loop at the seed _recurrence_start gives;
        # at one point both must store the same window of orders lo .. top + 1
        # and return the same f, fplus and Miller sum, rescalings included
        rng = np.random.default_rng(23 + parity)
        points = np.r_[1e-3, 1e4, 10.0 ** rng.uniform(-3.0, 4.0, 40)]
        for x, top in zip(points.tolist(), rng.integers(0, 501, len(points)).tolist()):
            grid = np.array([x])
            lo = int(rng.integers(0, top + 1))
            starts = special._recurrence_start(top + 1, grid)
            out_one, out_grid = np.zeros((2, top + 2 - lo, 1))
            one = special._backward_one(parity, grid, starts, out_one, lo)
            many = special._backward_pass(parity, grid, starts, out_grid, lo)
            assert out_one.tobytes() == out_grid.tobytes()
            assert np.array(one).tobytes() == np.concatenate(many).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1), st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=6),
           st.integers(0, 500), st.integers(0, 500))
    def test_grid_pass_gives_each_point_its_own_bits(self, parity, logs, top, lo):
        # each point of an ascending grid is seeded at its own order, never
        # at another's: its rows, f, fplus and Miller sum are the bits of a
        # pass over that point alone
        grid = np.sort(10.0 ** np.array(logs))
        lo = min(lo, top)
        starts = special._recurrence_start(0, grid)
        out = np.zeros((top + 2 - lo, len(grid)))
        many = special._backward_pass(parity, grid, starts, out, lo)
        for e in range(len(grid)):
            alone = np.zeros((top + 2 - lo, 1))
            one = special._backward_pass(parity, grid[e:e + 1], starts[e:e + 1], alone, lo)
            assert out[:, e].tobytes() == alone[:, 0].tobytes()
            assert np.array([part[e] for part in many]).tobytes() == np.concatenate(one).tobytes()

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

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("added, reach", [
        pytest.param((50,), 60.0, id="with-50"), pytest.param((100,), 60.0, id="with-100"),
        pytest.param((200,), 60.0, id="with-200"),
        pytest.param((50, 100, 200), 240.0, id="with-all-reach-240")])
    def test_zeros_of_an_order_do_not_depend_on_the_family(self, parity, added, reach,
                                                            monkeypatch):
        # the scan seeds each grid point past x alone, so each order's zeros
        # are the same bits scanned alone, beside larger orders, or further
        ells = [0, 1, 7, 20]
        twice = [2 * ell + parity for ell in ells]
        monkeypatch.setattr(special, "_zero_cache", {})
        alone = special._family_zeros(twice, 60.0)
        monkeypatch.setattr(special, "_zero_cache", {})
        wider = special._family_zeros(twice + [2 * ell + parity for ell in added], reach)
        for short, full in zip(alone, wider):
            assert len(full) >= len(short) > 0
            assert full[:len(short)].tobytes() == short.tobytes()


class TestTaylorSeries:
    """The series of J_nu that Halley's iterates evaluate, against the
    recurrence, inside the brackets of the family scan."""

    @pytest.mark.parametrize("parity", [0, 1])
    def test_matches_recurrence_in_brackets(self, parity):
        ells = np.arange(0, 501)
        grid = special._SCAN_STEP * np.arange(1, 420)
        values, derivs = special._scan_table(parity, ells, grid)
        positive = values >= 0.0
        rows, cols = np.nonzero(positive[:, :-1] != positive[:, 1:])
        rng = np.random.default_rng(5 + parity)
        # the first brackets of the lowest orders, where g is smallest, then
        # brackets drawn over orders 0..500
        picks = np.r_[np.nonzero(rows < 3)[0][:6], rng.integers(0, len(rows), 60)]
        for row, col in zip(rows[picks].tolist(), cols[picks].tolist()):
            order = BesselOrder(2 * row + parity)
            for end in (col, col + 1):
                g = grid[end]
                coefs = special._taylor_coefficients(order.nu, g, values[row, end], derivs[row, end])
                for x in (*rng.uniform(grid[col], grid[col + 1], 2), grid[2 * col + 1 - end]):
                    got = special._taylor_pair(coefs, x - g)
                    want = _eval_j_pair(order, x)
                    envelope = max(abs(want[0]), math.sqrt(2.0 / (math.pi * x)))
                    err = max(abs(got[0] - want[0]), abs(got[1] - want[1])) / envelope
                    # integer orders: the reference's own error, 8.3e-13 measured
                    # (Miller's sum cut off at its seed); half-integer orders
                    # converge like (|x - g| / g)^k: 1.4e-9 measured at the far
                    # end of [3, 4.5] for nu = 1/2, 1.4e-14 wherever g >= 30
                    bound = 3e-12 + parity * (abs(x - g) / g) ** special._TAYLOR_TERMS
                    assert err <= bound, (order.nu, g, x, err)


class TestFamilyPassCounts:
    """Recurrence passes of one family solve, pinned as the LAPACK calls are."""

    @pytest.mark.parametrize("parity", [0, 1])
    def test_one_pass_per_family(self, parity, monkeypatch):
        monkeypatch.setattr(special, "_zero_cache", {})
        sizes = []
        inner = special._backward_pass
        monkeypatch.setattr(special, "_backward_pass",
                            lambda parity, x, *rest: sizes.append(len(x)) or inner(parity, x, *rest))
        twice_orders = list(range(parity, 261 + parity, 2))
        found = sum(len(z) for z in special._family_zeros(twice_orders, 125.0))
        # the scan; Halley's iterates evaluate Taylor series seeded from it
        assert len(sizes) == 1 and found > 2000


def _first_reliable_index(order: BesselOrder) -> int:
    """The first k whose McMahon terms certify themselves (5 at nu = 0, 311 at 250, 621 at 500)."""
    return next(k for k in itertools.count(1)
                if special._mcmahon_is_reliable(special._mcmahon_terms(order, k)[1]))


class TestReachRule:
    """The one reach rule of the zero tables, j_{nu,k} < (k + nu/2) pi, and
    the family scans that reads at it cost."""

    @pytest.mark.parametrize("twice_order", [0, 1, 5, 40, 111, 200, 401, 500, 777, 1000])
    def test_zeros_lie_below_the_reach(self, twice_order, monkeypatch):
        # every k of the scan regime, where bessel_zero reads the family at
        # the rule; j / ((k + nu/2) pi) read 0.65-0.998 over nu = 0-500 and
        # k = 1-100.  The slow suite checks these zeros against mpmath
        monkeypatch.setattr(special, "_zero_cache", {})
        order = BesselOrder(twice_order)
        reliable = _first_reliable_index(order)
        ks = np.arange(1, max(reliable, 100) + 1)
        zeros = np.array([bessel_zero(order, int(k)) for k in ks])
        assert np.all(zeros < (ks + 0.5 * order.nu) * np.pi)
        # and below the first certified index they are the family's zeros
        family = special._zero_cache.get(twice_order, ((),))[0]
        assert zeros[:reliable - 1].tobytes() == np.asarray(family[:reliable - 1]).tobytes()

    @staticmethod
    def passes(monkeypatch):
        monkeypatch.setattr(special, "_zero_cache", {})
        reaches = []
        inner = special._solve_family
        monkeypatch.setattr(special, "_solve_family",
                            lambda parity, ells, x_max: reaches.append(x_max)
                            or inner(parity, ells, x_max))
        return reaches

    def test_a_cold_large_order_zero_is_one_scan(self, monkeypatch):
        # one pass, as the rule's bound lies past j_{500,1}
        reaches = self.passes(monkeypatch)
        zero = bessel_zero(500, 1)
        assert reaches == [251 * math.pi] and zero < reaches[0]

    def test_ascending_reads_widen_the_scan(self, monkeypatch):
        # each rescan reaches at least twice as far as the cached one: three
        # passes (to 789, 1581 and 3168) for k = 1..299, under a bound of 8
        reaches = self.passes(monkeypatch)
        for k in range(1, 300):
            bessel_zero(500, k)
        assert len(reaches) <= 8
        assert all(wide >= 2.0 * short for short, wide in zip(reaches, reaches[1:]))

    def test_the_widening_stops_at_the_cap(self, monkeypatch):
        reaches = self.passes(monkeypatch)
        monkeypatch.setattr(special, "_MAX_X_INTERNAL", 100.0)
        special._family_zeros([0], 60.0)
        special._family_zeros([0], 70.0)
        assert reaches == [60.0, 100.0]

    def test_a_scan_with_a_new_order_stops_at_its_bound(self, monkeypatch):
        # as a ball spectrum read after one order's zeros: widened by that
        # order, all 150 orders would be scanned to 204 (6.0 against 3.4 ms)
        reaches = self.passes(monkeypatch)
        special._family_zeros([0], 100.0)
        special._family_zeros(list(range(0, 300, 2)), 150.0)
        assert reaches == [100.0, 150.0]


def _cubic(x):
    """(x - 1)(x - 4)(x - 9) and its first two derivatives; f'(7) = 0."""
    return (x - 1.0) * (x - 4.0) * (x - 9.0), (3.0 * x - 28.0) * x + 49.0, 6.0 * x - 28.0


# bracket, start and root; the comment names the case the start produces
CUBIC_CASES = [
    (1.05, 4.25, 1.1, 4.0),   # a Halley step towards the root 1 leaves the bracket
    (5.0, 10.0, 8.0, 9.0),    # 1 - f f''/(2 f'^2) = 1.97: a Newton step instead
    (3.0, 4.0, 4.0, 4.0),     # f = 0 at the bracket end where the iteration starts
    (5.0, 10.0, 7.0, 9.0),    # f' = 0 at the start
    (8.5, 10.0, 9.01, 9.0),   # the cubic stop takes the second Halley point
]


class TestHalleyBatch:
    """The root helper on a cubic with known roots, independent of its callers."""

    def solve(self):
        lo, hi, start, root = (np.array(column) for column in zip(*CUBIC_CASES))
        visits = [[] for _ in CUBIC_CASES]

        def fun(live, x):
            for element, at in zip(live.tolist(), x.tolist()):
                visits[element].append(at)
            return _cubic(x)

        zeros = special._halley_batch(fun, lo, hi, _cubic(lo)[0], start)
        return zeros, root, visits

    def test_roots_within_the_stop(self):
        zeros, root, _ = self.solve()
        assert np.all(np.abs(zeros - root) <= special._STOP_REL * np.abs(root))

    def test_iterates_stay_inside_their_brackets(self):
        _, _, visits = self.solve()
        for (lo, hi, start, _), path in zip(CUBIC_CASES, visits):
            assert path[0] == start
            lo_positive = _cubic(lo)[0] > 0.0
            for at, following in zip(path, path[1:]):
                if (_cubic(at)[0] > 0.0) == lo_positive:
                    lo = at
                else:
                    hi = at
                assert lo < following < hi

    def test_each_case_takes_its_branch(self):
        zeros, _, visits = self.solve()
        leaves, newton, at_end, flat, cubic = visits
        assert leaves[1] == 0.5 * (1.1 + 4.25)  # bisection of [x, hi]
        f, fp, _ = _cubic(8.0)
        assert newton[1] == pytest.approx(8.0 - f / fp, rel=1e-15)
        assert at_end == [4.0] and zeros[2] == 4.0
        assert flat[1] == 0.5 * (7.0 + 10.0)
        # two evaluations, and the root returned is a point never evaluated
        assert len(cubic) == 2 and zeros[4] not in cubic
