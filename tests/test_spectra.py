import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinspec.errors import BracketFailure, DomainError
from kreinspec import special
from kreinspec import spectra as spx
from kreinspec.spectra import BallSpec, IntervalSpec

from oracles import series_bessel_zero, soft_bc_residual_oracle, tan_fixed_point_oracle

PI = math.pi


class TestIntervalDirichlet:
    def test_unit_pi_length(self):
        s = spx.interval_dirichlet(IntervalSpec(0.0, PI), 4)
        assert s.values() == pytest.approx([1.0, 4.0, 9.0, 16.0], rel=1e-14)
        assert s.kernel_dim == 0
        assert all(m == 1 for _, m in s.entries)

    def test_unit_length(self):
        s = spx.interval_dirichlet(IntervalSpec(0.0, 1.0), 3)
        assert s.values() == pytest.approx([PI**2, 4 * PI**2, 9 * PI**2], rel=1e-14)

    def test_two_pi_length(self):
        s = spx.interval_dirichlet(IntervalSpec(-PI, PI), 3)
        assert s.values() == pytest.approx([0.25, 1.0, 2.25], rel=1e-14)


class TestIntervalKrein:
    def test_first_six_against_oracle(self):
        s = spx.interval_krein(IntervalSpec(0.0, PI), 6)
        t = [tan_fixed_point_oracle(m) for m in (1, 2, 3)]
        expected = [4.0, (2 * t[0] / PI) ** 2, 16.0, (2 * t[1] / PI) ** 2,
                    36.0, (2 * t[2] / PI) ** 2]
        assert s.kernel_dim == 2
        for got, want in zip(s.values(), expected):
            assert got == pytest.approx(want, rel=1e-11)

    def test_first_value_is_four_times_dirichlet_bottom(self):
        # the 1-D analog of the sharp upper bound: ratio exactly 4
        k = spx.interval_krein(IntervalSpec(0.0, PI), 1)
        d = spx.interval_dirichlet(IntervalSpec(0.0, PI), 1)
        assert k.values()[0] / d.values()[0] == pytest.approx(4.0, rel=1e-14)

    def test_scaling_by_inverse_square_length(self):
        base = spx.interval_krein(IntervalSpec(0.0, 1.0), 8).values()
        scaled = spx.interval_krein(IntervalSpec(0.0, 3.0), 8).values()
        for a, b in zip(base, scaled):
            assert b == pytest.approx(a / 9.0, rel=1e-13)

    def test_alternation_strict(self):
        vals = spx.interval_krein(IntervalSpec(0.0, 2.2), 40).values()
        length = 2.2
        for idx, v in enumerate(vals):
            m = idx // 2 + 1
            if idx % 2 == 0:
                assert v == pytest.approx((2 * m * PI / length) ** 2, rel=1e-13)
            else:
                assert (2 * m * PI / length) ** 2 < v < (2 * (m + 1) * PI / length) ** 2

    def test_broken_alternation_raises(self, monkeypatch):
        # a root outside (m pi, (m + 1/2) pi) breaks the interleaving
        monkeypatch.setattr(spx, "tan_fixed_point", lambda m: 0.1)
        with pytest.raises(BracketFailure):
            spx.interval_krein(IntervalSpec(0.0, PI), 4)


class TestIntervalBcResidual:
    # frequencies as the library computes them: 2 m pi / L on the even
    # branch, 2 t_m / L with the library's root t_m on the odd one
    @staticmethod
    def _residual(spec, branch, m):
        if branch == "cos":
            k = 2.0 * m * PI / spec.length
        else:
            k = 2.0 * special.tan_fixed_point(m) / spec.length
        return soft_bc_residual_oracle(spec.a, spec.b, branch, k)

    def test_cos_branch(self):
        r = self._residual(IntervalSpec(0.0, PI), "cos", 1)
        assert r <= 1e-10 * (2 * PI / PI)

    def test_sin_branch(self):
        for m in (1, 2, 5):
            k = 2 * tan_fixed_point_oracle(m) / PI
            r = self._residual(IntervalSpec(0.0, PI), "sin", m)
            assert r <= 1e-10 * k

    def test_off_center_interval(self):
        spec = IntervalSpec(-1.3, 2.9)
        for branch, m in (("cos", 3), ("sin", 2)):
            r = self._residual(spec, branch, m)
            assert r <= 1e-9

    def test_kernel_functions_satisfy_bc_exactly(self):
        # v = 1 and v = x have v'(a) = v'(b) = (v(b)-v(a))/L exactly
        a, b = 0.0, PI
        for value, deriv in ((lambda x: 1.0, lambda x: 0.0), (lambda x: x, lambda x: 1.0)):
            slope = (value(b) - value(a)) / (b - a)
            assert max(abs(deriv(a) - slope), abs(deriv(b) - slope)) == 0.0


class TestBallMultiplicity:
    def test_three_dimensions(self):
        assert [spx.ball_multiplicity(3, l) for l in range(8)] == [2 * l + 1 for l in range(8)]

    def test_two_dimensions(self):
        assert spx.ball_multiplicity(2, 0) == 1
        assert all(spx.ball_multiplicity(2, l) == 2 for l in range(1, 9))

    def test_four_dimensions(self):
        assert [spx.ball_multiplicity(4, l) for l in range(8)] == [(l + 1) ** 2 for l in range(8)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_matches_gamma_ratio_exactly(self, n):
        for ell in range(12):
            num = (2 * ell + n - 2) * math.factorial(ell + n - 3) if ell + n - 3 >= 0 else None
            if ell == 0 and n == 2:
                expected = 1  # the ratio degenerates at l=0, n=2
            else:
                expected = Fraction(
                    (2 * ell + n - 2) * math.factorial(ell + n - 3),
                    math.factorial(ell) * math.factorial(n - 2),
                )
                assert expected.denominator == 1
                expected = int(expected)
            assert spx.ball_multiplicity(n, ell) == expected

    def test_pascal_recurrence(self):
        # d_{n,l} = d_{n-1,l} + d_{n,l-1}, the step the counting proofs use
        for n in range(3, 7):
            for ell in range(1, 10):
                assert spx.ball_multiplicity(n, ell) == (
                    spx.ball_multiplicity(n - 1, ell) + spx.ball_multiplicity(n, ell - 1)
                )

    def test_validation(self):
        with pytest.raises(DomainError):
            spx.ball_multiplicity(1, 0)
        with pytest.raises(DomainError):
            spx.ball_multiplicity(3, -1)


class TestBallSpectrum:
    def test_disk_dirichlet_bottom(self):
        s = spx.ball_spectrum(BallSpec(2, 1.0), "dirichlet", 30.0)
        assert s.values()[0] == pytest.approx(series_bessel_zero(0, 1) ** 2, rel=1e-12)
        assert s.kernel_dim == 0

    def test_disk_krein_bottom_equals_second_dirichlet(self):
        d = spx.ball_spectrum(BallSpec(2, 1.0), "dirichlet", 30.0)
        k = spx.ball_spectrum(BallSpec(2, 1.0), "krein", 30.0)
        j11_sq = series_bessel_zero(2, 1) ** 2
        assert k.values()[0] == pytest.approx(j11_sq, rel=1e-12)
        assert k.entries[0][1] == 1
        # same transcendental number: the sharp case of the two-sided bound
        assert abs(k.values()[0] - d.values()[1]) <= 1e-12 * j11_sq
        assert k.kernel_dim == spx.INFINITE

    def test_three_ball_krein_bottom_is_tan_root(self):
        k = spx.ball_spectrum(BallSpec(3, 1.0), "krein", 25.0)
        assert k.values()[0] == pytest.approx(tan_fixed_point_oracle(1) ** 2, rel=1e-11)

    def test_multiplicities_by_channel(self):
        k = spx.ball_spectrum(BallSpec(3, 1.0), "krein", 40.0)
        # first two channels: l=0 simple, l=1 threefold
        assert k.entries[0][1] == 1
        assert k.entries[1][1] == 3

    def test_scaling_covariance(self):
        big = spx.ball_spectrum(BallSpec(3, 1.0), "dirichlet", 100.0)
        small = spx.ball_spectrum(BallSpec(3, 2.0), "dirichlet", 25.0)
        assert len(big.entries) == len(small.entries)
        for (v1, m1), (v2, m2) in zip(big.entries, small.entries):
            assert v2 == pytest.approx(v1 / 4.0, rel=1e-13)
            assert m1 == m2

    def test_completeness_against_brute_force(self, monkeypatch):
        # plain double loop over orders and zero indices through the scalar
        # bessel_zero, each loop ending at the first zero above the cap
        for n, which, cap in ((2, "dirichlet", 200.0), (2, "dirichlet", 4.0e4),
                              (3, "krein", 1.0e4), (4, "dirichlet", 1.0e4)):
            monkeypatch.setattr(special, "_zero_cache", {})
            s = spx.ball_spectrum(BallSpec(n, 1.0), which, cap)
            shift = (n - 2) / 2.0 if which == "dirichlet" else n / 2.0
            brute = []
            ell = 0
            while spx.bessel_zero(ell + shift, 1) ** 2 <= cap:
                k = 1
                while (z := spx.bessel_zero(ell + shift, k)) ** 2 <= cap:
                    brute.append((z * z, spx.ball_multiplicity(n, ell)))
                    k += 1
                ell += 1
            values, mults = zip(*brute)
            brute = spx._merge_coincident(np.array(values), np.array(mults))
            assert [m for _, m in s.entries] == [m for _, m in brute]
            for (a, _), (b, _) in zip(s.entries, brute):
                assert abs(a - b) <= 1e-13 * b  # well inside merge_rel

    def test_warm_cache_gives_the_cold_entries(self, monkeypatch):
        ball = BallSpec(3, 1.1)
        monkeypatch.setattr(special, "_zero_cache", {})
        cold = {which: spx.ball_spectrum(ball, which, 3.0e3).entries
                for which in ("krein", "dirichlet")}
        for which, entries in cold.items():
            assert spx.ball_spectrum(ball, which, 3.0e3).entries == entries
        # zeros cached from a wider reach come from other brackets
        monkeypatch.setattr(special, "_zero_cache", {})
        spx.ball_spectrum(ball, "dirichlet", 1.2e4)
        for which, entries in cold.items():
            warm = spx.ball_spectrum(ball, which, 3.0e3).entries
            assert [m for _, m in warm] == [m for _, m in entries]
            for (a, _), (b, _) in zip(warm, entries):
                assert abs(a - b) <= 1e-13 * b

    def test_order_above_500_raises(self, monkeypatch):
        monkeypatch.setattr(special, "_zero_cache", {})
        with pytest.raises(DomainError):
            spx.ball_spectrum(BallSpec(2, 1.0), "dirichlet", 510.0 ** 2)
        with pytest.raises(DomainError):
            spx.ball_spectrum(BallSpec(3, 1.0), "krein", 1.0e20)
        assert special._zero_cache == {}

    def test_interval_is_not_a_ball(self):
        # guard against index confusion between the two exact families
        interval = spx.interval_krein(IntervalSpec(-1.0, 1.0), 1).values()[0]
        for n in (2, 3):
            ball = spx.ball_spectrum(BallSpec(n, 1.0), "krein", 50.0).values()[0]
            assert abs(interval - ball) > 1e-3


def _merge_reference(pairs, merge_rel):
    """The merge rule as a plain loop over the sorted pairs."""
    merged = []
    for value, mult in sorted(pairs):
        if merged and value - merged[-1][0] <= merge_rel * value:
            merged[-1][1] += mult
        else:
            merged.append([value, mult])
    return tuple((v, m) for v, m in merged)


class TestMergeCoincident:
    def test_joins_the_first_value_of_a_group(self):
        # 1 + 1.2e-11 is within 1e-11 of its predecessor but not of 1.0
        values = np.array([1.0 + 1.2e-11, 1.0, 1.0 + 0.6e-11])
        merged = spx._merge_coincident(values, np.array([1, 2, 4]))
        assert merged == ((1.0, 6), (1.0 + 1.2e-11, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 30), st.integers(1, 6)),
                    max_size=40))
    def test_matches_loop_reference(self, draws):
        # up to 30 steps of 0.3 merge_rel above a few base values, so groups
        # chain past merge_rel of their first value
        pairs = [(base * (1.0 + 3e-12 * step), mult) for base, step, mult in draws]
        values = np.array([v for v, _ in pairs], dtype=float)
        mults = np.array([m for _, m in pairs], dtype=np.int64)
        assert spx._merge_coincident(values, mults) == _merge_reference(pairs, 1e-11)


class TestChannelInterlace:
    def test_disk_channel(self):
        rep = spx.channel_interlace_report(BallSpec(2, 1.0), 0, 10)
        assert rep.strict and rep.min_gap > 0.0 and not rep.witnesses

    def test_three_ball_tan_brackets(self):
        # nu = 1/2: hard zeros at k pi, soft at the tan fixed points between
        rep = spx.channel_interlace_report(BallSpec(3, 1.0), 0, 10)
        assert rep.strict
        for k in range(1, 11):
            t = tan_fixed_point_oracle(k)
            assert k * PI < t < (k + 1) * PI

    def test_single_index(self):
        rep = spx.channel_interlace_report(BallSpec(5, 1.0), 3, 1)
        assert rep.strict
