import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinspec.errors import BracketFailure, DomainError
from kreinspec import discretize as dz
from kreinspec import special
from kreinspec import spectra as spx
from kreinspec.spectra import BallSpec, IntervalSpec, Spectrum

from oracles import series_bessel_zero, soft_bc_residual_oracle, tan_fixed_point_oracle

PI = math.pi


@pytest.fixture
def empty_caches(monkeypatch):
    """Empties the ball-spectrum cache and the Bessel zero cache, now and at
    each call; empty(zeros=False) empties the ball-spectrum cache alone, so
    the next ball_spectrum rebuilds from warm zeros."""
    def empty(zeros=True):
        spx._build_ball_spectrum.cache_clear()
        if zeros:
            monkeypatch.setattr(special, "_zero_cache", {})
    empty()
    yield empty
    # no spectrum built from the emptied zero cache outlives the test
    spx._build_ball_spectrum.cache_clear()


def _pairs(values, mults):
    return tuple(zip(values.tolist(), mults.tolist()))


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

    def test_completeness_against_brute_force(self, empty_caches):
        # plain double loop over orders and zero indices through the scalar
        # bessel_zero, each loop ending at the first zero above the cap
        for n, which, cap in ((2, "dirichlet", 200.0), (2, "dirichlet", 4.0e4),
                              (3, "krein", 1.0e4), (4, "dirichlet", 1.0e4)):
            empty_caches()
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
            brute = _pairs(*spx._merge_coincident(np.array(values), np.array(mults)))
            assert [m for _, m in s.entries] == [m for _, m in brute]
            for (a, _), (b, _) in zip(s.entries, brute):
                assert abs(a - b) <= 1e-13 * b  # well inside merge_rel

    def test_warm_cache_gives_the_cold_entries(self, empty_caches):
        ball = BallSpec(3, 1.1)
        cold = {which: spx.ball_spectrum(ball, which, 3.0e3).entries
                for which in ("krein", "dirichlet")}
        empty_caches(zeros=False)
        for which, entries in cold.items():
            assert spx.ball_spectrum(ball, which, 3.0e3).entries == entries
        # zeros cached from a wider reach come from other brackets
        empty_caches()
        spx.ball_spectrum(ball, "dirichlet", 1.2e4)
        for which, entries in cold.items():
            warm = spx.ball_spectrum(ball, which, 3.0e3).entries
            assert [m for _, m in warm] == [m for _, m in entries]
            for (a, _), (b, _) in zip(warm, entries):
                assert abs(a - b) <= 1e-13 * b

    @pytest.mark.parametrize("n, which, other, wider", [(2, "dirichlet", "krein", 4.0e4),
                                                        (3, "dirichlet", "krein", 2.0e4),
                                                        (3, "krein", "dirichlet", 2.0e4)])
    def test_equal_spectra_cold_warm_and_after_the_other_condition(self, empty_caches, n,
                                                                    which, other, wider):
        # each zero's bits depend only on its order and index, not on what
        # the zero cache held: a wider reach, or the other condition's orders
        ball = BallSpec(n, 1.0)
        cold = spx.ball_spectrum(ball, which, 1.0e4)
        for first in ((ball, which, wider), (ball, other, 1.0e4)):
            empty_caches()
            spx.ball_spectrum(*first)
            empty_caches(zeros=False)
            assert spx.ball_spectrum(ball, which, 1.0e4) == cold

    def test_order_above_500_raises(self, empty_caches):
        with pytest.raises(DomainError):
            spx.ball_spectrum(BallSpec(2, 1.0), "dirichlet", 510.0 ** 2)
        with pytest.raises(DomainError):
            spx.ball_spectrum(BallSpec(3, 1.0), "krein", 1.0e20)
        assert special._zero_cache == {}
        assert spx._build_ball_spectrum.cache_info().currsize == 0

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
        merged = _pairs(*spx._merge_coincident(values, np.array([1, 2, 4])))
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
        assert _pairs(*spx._merge_coincident(values, mults)) == _merge_reference(pairs, 1e-11)


class TestBallSpectrumCache:
    def test_equal_arguments_share_one_object(self, empty_caches):
        first = spx.ball_spectrum(BallSpec(3, 1), "krein", 200.0)
        for spec, lam in ((BallSpec(3, 1.0), 200.0), (BallSpec(3, 1.0), 200),
                          (BallSpec(np.int64(3), 1), np.float64(200.0))):
            assert spx.ball_spectrum(spec, "krein", lam) is first
        info = spx._build_ball_spectrum.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)

    def test_each_argument_is_its_own_key(self, empty_caches):
        calls = [(BallSpec(3, 1.0), "krein", 200.0), (BallSpec(2, 1.0), "krein", 200.0),
                 (BallSpec(3, 1.5), "krein", 200.0), (BallSpec(3, 1.0), "dirichlet", 200.0),
                 (BallSpec(3, 1.0), "krein", 300.0)]
        built = [spx.ball_spectrum(*call) for call in calls]
        assert len({id(s) for s in built}) == len(calls)
        # a cold build, up to the 1e-13 that zeros cached from a wider reach
        # may differ by (see test_warm_cache_gives_the_cold_entries)
        for call, got in zip(calls, built):
            empty_caches()
            cold = spx.ball_spectrum(*call)
            assert (got.kernel_dim, got.complete_below) == (cold.kernel_dim, cold.complete_below)
            np.testing.assert_array_equal(got._mults, cold._mults)
            np.testing.assert_allclose(got._values, cold._values, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("call, error, message", [
        ((BallSpec(3, 1.0), "krein", math.inf), ValueError, "lambda_max inf is not"),
        ((BallSpec(3, 1.0), "krein", math.nan), ValueError, "lambda_max nan is not"),
        ((BallSpec(3, 1.0), "krein", 0.0), ValueError, "lambda_max 0.0 is not"),
        ((BallSpec(3, 1.0), "neumann", 10.0), ValueError, "which must be dirichlet or krein"),
        ((BallSpec(2, 1.0), "dirichlet", 510.0 ** 2), DomainError, "order"),
        ((BallSpec(60, 1.0), "krein", 1e4), DomainError, r"exceeds 2\^63 - 1"),
    ])
    def test_invalid_arguments_cache_nothing(self, empty_caches, call, error, message):
        with pytest.raises(error, match=message):
            spx.ball_spectrum(*call)
        assert spx._build_ball_spectrum.cache_info().currsize == 0

    def test_holds_the_most_recent_up_to_its_bound(self, empty_caches):
        ball, bound = BallSpec(2, 1.0), spx._BALL_CACHE_SIZE
        info = spx._build_ball_spectrum.cache_info
        built = {}
        for lam in range(10, 10 + 3 * bound):
            built[lam] = spx.ball_spectrum(ball, "dirichlet", float(lam))
            assert info().currsize == min(lam - 9, bound)
        assert (info().maxsize, info().hits, info().misses) == (bound, 0, 3 * bound)
        held = list(built)[-bound:]
        # a hit makes its entry the most recent, so the next one out is the
        # second oldest: the four held then are exactly the hits below
        assert spx.ball_spectrum(ball, "dirichlet", held[0]) is built[held[0]]
        krein = spx.ball_spectrum(ball, "krein", 10.0)
        for lam in held[2:] + held[:1]:
            assert spx.ball_spectrum(ball, "dirichlet", lam) is built[lam]
        assert spx.ball_spectrum(ball, "krein", 10.0) is krein
        assert (info().hits, info().misses) == (bound + 1, 3 * bound + 1)
        # held[1] misses, and pushes out the least recent hit, held[2]
        assert spx.ball_spectrum(ball, "dirichlet", held[1]) is not built[held[1]]
        assert spx.ball_spectrum(ball, "dirichlet", held[2]) is not built[held[2]]
        assert (info().hits, info().misses, info().currsize) == (bound + 1, 3 * bound + 3, bound)


def _library_spectra():
    model = dz.interval_model(dz.Grid1D(0.0, 1.3, 40), dz.PotentialSpec.zero())
    return [spx.ball_spectrum(BallSpec(n, 0.9), which, 500.0)
            for n in (2, 3, 4) for which in ("dirichlet", "krein")] + [
        spx.interval_dirichlet(IntervalSpec(-1.0, 2.0), 30),
        spx.interval_krein(IntervalSpec(-1.0, 2.0), 31),
        dz.discrete_krein_spectrum(model, 20),
    ]


class TestSpectrumEntries:
    def test_library_spectra_equal_their_public_construction(self):
        for built in _library_spectra():
            public = Spectrum(entries=built.entries, kernel_dim=built.kernel_dim,
                              complete_below=built.complete_below)
            assert public == built and hash(public) == hash(built)
            for name in ("_values", "_mults"):
                mine, theirs = getattr(built, name), getattr(public, name)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
                assert not mine.flags.writeable
            assert all(type(v) is float and type(m) is int for v, m in built.entries)

    def test_entries_do_not_follow_the_callers_list(self):
        given = [(1.0, 1), (2, 3)]
        spectrum = Spectrum(entries=given, kernel_dim=0, complete_below=2.5)
        given.append((3.0, 1))
        given[0] = (0.5, 7)
        assert spectrum.entries == ((1.0, 1), (2.0, 3))
        assert type(spectrum.entries[1][0]) is float
        assert spectrum.flattened() == [1.0, 2.0, 2.0, 2.0]
        assert spectrum.values() == [1.0, 2.0]
        same = Spectrum(entries=((1.0, 1), (2.0, 3)), kernel_dim=0, complete_below=2.5)
        assert spectrum == same and hash(spectrum) == hash(same)

    def test_equality_reads_every_field(self):
        base = Spectrum(((1.0, 1), (2.0, 3)), 0, 2.5)
        alike = Spectrum(((1, 1), (2.0, np.int64(3))), 0.0, 2.5)
        assert base == alike and hash(base) == hash(alike)
        for other in (Spectrum(((1.0, 1), (2.0, 2)), 0, 2.5),
                      Spectrum(((1.0, 1), (2.5, 3)), 0, 2.5),
                      Spectrum(((1.0, 1),), 0, 2.5),
                      Spectrum(((1.0, 1), (2.0, 3)), 1, 2.5),
                      Spectrum(((1.0, 1), (2.0, 3)), 0, None)):
            assert base != other
        assert base != base.entries

    def test_one_copy_of_the_entries(self):
        # the two arrays take 1.6 MB; with a tuple of (float, int) pairs
        # stored beside them the spectrum kept 10.4 MB
        values, mults = np.arange(1.0, 100_001.0), np.ones(100_000, dtype=np.int64)
        tracemalloc.start()
        try:
            spectrum = Spectrum._from_arrays(values, mults, 0, None)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 3_000_000
        first, second = spectrum.entries, spectrum.entries
        assert first == second and len(first) == 100_000
        assert all(type(v) is float and type(m) is int for v, m in first)


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

    @staticmethod
    def per_zero_report(n, ell, k_max):
        """(strict, min_gap, witnesses) from one bessel_zero call a zero."""
        hard = np.array([special.bessel_zero(ell + n / 2 - 1, k) for k in range(1, k_max + 2)])
        soft = np.array([special.bessel_zero(ell + n / 2, k) for k in range(1, k_max + 1)])
        bad = ~((hard[:-1] < soft) & (soft < hard[1:]))
        gaps = np.minimum(soft - hard[:-1], hard[1:] - soft)
        return not bad.any(), float(gaps.min()), tuple((np.flatnonzero(bad) + 1).tolist())

    @pytest.mark.parametrize("n,ell,k_max", [(2, 0, 300), (3, 2, 100), (5, 3, 50), (2, 40, 60),
                                             (3, 0, 1), (4, 7, 20)])
    def test_family_scan_matches_one_call_a_zero(self, n, ell, k_max):
        # measured on (2, 0, 300 and 2,000), (3, 2, 2,000), (3, 0, 10,000),
        # (5, 3, 50) and (2, 40, 500): the same min_gap bits, none strict-less
        rep = spx.channel_interlace_report(BallSpec(n, 1.0), ell, k_max)
        strict, min_gap, witnesses = self.per_zero_report(n, ell, k_max)
        assert rep.strict is strict and rep.witnesses == witnesses
        assert abs(rep.min_gap - min_gap) <= 1e-15 * min_gap

    def test_zeros_past_the_scan_are_one_call_each(self, monkeypatch):
        # with the scan's reach cut to 50, the zeros above its last grid
        # point come from bessel_zero, one call each
        monkeypatch.setattr(special, "_zero_cache", {})
        monkeypatch.setattr(spx, "_MAX_X_INTERNAL", 50.0)
        calls = []
        zero = spx.bessel_zero
        monkeypatch.setattr(spx, "bessel_zero", lambda nu, k: calls.append(k) or zero(nu, k))
        rep = spx.channel_interlace_report(BallSpec(3, 1.0), 1, 40)
        assert calls and min(calls) > 10 and len(calls) < 81
        strict, min_gap, witnesses = self.per_zero_report(3, 1, 40)
        assert rep.strict is strict and rep.witnesses == witnesses
        assert abs(rep.min_gap - min_gap) <= 1e-15 * min_gap


# (j / R)^2 with the same zeros j: the scan limit sqrt(lambda_max) R and the
# cap lambda_max R^2 are the same doubles for R = 1 up to 4 L and R = 2 up to
# L, and dividing a zero by 2 is exact, so every value is exactly a quarter.
@pytest.mark.parametrize("which", ["dirichlet", "krein"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_doubling_the_radius_quarters_every_value(n, which):
    unit = spx.ball_spectrum(BallSpec(n, 1.0), which, 2e3)
    doubled = spx.ball_spectrum(BallSpec(n, 2.0), which, 5e2)
    assert [v / 4 for v, _ in unit.entries] == [v for v, _ in doubled.entries]
    assert [m for _, m in unit.entries] == [m for _, m in doubled.entries]
