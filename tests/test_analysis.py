import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kreinspec import analysis as an
from kreinspec import discretize as dz
from kreinspec import spectra as sp
from kreinspec.errors import InsufficientData, InsufficientEigenvalues
from oracles import remainder_sup_oracle, universal_inequalities_oracle


class TestKozlovCoefficient:
    """Kozlov's leading coefficient (2 pi)^-n v_n |Omega| of the buckling
    pencil, which the paper carries over to the perturbed Krein Laplacian.

    The compressed pencil of the interval model is the discrete buckling
    problem whose nonzero eigenvalues are those of the Krein extension.  Its
    counting function must grow like (2 pi)^-1 v_1 L lambda^(1/2) =
    L lambda^(1/2) / pi, with or without a bounded V >= 0.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_form_in_every_dimension(self, n):
        volume = 1.7
        want = (2 * math.pi) ** -n * math.pi ** (n / 2) / math.gamma(n / 2 + 1) * volume
        assert an.weyl_leading(n, volume) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("length", [1.0, 1.7])
    @pytest.mark.parametrize("potential", ["zero", "sampled"])
    def test_leading_coefficient_of_the_pencil(self, length, potential):
        m = 400
        if potential == "zero":
            spec = dz.PotentialSpec.zero()
        else:
            spec = dz.PotentialSpec.sampled(np.random.default_rng(7).uniform(0.0, 50.0, m))
        model = dz.interval_model(dz.Grid1D(0.0, length, m), spec)
        counting = an.counting_from_spectrum(dz.discrete_krein_spectrum(model, 60))
        top = counting.complete_below
        fit = an.weyl_fit(counting, 1, (top / 50.0, top))
        assert an.weyl_leading(1, length) == pytest.approx(length / math.pi, rel=1e-15)
        # measured: 0.49 % and 0.55 % for V = 0; 0.59-0.99 % over six sampled V
        assert fit.c_lead == pytest.approx(an.weyl_leading(1, length), rel=1.2e-2)


class TestPerturbedCountingDomination:
    """N_{K,V} <= N_{D,V} for -Delta + V on the interval model: the nonzero
    Krein eigenvalues of the model against the eigenvalues of its operator
    A, which is the Friedrichs (Dirichlet) extension, with and without a
    bounded V >= 0."""

    @pytest.mark.parametrize("length", [1.0, 1.7])
    @pytest.mark.parametrize("potential", ["zero", "sampled"])
    def test_krein_counts_below_dirichlet(self, length, potential):
        m = 200
        if potential == "zero":
            spec = dz.PotentialSpec.zero()
        else:
            spec = dz.PotentialSpec.sampled(np.random.default_rng(7).uniform(0.0, 50.0, m))
        model = dz.interval_model(dz.Grid1D(0.0, length, m), spec)
        soft = dz.discrete_krein_spectrum(model, model.domain_dim)
        mu = np.linalg.eigvalsh(model.A.array)
        hard = sp.Spectrum(tuple((v, 1) for v in mu.tolist()), 0, complete_below=mu[-1])
        report = an.counting_domination(an.counting_from_spectrum(soft),
                                        an.counting_from_spectrum(hard))
        assert report.satisfied and report.margin >= 0.0 and report.witnesses == ()
        # index by index: lambda_K,j >= lambda_j(A); the smallest relative
        # gap measured was 4.7e-4 (L = 1 and 1.7, V = 0 and V from seeds 7-9)
        lam = np.array(soft.flattened())
        assert lam.size == model.domain_dim
        assert np.all(lam >= mu[:lam.size] * (1.0 + 4e-4))


def _ball_eigenvalues(n, shift, top):
    """Eigenvalues j_{l+shift,k}^2 of the unit n-ball below top^2, with
    multiplicity and ascending, from mpmath.besseljzero."""
    mpmath = pytest.importorskip("mpmath")
    values = []
    ell = 0
    while ell + shift < top:
        k = 1
        while (z := float(mpmath.besseljzero(ell + shift, k))) < top:
            values += [z * z] * sp.ball_multiplicity(n, ell)
            k += 1
        ell += 1
    return sorted(values)


def _closed_form_margins(n, k_max):
    """The margins universal_inequalities reports on the unit n-ball, from
    its formulas applied to mpmath zeros (all below 10 are enough here)."""
    lam = _ball_eigenvalues(n, n / 2.0, 10.0)[:k_max + 1]
    mu = _ball_eigenvalues(n, (n - 2) / 2.0, 10.0)[:k_max]
    assert len(lam) == k_max + 1 and len(mu) == k_max
    gaps = [
        (4.0 * (n + 2.0) / (n * n) * sum((lam[k] - lam[j]) * lam[j] for j in range(k))
         - sum((lam[k] - lam[j]) ** 2 for j in range(k))) / lam[0] ** 2
        for k in range(1, k_max + 1)
    ]
    iso = 2.0 ** (2.0 / n) * mu[0]  # the unit ball's volume cancels v_n
    ratio = lam[0] / mu[0]
    return {
        "second-to-first-ratio": (n * n + 8.0 * n + 20.0) / (n + 2.0) ** 2 - lam[1] / lam[0],
        "first-sum-bound": ((n + 4.0) * lam[0] - 4.0 / (n + 4.0) * (lam[1] - lam[0])
                            - sum(lam[1:n + 1])) / lam[0],
        "gap-quadratic-bound": min(gaps),
        "isoperimetric-lower": (mu[1] - iso) / mu[1],
        "bottom-ratio-bracket": min(ratio - 1.0, 4.0 - ratio),
        "per-index-domination": min((a - b) / b for a, b in zip(lam, mu)),
    }


class TestUniversalInequalitiesOnBall:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_margins_match_closed_forms(self, n):
        k_max = 10
        ball = sp.BallSpec(n, 1.0)
        reports = an.universal_inequalities(
            sp.ball_spectrum(ball, "krein", 2e3), sp.ball_spectrum(ball, "dirichlet", 2e3),
            n, an.unit_ball_volume(n), k_max,
        )
        want = _closed_form_margins(n, k_max)
        got = {r.name: r for r in reports if r.name in want}
        assert got.keys() == want.keys()
        for name, margin in want.items():
            assert got[name].margin == pytest.approx(margin, rel=1e-10), name
            assert got[name].satisfied and not got[name].inconclusive, name

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hard_second_equals_soft_first(self, n):
        # both are j_{n/2,1}^2: the l = 1 hard channel and the l = 0 soft
        # channel share the order n/2, so the bound is attained exactly
        ball = sp.BallSpec(n, 1.0)
        soft = sp.ball_spectrum(ball, "krein", 2e3)
        hard = sp.ball_spectrum(ball, "dirichlet", 2e3)
        reports = an.universal_inequalities(soft, hard, n, an.unit_ball_volume(n), 4)
        sharp = next(r for r in reports if r.name == "hard-second-below-soft-first")
        assert sharp.margin == 0.0
        assert sharp.satisfied and sharp.inconclusive


class TestUniversalInequalitiesNeedEnoughValues:
    # the soft spectrum needs max(k_max + 1, n + 1) values, by multiplicity
    @pytest.mark.parametrize("n, k_max", [(2, 4), (4, 1)])
    def test_short_soft_spectrum_raises(self, n, k_max):
        need = max(k_max + 1, n + 1)
        soft = sp.Spectrum(entries=((1.0, 1), (2.0, need - 2)), kernel_dim=0)
        hard = sp.Spectrum(entries=((1.5, 1), (3.0, need)), kernel_dim=0)
        with pytest.raises(InsufficientEigenvalues, match=f"need {need} soft"):
            an.universal_inequalities(soft, hard, n, an.unit_ball_volume(n), k_max)

    def test_short_hard_spectrum_raises(self):
        # per-index domination up to k_max = 10 needs 10 hard values, not 3
        disk = sp.BallSpec(2, 1.0)
        soft = sp.ball_spectrum(disk, "krein", 2e3)
        hard = sp.Spectrum(entries=sp.ball_spectrum(disk, "dirichlet", 2e3).entries[:2],
                           kernel_dim=0)
        assert len(hard.flattened()) == 3
        with pytest.raises(InsufficientEigenvalues, match="need 11 soft and 10 hard"):
            an.universal_inequalities(soft, hard, 2, an.unit_ball_volume(2), 10)


# factors that put a bound inside, at and just outside its 1e-12 tie
# window, or well away from it
_NEAR_TIES = [1.0, 1.0 - 5e-13, 1.0 + 5e-13, 1.0 - 2e-12, 1.0 + 2e-12, 0.25, 0.25 * (1.0 + 4e-13)]


def _entries(values):
    """Ascending values with repeats as (value, multiplicity) entries."""
    entries = []
    for v in sorted(values):
        if entries and entries[-1][0] == v:
            entries[-1] = (v, entries[-1][1] + 1)
        else:
            entries.append((v, 1))
    return tuple(entries)


@st.composite
def _inequality_inputs(draw):
    n = draw(st.integers(2, 5))
    k_max = draw(st.integers(1, 24))
    need = max(k_max + 1, n + 1)
    lam = sorted(draw(st.lists(st.floats(1.0, 60.0), min_size=need, max_size=need)))
    factor = st.one_of(st.sampled_from(_NEAR_TIES), st.floats(0.2, 1.5))
    mu = sorted(v * draw(factor) for v in lam)
    if draw(st.booleans()):  # the second hard value near the first soft one
        mu[1] = lam[0] * draw(st.sampled_from(_NEAR_TIES[:5]))
        mu = sorted(mu)
    volume = draw(st.floats(0.05, 20.0))
    return lam, mu, n, volume, k_max


class TestReportsAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=_inequality_inputs())
    def test_matches_plain_loop_oracle(self, case):
        lam, mu, n, volume, k_max = case
        soft = sp.Spectrum(_entries(lam), 0)
        hard = sp.Spectrum(_entries(mu), 0)
        reports = an.universal_inequalities(soft, hard, n, volume, k_max)
        want = universal_inequalities_oracle(lam, mu, n, volume, k_max)
        assert [r.name for r in reports] == [w[0] for w in want]
        for report, (name, satisfied, margin, witnesses, inconclusive) in zip(reports, want):
            assert report.satisfied == satisfied, name
            assert report.witnesses == witnesses, name
            assert report.inconclusive == inconclusive, name
            assert report.margin == pytest.approx(margin, rel=1e-12, abs=1e-13), name

    def test_tie_window_is_inconclusive_not_an_error(self):
        # lam_1 / mu_1 = 1 - 5e-13 sits inside the tie window of the bottom
        # bracket and of per-index domination; both once reported
        # "satisfied" with a negative margin, which InequalityReport rejects
        soft = sp.Spectrum(((10.0 * (1.0 - 5e-13), 1), (20.0, 5)), 0)
        hard = sp.Spectrum(((10.0, 1), (15.0, 5)), 0)
        reports = {r.name: r for r in an.universal_inequalities(soft, hard, 2, 1.0, 2)}
        assert len(reports) == 7
        for name in ("bottom-ratio-bracket", "per-index-domination"):
            assert reports[name].satisfied and reports[name].inconclusive, name
            assert reports[name].margin == pytest.approx(-5e-13, rel=1e-3), name
            assert reports[name].witnesses == (), name

    def test_index_witnesses_stop_at_sixteen(self):
        # every soft value below its hard partner: 20 violated indices
        lam = [float(v) for v in range(1, 22)]
        soft = sp.Spectrum(_entries(lam), 0)
        hard = sp.Spectrum(_entries([2.0 * v for v in lam]), 0)
        report = an.universal_inequalities(soft, hard, 2, 1.0, 20)[-1]
        assert report.name == "per-index-domination" and not report.satisfied
        assert report.witnesses == tuple(range(1, 17))
        assert report.margin == -0.5


class TestCountingDomination:
    def test_violation_reports_margin_and_witnesses(self):
        soft = an.counting_from_spectrum(
            sp.Spectrum(entries=((1.0, 1), (2.0, 3)), kernel_dim=0, complete_below=5.0)
        )
        hard = an.counting_from_spectrum(
            sp.Spectrum(entries=((1.5, 1), (3.0, 1)), kernel_dim=0, complete_below=5.0)
        )
        report = an.counting_domination(soft, hard)
        # N_soft - N_hard is 1 on [1, 1.5), 0 on [1.5, 2), 3 on [2, 3), 2 on [3, 5)
        assert not report.satisfied
        assert report.margin == -3.0
        assert report.witnesses[0] == 1.0
        assert 1.5 not in report.witnesses and 2.0 in report.witnesses

    def test_dirichlet_dominates_krein_on_interval(self):
        segment = sp.IntervalSpec(0.0, math.pi)
        report = an.counting_domination(
            an.interval_counting(segment, "krein", 200.0),
            an.interval_counting(segment, "dirichlet", 200.0),
        )
        assert report.satisfied and report.margin >= 0.0


def _bisect_count(breakpoints, cumulative, lam):
    idx = bisect.bisect_right(breakpoints, lam)
    return cumulative[idx - 1] if idx else 0


@st.composite
def _step_functions(draw):
    breakpoints = sorted(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), max_size=30, unique=True)))
    jumps = draw(st.lists(st.integers(0, 5), min_size=len(breakpoints),
                          max_size=len(breakpoints)))
    return breakpoints, np.cumsum(jumps, dtype=np.int64).tolist()


class TestCountingEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(step=_step_functions())
    def test_matches_bisect_reference(self, step):
        breakpoints, cumulative = step
        counting = an.CountingFunction(tuple(breakpoints), tuple(cumulative))
        probes = [-math.inf, -2e6, 0.0, 2e6, math.inf]
        for bp in breakpoints:
            probes += [bp, np.nextafter(bp, -math.inf), np.nextafter(bp, math.inf)]
        if breakpoints:
            probes += [breakpoints[0] - 1.0, breakpoints[-1] + 1.0]
        want = [_bisect_count(breakpoints, cumulative, float(lam)) for lam in probes]
        scalar = [counting(lam) for lam in probes]
        assert all(type(count) is int for count in scalar)
        assert scalar == want
        batch = counting(np.array(probes))
        assert batch.dtype == np.int64
        assert batch.tolist() == want


def _synthetic_counting(n, lead, second, top):
    """Counting function that jumps by one wherever
    round(lead * lam^(n/2) + second * lam^((n-1)/2)) steps, below top."""
    law = lambda lam: lead * lam ** (n / 2.0) + second * lam ** ((n - 1) / 2.0)
    start = (second / lead) ** 2 if second < 0.0 else 0.0  # law rises from 0 here
    targets = np.arange(math.floor(law(top) - 0.5) + 1) + 0.5
    lo, hi = np.full(targets.size, start), np.full(targets.size, top)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = law(mid) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return an.CountingFunction(breakpoints=tuple(hi.tolist()),
                               cumulative=tuple(range(1, targets.size + 1)))


class TestWeylFit:
    @pytest.mark.parametrize("n", [2, 3])
    def test_recovers_known_coefficients(self, n):
        lead, second = an.two_term_ball_coefficients(n, 1.0, "krein")
        counting = _synthetic_counting(n, lead, second, 2.2e4)
        fit = an.weyl_fit(counting, n, (2e3, 2e4))
        assert fit.c_lead == pytest.approx(lead, rel=1e-4)
        assert fit.c_second == pytest.approx(second, rel=2e-3)
        assert fit.samples == 240

    @pytest.mark.parametrize("window", [(0.0, 4.0), (3.0, 3.0), (4.0, 2.0)])
    def test_empty_window_raises(self, window):
        counting = an.CountingFunction(breakpoints=(1.0, 2.0), cumulative=(1, 4))
        with pytest.raises(InsufficientData, match="empty window"):
            an.weyl_fit(counting, 2, window)

    def test_window_beyond_complete_range_raises(self):
        counting = an.counting_from_spectrum(
            sp.Spectrum(entries=((1.0, 1), (2.0, 3)), kernel_dim=0, complete_below=5.0))
        with pytest.raises(InsufficientData, match="beyond complete range"):
            an.weyl_fit(counting, 2, (1.0, 6.0))


@st.composite
def _remainder_cases(draw):
    """A step function, a window whose ends may sit on its breakpoints, and a
    law of either sign, or None for the fitted one."""
    n = draw(st.integers(1, 4))
    breakpoints = sorted(draw(st.lists(st.floats(0.01, 1000.0), max_size=30, unique=True)))
    jumps = draw(st.lists(st.integers(0, 5), min_size=len(breakpoints),
                          max_size=len(breakpoints)))
    end = st.floats(0.005, 1200.0)
    if breakpoints:
        end = st.one_of(end, st.sampled_from(breakpoints))
    lo, hi = sorted((draw(end), draw(end)))
    assume(lo < hi)
    law = st.tuples(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0))
    analytic = draw(st.one_of(st.none(), law))
    return n, breakpoints, np.cumsum(jumps, dtype=np.int64).tolist(), lo, hi, analytic


class TestRemainderSup:
    """remainder_sup is the exact sup of |N - law| over the closed window."""

    @settings(max_examples=200, deadline=None)
    @given(case=_remainder_cases())
    # a one-ulp window, where the normal equations are singular, and a
    # subnormal law coefficient that underflows at the window scale: both
    # raised DomainError
    @example(case=(2, [], [], 0.005, 0.005000000000000001, None))
    @example(case=(1, [0.01, 0.010000000000000002, 1.0, 2.0, 3.0], [0, 0, 0, 0, 0],
                   0.01, 0.010000000000000002, None))
    @example(case=(2, [], [], 0.125, 0.25, (0.0, 5e-324)))
    @example(case=(3, [], [], 0.125, 0.25, (0.0, 2.225073858507e-311)))
    def test_matches_oracle_and_bounds_dense_samples(self, case):
        n, breakpoints, cumulative, lo, hi, analytic = case
        counting = an.CountingFunction(tuple(breakpoints), tuple(cumulative))
        fit = an.weyl_fit(counting, n, (lo, hi), analytic=analytic)
        lead, second = fit.analytic_lead, fit.analytic_second
        want = remainder_sup_oracle(breakpoints, cumulative, n, lo, hi, lead, second)
        # rounding of the law is relative to its terms, not to the difference
        scale = abs(lead) * hi ** (n / 2.0) + abs(second) * hi ** ((n - 1) / 2.0) + counting(hi)
        assert fit.remainder_sup == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)
        inside = np.array([x for x in breakpoints if lo < x <= hi])
        lams = np.concatenate((np.linspace(lo, hi, 10_001), np.nextafter(inside, 0.0)))
        law = lead * lams ** (n / 2.0) + second * lams ** ((n - 1) / 2.0)
        assert np.max(np.abs(counting(lams) - law)) <= fit.remainder_sup + 1e-12 * scale

    def test_turning_point_inside_the_window(self):
        # N = 3 on [1, 100] against lam - 10 lam^(1/2), which turns at
        # lam* = 25 with value -25; the window ends give only 12
        counting = an.CountingFunction((0.5,), (3,))
        fit = an.weyl_fit(counting, 2, (1.0, 100.0), analytic=(1.0, -10.0))
        assert fit.remainder_sup == 28.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_synthetic_counting_against_its_own_law(self, n):
        # The synthetic N steps where the law crosses k + 1/2, so the sup of
        # |N - law| is 1/2.  The bisected breakpoints sit on or just past
        # the crossing: every value N(lam) stays within 1/2 of the law, and
        # only the limits just left of the breakpoints exceed 1/2, by
        # rounding.
        lead, second = an.two_term_ball_coefficients(n, 1.0, "krein")
        counting = _synthetic_counting(n, lead, second, 2.2e4)
        fit = an.weyl_fit(counting, n, (2e3, 2e4), analytic=(lead, second))
        assert 0.5 < fit.remainder_sup <= 0.5 + 1e-9
        lams = np.concatenate((np.linspace(2e3, 2e4, 10_001), counting.breakpoints))
        lams = lams[(lams >= 2e3) & (lams <= 2e4)]
        law = lead * lams ** (n / 2.0) + second * lams ** ((n - 1) / 2.0)
        assert np.max(np.abs(counting(lams) - law)) <= 0.5


class TestRemainderOrder:
    """N(lam) = lead lam^(n/2) + O(lam^((n - 1/2)/2)), the paper's remainder,
    on the unit disk and ball.  Over the dyadic windows [L, 2L], L = 1e5 / 2^j
    for j = 7..1 (2.1 decades), the exponent fitted to log remainder_sup
    against log L must be at most (n - 1/2)/2 for the one-term law.  For the
    two-term law it must be below (n - 1)/2, the one-term order that Ivrii
    proved (Funct. Anal. Appl. 14 (1980)).

    Measured (one-term / two-term):
        n = 2  krein 0.499 / 0.275   dirichlet 0.484 / 0.284
        n = 3  krein 1.001 / 0.782   dirichlet 0.984 / 0.830
    """

    @pytest.mark.parametrize("which", ["krein", "dirichlet"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_remainder_exponents(self, n, which):
        lead, second = an.two_term_ball_coefficients(n, 1.0, which)
        counting = an.ball_counting(sp.BallSpec(n, 1.0), which, 1e5)
        bottoms = [1e5 / 2**j for j in range(7, 0, -1)]

        def exponent(law):
            sups = [an.weyl_fit(counting, n, (b, 2.0 * b), analytic=law).remainder_sup
                    for b in bottoms]
            return np.polyfit(np.log(bottoms), np.log(sups), 1)[0]

        assert exponent((lead, 0.0)) <= (n - 0.5) / 2.0
        assert exponent((lead, second)) < (n - 1) / 2.0


class TestTwoTermCoefficients:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_second_coefficients_differ_by_boundary_term(self, n):
        radius = 1.3
        lead_d, second_d = an.two_term_ball_coefficients(n, radius, "dirichlet")
        lead_k, second_k = an.two_term_ball_coefficients(n, radius, "krein")
        v = math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0 + 1.0)
        want = (2.0 * math.pi) ** (-(n - 1)) * v * v * radius ** (n - 1)
        assert lead_d == lead_k
        assert second_d - second_k == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", [342, 400])
    def test_unit_ball_volume_past_gamma_overflow(self, n):
        # Gamma(n/2 + 1) overflows a double from n = 342 on; v_n does not
        mpmath = pytest.importorskip("mpmath")
        half = mpmath.mpf(n) / 2
        want = float(mpmath.pi ** half / mpmath.gamma(half + 1))
        assert an.unit_ball_volume(n) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("which", ["dirichlet", "krein"])
    def test_coefficients_past_gamma_overflow(self, which):
        # at R = 1 both coefficients of n = 400 are near 1e-870, below the
        # double range; at R = 150 they are about 1.7 and -60
        mpmath = pytest.importorskip("mpmath")
        n, radius = 400, 150.0
        v = lambda d: mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1)
        r = mpmath.mpf(radius) / (2 * mpmath.pi)
        boundary = v(n - 1) if which == "krein" else 0
        want_lead = float(r**n * v(n) ** 2)
        want_second = float(-(r ** (n - 1)) * v(n - 1) * (n / mpmath.mpf(4) * v(n) + boundary))
        lead, second = an.two_term_ball_coefficients(n, radius, which)
        assert lead > 0.0 and second < 0.0
        assert lead == pytest.approx(want_lead, rel=1e-12)
        assert second == pytest.approx(want_second, rel=1e-12)


def _sandwich_reference(n, radius, lam_max):
    """sandwich_check as a scalar loop over every probe point."""
    hard_n = an.ball_counting(sp.BallSpec(n, radius), "dirichlet", lam_max)
    soft_n = an.ball_counting(sp.BallSpec(n, radius), "krein", lam_max)
    if n == 2:
        segment = sp.IntervalSpec(-radius, radius)
        hard_m = an.interval_counting(segment, "dirichlet", lam_max)
        soft_m = an.interval_counting(segment, "krein", lam_max)
    else:
        hard_m = an.ball_counting(sp.BallSpec(n - 1, radius), "dirichlet", lam_max)
        soft_m = an.ball_counting(sp.BallSpec(n - 1, radius), "krein", lam_max)
    probes = sorted({bp + d for counting in (hard_n, soft_n, hard_m, soft_m)
                     for bp in counting.breakpoints.tolist() for d in (-1e-9, 0.0, 1e-9)})
    margin, witnesses = math.inf, []
    for lam in probes:
        if 0.0 < lam <= lam_max:
            slack = min(soft_n(lam) + hard_m(lam) - hard_n(lam),
                        hard_n(lam) - soft_n(lam) - soft_m(lam))
            margin = min(margin, slack)
            if slack < 0:
                witnesses.append(lam)
    return not witnesses, float(margin), tuple(witnesses[:16])


class _CountedCalls:
    """A counting function that records how often it is called."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0
        self.breakpoints = inner.breakpoints

    def __call__(self, lam):
        self.calls += 1
        return self.inner(lam)


class TestSandwichCheck:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_scalar_reference(self, n):
        report = an.sandwich_check(n, 1.0, 2e3)
        assert report.name == f"sandwich-n{n}"
        assert (report.satisfied, report.margin, report.witnesses) == \
            _sandwich_reference(n, 1.0, 2e3)

    @pytest.mark.parametrize("n, lam_max", [(2, 1.0), (3, 3.0)])
    def test_no_eigenvalue_below_the_cap(self, n, lam_max):
        report = an.sandwich_check(n, 1.0, lam_max)
        assert report.satisfied and report.margin == math.inf and report.witnesses == ()

    def test_violation_lists_first_sixteen_witnesses(self, monkeypatch):
        # N_D,n = N_D,n-1 = N_K,n-1 = 0 and N_K,n(lam) = floor(lam) on [1, 40]:
        # the lower bound fails by N_K,n(lam) wherever that is positive
        steps = list(range(1, 41))
        fake = {
            (3, "krein"): an.CountingFunction(tuple(map(float, steps)), tuple(steps)),
            (3, "dirichlet"): an.CountingFunction((), ()),
            (2, "krein"): an.CountingFunction((), ()),
            (2, "dirichlet"): an.CountingFunction((), ()),
        }
        monkeypatch.setattr(an, "ball_counting",
                            lambda spec, which, lam_max: fake[(spec.n, which)])
        report = an.sandwich_check(3, 1.0, 100.0)
        probes = sorted({k + d for k in steps for d in (-1e-9, 0.0, 1e-9)})
        assert not report.satisfied
        assert report.margin == -40.0
        assert report.witnesses == tuple(p for p in probes if p >= 1.0)[:16]

    @pytest.mark.parametrize("n", [2, 3])
    def test_evaluates_each_counting_function_at_most_twice(self, monkeypatch, n):
        made = []

        def counted(build):
            def wrapper(*args):
                made.append(_CountedCalls(build(*args)))
                return made[-1]
            return wrapper

        monkeypatch.setattr(an, "ball_counting", counted(an.ball_counting))
        monkeypatch.setattr(an, "interval_counting", counted(an.interval_counting))
        assert an.sandwich_check(n, 1.0, 2e3).satisfied
        assert len(made) == 4
        assert all(1 <= counting.calls <= 2 for counting in made)


def _segment_eigenvalues(count):
    """The first `count` soft and the first `count` hard eigenvalues of
    (-1, 1), ascending.  Soft: (m pi)^2 and t_m^2, with t_m the root of
    t cos t - sin t (so tan t = t) in (m pi, (m + 1/2) pi) from
    mpmath.findroot.  Hard: (j pi / 2)^2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        soft = []
        for m in range(1, count + 1):
            lo, hi = m * mpmath.pi, (m + mpmath.mpf(0.5)) * mpmath.pi
            t = mpmath.findroot(lambda t: t * mpmath.cos(t) - mpmath.sin(t), (lo, hi),
                                solver="anderson")
            assert lo < t < hi
            soft += [lo * lo, t * t]
        hard = [(j * mpmath.pi / 2) ** 2 for j in range(1, count + 1)]
        return sorted(float(v) for v in soft)[:count], [float(v) for v in hard]


def _reference_counting(values, lam_max):
    """Counting function of ascending values (repeated by multiplicity),
    complete below lam_max."""
    values = [v for v in values if v <= lam_max]
    breakpoints = sorted(set(values))
    cumulative = [bisect.bisect_right(values, b) for b in breakpoints]
    return an.CountingFunction(breakpoints, cumulative, complete_below=lam_max)


class TestIntervalAgainstMpmath:
    SEGMENT = sp.IntervalSpec(-1.0, 1.0)
    DISK = sp.BallSpec(2, 1.0)

    def test_krein_values(self):
        want, _ = _segment_eigenvalues(20)
        got = sp.interval_krein(self.SEGMENT, 20).flattened()
        assert len(got) == 20
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w

    def test_counting_checks_match_reference_spectra(self, monkeypatch):
        # every eigenvalue below 100 = 10^2 is among the first 10 soft and
        # hard ones of the segment (the 10th of each is (5 pi)^2) and the
        # squares of the disk zeros below 10
        lam_max = 100.0
        soft, hard = _segment_eigenvalues(10)
        reference = {
            (self.SEGMENT, "krein"): _reference_counting(soft, lam_max),
            (self.SEGMENT, "dirichlet"): _reference_counting(hard, lam_max),
            (self.DISK, "krein"): _reference_counting(_ball_eigenvalues(2, 1.0, 10.0), lam_max),
            (self.DISK, "dirichlet"): _reference_counting(_ball_eigenvalues(2, 0.0, 10.0), lam_max),
        }
        for (spec, which), want in reference.items():
            counting = (an.interval_counting if spec == self.SEGMENT else an.ball_counting)(
                spec, which, lam_max)
            assert counting.cumulative.tolist() == want.cumulative.tolist()
            np.testing.assert_allclose(counting.breakpoints, want.breakpoints, rtol=1e-10)
        sandwich = an.sandwich_check(2, 1.0, lam_max)
        domination = an.counting_domination(
            an.interval_counting(self.SEGMENT, "krein", lam_max),
            an.interval_counting(self.SEGMENT, "dirichlet", lam_max),
        )

        def by_spec(spec, which, cap):
            return reference[(spec, which)]

        monkeypatch.setattr(an, "ball_counting", by_spec)
        monkeypatch.setattr(an, "interval_counting", by_spec)
        want_sandwich = an.sandwich_check(2, 1.0, lam_max)
        want_domination = an.counting_domination(reference[(self.SEGMENT, "krein")],
                                                  reference[(self.SEGMENT, "dirichlet")])
        for got, want in ((sandwich, want_sandwich), (domination, want_domination)):
            assert (got.satisfied, got.margin, got.witnesses) == \
                (want.satisfied, want.margin, want.witnesses)
