import math

import numpy as np
import pytest

from kreinspec import analysis as an
from kreinspec import spectra as sp


class TestKozlovCoefficient:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_form_in_every_dimension(self, n):
        volume = 1.7
        want = (2 * math.pi) ** -n * math.pi ** (n / 2) / math.gamma(n / 2 + 1) * volume
        for m, r in ((1, 0), (2, 1), (3, 0), (4, 2)):
            assert an.kozlov_coefficient(n, m, r, volume) == pytest.approx(want, rel=1e-13)

    def test_rejects_bad_orders_and_volume(self):
        with pytest.raises(ValueError):
            an.kozlov_coefficient(3, 1, 1, 1.0)
        with pytest.raises(ValueError):
            an.kozlov_coefficient(3, 2, 1, 0.0)


class TestUniversalInequalitiesOnBall:
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
