import math

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
