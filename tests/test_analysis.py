import math

import pytest

from kreinspec import analysis as an


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
