"""Family zeros against mpmath, an implementation independent of them.

`special._family_zeros` refines every bracket of its scan on a Taylor series
of J_nu about one bracket end.  The edge cases of that route:

* the first cell [1.5, 3], which holds j_{0,1};
* the first bracket [3, 4.5] of nu = 1/2, whose zero pi lies nearest the
  singularity at the origin of the series about 3 (half-integer orders only);
* zeros within 1e-3 of a grid point, where the value at the bracket end
  about which the series is taken nearly vanishes.

Each agrees with mpmath.besseljzero to within 1e-15 relative (5.6e-16 at
most measured).  mpmath needs seconds or more for each low zero of an order
above 200, so the family at x_max = 900 is checked by sign changes of
mpmath.besselj there, and by besseljzero only up to order 200; that test is
marked slow.
"""

import pytest

from kreinspec import special

mpmath = pytest.importorskip("mpmath")

REL = 1e-15


@pytest.fixture
def cold_cache(monkeypatch):
    monkeypatch.setattr(special, "_zero_cache", {})


# (twice the order, zero index, a grid point, the zero's distance from it)
EDGE_ZEROS = [
    (0, 1, 3.0, 0.6),       # j_{0,1} = 2.405
    (1, 1, 3.0, 0.15),      # j_{1/2,1} = pi
    (10, 46, 151.5, 1e-3),  # j_{5,46} = 151.50016
    (140, 9, 115.5, 1e-3),  # j_{70,9} = 115.49952
    (75, 6, 66.0, 1e-3),    # j_{37.5,6} = 66.00060
]


@pytest.mark.parametrize("twice_order, k, grid_point, distance", EDGE_ZEROS)
def test_edge_brackets(twice_order, k, grid_point, distance, cold_cache):
    want = float(mpmath.besseljzero(mpmath.mpf(twice_order) / 2, k))
    assert abs(want - grid_point) < distance
    assert grid_point / special._SCAN_STEP == round(grid_point / special._SCAN_STEP)
    zeros = special._family_zeros([twice_order], want + 1.0)[0]
    assert len(zeros) >= k
    assert zeros[k - 1] == pytest.approx(want, rel=REL, abs=0.0)


def changes_sign_at(nu, z):
    """mpmath.besselj(nu, .) changes sign within REL relative of z."""
    with mpmath.workdps(30):
        below = mpmath.besselj(nu, z * (1.0 - REL))
        above = mpmath.besselj(nu, z * (1.0 + REL))
    return mpmath.sign(below) * mpmath.sign(above) < 0


@pytest.mark.slow
@pytest.mark.parametrize("parity", [0, 1])
def test_family_to_900(parity, cold_cache):
    # every order l + parity/2 up to 500, every zero below 900
    twice_orders = list(range(parity, 1001, 2))
    zeros = dict(zip(twice_orders, special._family_zeros(twice_orders, 900.0)))
    sampled = 0
    for twice in twice_orders[::25]:
        found = zeros[twice]
        nu = mpmath.mpf(twice) / 2
        assert len(found) and all(b > a for a, b in zip(found, found[1:]))
        for k in sorted({1, (len(found) + 1) // 2, len(found)}):
            assert changes_sign_at(nu, float(found[k - 1])), (twice / 2, k)
            if twice <= 400:
                want = float(mpmath.besseljzero(nu, k))
                assert found[k - 1] == pytest.approx(want, rel=REL, abs=0.0)
            sampled += 1
        if twice <= 400:
            # complete: the next zero lies beyond the bound
            assert float(mpmath.besseljzero(nu, len(found) + 1)) > 900.0
    assert sampled >= 60
