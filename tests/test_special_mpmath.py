"""The Bessel layer against mpmath, an implementation independent of it.

Every comparison is at 1e-11 relative, the accuracy `bessel_zero` states.
mpmath needs about 37 s for each zero of order 500, so the besseljzero
comparison of the scan regime is marked slow and deselected by default
(run it with `pytest -m slow`); an mpmath.besselj sign-change certificate
covers the same zeros in the default run.
"""

import math

import pytest

from kreinspec import special

mpmath = pytest.importorskip("mpmath")

REL = 1e-11


@pytest.fixture
def cold_cache(monkeypatch):
    monkeypatch.setattr(special, "_zero_cache", {})


@pytest.mark.parametrize("parity", [0, 1])
def test_batch_zeros_of_both_families(parity, cold_cache):
    # orders l + parity/2 up to 130 and zeros up to 125, as a ball spectrum
    # at lambda = 1e4 and R = 1.25 asks for them
    twice_orders = list(range(parity, 261 + parity, 2))
    zeros = dict(zip(twice_orders, special._family_zeros(twice_orders, 125.0)))
    sampled = 0
    for twice in twice_orders[::17]:
        found = zeros[twice]
        assert all(b > a for a, b in zip(found, found[1:]))
        for k in sorted({1, (len(found) + 1) // 2, len(found)}) if len(found) else ():
            want = float(mpmath.besseljzero(twice / 2.0, k))
            assert found[k - 1] == pytest.approx(want, rel=REL)
            sampled += 1
        # complete: the next zero lies beyond the bound
        assert float(mpmath.besseljzero(twice / 2.0, len(found) + 1)) > 125.0
    assert sampled >= 20


@pytest.mark.parametrize("nu", [60, 130, 500])
def test_scan_regime_against_besselj(nu, cold_cache):
    # the k-th zero is a sign change of mpmath's J_nu with k - 1 sign
    # changes on a grid below it (zeros are more than 3 apart)
    zeros = [special.bessel_zero(nu, k) for k in (1, 2, 3)]
    grid = [nu + 0.5 * i for i in range(int(2.0 * (zeros[-1] - nu)) + 2)]
    signs = [mpmath.sign(mpmath.besselj(nu, x)) for x in grid]
    changes = [x for x, a, b in zip(grid[1:], signs, signs[1:]) if a != b]
    assert len(changes) == 3
    for z, after in zip(zeros, changes):
        assert after - 0.5 < z < after
        below = mpmath.besselj(nu, z * (1.0 - REL))
        above = mpmath.besselj(nu, z * (1.0 + REL))
        assert mpmath.sign(below) != mpmath.sign(above)


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 2, 3])
def test_scan_regime_against_besseljzero(k, cold_cache):
    want = float(mpmath.besseljzero(500, k))
    assert special.bessel_zero(500, k) == pytest.approx(want, rel=REL)


@pytest.mark.parametrize("nu", [0.0, 2.5, 10.0])
@pytest.mark.parametrize("k", [13_000, 100_000])
def test_unrefined_asymptotic_branch(nu, k):
    # beyond 4e4 the expansion is returned without a Newton refinement
    assert (k + 0.5 * nu - 0.25) * math.pi > 4.0e4
    want = float(mpmath.besseljzero(nu, k))
    assert special.bessel_zero(nu, k) == pytest.approx(want, rel=REL)
