"""The Bessel layer against mpmath, an implementation independent of it.

Every zero is compared at 1e-14 relative, the accuracy `bessel_zero`
states: against 30-digit mpmath roots the largest error measured was
3.0e-16, over 257 zeros that include every zero compared here.
mpmath needs about 37 s for each zero of order 500, so the besseljzero
comparison of the scan regime is marked slow and deselected by default
(run it with `pytest -m slow`); an mpmath.besselj sign-change certificate
covers the same zeros in the default run.

Values J_nu(x) are compared over the whole public domain, nu <= 500 and
0 < x <= 1e4, relative to max(|J_nu(x)|, sqrt(2 / (pi x))): the envelope of
the oscillating region, so tiny values below the turning point and near
zeros are held to the accuracy of their neighbourhood.  Over 6,000 samples
drawn as below (seed 12) the largest error measured was 5.9e-14, at
x ~ 3,000-9,000 where rounding in the recurrence grows with x; the bound is
2e-13.
"""

import math
import random

import pytest

from kreinspec import special

mpmath = pytest.importorskip("mpmath")

REL = 1e-14
VALUE_REL = 2e-13


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
        # J moves by about |J'| z REL across this interval, of order 1e-13;
        # 30 digits keep the signs of the values well clear of rounding
        with mpmath.workdps(30):
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


@pytest.mark.parametrize("nu, x", [(1, 150.0), (60, 90.0), (0, 100.5), (4, 1000.0),
                                   (300, 340.0)])
def test_integer_orders_keep_the_tail_of_millers_sum(nu, x):
    # Miller's sum is cut off at the seed of the recurrence.  With the seed
    # 9 x^(1/3) orders past x these values were off by 1.0e-12, 3.6e-13,
    # 2.5e-13, 7.6e-13 and 5.4e-13 of the envelope; at 11 x^(1/3) by at
    # most 1.5e-15.
    with mpmath.workdps(30):
        want = float(mpmath.besselj(nu, x))
    scale = max(abs(want), math.sqrt(2.0 / (math.pi * x)))
    assert abs(special.bessel_j(nu, x) - want) / scale <= 1e-14


def envelope_errors(seed, samples, derivative=0):
    """Errors of bessel_j, or for derivative=1 of J' from `_eval_j_pair`, at
    seeded (nu, x) over the public domain: x drawn in turn log-uniform, near
    the turning point x ~ nu and uniform."""
    rng = random.Random(seed)
    errors = []
    for i in range(samples):
        twice = rng.randint(0, 1000)
        nu = twice / 2.0
        x = (10.0 ** rng.uniform(-3.0, 4.0),
             min(max(nu, 1.0) * rng.uniform(0.8, 1.5), 1.0e4),
             rng.uniform(1.0e-3, 1.0e4))[i % 3]
        with mpmath.workdps(30):
            want = float(mpmath.besselj(mpmath.mpf(twice) / 2, x, derivative=derivative))
        scale = max(abs(want), math.sqrt(2.0 / (math.pi * x)))
        if derivative:
            got = special._eval_j_pair(special.BesselOrder(twice), x)[1]
        else:
            got = special.bessel_j(nu, x)
        errors.append((abs(got - want) / scale, nu, x))
    return errors


def test_values_over_the_public_domain():
    worst = max(envelope_errors(seed=11, samples=90))
    assert worst[0] <= VALUE_REL, worst


def test_derivatives_over_the_public_domain():
    # J' = (J_{nu-1} - J_{nu+1}) / 2 with its l = 0 cases, the one derivative
    # rule of the module, against mpmath; the worst measured was 1.8e-14
    worst = max(envelope_errors(seed=13, samples=90, derivative=1))
    assert worst[0] <= VALUE_REL, worst


@pytest.mark.slow
def test_values_over_the_public_domain_wide():
    worst = max(envelope_errors(seed=12, samples=6000))
    assert worst[0] <= VALUE_REL, worst
