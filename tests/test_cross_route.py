"""The radial finite-difference route against the closed-form ball spectrum,
after Richardson extrapolation over doubling grids, and against itself
under a change of radius.

The first nonzero eigenvalue of channel (n, l) on the unit ball is
j_{nu,1}^2 with nu = l + (n-2)/2 for the Dirichlet condition and
nu = l + n/2 for the Krein condition.  The reference zeros come from the
series oracle or from mpmath, not from the library's Bessel layer.
"""

import math

import mpmath
import numpy as np
import pytest

from kreinspec import discretize as dz

from oracles import series_bessel_zero

SIZES = (100, 200, 400, 800)


def _twice_nu(n, ell, bc):
    return 2 * ell + n - 2 + (2 if bc == "krein" else 0)


def _study(n, ell, bc):
    target = series_bessel_zero(_twice_nu(n, ell, bc), 1) ** 2
    report = dz.convergence_order(
        lambda m: dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, m, bc), 1)[0],
        SIZES, target, spacing=lambda m: 1.0 / m,
    )
    return report, target


@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
def test_smooth_channel_extrapolates_to_bessel_zero(bc):
    # measured: order 2.000, Richardson error 5.3e-11 dirichlet, 1.4e-10 krein
    report, target = _study(3, 4, bc)
    assert report.order == pytest.approx(2.0, abs=0.01)
    assert report.richardson == pytest.approx(target, rel=1e-9)


# The disk's l = 0 channel, and the two channels with c = 3/4 in -f'' + c f / r^2
# (nu = 1 at the origin), converge at order 2 like every other channel.  Each
# Richardson bound is about three times the error measured here:
#   (2, 0) 1.8e-11 / 2.6e-11, (2, 1) 1.7e-11 / 3.0e-11 and
#   (4, 0) 4.0e-11 / 2.1e-10 (dirichlet / krein).
@pytest.mark.parametrize("n, ell, bc, rel", [
    pytest.param(n, ell, bc, rel, id=f"{n}-{ell}-{bc}")
    for n, ell, bc, rel in [
        (2, 0, "dirichlet", 6e-11), (2, 0, "krein", 8e-11),
        (2, 1, "dirichlet", 5e-11), (2, 1, "krein", 1e-10),
        (4, 0, "dirichlet", 1.2e-10), (4, 0, "krein", 6e-10),
    ]
])
def test_channel_converges_at_order_two(n, ell, bc, rel):
    report, target = _study(n, ell, bc)
    assert report.order == pytest.approx(2.0, abs=0.01)
    assert report.richardson == pytest.approx(target, rel=rel)


# Cells of width h = R/m and every entry a ratio over h^2: doubling R divides
# every entry, the Gershgorin ends and every Sturm pivot by exactly 4.  The
# multisection stop has no absolute part (discretize._stop_width), so every
# shift and bracket scales by 1/4 too, and so does every value, at any size.
@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("n, ell", [(2, 0), (3, 1)])
def test_doubling_the_radius_quarters_every_value(n, ell, bc):
    for radius in (0.25, 1.0, 8.0):
        values = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, radius, 400, bc), 20)
        doubled = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 2 * radius, 400, bc), 20)
        assert np.array_equal(doubled, values / 4)


# Coarse grids at large radii put eps ||T|| and the values far below 1, where
# a stop with an absolute part (1e-13 for |x| < 1) broke the exact scaling:
# 90 of these 96 doublings were off by up to 6.5e-11 relative.
@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("n, ell", [(2, 0), (3, 0), (3, 1), (4, 2)])
def test_doubling_a_large_radius_on_coarse_grids_quarters_every_value(n, ell, bc):
    for m in (8, 16, 32, 64):
        for radius in (4.0, 16.0, 64.0):
            values = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, radius, m, bc), 5)
            doubled = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 2 * radius, m, bc), 5)
            assert np.array_equal(doubled, values / 4)


# At R = 1e100 the squared entries of T, near 1/h^2 = 4e-196, underflowed in
# the Sturm pivots, and at R = 1e-100 they overflowed: R^2 lambda read
# 80006.4 and 6.09 for all three values.  Multisection now runs on T scaled
# near 1 by a power of two, so R^2 lambda is the unit ball's.
@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("radius", [1e100, 1e-100])
def test_wide_and_narrow_balls_give_the_unit_balls_values(radius, bc):
    unit = dz.radial_eigenvalues(dz.RadialChannelSpec(3, 2, 1.0, 200, bc), 3)
    scaled = dz.radial_eigenvalues(dz.RadialChannelSpec(3, 2, radius, 200, bc), 3)
    np.testing.assert_allclose(radius * radius * scaled, unit, rtol=1e-12, atol=0.0)


# The entries are ratios near 1 over h^2, so no face weight r^(n-1)
# underflows at high n.  The relative error of lambda stays below
# 0.09 lambda h^2 (0.081-0.083 measured).  mpmath takes about 0.4 s for the
# first zero of order 149 or 150, so n = 300 runs with the slow tests.
@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("n", [120, pytest.param(300, marks=pytest.mark.slow)])
def test_high_dimension_channel_is_finite_and_accurate(n, bc):
    m = 800
    h = 1.0 / m
    values = dz.radial_eigenvalues(dz.RadialChannelSpec(n, 0, 1.0, m, bc), 2)
    assert np.all(np.isfinite(values))
    for k, value in enumerate(values, start=1):
        want = float(mpmath.besseljzero(_twice_nu(n, 0, bc) / 2, k)) ** 2
        assert math.isclose(value, want, rel_tol=0.09 * want * h * h)
