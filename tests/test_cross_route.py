"""The radial finite-difference route against the closed-form ball spectrum,
after Richardson extrapolation over doubling grids.

The first nonzero eigenvalue of channel (n, l) on the unit ball is
j_{nu,1}^2 with nu = l + (n-2)/2 for the Dirichlet condition and
nu = l + n/2 for the Krein condition.  The reference zeros come from the
series oracle, not from the library's Bessel layer.
"""

import pytest

from kreinspec import discretize as dz

from oracles import series_bessel_zero

SIZES = (100, 200, 400, 800)
# grid spacing on (0, 1): no node at R for the hard end, a node at R for the soft
SPACING = {"dirichlet": lambda m: 1.0 / (m + 1), "krein": lambda m: 1.0 / m}


def _study(n, ell, bc):
    twice_nu = 2 * ell + n - 2 + (2 if bc == "krein" else 0)
    target = series_bessel_zero(twice_nu, 1) ** 2
    report = dz.convergence_order(
        lambda m: dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, m, bc), 1)[0],
        SIZES, target, spacing=SPACING[bc],
    )
    return report, target


@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
def test_smooth_channel_extrapolates_to_bessel_zero(bc):
    # measured: order 2.000, Richardson error 2.4e-11 dirichlet, 1.9e-10 krein
    report, target = _study(3, 4, bc)
    assert report.order == pytest.approx(2.0, abs=0.01)
    assert report.richardson == pytest.approx(target, rel=1e-9)


# c = 3/4 for both channels, so they share one pencil.  Its solutions behave
# like r^(3/2) at the truncated origin, and the measured order stays below 2.
@pytest.mark.parametrize("bc, order", [("dirichlet", 1.921), ("krein", 1.941)])
@pytest.mark.parametrize("n, ell", [(2, 1), (4, 0)])
def test_three_quarter_channels_pin_measured_order(n, ell, bc, order):
    report, target = _study(n, ell, bc)
    assert report.order == pytest.approx(order, abs=0.01)
    assert report.richardson == pytest.approx(target, rel=1e-7)
