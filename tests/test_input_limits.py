import math

import numpy as np
import pytest

from kreinspec import analysis as an
from kreinspec import discretize as dz
from kreinspec import special
from kreinspec import spectra as sp
from kreinspec.errors import DomainError

INF, NAN = math.inf, math.nan
UNIT_BALL = sp.BallSpec(2, 1.0)
UNIT_SEGMENT = sp.IntervalSpec(0.0, 1.0)

# Each call either returned a wrong answer or failed with an untyped error
# (OverflowError from math.ceil, IndexError, a NaN conversion message).
BAD_SIZES = {
    "radial-radius-inf": lambda: dz.radial_eigenvalues(
        dz.RadialChannelSpec(3, 1, INF, 10, "dirichlet"), 2),
    "grid-unbounded": lambda: dz.Grid1D(0.0, INF, 10),
    "interval-unbounded": lambda: sp.IntervalSpec(-INF, 0.0),
    "ball-radius-inf": lambda: sp.BallSpec(2, INF),
    "ball-lambda-inf": lambda: sp.ball_spectrum(UNIT_BALL, "dirichlet", INF),
    "ball-lambda-nan": lambda: sp.ball_spectrum(UNIT_BALL, "krein", NAN),
    "ball-counting-lambda-inf": lambda: an.ball_counting(UNIT_BALL, "krein", INF),
    "interval-counting-lambda-inf": lambda: an.interval_counting(UNIT_SEGMENT, "dirichlet", INF),
    "interval-counting-lambda-nan": lambda: an.interval_counting(UNIT_SEGMENT, "krein", NAN),
}

# Each call passed its checks and then failed with a bare TypeError inside
# numpy, range or a slice.
NON_INTEGER_COUNTS = {
    "grid-half-size": lambda: dz.Grid1D(0.0, 1.0, 10.5),
    "radial-half-size": lambda: dz.RadialChannelSpec(3, 1, 1.0, 10.5, "dirichlet"),
    "interval-dirichlet-half-count": lambda: sp.interval_dirichlet(UNIT_SEGMENT, 2.5),
    "interval-krein-half-count": lambda: sp.interval_krein(UNIT_SEGMENT, 2.5),
    "radial-half-count": lambda: dz.radial_eigenvalues(
        dz.RadialChannelSpec(3, 1, 1.0, 10, "dirichlet"), 2.5),
    "discrete-krein-half-count": lambda: dz.discrete_krein_spectrum(
        dz.interval_model(dz.Grid1D(0.0, 1.0, 10), dz.PotentialSpec.zero()), 2.5),
}

BAD_INDICES = {
    "tan-root-half-index": lambda: special.tan_fixed_point(2.5),
    "interval-krein-count-past-roots": lambda: sp.interval_krein(UNIT_SEGMENT, 10**12),
    "zero-half-index": lambda: special.bessel_zero(0, 2.5),
    "zero-order-nan": lambda: special.bessel_zero(NAN, 1),
    "value-order-inf": lambda: special.bessel_j(INF, 1.0),
}


STEPS = an.counting_from_spectrum(sp.Spectrum(((1.0, 1), (2.0, 3)), 0, 5.0))

# A NaN probe returned the full count; a short cumulative raised a bare
# IndexError on the first probe past it; the other tables were accepted and
# then counted wrong.
BAD_COUNTINGS = {
    "nan-probe": lambda: STEPS(NAN),
    "nan-in-probe-array": lambda: STEPS(np.array([1.5, NAN, 3.0])),
    "short-cumulative": lambda: an.CountingFunction((1.0, 2.0), (1,))(2.5),
    "descending-breakpoints": lambda: an.CountingFunction((2.0, 1.0), (1, 2)),
    "repeated-breakpoint": lambda: an.CountingFunction((1.0, 1.0), (1, 2)),
    "infinite-breakpoint": lambda: an.CountingFunction((1.0, INF), (1, 2)),
    "nan-breakpoint": lambda: an.CountingFunction((NAN, 1.0), (1, 2)),
    "decreasing-cumulative": lambda: an.CountingFunction((1.0, 2.0), (3, 2)),
    "negative-cumulative": lambda: an.CountingFunction((1.0,), (-1,)),
}

# Both constructed; the fault showed only later, as a non-finite breakpoint
# of the counting function built from them.
NON_FINITE_SPECTRA = {
    "nan-value": lambda: sp.Spectrum(((NAN, 1), (1.0, 2)), 0, 5.0),
    "inf-value": lambda: sp.Spectrum(((1.0, 1), (INF, 2)), 0, 5.0),
}


@pytest.mark.parametrize("call", BAD_COUNTINGS.values(), ids=BAD_COUNTINGS.keys())
def test_bad_counting_tables_and_probes_raise(call):
    with pytest.raises(ValueError, match="NaN|breakpoint|cumulative"):
        call()


@pytest.mark.parametrize("call", NON_FINITE_SPECTRA.values(), ids=NON_FINITE_SPECTRA.keys())
def test_non_finite_spectrum_values_raise(call):
    with pytest.raises(ValueError, match="non-finite value"):
        call()


@pytest.mark.parametrize("call", BAD_SIZES.values(), ids=BAD_SIZES.keys())
def test_non_finite_sizes_raise(call):
    with pytest.raises(ValueError, match="positive and finite|empty or unbounded"):
        call()


@pytest.mark.parametrize("call", NON_INTEGER_COUNTS.values(), ids=NON_INTEGER_COUNTS.keys())
def test_non_integer_sizes_and_counts_raise(call):
    with pytest.raises(ValueError, match="integer"):
        call()


@pytest.mark.parametrize("call", BAD_INDICES.values(), ids=BAD_INDICES.keys())
def test_bad_indices_and_orders_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_integral_float_index_matches_int():
    # order 100 takes the scan path, which indexes the cached zeros by k
    assert special.bessel_zero(100, 2.0) == special.bessel_zero(100, 2)
    assert special.tan_fixed_point(3.0) == special.tan_fixed_point(3)
