import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kreinspec import analysis as an
from kreinspec import discretize as dz
from kreinspec import errors
from kreinspec import extensions as ext
from kreinspec import linalg as la
from kreinspec import special
from kreinspec import spectra as sp
from kreinspec.errors import DomainError, InsufficientData, NotOrthogonal
from kreinspec.tolerances import ToleranceProfile
from oracles import remainder_sup_oracle

INF, NAN = math.inf, math.nan
UNIT_BALL = sp.BallSpec(2, 1.0)
UNIT_SEGMENT = sp.IntervalSpec(0.0, 1.0)


def _disk_inequalities(n, volume, k_max):
    soft = sp.ball_spectrum(UNIT_BALL, "krein", 200.0)
    hard = sp.ball_spectrum(UNIT_BALL, "dirichlet", 200.0)
    return an.universal_inequalities(soft, hard, n, volume, k_max)


# Each call either returned a wrong answer or failed with an untyped error
# (OverflowError from math.ceil, IndexError, a NaN conversion message): a
# NaN or infinite leading coefficient, a negative one for radius -1, and
# the isoperimetric bound reported as satisfied for volume -1.  True was
# read as 1.0 (a unit ball, lambda_max 1, J_0(1)), and the str argument
# raised a bare TypeError.
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
    "weyl-volume-nan": lambda: an.weyl_leading(2, NAN),
    "weyl-volume-inf": lambda: an.weyl_leading(2, INF),
    "two-term-radius-negative": lambda: an.two_term_ball_coefficients(3, -1.0, "krein"),
    "inequalities-volume-negative": lambda: _disk_inequalities(2, -1.0, 4),
    "ball-radius-true": lambda: sp.BallSpec(3, True),
    "ball-lambda-true": lambda: sp.ball_spectrum(UNIT_BALL, "dirichlet", True),
    "bessel-argument-true": lambda: special.bessel_j(0, True),
    "bessel-argument-str": lambda: special.bessel_j(0, "1"),
    # an int end past the doubles built an interval, and the grid spacing
    # or the spectra of it raised a bare OverflowError
    "interval-huge-int-end": lambda: sp.IntervalSpec(0, 10**400),
    "grid-huge-int-end": lambda: dz.Grid1D(0, 10**400, 8),
    # int ends that round to one double were accepted as an interval of
    # length 0.0, and its spectra raised a bare ZeroDivisionError
    "interval-ends-one-double": lambda: sp.IntervalSpec(2**53, 2**53 + 1),
    "interval-dirichlet-ends-one-double": lambda: sp.interval_dirichlet(
        sp.IntervalSpec(2**53, 2**53 + 1), 3),
}

# Each call passed its checks and then failed with a bare TypeError inside
# numpy, range, a slice or math.comb, or returned a number: radial spectra
# and interlacing reports of channels that do not exist, the volume of a
# 2.5-ball, and a convergence study that read size 100.9 as 100.
NON_INTEGER_COUNTS = {
    "grid-half-size": lambda: dz.Grid1D(0.0, 1.0, 10.5),
    "radial-half-size": lambda: dz.RadialChannelSpec(3, 1, 1.0, 10.5, "dirichlet"),
    "interval-dirichlet-half-count": lambda: sp.interval_dirichlet(UNIT_SEGMENT, 2.5),
    "interval-krein-half-count": lambda: sp.interval_krein(UNIT_SEGMENT, 2.5),
    "radial-half-count": lambda: dz.radial_eigenvalues(
        dz.RadialChannelSpec(3, 1, 1.0, 10, "dirichlet"), 2.5),
    "discrete-krein-half-count": lambda: dz.discrete_krein_spectrum(
        dz.interval_model(dz.Grid1D(0.0, 1.0, 10), dz.PotentialSpec.zero()), 2.5),
    "random-model-half-size": lambda: ext.random_model(1, 4.5, 2),
    "random-model-half-seed": lambda: ext.random_model(1.5, 4, 2),
    "random-model-bool-seed": lambda: ext.random_model(True, 4, 2),
    "radial-half-dimension": lambda: dz.RadialChannelSpec(3.5, 1, 1.0, 100, "dirichlet"),
    "radial-half-angular-index": lambda: dz.RadialChannelSpec(3, 1.5, 1.0, 100, "dirichlet"),
    "ball-float-dimension": lambda: sp.BallSpec(3.0, 1.0),
    "ball-half-dimension": lambda: sp.BallSpec(2.5, 1.0),
    "convergence-half-size": lambda: dz.convergence_order(
        lambda m: 1.0 + 1.0 / m, (100.9, 200, 400), 1.0),
    "ball-volume-half-dimension": lambda: an.unit_ball_volume(2.5),
    "weyl-half-dimension": lambda: an.weyl_leading(2.5, 1.0),
    "multiplicity-half-dimension": lambda: sp.ball_multiplicity(2.5, 1),
    "multiplicity-half-degree": lambda: sp.ball_multiplicity(3, 1.5),
    "multiplicity-float-dimension": lambda: sp.ball_multiplicity(3.0, 2),
    "interlace-half-channel": lambda: sp.channel_interlace_report(UNIT_BALL, 1.5, 2),
    "interlace-half-k-max": lambda: sp.channel_interlace_report(UNIT_BALL, 1, 2.5),
    "inequalities-half-k-max": lambda: _disk_inequalities(2, math.pi, 2.5),
    "inequalities-half-dimension": lambda: _disk_inequalities(2.5, math.pi, 4),
    "flattened-half-count": lambda: sp.Spectrum(((1.0, 2), (3.0, 1)), 0).flattened(1.5),
}

# Each returned a result: an interlacing report for the channel l = -1 of
# the 4-ball, a Weyl fit in dimension 0, and the spectrum without its last
# value for the count -1.
BELOW_RANGE = {
    "flattened-negative-count": lambda: sp.Spectrum(((1.0, 2), (3.0, 1)), 0).flattened(-1),
    "interlace-negative-channel": lambda: sp.channel_interlace_report(
        sp.BallSpec(4, 1.0), -1, 2),
    "weyl-fit-dimension-zero": lambda: an.weyl_fit(
        an.CountingFunction((1.0, 2.0), (1, 3)), 0, (1.0, 4.0)),
}

# The negative size returned an empty matrix and moved the stream back; the
# orders 12 and 10 failed inside numpy with "could not be broadcast"; a
# scalar basis or W raised IndexError, and a 3-D one failed inside numpy's
# matmul.
BAD_SHAPES = {
    "uniform-matrix-negative-rows": (
        lambda: ext.SplitMix64(1).uniform_matrix(-1, 2), "rows .* got -1"),
    "order-compare-12-vs-10": (
        lambda: ext.order_compare(ext.friedrichs(ext.random_model(1, 12, 6)),
                                  ext.friedrichs(ext.random_model(1, 10, 5)), 1.0),
        "orders 12 and 10"),
    "new-model-scalar-basis": (
        lambda: ext.new_model(np.eye(3), 1.0), r"basis must be 1-D or 2-D, got shape \(\)"),
    "new-model-3-d-basis": (
        lambda: ext.new_model(np.eye(3), np.ones((3, 1, 1))),
        r"basis must be 1-D or 2-D, got shape \(3, 1, 1\)"),
    "parametrized-scalar-w": (
        lambda: ext.parametrized_extension(ext.random_model(31, 8, 4), 1.0, 0.0),
        r"W must be 1-D or 2-D, got shape \(\)"),
    "parametrized-3-d-w": (
        lambda: ext.parametrized_extension(ext.random_model(31, 8, 4), np.ones((8, 1, 1)), 0.0),
        r"W must be 1-D or 2-D, got shape \(8, 1, 1\)"),
}

def _parametrized_31(b, nan_at=None):
    m = ext.random_model(31, 8, 4)
    w = ext.adjoint_kernel(m).copy()
    if nan_at is not None:
        w[nan_at] = NAN
    return ext.parametrized_extension(m, w, b)


# The NaN passed both W checks, since NaN > tol is False, and failed later
# in a QR with "only 0 of 4 columns are independent"; the 3 x 3 parameter
# for a 4-dimensional W failed inside numpy with "cannot reshape"; a W of 5
# orthonormal rows for 8 dimensions failed inside numpy's matmul.
BAD_EXTENSION_PARAMETERS = {
    "parametrized-w-5-rows-for-8": (
        lambda: ext.parametrized_extension(ext.random_model(31, 8, 4),
                                           np.ones((5, 1)) / math.sqrt(5), np.eye(1)),
        ValueError, "W rows 5 != ambient dimension 8"),
    "parametrized-nan-in-w": (
        lambda: _parametrized_31(np.eye(4), nan_at=(2, 1)), NotOrthogonal, "not orthonormal"),
    "parametrized-b-3-for-dim-w-4": (
        lambda: _parametrized_31(np.eye(3)), ValueError, "parameter order 3 != dim W = 4"),
}

# The str orders were read as numbers (j_{1/2,1} = pi and J_1(1)), the bool
# ones as 0 and 1; the order 3.5 built and then failed in bessel_j with a
# bare IndexError; the soft end at l = 2m raised a plain ValueError.
BAD_INDICES = {
    "tan-root-half-index": lambda: special.tan_fixed_point(2.5),
    "interval-krein-count-past-roots": lambda: sp.interval_krein(UNIT_SEGMENT, 10**12),
    "zero-half-index": lambda: special.bessel_zero(0, 2.5),
    "zero-order-nan": lambda: special.bessel_zero(NAN, 1),
    "value-order-inf": lambda: special.bessel_j(INF, 1.0),
    "zero-order-str": lambda: special.bessel_zero("0.5", 1),
    "value-order-str": lambda: special.bessel_j("1", 1.0),
    "zero-order-bool": lambda: special.bessel_zero(False, 1),
    "value-order-numpy-bool": lambda: special.bessel_j(np.True_, 1.0),
    "value-twice-order-3.5": lambda: special.bessel_j(special.BesselOrder(3.5), 1.0),
    "radial-soft-end-at-2m": lambda: dz.RadialChannelSpec(3, 32, 1.0, 16, "krein"),
}

# Each raised a bare OverflowError, converting the int to a float.
HUGE_ORDERS = {
    "value-order-huge-int": lambda: special.bessel_j(10**400, 1.0),
    "zero-order-huge-int": lambda: special.bessel_zero(10**400, 1),
    "zero-order-huge-negative-int": lambda: special.bessel_zero(-10**400, 1),
}


@pytest.mark.parametrize("call", HUGE_ORDERS.values(), ids=HUGE_ORDERS.keys())
def test_orders_past_the_doubles_are_no_half_integers(call):
    with pytest.raises(DomainError, match="neither integer nor half-integer"):
        call()


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
    # numpy's "could not convert string to float", a bare TypeError and a
    # bare OverflowError
    "str-breakpoint": lambda: an.CountingFunction(("a",), (1,)),
    "complex-breakpoint": lambda: an.CountingFunction((1j,), (1,)),
    "huge-int-breakpoint": lambda: an.CountingFunction((10**400,), (1,)),
}

# The multiplicity 2.7 was stored as 2, and the cumulative counts
# (1.5, 2.5) as (1, 2), so that function read 2 at 2.0.  2**70 and 2**63
# raised a bare OverflowError inside np.fromiter, a NaN numpy's own
# conversion message, and 2**64 - 1 wrapped to -1 and read as decreasing.
BAD_COUNTS = {
    "spectrum-fractional-multiplicity": lambda: sp.Spectrum(((1.0, 2.7),), 0),
    "spectrum-multiplicity-2-to-70": lambda: sp.Spectrum(((1.0, 1), (2.0, 2**70)), 0),
    "spectrum-multiplicity-2-to-63": lambda: sp.Spectrum(((1.0, 2**63),), 0),
    "spectrum-nan-multiplicity": lambda: sp.Spectrum(((1.0, NAN),), 0),
    "counting-fractional-cumulative": lambda: an.CountingFunction([1.0, 2.0], [1.5, 2.5]),
    "counting-cumulative-2-to-64": lambda: an.CountingFunction((1.0,), np.array([2**64 - 1])),
}


@pytest.mark.parametrize("call", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_non_integer_and_overflowing_counts_raise(call):
    with pytest.raises(ValueError, match=r"must be integers no larger than 2\^63 - 1"):
        call()


def test_integral_counts_of_any_type_are_kept():
    top = 2**63 - 1
    assert sp.Spectrum(((1.0, 2.0), (2.0, np.int32(3)), (3.0, top)), 0).entries == (
        (1.0, 2), (2.0, 3), (3.0, top))
    # a float among them must not make numpy round 2^62 + 1 to 2^62
    assert sp.Spectrum(((1.0, 2.0), (2.0, 2**62 + 1)), 0).entries[1][1] == 2**62 + 1
    counting = an.CountingFunction((1.0, 2.0), np.array([1.0, 3.0]))
    assert counting.cumulative.dtype == np.int64 and counting(2.0) == 3


# Each constructed: the public constructor took any kind and payload, and
# interval_model then put V = -1 on the diagonal (241.0 = 2/h^2 - 1 at
# Grid1D(0, 1, 10)) or a NaN that failed only as NoConvergence in a solve.
# The str "12" was read as the samples (1.0, 2.0) or as 12.0, and a bool as
# 1.0, except np.True_ as the whole potential, which raised a bare TypeError.
# 10**400 raised a bare OverflowError, and a 0-d array a bare TypeError.
BAD_POTENTIALS = {
    f"{kind}-{name}": (lambda kind=kind, bad=bad: dz.PotentialSpec(
        bad if kind == "constant" else (0.0,) * 9 + (bad,)))
    for kind in ("constant", "sampled")
    for name, bad in (("negative", -1.0), ("nan", NAN), ("inf", INF), ("minus-inf", -INF),
                      ("str", "12"), ("bool", True), ("numpy-bool", np.True_),
                      ("huge-int", 10**400), ("zero-d-array", np.array(1.0)))
}


@pytest.mark.parametrize("call", BAD_POTENTIALS.values(), ids=BAD_POTENTIALS.keys())
def test_negative_or_non_finite_potential_raises(call):
    with pytest.raises(ValueError, match="potential must be finite and >= 0"):
        call()


@pytest.mark.parametrize("rel", [0.0, -1e-9, NAN, INF])
def test_construction_threshold_must_be_positive_and_finite(rel):
    with pytest.raises(ValueError, match="construction_rel .* is not positive and finite"):
        ToleranceProfile(construction_rel=rel)


# Both constructed; the fault showed only later, as a non-finite breakpoint
# of the counting function built from them.
NON_FINITE_SPECTRA = {
    "nan-value": lambda: sp.Spectrum(((NAN, 1), (1.0, 2)), 0, 5.0),
    "inf-value": lambda: sp.Spectrum(((1.0, 1), (INF, 2)), 0, 5.0),
    # raised a bare OverflowError
    "huge-int-value": lambda: sp.Spectrum(((10**400, 1),), 0),
}

# Each constructed.  A NaN complete_below then read as no limit at all:
# counting_domination reported the pair below as satisfied with margin inf
# (with 10.0 in place of NaN it reads violated, margin -8), and weyl_fit
# fitted past the complete range.  kernel_dim -3 built a spectrum.  A
# Python True passed as kernel_dim (and was stored) and as complete_below
# (read as 1), while np.True_ raised.
BAD_COMPLETENESS = {
    "counting-complete-below-nan": lambda: an.counting_domination(
        an.CountingFunction((1.0, 2.0), (5, 9), complete_below=NAN),
        an.CountingFunction((1.5, 3.0), (1, 2), complete_below=10.0)),
    "weyl-fit-complete-below-nan": lambda: an.weyl_fit(
        an.CountingFunction((1.0, 2.0), (1, 3), complete_below=NAN), 2, (1.0, 4.0)),
    "counting-complete-below-zero": lambda: an.CountingFunction((1.0,), (1,), complete_below=0.0),
    "counting-complete-below-negative": lambda: an.CountingFunction((1.0,), (1,), complete_below=-1.0),
    "spectrum-complete-below-nan": lambda: sp.Spectrum(((1.0, 1),), 0, NAN),
    "spectrum-complete-below-negative": lambda: sp.Spectrum(((1.0, 1),), 0, -5.0),
    "spectrum-complete-below-true": lambda: sp.Spectrum(((1.0, 1),), 0, True),
    "spectrum-complete-below-numpy-true": lambda: sp.Spectrum(((1.0, 1),), 0, np.True_),
    "counting-complete-below-true": lambda: an.CountingFunction((1.0,), (1,), complete_below=True),
    "spectrum-kernel-negative": lambda: sp.Spectrum(((1.0, 1),), kernel_dim=-3),
    "spectrum-kernel-nan": lambda: sp.Spectrum(((1.0, 1),), kernel_dim=NAN),
    "spectrum-kernel-half": lambda: sp.Spectrum(((1.0, 1),), kernel_dim=1.5),
    "spectrum-kernel-negative-inf": lambda: sp.Spectrum(((1.0, 1),), kernel_dim=-INF),
    "spectrum-kernel-true": lambda: sp.Spectrum(((1.0, 1),), kernel_dim=True),
    "spectrum-kernel-numpy-true": lambda: sp.Spectrum(((1.0, 1),), kernel_dim=np.True_),
    # raised a bare OverflowError
    "spectrum-kernel-huge-int": lambda: sp.Spectrum(((1.0, 1),), kernel_dim=10**400),
}


@pytest.mark.parametrize("call", BAD_COMPLETENESS.values(), ids=BAD_COMPLETENESS.keys())
def test_bad_complete_below_and_kernel_dim_raise(call):
    with pytest.raises(ValueError, match="complete_below must be None or > 0|kernel_dim must be"):
        call()


def test_completeness_and_kernel_at_the_edges():
    assert an.CountingFunction((1.0,), (1,), complete_below=INF)(2.0) == 1
    spectrum = sp.Spectrum(((1.0, 1),), INF, INF)
    assert spectrum.kernel_dim == INF and spectrum.complete_below == INF
    assert sp.Spectrum(((1.0, 1),), np.int64(2), None).kernel_dim == 2
    assert sp.Spectrum(((1.0, 1),), 2.0).kernel_dim == 2


def _random_31():
    return ext.random_model(31, 8, 4)


# Input checks that no other test reached.  Each raises ValueError.
UNREACHED_CHECKS = {
    "two-term-bad-which": (
        lambda: an.two_term_ball_coefficients(3, 1.0, "neumann"), "which must be"),
    "interval-counting-bad-which": (
        lambda: an.interval_counting(UNIT_SEGMENT, "neumann", 10.0), "which must be"),
    "ball-spectrum-bad-which": (
        lambda: sp.ball_spectrum(UNIT_BALL, "neumann", 10.0), "which must be"),
    "radial-bad-bc": (
        lambda: dz.RadialChannelSpec(3, 1, 1.0, 10, "neumann"), "bc must be"),
    "sampled-potential-wrong-length": (
        lambda: dz.PotentialSpec.sampled([0.0] * 3).values_at(dz.Grid1D(0.0, 1.0, 10)),
        "3 values for 10 nodes"),
    "new-model-basis-rows": (
        lambda: ext.new_model(_random_31().A, np.eye(9, 2)), "basis rows 9 != ambient dimension 8"),
    "new-model-no-columns": (
        lambda: ext.new_model(_random_31().A, np.empty((8, 0))), "at least one column"),
    "sturm-offdiag-length": (
        lambda: la.sturm_count([1.0, 2.0], [0.5, 0.5], 0.0), "offdiag length 2 does not match order 2"),
    "spectrum-nonpositive-value": (
        lambda: sp.Spectrum(((0.0, 1), (1.0, 1)), 0), "nonpositive value"),
    "spectrum-not-increasing": (
        lambda: sp.Spectrum(((2.0, 1), (1.0, 1)), 0), "not strictly increasing"),
    "spectrum-zero-multiplicity": (
        lambda: sp.Spectrum(((1.0, 0),), 0), "nonpositive multiplicity"),
    # a bare TypeError (a float is not iterable), two bare unpacking
    # ValueErrors, and two "could not convert string to float"
    "spectrum-number-entries": (
        lambda: sp.Spectrum(1.0, 0), r"entries must be \(value, multiplicity\) pairs"),
    "spectrum-triple-entry": (
        lambda: sp.Spectrum([(1.0, 1, 2)], 0), r"entries must be \(value, multiplicity\) pairs"),
    "spectrum-str-entries": (
        lambda: sp.Spectrum("ab", 0), r"entries must be \(value, multiplicity\) pairs"),
    "sturm-2-d-diagonal": (
        lambda: la.sturm_count([[2.0, 2.0]], [1.0], 1.0),
        r"diag and offdiag must be 1-D, got shapes \(1, 2\) and \(1,\)"),
    "sturm-str-shift": (
        lambda: la.sturm_count([2.0, 2.0], [1.0], "a"), "shifts must be real numbers, got 'a'"),
    "counting-str-probe": (
        lambda: an.CountingFunction((1.0, 2.0), (1, 3))("a"), "probes must be real numbers, got 'a'"),
    # numpy's "could not convert string to float" (str), a bare TypeError
    # (complex), None read as NaN ("non-finite value") and True read as 1.0
    "spectrum-str-value": (
        lambda: sp.Spectrum([("a", 1)], 0), "spectrum values must be real numbers, got 'a' at index 0"),
    "spectrum-complex-value": (
        lambda: sp.Spectrum([(1j, 1)], 0), "spectrum values must be real numbers"),
    "spectrum-none-value": (
        lambda: sp.Spectrum([(None, 1)], 0), "spectrum values must be real numbers"),
    "spectrum-bool-value": (
        lambda: sp.Spectrum([(True, 1)], 0), "spectrum values must be real numbers"),
    "sturm-str-diagonal": (
        lambda: la.sturm_count(["a", 2.0], [1.0], 1.0), "diag must be real numbers"),
    "sym-matrix-str-entry": (
        lambda: la.SymMatrix([["a"]]), "matrix entries must be real numbers"),
    "new-model-str-basis": (
        lambda: ext.new_model(np.eye(3), [["a"], [0.0], [1.0]]), "basis must be real numbers"),
    # each message held the whole argument, 888,942 and 500,036 characters
    "spectrum-str-value-after-100000": (
        lambda: sp.Spectrum([(1.0 + i, 1) for i in range(100_000)] + [("a", 1)], 0),
        "^spectrum values must be real numbers, got 'a' at index 100000$"),
    "sturm-str-diagonal-after-100000": (
        lambda: la.sturm_count([1.0] * 100_000 + ["a"], [0.5] * 100_000, 1.0),
        "^diag must be real numbers, got 'a' at index 100000$"),
    # each message held the whole repr, 1,000,055, 1,000,035 and 1,000,045
    # characters; it shows the first 80 and keeps the index
    "spectrum-long-str-value": (
        lambda: sp.Spectrum([("a" * 10**6, 1)], 0),
        r"^spectrum values must be real numbers, got 'a{79}\.\.\. at index 0$"),
    "sturm-long-str-shift": (
        lambda: la.sturm_count([1.0, 2.0], [0.5], "x" * 10**6),
        r"^shifts must be real numbers, got 'x{79}\.\.\.$"),
    "radial-long-str-angular-index": (
        lambda: dz.RadialChannelSpec(3, "y" * 10**6, 1.0, 8, "krein"),
        r"^channel index must be an integer >= 0, got 'y{79}\.\.\.$"),
}


@pytest.mark.parametrize("call, message", UNREACHED_CHECKS.values(), ids=UNREACHED_CHECKS.keys())
def test_unreached_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# A NaN or an infinite basis entry is a bad input, not a rank-deficient
# basis: it raises ValueError naming the entry, before the Gram test.
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_basis_raises_value_error(bad):
    with pytest.raises(ValueError, match=rf"non-finite entries, the first {bad} at row 1, column 0"):
        ext.new_model(np.eye(3), [[1.0], [bad], [0.0]])
    with pytest.raises(ValueError, match=rf"non-finite entries, the first {bad} at row 0, column 1"):
        ext.new_model(np.eye(4), [[1.0, bad], [0.0, 1.0], [bad, bad], [0.0, 0.0]])


def test_one_dimensional_bases_are_one_column():
    model = _random_31()
    column = model.domain_basis[:, :1]
    assert np.array_equal(ext.new_model(model.A, column[:, 0]).domain_basis,
                          ext.new_model(model.A, column).domain_basis)
    w = ext.adjoint_kernel(model)[:, :1]
    assert np.array_equal(ext.parametrized_extension(model, w[:, 0], np.eye(1)).matrix.array,
                          ext.parametrized_extension(model, w, np.eye(1)).matrix.array)


# Each returned a count: [0 0] for the NaN diagonal, 0 for the NaN
# off-diagonal and the infinite diagonal, 1 for the infinite off-diagonal.
NON_FINITE_TRIDIAGONALS = {
    "sturm-nan-diagonal": lambda: la.sturm_count([NAN] * 3, [0.1, 0.1], [0.5, 3.0]),
    "sturm-nan-offdiagonal": lambda: la.sturm_count([1.0, 2.0], [NAN], 0.5),
    "sturm-inf-diagonal": lambda: la.sturm_count([1.0, INF], [0.5], 0.5),
    "sturm-inf-offdiagonal": lambda: la.sturm_count([1.0, 2.0], [INF], 0.5),
}


@pytest.mark.parametrize("call", NON_FINITE_TRIDIAGONALS.values(),
                         ids=NON_FINITE_TRIDIAGONALS.keys())
def test_non_finite_tridiagonal_raises(call):
    with pytest.raises(ValueError, match="non-finite entries"):
        call()


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


@pytest.mark.parametrize("call", BELOW_RANGE.values(), ids=BELOW_RANGE.keys())
def test_dimensions_and_channels_below_range_raise(call):
    with pytest.raises(ValueError, match="must be an integer >= "):
        call()


@pytest.mark.parametrize("call, message", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
def test_bad_shapes_raise_before_any_work(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, error, message", BAD_EXTENSION_PARAMETERS.values(),
                         ids=BAD_EXTENSION_PARAMETERS.keys())
def test_bad_extension_parameters_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call", BAD_INDICES.values(), ids=BAD_INDICES.keys())
def test_bad_indices_and_orders_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


# An integral float index was read as its int; it is no integer here, as at
# every other integer site.  Order 100 takes the scan path, which indexes
# the cached zeros by k.
@pytest.mark.parametrize("call", [
    pytest.param(lambda: special.bessel_zero(100, 2.0), id="zero-index"),
    pytest.param(lambda: special.tan_fixed_point(3.0), id="tan-root-index"),
    pytest.param(lambda: special.tan_fixed_point(np.array([1.0, 2.0])), id="tan-root-indices"),
])
def test_integral_float_index_raises(call):
    with pytest.raises(DomainError, match=r"must be an integer in 1\.\.100000, got"):
        call()


# Both built an interval: ("a", "b") raised a bare TypeError in the
# comparison, and (False, True) was read as (0, 1).
NON_REAL_ENDS = {
    "str-ends": lambda: sp.IntervalSpec("a", "b"),
    "bool-ends": lambda: sp.IntervalSpec(False, True),
    "numpy-bool-ends": lambda: sp.IntervalSpec(np.False_, np.True_),
    "grid-bool-end": lambda: dz.Grid1D(0.0, True, 10),
}


@pytest.mark.parametrize("call", NON_REAL_ENDS.values(), ids=NON_REAL_ENDS.keys())
def test_interval_ends_must_be_real_numbers(call):
    with pytest.raises(DomainError, match="interval ends must be real numbers"):
        call()


def test_interlace_k_max_past_the_zero_index_raises_at_once(monkeypatch):
    # k_max = 100,000 asks for j_{nu,100001}, past bessel_zero's index
    # limit: the call computed about 200,000 zeros, for minutes, first
    def no_zeros(*args):
        raise AssertionError("zeros computed before the k_max check")

    monkeypatch.setattr(special, "bessel_zero", no_zeros)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"k_max must be an integer in 1\.\.99999, got 100000"):
        sp.channel_interlace_report(UNIT_BALL, 0, 100_000)
    assert time.perf_counter() - start < 1.0


def test_interlace_soft_order_past_the_cap_raises_at_once(monkeypatch):
    # nu = 500 is the last order, so nu + 1 is past the cap: the call
    # computed all 2001 zeros of nu = 500 first (over a second, cold) and
    # only then raised, at the first zero of nu + 1
    monkeypatch.setattr(special, "_zero_cache", {})
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"twice the order must be an integer in 0\.\.1000, got 1002"):
        sp.channel_interlace_report(sp.BallSpec(2, 1.0), 500, 2000)
    assert time.perf_counter() - start < 0.1


def test_seeds_are_masked_to_64_bits():
    # every integer seed but a bool (see NON_INTEGER_COUNTS), negative and
    # numpy ones included
    assert ext.SplitMix64(-1).next_u64() == ext.SplitMix64(2**64 - 1).next_u64()
    assert ext.SplitMix64(2**64 + 7).next_u64() == ext.SplitMix64(np.uint8(7)).next_u64()


def test_numpy_integer_dimensions_match_int():
    spec = dz.RadialChannelSpec(np.int64(3), np.int64(1), 1.0, 100, "dirichlet")
    want = dz.radial_eigenvalues(dz.RadialChannelSpec(3, 1, 1.0, 100, "dirichlet"), 3)
    assert np.array_equal(dz.radial_eigenvalues(spec, 3), want)
    got = sp.ball_spectrum(sp.BallSpec(np.int64(3), 1.0), "krein", 200.0)
    assert got == sp.ball_spectrum(sp.BallSpec(3, 1.0), "krein", 200.0)


# A NaN value gave a report with order NaN, since every comparison of the
# monotonicity check is False for NaN; an infinite value or target raised
# NonMonotoneError, as if the study had run and diverged.
NON_FINITE_STUDIES = {
    "convergence-nan-values": (
        lambda: dz.convergence_order(lambda m: NAN, (100, 200, 400), 1.0),
        InsufficientData, "size 100"),
    "convergence-nan-at-finest": (
        lambda: dz.convergence_order(lambda m: NAN if m == 400 else 1.0 + 1.0 / m,
                                     (100, 200, 400), 1.0),
        InsufficientData, "size 400"),
    "convergence-inf-in-middle": (
        lambda: dz.convergence_order(lambda m: INF if m == 200 else 1.0 + 1.0 / m,
                                     (100, 200, 400), 1.0),
        InsufficientData, "size 200"),
    "convergence-nan-target": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (100, 200, 400), NAN),
        ValueError, "target nan is not finite"),
    "convergence-inf-target": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (100, 200, 400), INF),
        ValueError, "target inf is not finite"),
    # True was read as 1 (order 1.07), "1" raised a bare TypeError and
    # 10**400 a bare OverflowError
    "convergence-bool-target": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (8, 16, 32), True),
        DomainError, "target True is not a real number"),
    "convergence-str-target": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (8, 16, 32), "1"),
        DomainError, "target '1' is not a real number"),
    "convergence-huge-int-target": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (8, 16, 32), 10**400),
        ValueError, "target inf is not finite"),
    # a run value "x" raised a bare TypeError, 10**400 + m a bare
    # OverflowError, and True was read as 1
    "convergence-str-value": (
        lambda: dz.convergence_order(lambda m: "x", (8, 16, 32), 1.0),
        ValueError, "size 8 gave 'x', not a real number"),
    "convergence-bool-value": (
        lambda: dz.convergence_order(lambda m: m > 8, (8, 16, 32), 1.0),
        ValueError, "size 8 gave False, not a real number"),
    "convergence-huge-int-value": (
        lambda: dz.convergence_order(lambda m: 10**400 + m, (8, 16, 32), 1.0),
        InsufficientData, "size 8 gave the value inf"),
    # bare TypeErrors
    "convergence-complex-value": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0j / m, (8, 16, 32), 1.0),
        ValueError, r"size 8 gave \(1\+0.125j\), not a real number"),
    "convergence-array-value": (
        lambda: dz.convergence_order(lambda m: np.full(2, 1.0 + 1.0 / m), (8, 16, 32), 1.0),
        ValueError, "size 8 gave array.*, not a real number"),
}


@pytest.mark.parametrize("call, error, message", NON_FINITE_STUDIES.values(),
                         ids=NON_FINITE_STUDIES.keys())
def test_non_finite_convergence_data_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


# Sizes (-1, -2, -4) raised a bare ZeroDivisionError, and (-4, -8, -16) a
# RuntimeWarning from np.log, or outside pytest a NaN order; a spacing that
# is not finite and positive reached np.log and np.polyfit unchecked.
BAD_STUDY_SIZES = {
    "convergence-sizes-minus-1": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (-1, -2, -4), 1.0),
        "size must be an integer >= 1, got -1"),
    "convergence-sizes-minus-4": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (-4, -8, -16), 1.0),
        "size must be an integer >= 1, got -4"),
    "convergence-size-0": (
        lambda: dz.convergence_order(lambda m: 1.0, (0, 0, 0), 1.0),
        "size must be an integer >= 1, got 0"),
    # a bare TypeError
    "convergence-sizes-number": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, 100, 1.0),
        "sizes must be a sequence of integers, got 100"),
    "convergence-spacing-zero": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (100, 200, 400), 1.0,
                                     spacing=lambda m: 0.0), "spacing must be finite and positive"),
    "convergence-spacing-negative": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (100, 200, 400), 1.0,
                                     spacing=lambda m: -1.0 / m), "spacing must be finite and positive"),
    "convergence-spacing-nan": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (100, 200, 400), 1.0,
                                     spacing=lambda m: NAN), "spacing must be finite and positive"),
    "convergence-spacing-inf": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (100, 200, 400), 1.0,
                                     spacing=lambda m: INF), "spacing must be finite and positive"),
    # a str was read as its number, an array raised a bare TypeError
    "convergence-spacing-str": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (100, 200, 400), 1.0,
                                     spacing=lambda m: str(1.0 / m)),
        "spacing must be finite and positive, got \\('0.01', "),
    "convergence-spacing-array": (
        lambda: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (100, 200, 400), 1.0,
                                     spacing=lambda m: np.full(2, 1.0 / m)),
        "spacing must be finite and positive, got \\(array"),
}


@pytest.mark.parametrize("call, message", BAD_STUDY_SIZES.values(), ids=BAD_STUDY_SIZES.keys())
def test_bad_study_sizes_and_spacings_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_exact_hit_in_convergence_study_names_its_size():
    # The error 0 at size 400 gave a RuntimeWarning from log(0), and without
    # the warning filter a report with order and Richardson value NaN.
    with pytest.raises(InsufficientData, match="size 400"):
        dz.convergence_order(lambda m: 1.0 if m == 400 else 1.0 + 1.0 / m,
                             (100, 200, 400), 1.0)


def test_flattened_counts_at_the_edges():
    spectrum = sp.Spectrum(((1.0, 2), (3.0, 1)), 0)
    assert spectrum.flattened(0) == []
    assert spectrum.flattened(np.int64(2)) == [1.0, 1.0]
    assert spectrum.flattened(5) == spectrum.flattened() == [1.0, 1.0, 3.0]


def test_flattened_builds_only_the_values_asked_for():
    # the entry crossing count was built whole: multiplicity 2**62 raised
    # MemoryError
    assert sp.Spectrum(((1.0, 1), (2.0, 2**62)), 0).flattened(3) == [1.0, 2.0, 2.0]


# The non-finite pairs returned a fit whose remainder slope was NaN; the
# others failed while unpacking the pair or inside a numpy multiply.
BAD_LAWS = {
    "weyl-fit-nan-lead": (NAN, 0.0),
    "weyl-fit-inf-second": (1.0, -INF),
    "weyl-fit-three-coefficients": (1.0, 0.0, 0.0),
    "weyl-fit-string-coefficient": ("1", 0.0),
    # accepted as (1, 0), and a bare OverflowError
    "weyl-fit-bool-coefficients": (True, False),
    "weyl-fit-huge-int-coefficient": (10**400, 0.0),
    # a bare TypeError from len()
    "weyl-fit-number": 5,
    "weyl-fit-zero-d-array": np.array(5.0),
}


@pytest.mark.parametrize("analytic", BAD_LAWS.values(), ids=BAD_LAWS.keys())
def test_bad_weyl_law_raises(analytic):
    with pytest.raises(ValueError, match="analytic must be a pair of finite numbers"):
        an.weyl_fit(STEPS, 2, (1.0, 4.0), analytic=analytic)


# Past lambda^n ~ 1e308 the normal equations overflowed at x1 @ x1, and the
# fit returned NaN coefficients after a RuntimeWarning.  The fit now runs in
# lambda / 2^k, 2^k near the window top, so this one is finite.
TWO_STEPS = an.CountingFunction((1.0, 2.0), (1, 3))

# A window with an infinite top reached np.linspace: under the RuntimeWarning
# filter it raised "invalid value encountered in multiply", and without it
# ValueError "NaN probe of a counting function".
UNBOUNDED_WINDOWS = {
    "weyl-fit-window-to-inf": lambda: an.weyl_fit(TWO_STEPS, 2, (1.0, INF)),
    "weyl-fit-window-to-inf-complete-inf": lambda: an.weyl_fit(
        an.CountingFunction((1.0, 2.0), (1, 3), complete_below=INF), 2, (1.0, INF)),
    # raised a bare OverflowError
    "weyl-fit-window-to-huge-int": lambda: an.weyl_fit(TWO_STEPS, 2, (1, 10**400)),
}


@pytest.mark.parametrize("call", UNBOUNDED_WINDOWS.values(), ids=UNBOUNDED_WINDOWS.keys())
def test_unbounded_weyl_window_raises_insufficient_data(call):
    with pytest.raises(InsufficientData, match="empty window"):
        call()


# True and the strs were read as numbers and fitted (c_lead 0.244 on a disk
# counting function); np.True_ was read as 1, the empty window (1, 1).  A
# number or None raised a bare TypeError, one end a bare IndexError, and
# three ends were fitted on the first two.
NON_REAL_WINDOWS = {
    "weyl-fit-bool-window-end": ((True, 1e3), "window end True is not a real number"),
    "weyl-fit-numpy-bool-window-end": ((1.0, np.True_), "window end .*True_? is not a real number"),
    "weyl-fit-str-window": (("1", "1000"), "window end '1' is not a real number"),
    "weyl-fit-number-window": (5, r"window must be a pair \(lo, hi\), got 5"),
    "weyl-fit-none-window": (None, r"window must be a pair \(lo, hi\), got None"),
    "weyl-fit-one-end-window": ((1.0,), r"window must be a pair \(lo, hi\), got \(1.0,\)"),
    "weyl-fit-three-end-window": ((1.0, 2.0, 3.0), r"window must be a pair \(lo, hi\)"),
}


@pytest.mark.parametrize("window, message", NON_REAL_WINDOWS.values(), ids=NON_REAL_WINDOWS.keys())
def test_weyl_window_ends_must_be_real_numbers(window, message):
    with pytest.raises(DomainError, match=message):
        an.weyl_fit(TWO_STEPS, 2, window)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weyl_fit_past_the_double_range_of_lambda_powers():
    fit = an.weyl_fit(TWO_STEPS, 300, (1.0, 20.0))
    assert math.isfinite(fit.c_lead) and math.isfinite(fit.c_second)
    want = remainder_sup_oracle([1.0, 2.0], [1, 3], 300, 1.0, 20.0, fit.c_lead, fit.c_second)
    assert fit.remainder_sup == pytest.approx(want, rel=1e-12)


# Coefficients that are no double even when the fit is scaled: c_lead about
# -9e-44 * 2^-2000, about -1e15 * 2^149100 and about -2e-89 * 2^-4000 (the
# last once overflowed the closed-form normal equations), and a power column
# that overflows at the window scale itself, (lambda / 4)^1500 on (1, 7.9),
# where a bare least-squares solve raised LinAlgError.
UNREPRESENTABLE_WEYL_FITS = {
    "weyl-fit-lead-underflows": lambda: an.weyl_fit(TWO_STEPS, 1000, (1.0, 20.0)),
    "weyl-fit-lead-overflows": lambda: an.weyl_fit(
        an.CountingFunction((1e-300, 2e-300), (1, 3)), 300, (1e-300, 5e-300)),
    "weyl-fit-normal-equations-overflow": lambda: an.weyl_fit(TWO_STEPS, 2000, (1.0, 20.0)),
    "weyl-fit-power-column-overflows": lambda: an.weyl_fit(TWO_STEPS, 3000, (1.0, 7.9)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", UNREPRESENTABLE_WEYL_FITS.values(),
                         ids=UNREPRESENTABLE_WEYL_FITS.keys())
def test_unrepresentable_weyl_fit_raises_domain_error(call):
    with pytest.raises(DomainError, match="not a finite double"):
        call()


def test_overflowing_weyl_law_raises_domain_error():
    with pytest.raises(DomainError, match=r"Weyl law \(1e\+300, 0.0\) overflows"):
        an.weyl_fit(TWO_STEPS, 2, (1.0, 1e300), analytic=(1e300, 0.0))


# d_{60,l} passes 2^63 - 1 at l = 21; each call raised a bare
# OverflowError, and the spectra only after a full scan of Bessel zeros.
OVERFLOWING_MULTIPLICITIES = {
    "multiplicity-60-40": lambda: sp.ball_multiplicity(60, 40),
    "ball-spectrum-60": lambda: sp.ball_spectrum(sp.BallSpec(60, 1.0), "krein", 1e4),
    "ball-counting-60": lambda: an.ball_counting(sp.BallSpec(60, 1.0), "dirichlet", 1e4),
    "sandwich-60": lambda: an.sandwich_check(60, 1.0, 1e4),
}


@pytest.mark.parametrize("call", OVERFLOWING_MULTIPLICITIES.values(),
                         ids=OVERFLOWING_MULTIPLICITIES.keys())
def test_overflowing_multiplicity_raises_before_the_zero_scan(call, monkeypatch):
    def no_scan(*args):
        raise AssertionError("Bessel zeros scanned before the multiplicity check")

    monkeypatch.setattr(sp, "_family_zeros", no_scan)
    with pytest.raises(DomainError, match=r"exceeds 2\^63 - 1"):
        call()


# Each failed with an untyped error: (pi / 1e-160)^2 overflowed in libm's
# pow (OverflowError) and in numpy's square (a RuntimeWarning, then "non-
# finite value"), (2 pi / 1e200)^2 and (pi / 1e200)^2 underflowed to 0
# ("nonpositive value"), the ball's channel range for R = 1e200 overflowed
# len() and for sqrt(lambda) R = inf math.ceil before the order cap was
# checked, and exp overflowed in the coefficients for R = 1e300.
RANGE_LIMITS = {
    "interval-dirichlet-length-1e-160": (
        lambda: sp.interval_dirichlet(sp.IntervalSpec(0.0, 1e-160), 1), r"\[1e-300, 1e300\]"),
    "interval-krein-length-1e-160": (
        lambda: sp.interval_krein(sp.IntervalSpec(0.0, 1e-160), 1), r"\[1e-300, 1e300\]"),
    "interval-dirichlet-length-1e200": (
        lambda: sp.interval_dirichlet(sp.IntervalSpec(0.0, 1e200), 1), r"\[1e-300, 1e300\]"),
    "interval-krein-length-1e200": (
        lambda: sp.interval_krein(sp.IntervalSpec(0.0, 1e200), 1), r"\[1e-300, 1e300\]"),
    # int ends whose difference is past the doubles: a bare OverflowError
    "interval-krein-int-length-past-the-doubles": (
        lambda: sp.interval_krein(sp.IntervalSpec(-10**308, 10**308), 1), r"\[1e-300, 1e300\]"),
    "ball-spectrum-radius-1e200": (
        lambda: sp.ball_spectrum(sp.BallSpec(3, 1e200), "krein", 1.0), "past the limit 500"),
    "ball-spectrum-limit-inf": (
        lambda: sp.ball_spectrum(sp.BallSpec(2, 1e300), "dirichlet", 1e300), "past the limit 500"),
    "two-term-radius-1e300": (
        lambda: an.two_term_ball_coefficients(3, 1e300, "krein"), "largest double"),
    # L sqrt(lam_max) / pi = 1e450 / pi values below lam_max
    "interval-counting-limit-inf": (
        lambda: an.interval_counting(sp.IntervalSpec(0.0, 1e300), "dirichlet", 1e300), "lam_max"),
    # 1,244 values from 5.78e-310 up, subnormal doubles
    "ball-spectrum-radius-1e155": (
        lambda: sp.ball_spectrum(sp.BallSpec(2, 1e155), "dirichlet", 1e-306), "below 1e-300"),
    # h = R/m with h^2 or 1/h^2 past the normal doubles: 1/h^2 overflowed in
    # radial_pencil (non-finite entries), (R/m)^2 raised a bare OverflowError,
    # and 1/h^2 = 6.4e-309 gave a subnormal value without a word
    "radial-radius-1e-160": (
        lambda: dz.RadialChannelSpec(3, 2, 1e-160, 200, "dirichlet"), "radius 1e-160 over m=200"),
    "radial-radius-1e300": (
        lambda: dz.RadialChannelSpec(3, 2, 1e300, 8, "krein"), "radius 1e\\+300 over m=8"),
    "radial-radius-1e155": (
        lambda: dz.RadialChannelSpec(3, 2, 1e155, 8, "dirichlet"), "normal doubles"),
    # a channel whose largest entry leaves the doubles: n or l(l + n - 2)
    # past them raised a bare OverflowError, and at l = 10^153 or h^2 =
    # 2^-1022 the diagonal overflowed with a RuntimeWarning
    "radial-channel-index-10-to-200": (
        lambda: dz.radial_eigenvalues(dz.RadialChannelSpec(3, 10**200, 1.0, 8, "dirichlet"), 1),
        "largest pencil entry past the doubles"),
    "radial-dimension-10-to-400": (
        lambda: dz.radial_eigenvalues(dz.RadialChannelSpec(10**400, 0, 1.0, 8, "dirichlet"), 1),
        "largest pencil entry past the doubles"),
    "radial-channel-index-10-to-153": (
        lambda: dz.radial_pencil(dz.RadialChannelSpec(3, 10**153, 1.0, 8, "dirichlet"))
        .reduced_tridiagonal(), "largest pencil entry past the doubles"),
    "radial-channel-index-10-to-160-wide": (
        lambda: dz.radial_eigenvalues(dz.RadialChannelSpec(3, 10**160, 2.0**303, 8, "dirichlet"), 1),
        "largest pencil entry past the doubles"),
    "radial-radius-at-the-edge-l-2": (
        lambda: dz.radial_eigenvalues(dz.RadialChannelSpec(3, 2, 8 * 2.0**-511, 8, "dirichlet"), 1),
        r"n=3, l=2, radius .* and m=8 put the largest pencil entry past the doubles"),
    # the top eigenvalue of a channel whose entries are doubles passed them
    # once scaled back: inf, with a RuntimeWarning from the divide
    "radial-top-eigenvalue-past-the-doubles-n-2": (
        lambda: dz.radial_eigenvalues(dz.RadialChannelSpec(2, 0, 8 * 2.0**-511, 8, "dirichlet"), 8),
        r"eigenvalue 8 of the dirichlet channel n=2, l=0, radius .* and m=8 is past the largest"),
    "radial-top-eigenvalue-past-the-doubles-n-3": (
        lambda: dz.radial_eigenvalues(dz.RadialChannelSpec(3, 0, 8 * 2.0**-511, 8, "dirichlet"), 8),
        r"eigenvalue 8 of the dirichlet channel n=3, l=0, radius .* and m=8 is past the largest"),
    "radial-top-eigenvalue-past-the-doubles-krein": (
        lambda: dz.radial_eigenvalues(dz.RadialChannelSpec(3, 0, 8 * 2.0**-511, 8, "krein"), 7),
        r"eigenvalue 7 of the krein channel n=3, l=0, radius .* and m=8 is past the largest"),
}


@pytest.mark.parametrize("call, message", RANGE_LIMITS.values(), ids=RANGE_LIMITS.keys())
def test_closed_forms_raise_domain_error_at_their_range_limits(call, message, monkeypatch):
    def no_roots(*args):
        raise AssertionError("roots computed before the range check")

    monkeypatch.setattr(sp, "tan_fixed_point", no_roots)
    monkeypatch.setattr(sp, "_family_zeros", no_roots)
    with pytest.raises(DomainError, match=message):
        call()


# RadialChannelSpec refuses a channel unless max(n + 4 l (l + n - 2), 3.15)
# / h^2, and that factor, are doubles.  No entry of the pencil or of its
# reduced form passes the bound, and the first cell's reaches it unless the
# hard end's 3.15 rules (both to a few ulps).  At the edge of the radius
# range, where 1/h^2 = 2^1022, the l = 0 channels of n = 2 and 3 still
# solve; n = 4 is refused there, whose first entry is 2^1024, but not 2 %
# further in, where it solves.
def test_radial_entries_lie_under_the_checked_bound():
    ulps = 4.0 * np.finfo(float).eps
    for n in (2, 3, 4, 7, 50, 300):
        for m in (8, 9, 100, 800):
            for ell in sorted({ell for ell in (0, 1, 2, 5, 20, 399, m - 1, 2 * m - 1) if ell < 2 * m}):
                first = (n + 4 * ell * (ell + n - 2)) * m * m
                bound = max(first, 3.15 * m * m)
                for bc in ("dirichlet", "krein"):
                    pencil = dz.radial_pencil(dz.RadialChannelSpec(n, ell, 1.0, m, bc))
                    d, e = pencil.reduced_tridiagonal()
                    top = max(np.abs(x).max() for x in (pencil.diagonal, pencil.offdiagonal, d, e))
                    assert first <= top * (1.0 + ulps) and top <= bound * (1.0 + ulps), (n, ell, m, bc)
    edge = 8 * 2.0**-511
    for n, value in ((2, "0x1.704d6165a89c4p+1018"), (3, "0x1.39702b9503092p+1019")):
        found = dz.radial_eigenvalues(dz.RadialChannelSpec(n, 0, edge, 8, "dirichlet"), 1)
        assert found.tolist() == [float.fromhex(value)]
    with pytest.raises(DomainError, match="largest pencil entry past the doubles"):
        dz.RadialChannelSpec(4, 0, edge, 8, "dirichlet")
    assert np.isfinite(dz.radial_eigenvalues(dz.RadialChannelSpec(4, 0, 1.02 * edge, 8, "dirichlet"), 1))


class _Unbuilt(int):
    """A count whose first addition, where the values are built, fails."""

    def __add__(self, other):
        raise AssertionError("values built before the count check")


@pytest.mark.parametrize("which", ["dirichlet", "krein"])
def test_one_count_limit_for_both_interval_conditions(which):
    build = getattr(sp, f"interval_{which}")
    assert len(build(UNIT_SEGMENT, 200_000).entries) == 200_000
    with pytest.raises(DomainError, match="count 200001 exceeds the limit of 200000"):
        build(UNIT_SEGMENT, _Unbuilt(200_001))
    # 318,312 Dirichlet values and 318,314 Krein values at lambda = 1e12
    with pytest.raises(DomainError, match="exceeds the limit of 200000"):
        an.interval_counting(UNIT_SEGMENT, which, 1e12)


# Each returned 0.0, -0.0 or a subnormal double without a word, and the
# volume of the 10^400-ball raised a bare OverflowError.
WEYL_UNDERFLOWS = {
    "two-term-400-ball": (
        lambda: an.two_term_ball_coefficients(400, 1.0, "krein"), "normal doubles"),
    "two-term-radius-1e-300": (
        lambda: an.two_term_ball_coefficients(3, 1e-300, "krein"), "normal doubles"),
    "two-term-170-ball-subnormal-lead": (
        lambda: an.two_term_ball_coefficients(170, 1.0, "krein"), "normal doubles"),
    "ball-volume-436-subnormal": (
        lambda: an.unit_ball_volume(436), r"dimension must be an integer in 1\.\.435"),
    "ball-volume-453": (
        lambda: an.unit_ball_volume(453), r"dimension must be an integer in 1\.\.435"),
    "ball-volume-10-to-400": (
        lambda: an.unit_ball_volume(10**400), r"dimension must be an integer in 1\.\.435"),
    "weyl-leading-300": (
        lambda: an.weyl_leading(300, 1.0), "below the smallest normal double"),
}


@pytest.mark.parametrize("call, message", WEYL_UNDERFLOWS.values(), ids=WEYL_UNDERFLOWS.keys())
def test_weyl_coefficients_below_the_normal_doubles_raise(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_last_normal_unit_ball_volume():
    mpmath = pytest.importorskip("mpmath")
    want = mpmath.pi ** mpmath.mpf(435 / 2) / mpmath.gamma(mpmath.mpf(435 / 2) + 1)
    assert an.unit_ball_volume(435) == pytest.approx(float(want), rel=1e-12)


def _typed_bits(x):
    """x with each number replaced by its type and exact bits."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, _typed_bits(dataclasses.astuple(x)))
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, tuple(map(_typed_bits, x)))
    return (type(x).__name__, x.hex() if type(x) is float else repr(x))


INTERVAL_MODEL = dz.interval_model(dz.Grid1D(0.0, 1.0, 10), dz.PotentialSpec.zero())


def _soft_channel(n=3, ell=1, m=16, count=2):
    return dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, m, "krein"), count)


# One row per site that checks an integer, as (call, a valid value).  Before
# one rule checked them all, weyl_leading and weyl_fit wrapped np.uint8
# (weyl_fit then raised a bare TypeError), random_model and uniform_matrix raised
# OverflowError on numpy sizes, two_term_ball_coefficients returned its second
# coefficient as np.float64, the interval builders raised TypeError on True,
# and radial_eigenvalues returned one value for the count True.  Before the
# Bessel layer used the same rule, BesselOrder kept numpy ints, True and 2.5
# as given, and bessel_zero and tan_fixed_point read the index True as 1.
INTEGER_SITES = {
    "ball-dimension": (lambda k: sp.BallSpec(k, 1.0), 3),
    "flattened-count": (lambda k: sp.Spectrum(((1.0, 2), (3.0, 1)), 0).flattened(k), 2),
    "interval-dirichlet-count": (lambda k: sp.interval_dirichlet(UNIT_SEGMENT, k), 5),
    "interval-krein-count": (lambda k: sp.interval_krein(UNIT_SEGMENT, k), 5),
    "multiplicity-dimension": (lambda k: sp.ball_multiplicity(k, 4), 5),
    "multiplicity-degree": (lambda k: sp.ball_multiplicity(3, k), 4),
    "interlace-channel": (lambda k: sp.channel_interlace_report(UNIT_BALL, k, 3), 2),
    "interlace-k-max": (lambda k: sp.channel_interlace_report(UNIT_BALL, 1, k), 3),
    "ball-volume-dimension": (an.unit_ball_volume, 3),
    "weyl-leading-dimension": (lambda k: an.weyl_leading(k, 2.0), 3),
    "two-term-dimension": (lambda k: an.two_term_ball_coefficients(k, 1.0, "krein"), 3),
    "weyl-fit-dimension": (lambda k: an.weyl_fit(TWO_STEPS, k, (1.0, 4.0)), 2),
    "inequalities-dimension": (lambda k: _disk_inequalities(k, math.pi, 4), 2),
    "inequalities-k-max": (lambda k: _disk_inequalities(2, math.pi, k), 4),
    "grid-size": (lambda k: dz.Grid1D(0.0, 1.0, k), 10),
    "discrete-krein-count": (lambda k: dz.discrete_krein_spectrum(INTERVAL_MODEL, k), 3),
    "radial-dimension": (lambda k: _soft_channel(n=k), 3),
    "radial-channel": (lambda k: _soft_channel(ell=k), 1),
    "radial-size": (lambda k: _soft_channel(m=k), 16),
    "radial-count": (lambda k: _soft_channel(count=k), 2),
    "convergence-size": (
        lambda k: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (k, 200, 400), 1.0), 100),
    "uniform-matrix-rows": (lambda k: ext.SplitMix64(5).uniform_matrix(k, 3), 4),
    "uniform-matrix-cols": (lambda k: ext.SplitMix64(5).uniform_matrix(4, k), 3),
    "random-model-sizes": (lambda k: ext.random_model(1, 2 * k, k).domain_basis, 3),
    "bessel-twice-order": (special.BesselOrder, 3),
    "zero-index": (lambda k: special.bessel_zero(100, k), 2),
    "tan-root-index": (special.tan_fixed_point, 3),
}


@pytest.mark.parametrize("call, value", INTEGER_SITES.values(), ids=INTEGER_SITES.keys())
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integers_give_the_int_result_bit_for_bit(call, value, kind):
    assert _typed_bits(call(kind(value))) == _typed_bits(call(value))


@pytest.mark.parametrize("call, value", INTEGER_SITES.values(), ids=INTEGER_SITES.keys())
@pytest.mark.parametrize("bad", [True, 2.5], ids=["bool", "half"])
def test_bools_and_fractions_raise_domain_error(call, value, bad):
    with pytest.raises(DomainError, match="must be an integer"):
        call(bad)


# An int of more than sys.get_int_max_str_digits() digits (4,300 by default)
# has no decimal repr.  Each message put it in decimal, so each site raised
# Python's "Exceeds the limit (4300 digits) for integer string conversion"
# ValueError in place of its own error.  The messages now name the int by
# its bit length.
LONG_INT = 10**5000
LONG_INT_SITES = {
    "integer-rule": (lambda: errors._integer("count", LONG_INT, 0, 5), DomainError,
                     "count must be an integer in 0..5"),
    "positive-rule": (lambda: errors._positive("radius", LONG_INT), DomainError,
                      "radius .* is not positive and finite"),
    "zero-index": (lambda: special.bessel_zero(0, LONG_INT), DomainError,
                   "zero index must be an integer"),
    "zero-order": (lambda: special.bessel_zero(LONG_INT, 1), DomainError,
                   "neither integer nor half-integer"),
    "tan-root-index": (lambda: special.tan_fixed_point(LONG_INT), DomainError,
                       "root index must be an integer"),
    "interval-end": (lambda: sp.IntervalSpec(0, LONG_INT), ValueError,
                     "is empty or unbounded"),
    "interval-count": (lambda: sp.interval_dirichlet(UNIT_SEGMENT, LONG_INT), DomainError,
                       "exceeds the limit"),
    "potential": (lambda: dz.PotentialSpec(LONG_INT), ValueError,
                  "potential must be finite and >= 0"),
    "spectrum-kernel": (lambda: sp.Spectrum(((1.0, 1),), kernel_dim=LONG_INT), ValueError,
                        "kernel_dim must be an integer >= 0 or inf"),
    "soft-channel": (lambda: dz.RadialChannelSpec(3, LONG_INT, 1.0, 16, "krein"), DomainError,
                     "the soft end needs l < 2m"),
    "study-sizes": (lambda: dz.convergence_order(lambda m: 1.0, (LONG_INT, LONG_INT, 1), 1.0),
                    ValueError, "sizes must double"),
    "weyl-law": (lambda: an.weyl_fit(TWO_STEPS, 2, (1.0, 4.0), analytic=(LONG_INT, 0.0)),
                 ValueError, "analytic must be a pair of finite numbers"),
}


@pytest.mark.parametrize("call, error, message", LONG_INT_SITES.values(),
                         ids=LONG_INT_SITES.keys())
def test_ints_too_long_for_decimal_keep_the_site_error(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert "<int of 16610 bits>" in str(raised.value)
    assert "integer string conversion" not in str(raised.value)


# Each stored the end it was given: float32 ends computed the spacing in
# float32 (h = 0.13333333), and interval_model's entries differed by 1.6e-6
# from those of the float64 ends.
def test_float32_grid_ends_build_the_float64_model():
    a, b = np.float32(0.1), np.float32(1.3)
    grid, want = dz.Grid1D(a, b, 8), dz.Grid1D(float(a), float(b), 8)
    assert _typed_bits(grid) == _typed_bits(want) and type(grid.h) is float
    zero = dz.PotentialSpec.zero()
    assert _typed_bits(dz.interval_model(grid, zero).A.array) == _typed_bits(
        dz.interval_model(want, zero).A.array)


# complete_below 10**400 was stored as that int, and weyl_fit and
# counting_domination on it raised a bare OverflowError.  It reads inf, as
# every real past the doubles does: the spectrum is complete below every
# double.
HUGE_COMPLETENESS = {
    "spectrum-weyl-fit": lambda c: an.weyl_fit(
        an.counting_from_spectrum(sp.Spectrum(((1.0, 1), (2.0, 3)), 0, c)), 2, (1.0, 4.0)),
    "spectrum-domination": lambda c: an.counting_domination(
        an.counting_from_spectrum(sp.Spectrum(((2.0, 1),), 0, c)),
        an.counting_from_spectrum(sp.Spectrum(((1.0, 1),), 0, c))),
    "counting-weyl-fit": lambda c: an.weyl_fit(
        an.CountingFunction((1.0, 2.0), (1, 3), complete_below=c), 2, (1.0, 4.0)),
    "counting-domination": lambda c: an.counting_domination(
        an.CountingFunction((2.0,), (1,), complete_below=c),
        an.CountingFunction((1.0,), (1,), complete_below=c)),
}


@pytest.mark.parametrize("call", HUGE_COMPLETENESS.values(), ids=HUGE_COMPLETENESS.keys())
def test_complete_below_past_the_doubles_reads_inf(call):
    assert _typed_bits(call(10**400)) == _typed_bits(call(INF))


SHIFT_PAIR = ext.friedrichs(_random_31()), ext.krein(_random_31())

# One row per site that reads a real, as (call, a value exact in float16).
# Each compared its input with the largest double before converting it; for
# float32 and float16 that comparison overflowed in the cast, and under the
# RuntimeWarning filter raised.  The interval and grid ends, the kernel
# dimension and complete_below were also stored as given, not as doubles.
REAL_SITES = {
    "ball-radius": (lambda x: sp.BallSpec(2, x), 1.5),
    "ball-lambda-max": (lambda x: sp.ball_spectrum(UNIT_BALL, "krein", x), 100.0),
    "interval-counting-lam-max": (
        lambda x: an.interval_counting(UNIT_SEGMENT, "dirichlet", x), 50.0),
    "ball-counting-lam-max": (lambda x: an.ball_counting(UNIT_BALL, "dirichlet", x), 50.0),
    "weyl-leading-volume": (lambda x: an.weyl_leading(2, x), 3.0),
    "inequalities-volume": (lambda x: _disk_inequalities(2, x, 4), 3.140625),
    "shift": (lambda x: ext.order_compare(*SHIFT_PAIR, x), 0.5),
    "construction-rel": (lambda x: (ToleranceProfile(x),
                                    ext.krein(_random_31(), ToleranceProfile(x)).matrix.array),
                         2.0**-10),
    "bessel-argument": (lambda x: special.bessel_j(0, x), 2.5),
    "value-order": (lambda x: special.bessel_j(x, 2.5), 1.5),
    "zero-order": (lambda x: special.bessel_zero(x, 2), 1.5),
    "interval-end": (lambda x: sp.interval_krein(sp.IntervalSpec(-0.5, x), 3), 1.25),
    "grid-end": (lambda x: dz.Grid1D(x, 2.0, 8), 0.75),
    "potential": (lambda x: dz.PotentialSpec(x), 0.5),
    "sampled-potential": (lambda x: dz.PotentialSpec.sampled((0.0, x)), 0.5),
    "weyl-window-end": (lambda x: an.weyl_fit(TWO_STEPS, 2, (1.0, x)), 4.0),
    "weyl-law": (lambda x: an.weyl_fit(TWO_STEPS, 2, (1.0, 4.0), analytic=(x, 0.0)), 0.5),
    "convergence-target": (
        lambda x: dz.convergence_order(lambda m: 1.0 + 1.0 / m, (8, 16, 32), x), 1.0),
    "spectrum-complete-below": (lambda x: sp.Spectrum(((1.0, 1),), 0, x), 5.0),
    "counting-complete-below": (
        lambda x: an.CountingFunction((1.0,), (1,), complete_below=x), 5.0),
    "spectrum-kernel": (lambda x: sp.Spectrum(((1.0, 1),), x), 2.0),
}


@pytest.mark.parametrize("call, value", REAL_SITES.values(), ids=REAL_SITES.keys())
@pytest.mark.parametrize("kind", [np.float64, np.float32, np.float16, np.longdouble, Fraction])
def test_real_types_give_the_float_result_bit_for_bit(call, value, kind):
    assert float(kind(value)) == value
    assert _typed_bits(call(kind(value))) == _typed_bits(call(value))
