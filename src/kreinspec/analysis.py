"""Counting functions, Weyl coefficients and fits, and inequality verifiers.

Counting convention: N(lambda) counts eigenvalues <= lambda with
multiplicity, so N is right-continuous and jumps at each eigenvalue.
A counting function holds numpy arrays of its breakpoints and prefix sums
and evaluates a whole array of probes with one np.searchsorted; the
checks below evaluate each counting function once over all their probes.

The two-term ball asymptotics compared against here:

    N(lambda) ~ (2 pi)^-n v_n^2 R^n lambda^(n/2)
                - (2 pi)^-(n-1) v_{n-1} C R^(n-1) lambda^((n-1)/2)

with C = (n/4) v_n for the hard boundary and C = (n/4) v_n + v_{n-1} for
the soft one; the difference of the second coefficients is exactly
(2 pi)^-(n-1) v_{n-1}^2 R^(n-1).

Every inequality report comes from one rule, `_slack_report`.  A claim is
a set of slacks, each normalized by the scale of what it bounds and >= 0
where the claim holds, and a tie width tie >= 0.  The claim is violated
where a slack lies below -tie, and the labels of the first 16 such slacks
are its witnesses; its margin is the smallest slack (inf when there is
none); it is inconclusive when tie > 0 and |margin| <= tie.  Tie widths:

    1e-12   first-sum-bound, hard-second-below-soft-first,
            bottom-ratio-bracket, per-index-domination
    0       second-to-first-ratio, gap-quadratic-bound,
            isoperimetric-lower, counting-domination, sandwich-n<n>
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InsufficientData, InsufficientEigenvalues, _condition,
                     _int64_counts, _integer, _pair, _positive, _real, _reals,
                     _require_complete_below, _shown)
from .special import bessel_zero
from .spectra import BallSpec, IntervalSpec, Spectrum, ball_spectrum, interval_dirichlet, interval_krein

__all__ = [
    "CountingFunction",
    "WeylFit",
    "InequalityReport",
    "counting_from_spectrum",
    "counting_domination",
    "unit_ball_volume",
    "weyl_leading",
    "two_term_ball_coefficients",
    "weyl_fit",
    "sandwich_check",
    "universal_inequalities",
    "interval_counting",
    "ball_counting",
]


@dataclass(frozen=True, eq=False)
class CountingFunction:
    """Nondecreasing step function stored as breakpoints with prefix sums.

    Both are read-only numpy arrays, coerced from any sequence: breakpoints
    real numbers (`errors._reals`), finite and strictly ascending (float),
    cumulative of the same length, integers nondecreasing from 0 (int64).
    complete_below is None or > 0 (inf allowed), stored as a float.  Calling
    it on a scalar returns an int, on an array an int64 array of the same
    shape, each from one np.searchsorted; a NaN probe, or one that is not
    a real number (`errors._reals`), raises ValueError.
    """

    breakpoints: np.ndarray   # ascending eigenvalues
    cumulative: np.ndarray    # counts including the breakpoint value
    complete_below: float | None = None

    def __post_init__(self):
        breakpoints = _reals("breakpoints", self.breakpoints).copy()
        cumulative = _int64_counts(self.cumulative, "cumulative counts")
        if breakpoints.ndim != 1 or cumulative.shape != breakpoints.shape:
            raise ValueError(
                f"need equal-length 1-d breakpoints and cumulative counts, "
                f"got shapes {breakpoints.shape} and {cumulative.shape}"
            )
        if not np.all(np.isfinite(breakpoints)):
            raise ValueError("non-finite breakpoint")
        if np.any(breakpoints[1:] <= breakpoints[:-1]):
            raise ValueError("breakpoints not strictly ascending")
        if np.any(np.diff(cumulative, prepend=0) < 0):
            raise ValueError("cumulative counts decrease or start below 0")
        object.__setattr__(self, "complete_below", _require_complete_below(self.complete_below))
        for name, arr in (("breakpoints", breakpoints), ("cumulative", cumulative)):
            arr.setflags(write=False)  # a copy, so the caller's array stays writable
            object.__setattr__(self, name, arr)

    def __call__(self, lam):
        lam = _reals("probes", lam)
        if np.any(np.isnan(lam)):
            raise ValueError("NaN probe of a counting function")
        idx = np.searchsorted(self.breakpoints, lam, side="right")
        # all-zero indices (always so with no breakpoints) give all-zero counts
        counts = np.where(idx > 0, self.cumulative[idx - 1], 0) if idx.any() else idx
        return int(counts) if counts.ndim == 0 else counts


def counting_from_spectrum(spectrum: Spectrum) -> CountingFunction:
    return CountingFunction(
        breakpoints=spectrum._values,
        cumulative=np.cumsum(spectrum._mults),
        complete_below=spectrum.complete_below,
    )


@dataclass(frozen=True)
class InequalityReport:
    """The verdict on one claim, built by `_slack_report`.

    satisfied: no slack lies below -tie.  margin: the smallest slack.
    witnesses: the labels (probe points or 1-based indices) of the first 16
    slacks below -tie; () for scalar claims.  inconclusive: the claim has a
    tie width tie > 0 (see the module docstring) and |margin| <= tie.
    """

    name: str
    satisfied: bool
    margin: float             # smallest slack seen, in the stated units
    witnesses: tuple = ()
    inconclusive: bool = False

    def __post_init__(self):
        if self.satisfied and self.margin < 0.0 and not self.inconclusive:
            raise ValueError("satisfied report with negative margin")


def _probe_points(cap, *countings):
    """One probe, ascending, in each piece of (0, cap] where all the
    counting functions are constant; none when no breakpoint lies at or
    below cap, as every count is then 0 there.  With u_1 < u_2 < ... their
    distinct positive breakpoints, the pieces are (0, u_1), probed at
    min(u_1, cap) / 2, and each [u_i, u_(i+1)) with u_i <= cap, probed at
    its left end u_i.  Sorted and deduplicated by hand: np.unique (numpy
    >= 2.3) imports numpy.ma on its first call, 12-13 ms in a fresh
    interpreter on a 2-CPU Xeon VM.
    """
    bp = np.sort(np.concatenate([counting.breakpoints for counting in countings]))
    if not (bp.size and bp[0] <= cap):
        return bp[:0]
    bp = bp[bp > 0.0]
    first = min(bp[0] if bp.size else math.inf, cap) / 2.0
    inner = bp[bp <= cap]
    return np.concatenate(([first], inner[np.diff(inner, prepend=0.0) > 0.0]))


_TIE = 1e-12  # tie width of the claims that are weak, or sharp on some domain


def _slack_report(name: str, slack, labels=None, tie: float = 0.0) -> InequalityReport:
    """Report on the claim slack >= 0, by the rule of the module docstring.

    labels, an array parallel to slack, names the slacks (probe points or
    indices); the first 16 labels whose slack is below -tie are the
    witnesses.  A scalar claim passes no labels and has no witnesses.
    """
    slack = np.asarray(slack)
    violated = slack < -tie
    margin = float(slack.min()) if slack.size else math.inf
    return InequalityReport(
        name=name,
        satisfied=not violated.any(),
        margin=margin,
        witnesses=() if labels is None else tuple(labels[violated][:16].tolist()),
        inconclusive=tie > 0.0 and abs(margin) <= tie,
    )


def counting_domination(n_soft: CountingFunction, n_hard: CountingFunction) -> InequalityReport:
    """Check N_soft(lambda) <= N_hard(lambda) everywhere both are complete."""
    cap = min(
        x for x in (n_soft.complete_below, n_hard.complete_below, math.inf)
        if x is not None
    )
    probes = _probe_points(cap, n_soft, n_hard)
    return _slack_report("counting-domination", n_hard(probes) - n_soft(probes), probes)


def _log_unit_ball_volume(n: int) -> float:
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


_MAX_VOLUME_DIMENSION = 435  # v_435 = 4.2e-308, and v_436 = 5.0e-309 is subnormal
_TINY = 2.0 ** -1022  # the smallest normal double, about 2.2e-308


def unit_ball_volume(n: int) -> float:
    """v_n = pi^(n/2) / Gamma(n/2 + 1), from its logarithm: Gamma(n/2 + 1)
    overflows from n = 342 on, long before v_n underflows.  v_n is a normal
    double for n <= 435 only: DomainError from n = 436 on."""
    n = _integer("dimension", n, 1, _MAX_VOLUME_DIMENSION)
    return math.exp(_log_unit_ball_volume(n))


def weyl_leading(n: int, volume: float) -> float:
    """Leading counting coefficient (2 pi)^-n v_n |Omega|.  DomainError
    where it, or (2 pi)^-n v_n, is below the smallest normal double."""
    n = _integer("dimension", n, 1, _MAX_VOLUME_DIMENSION)
    volume = _positive("volume", volume)
    per_volume = (2.0 * math.pi) ** (-n) * unit_ball_volume(n)
    lead = per_volume * volume
    if not min(per_volume, lead) >= _TINY:
        raise DomainError(f"Weyl coefficient of dimension {n} and volume {volume:g} falls "
                          "below the smallest normal double, about 2.2e-308")
    return lead


def two_term_ball_coefficients(n: int, radius: float, which: str):
    """(leading, second) counting coefficients for the ball of radius R.

    Each, and the power of R in the second, must be a normal double, from
    about 2.2e-308 to 1.8e308 in magnitude: DomainError otherwise.
    """
    ball = BallSpec(n, radius)  # the ball's own check of n and R
    n, radius, which = ball.n, ball.radius, _condition("which", which)
    # in logarithms: for large n the factors (R / 2 pi)^n and v_n^2 leave
    # the double range while their product need not
    try:
        log_v_n, log_v_m = _log_unit_ball_volume(n), _log_unit_ball_volume(n - 1)
        log_r = math.log(radius / (2.0 * math.pi))
        curvature = (n / 4.0) * math.exp(log_v_n - log_v_m) + (1.0 if which == "krein" else 0.0)
        lead = math.exp(2.0 * log_v_n + n * log_r)
        power = math.exp(2.0 * log_v_m + (n - 1) * log_r)
        second = -power * curvature
    except OverflowError:  # in exp, or in n as a float
        lead = power = second = math.inf
    if not all(_TINY <= x < math.inf for x in (lead, power, -second)):
        raise DomainError(f"counting coefficients of the {n}-ball of radius {radius:g} leave "
                          "the normal doubles, from about 2.2e-308 to the largest double, "
                          "about 1.8e308")
    return lead, second


def _ldexp(x: float, exp: int) -> float:
    """x * 2^exp exactly, or DomainError where that is no double (NaN, or
    out of range)."""
    try:
        y = math.ldexp(x, exp)
        if math.ldexp(y, -exp) == x:
            return y
    except OverflowError:
        pass
    raise DomainError(f"Weyl coefficient {_shown(x)} * 2^{exp} is not a finite double")


_WEYL_SAMPLES = 240  # log-uniform sample points of weyl_fit


@dataclass(frozen=True)
class WeylFit:
    n: int
    c_lead: float
    c_second: float
    analytic_lead: float
    analytic_second: float
    window: tuple
    remainder_sup: float
    samples: int


def weyl_fit(counting: CountingFunction, n: int, window, analytic=None) -> WeylFit:
    """Two-term least squares of N(lambda) on lambda^(n/2), lambda^((n-1)/2).

    Samples are log-uniform across the window.  remainder_sup is the exact
    sup over the closed window [lo, hi] of

        |N(lambda) - a lambda^(n/2) - b lambda^((n-1)/2)|,

    with (a, b) the pair `analytic` if given (two finite numbers) and the
    fitted pair otherwise.  N is constant between breakpoints, so the sup is
    a max over the window ends, both one-sided limits of every breakpoint in
    (lo, hi], and the law's one turning point lambda* = ((n-1) b / (n a))^2,
    which exists when a b < 0 and counts when it lies in the window.  Both
    the fit and the law are evaluated in lambda / 2^k with 2^k near hi, so
    lambda^(n/2) never overflows on the way.  A power that overflows even
    at the window scale, a fitted coefficient that does not scale back to
    a double exactly, a law that overflows at the window scale, or a
    remainder that is not finite, raises DomainError.  The fit is the
    minimum-norm least-squares pair, which also covers a window so narrow
    that the two powers are parallel to rounding.  A window that is not a
    pair of real numbers (lo, hi) raises DomainError; one that is not
    0 < lo < hi < inf, or whose top passes complete_below, raises
    InsufficientData before any sampling.
    """
    n = _integer("dimension", n, 1)
    ends = _pair(window, lambda end: _real("window end", end))
    if ends is None:
        raise DomainError(f"window must be a pair (lo, hi), got {_shown(window)}")
    lo, hi = ends
    if not (0.0 < lo < hi < math.inf):
        raise InsufficientData(f"empty window ({lo}, {hi}): need 0 < lo < hi < inf")
    if counting.complete_below is not None and hi > counting.complete_below * (1 + 1e-12):
        raise InsufficientData(
            f"window top {hi} beyond complete range {counting.complete_below}"
        )
    if analytic is not None:
        pair = _pair(analytic)
        if not (pair and all(c is not None and math.isfinite(c) for c in pair)):
            raise ValueError(f"analytic must be a pair of finite numbers, got {_shown(analytic)}")
    lams = np.exp(np.linspace(math.log(lo), math.log(hi), _WEYL_SAMPLES))
    counts = counting(lams).astype(float)
    # Fit and evaluate in mu = lambda / 2^k, 2^k near hi with k even: the
    # powers of mu stay near 1 where lambda^(n/2) would overflow, and the
    # coefficients scale back by the exact powers of two 2^(k n/2) and
    # 2^(k (n-1)/2).
    k = math.frexp(hi)[1]
    k -= k % 2
    lead_exp, second_exp = k // 2 * n, k // 2 * (n - 1)
    with np.errstate(over="ignore"):
        powers = np.ldexp(lams, -k)[:, None] ** np.array([n / 2.0, (n - 1) / 2.0])
    if not np.isfinite(powers).all():
        raise DomainError(f"(lambda / 2^{k})^({n}/2) on ({lo}, {hi}) is not a finite double")
    fit_lead, fit_second = np.linalg.lstsq(powers, counts, rcond=None)[0]
    c_lead = _ldexp(float(fit_lead), -lead_exp)
    c_second = _ldexp(float(fit_second), -second_exp)

    a_lead, a_second = (c_lead, c_second) if analytic is None else pair
    # the law is only evaluated, so a coefficient that underflows at the
    # window scale is kept as rounded; one that overflows is no double
    try:
        law_lead, law_second = math.ldexp(a_lead, lead_exp), math.ldexp(a_second, second_exp)
    except OverflowError:
        raise DomainError(f"Weyl law {(a_lead, a_second)} overflows on ({lo}, {hi})") from None
    # the law turns where sqrt(mu) = ratio > 0; clamped to the window, a
    # turning point outside it becomes a window end
    lo_mu, hi_mu = math.ldexp(lo, -k), math.ldexp(hi, -k)
    ratio = (1 - n) * law_second / (n * law_lead) if law_lead else 0.0
    turn = min(max(ratio * ratio, lo_mu), hi_mu) if ratio > 0.0 else lo_mu
    at = np.arange(*np.searchsorted(counting.breakpoints, (lo, hi), side="right"))
    points = np.concatenate(((lo, hi, math.ldexp(turn, k)), counting.breakpoints[at]))
    mu = np.ldexp(points, -k)
    with np.errstate(over="ignore", invalid="ignore"):
        law = law_lead * mu ** (n / 2.0) + law_second * mu ** ((n - 1) / 2.0)
    value = counting(points)
    # N just left of each point: the previous prefix sum (0 before the
    # first) at a breakpoint, N itself at the three window points
    left = np.concatenate((value[:3], np.where(at > 0, counting.cumulative[at - 1], 0)))
    remainder_sup = float(np.max(np.maximum(np.abs(value - law), np.abs(left - law))))
    if not math.isfinite(remainder_sup):
        raise DomainError(f"Weyl remainder in dimension {n} on ({lo}, {hi}) is not finite")
    return WeylFit(
        n=n,
        c_lead=float(c_lead),
        c_second=float(c_second),
        analytic_lead=a_lead,
        analytic_second=a_second,
        window=(lo, hi),
        remainder_sup=remainder_sup,
        samples=_WEYL_SAMPLES,
    )


def interval_counting(spec: IntervalSpec, which: str, lam_max: float) -> CountingFunction:
    """Counting function of the interval spectra, complete below lam_max."""
    lam_max = _positive("lam_max", lam_max)
    soft = _condition("which", which) == "krein"
    # about L sqrt(lam_max) / pi values lie below lam_max
    below = spec.length * math.sqrt(lam_max) / math.pi
    if below == math.inf:
        raise DomainError(f"lam_max {lam_max:g} on length {spec.length:g} puts more "
                          "interval eigenvalues below it than the largest double")
    # two values past lam_max on the hard condition, four on the soft one
    count = int(math.ceil(below)) + (4 if soft else 2)
    spectrum = (interval_krein if soft else interval_dirichlet)(spec, count)
    keep = np.searchsorted(spectrum._values, lam_max, side="right")
    return CountingFunction(
        breakpoints=spectrum._values[:keep],
        cumulative=np.cumsum(spectrum._mults[:keep]),
        complete_below=lam_max,
    )


def ball_counting(spec: BallSpec, which: str, lam_max: float) -> CountingFunction:
    return counting_from_spectrum(ball_spectrum(spec, which, lam_max))


def sandwich_check(n: int, radius: float, lam_max: float) -> InequalityReport:
    """Two-sided counting bounds tying dimensions n and n-1:

        N_K,n + N_K,n-1 <= N_D,n <= N_K,n + N_D,n-1

    checked once on each piece of (0, lam_max] where the four counts are
    constant; for n = 2 the lower-dimensional body is the interval (-R, R).
    """
    hard_n = ball_counting(BallSpec(n, radius), "dirichlet", lam_max)
    soft_n = ball_counting(BallSpec(n, radius), "krein", lam_max)
    if n == 2:
        segment = IntervalSpec(-radius, radius)
        hard_m = interval_counting(segment, "dirichlet", lam_max)
        soft_m = interval_counting(segment, "krein", lam_max)
    else:
        hard_m = ball_counting(BallSpec(n - 1, radius), "dirichlet", lam_max)
        soft_m = ball_counting(BallSpec(n - 1, radius), "krein", lam_max)
    probes = _probe_points(lam_max, hard_n, soft_n, hard_m, soft_m)
    hn, sn, hm, sm = hard_n(probes), soft_n(probes), hard_m(probes), soft_m(probes)
    slack = np.minimum(sn + hm - hn, hn - sn - sm)
    return _slack_report(f"sandwich-n{n}", slack, probes)


def universal_inequalities(soft: Spectrum, hard: Spectrum, n: int,
                           volume: float, k_max: int):
    """Reports for the low-eigenvalue bounds on the soft spectrum.

    Checked, in order: the second/first ratio bound, the first-n sum bound,
    the gap quadratic bound for k <= k_max (witnesses: the indices k), the
    two halves of the isoperimetric two-sided bound, the [1, 4] bracket for
    the soft/hard bottom ratio, and per-index domination up to k_max
    (witnesses: the 1-based indices j).  The first-sum, hard-second,
    bottom-ratio and per-index claims are weak or sharp somewhere, so each
    has the tie width 1e-12 (see the module docstring).

    Margins are normalized by the scale of the quantity they bound, so a
    margin of zero always means a sharp case.
    """
    n, k_max = _integer("dimension", n, 2), _integer("k_max", k_max, 1)
    volume = _positive("volume", volume)
    need, need_hard = max(k_max + 1, n + 1, 2), max(k_max, 2)
    lam = np.array(soft.flattened(need))
    mu = np.array(hard.flattened(need_hard))
    if len(lam) < need or len(mu) < need_hard:
        raise InsufficientEigenvalues(
            f"need {need} soft and {need_hard} hard eigenvalues, have {len(lam)}, {len(mu)}"
        )
    indices = np.arange(1, k_max + 1)

    ratio_bound = (n * n + 8.0 * n + 20.0) / (n + 2.0) ** 2
    sum_bound = (n + 4.0) * lam[0] - (4.0 / (n + 4.0)) * (lam[1] - lam[0])
    # row k - 1 holds the gaps lam_k - lam_j for j < k, and zeros for j >= k
    gaps = np.tril(lam[1:k_max + 1, None] - lam[:k_max])
    gap_slack = ((4.0 * (n + 2.0) / (n * n)) * (gaps @ lam[:k_max])
                 - (gaps * gaps).sum(axis=1)) / (lam[0] * lam[0])
    v_n = unit_ball_volume(n)
    j_first = bessel_zero((n - 2) / 2.0, 1)
    iso = 2.0 ** (2.0 / n) * j_first * j_first * v_n ** (2.0 / n) / volume ** (2.0 / n)
    bottom_ratio = lam[0] / mu[0]
    return [
        _slack_report("second-to-first-ratio", [ratio_bound - lam[1] / lam[0]]),
        _slack_report("first-sum-bound", [(sum_bound - sum(lam[1:n + 1])) / lam[0]],
                      tie=_TIE),
        _slack_report("gap-quadratic-bound", gap_slack, indices),
        _slack_report("isoperimetric-lower", [(mu[1] - iso) / mu[1]]),
        _slack_report("hard-second-below-soft-first", [(lam[0] - mu[1]) / lam[0]], tie=_TIE),
        _slack_report("bottom-ratio-bracket", [bottom_ratio - 1.0, 4.0 - bottom_ratio],
                      tie=_TIE),
        _slack_report("per-index-domination", (lam[:k_max] - mu[:k_max]) / mu[:k_max],
                      indices, tie=_TIE),
    ]
