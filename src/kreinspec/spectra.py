"""Closed-form spectra for the interval and the n-ball.

Interval (length L): the Dirichlet eigenvalues are (j pi / L)^2.  The soft
realization has a two-dimensional kernel (constants and linear functions)
and two interleaved branches of simple nonzero eigenvalues, an even-symmetry
branch at (2 m pi / L)^2 and an odd-symmetry branch at (2 t_m / L)^2 where
t_m solves tan t = t.

Ball of radius R in dimension n: each angular momentum l contributes the
radial eigenvalues (j_{nu,k} / R)^2 with nu = l + (n-2)/2 for the Dirichlet
realization and nu = l + n/2 for the soft one, every one carrying the
spherical-harmonic multiplicity d_{n,l}; the soft realization additionally
has an infinite-dimensional kernel.

The paper-style index bookkeeping for the interval merges the zero mode into
the even branch (index k = 0); here the nonzero spectrum excludes k = 0 and
the kernel dimension 2 is reported separately, resolving that overlap
explicitly.

Every builder here assembles its spectrum on numpy arrays and hands them to
`Spectrum._from_arrays`, which runs the constructor's checks without parsing
pairs.  `ball_spectrum` also holds the last `_BALL_CACHE_SIZE` = 4 spectra
it built, keyed by (n, R, condition, lambda_max): one `sandwich_check`
builds four, and the reports on the same ball ask for two of them again.
The bound stays small because one spectrum can be large: at lambda = 1e6
the unit disk's has about 1e5 entries, some 10 MB.  `ball_spectrum` stays a
plain function, which bench/tracer.py can time.  The Bessel zeros behind
the spectra are cached separately, per order, in `special`, and shared
across conditions and radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from numbers import Integral, Real

import numpy as np

from .errors import BracketFailure, DomainError
from .special import _MAX_ZERO_INDEX, _family_zeros, bessel_zero, tan_fixed_point
from .tolerances import MERGE_REL

INFINITE = math.inf

__all__ = [
    "IntervalSpec",
    "BallSpec",
    "Spectrum",
    "ChannelInterlaceReport",
    "INFINITE",
    "interval_dirichlet",
    "interval_krein",
    "ball_multiplicity",
    "ball_spectrum",
    "channel_interlace_report",
]


@dataclass(frozen=True)
class IntervalSpec:
    a: float
    b: float

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"interval ({self.a}, {self.b}) is empty or unbounded")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class BallSpec:
    n: int
    radius: float

    def __post_init__(self):
        _require_dimension(self.n, 2)
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius {self.radius} is not positive and finite")


@dataclass(frozen=True)
class Spectrum:
    """Ascending (value, multiplicity) pairs plus the kernel dimension.

    Each multiplicity is an integer from 1 to 2^63 - 1.  Zero modes never
    appear among the entries; they are counted by kernel_dim, an integer
    >= 0 or math.inf for an infinite-dimensional kernel.  When
    complete_below is set, it is > 0 (inf allowed) and no eigenvalue below
    it is missing.  The entries are validated as one pair of numpy arrays,
    which counting functions built from the spectrum reuse, and stored as a
    tuple of (float, int) pairs taken from those arrays, so a spectrum is
    immutable and hashable whatever sequence it was given.
    """

    entries: tuple
    kernel_dim: float
    complete_below: float | None = None

    def __post_init__(self):
        self._hold([v for v, _ in self.entries], [m for _, m in self.entries])

    @classmethod
    def _from_arrays(cls, values, mults, kernel_dim, complete_below) -> Spectrum:
        """The spectrum of the given value and multiplicity arrays, under
        the constructor's checks; the arrays are copied."""
        spectrum = cls.__new__(cls)
        object.__setattr__(spectrum, "kernel_dim", kernel_dim)
        object.__setattr__(spectrum, "complete_below", complete_below)
        spectrum._hold(values, mults)
        return spectrum

    def _hold(self, values, mults) -> None:
        """Check the entries and the kernel, then store the entries both as
        read-only arrays and as the tuple of pairs."""
        values = np.array(values, dtype=float)
        mults = _int64_counts(mults, "multiplicities")
        if not np.isfinite(values).all():
            raise ValueError("non-finite value among spectrum entries")
        if np.any(values <= 0.0):
            raise ValueError("nonpositive value among spectrum entries")
        if np.any(values[1:] <= values[:-1]):
            raise ValueError("spectrum entries not strictly increasing")
        if np.any(mults < 1):
            raise ValueError("nonpositive multiplicity")
        kernel = self.kernel_dim
        if not (isinstance(kernel, Real) and kernel >= 0
                and (kernel == INFINITE or float(kernel).is_integer())):
            raise ValueError(f"kernel_dim must be an integer >= 0 or inf, got {kernel!r}")
        _require_complete_below(self.complete_below)
        values.setflags(write=False)
        mults.setflags(write=False)
        object.__setattr__(self, "entries", tuple(zip(values.tolist(), mults.tolist())))
        # the same entries as arrays, for the counting layer
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_mults", mults)

    def values(self):
        return self._values.tolist()

    def flattened(self, count: int | None = None):
        """Eigenvalues repeated by multiplicity, ascending; only the first
        count of them unless count is None."""
        if count is not None and not (isinstance(count, Integral) and count >= 0):
            raise ValueError(f"count must be an integer >= 0 or None, got {count!r}")
        out = []
        for v, m in self.entries:
            if count is not None and len(out) + m >= count:
                return out + [v] * (count - len(out))
            out.extend([v] * m)
        return out


def interval_dirichlet(spec: IntervalSpec, count: int) -> Spectrum:
    """First `count` hard-boundary eigenvalues (j pi / L)^2, all simple."""
    if not (isinstance(count, Integral) and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count}")
    length = spec.length
    # squared by libm's pow, as a float ** 2; numpy squares by x * x, which
    # differs from it in the last bit of about one value in 1,400
    values = np.array([(j * math.pi / length) ** 2 for j in range(1, count + 1)])
    return Spectrum._from_arrays(values, np.ones(count, dtype=np.int64), kernel_dim=0,
                                 complete_below=float(values[-1]))


def interval_krein(spec: IntervalSpec, count: int) -> Spectrum:
    """First `count` nonzero soft-boundary eigenvalues, kernel dimension 2.

    The even branch (2 m pi / L)^2 and odd branch (2 t_m / L)^2 alternate
    strictly: m pi < t_m < (m + 1/2) pi puts exactly one odd value between
    consecutive even ones.
    """
    if not (isinstance(count, Integral) and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count}")
    if count > 2 * _MAX_ZERO_INDEX:
        raise DomainError(f"count {count} needs roots of tan t = t past index {_MAX_ZERO_INDEX}")
    length = spec.length
    m = np.arange(1, (count + 1) // 2 + 1)
    vals = np.empty(2 * m.size)
    vals[0::2] = (2.0 * m * np.pi / length) ** 2
    vals[1::2] = (2.0 * tan_fixed_point(m) / length) ** 2
    vals = vals[:count]
    if np.any(vals[1:] <= vals[:-1]):
        raise BracketFailure("even/odd eigenvalue branches failed to alternate")
    return Spectrum._from_arrays(vals, np.ones(count, dtype=np.int64), kernel_dim=2,
                                 complete_below=float(vals[-1]))


def _int64_counts(counts, what: str) -> np.ndarray:
    """counts as a new int64 array; ValueError naming `what` unless each is
    an integer in the int64 range.  What numpy reads as int64 is exact; the
    rest is converted count by count, so a float among ints rounds none."""
    exact = np.array(counts)
    if exact.dtype != np.int64:
        held = np.array(counts, dtype=object)
        try:
            exact = held.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            exact = None
        if exact is None or not np.array_equal(exact, held):
            raise ValueError(f"{what} must be integers no larger than 2^63 - 1")
    return exact


def _require_complete_below(value) -> None:
    """complete_below is None or a number > 0, inf allowed; NaN is not."""
    if value is not None and not (isinstance(value, Real) and value > 0.0):
        raise ValueError(f"complete_below must be None or > 0, got {value!r}")


def _require_dimension(n, least: int) -> None:
    if not (isinstance(n, Integral) and n >= least):
        raise DomainError(f"dimension must be an integer >= {least}, got {n}")


def ball_multiplicity(n: int, ell: int) -> int:
    """Dimension d_{n,l} of degree-l spherical harmonics in R^n.

    Exact integer arithmetic via binomials; equivalent to the ratio of
    Gamma factors but free of floating-point Gamma evaluations.  Raises
    DomainError when it exceeds 2^63 - 1, the int64 range of a Spectrum.
    """
    _require_dimension(n, 2)
    if not (isinstance(ell, Integral) and ell >= 0):
        raise DomainError(f"degree must be an integer >= 0, got {ell}")
    result = _harmonics(n, ell)
    if result > 2**63 - 1:
        raise DomainError(f"multiplicity d_{{{n},{ell}}} exceeds 2^63 - 1")
    return result


def _harmonics(n: int, ell: int) -> int:
    """d_{n,l} for checked n and l, unbounded."""
    return comb(n + ell - 1, ell) - (comb(n + ell - 3, ell - 2) if ell >= 2 else 0)


def _merge_coincident(values, mults) -> tuple[np.ndarray, np.ndarray]:
    """Sort (value, multiplicity) pairs and merge near-coincident values.

    The pairs are sorted by value, then multiplicity.  A value joins the
    group whose first value v0 satisfies value - v0 <= MERGE_REL * value,
    and the multiplicities of a group add; otherwise it starts a group.
    Only a value within MERGE_REL of its predecessor can join, so the
    group test runs only where np.diff flags one.  Values from distinct
    channels stay separate unless that close; whether distinct integer-order
    zeros can coincide exactly is treated as an open question and settled
    numerically only.  Returns the ascending values and their
    multiplicities as two arrays.
    """
    order = np.lexsort((mults, values))
    values, mults = values[order], mults[order]
    if not values.size:
        return values, mults
    starts = np.ones(values.size, dtype=bool)
    first = values[0]
    for i in (np.flatnonzero(np.diff(values) <= MERGE_REL * values[1:]) + 1).tolist():
        if starts[i - 1]:
            first = values[i - 1]
        starts[i] = not values[i] - first <= MERGE_REL * values[i]
    heads = np.flatnonzero(starts)
    return values[heads], np.add.reduceat(mults, heads)


_BALL_CACHE_SIZE = 4
# (n, R, condition, lambda_max) -> Spectrum, least recently used first.  Not
# locked: two threads asking for one new key at once each build it.
_ball_cache: dict = {}


def ball_spectrum(spec: BallSpec, which: str, lambda_max: float) -> Spectrum:
    """Every eigenvalue <= lambda_max with its multiplicity.

    Channel scan: degree l contributes zeros of the order nu = l + (n-2)/2
    (hard boundary) or nu = l + n/2 (soft); the scan stops once nu exceeds
    sqrt(lambda_max) * R because the first zero of order nu exceeds nu.
    All these orders share one parity, and their zeros below
    sqrt(lambda_max) * R come from one batched computation in `special`
    that is cached per order: the hard and soft spectra of one ball, and
    repeated calls, reuse it.  Orders above 500 raise DomainError, and so
    does a multiplicity above 2^63 - 1, before any zero is computed.

    The arguments are checked first.  The spectrum itself is then looked up
    among the last `_BALL_CACHE_SIZE` = 4 built, keyed by (n, R, condition,
    lambda_max) with R and lambda_max as floats, so BallSpec(3, 1) and
    BallSpec(3, 1.0) share one; a call that raises caches nothing.  Every
    caller of equal arguments gets the same immutable object.  The bound is
    small because at lambda = 1e6 the unit disk's spectrum has about 1e5
    entries, some 10 MB (100 bytes an entry, measured at R = 0.5).
    This stays a plain function, not a functools.lru_cache wrapper, because
    bench/tracer.py wraps only plain functions: behind a wrapper object its
    `spectra.ball_spectrum` time and repeat share would read 0.
    """
    if not 0.0 < lambda_max < math.inf:
        raise ValueError(f"lambda_max {lambda_max} is not positive and finite")
    if which not in ("dirichlet", "krein"):
        raise ValueError(f"which must be dirichlet or krein, got {which!r}")
    key = (spec.n, float(spec.radius), which, float(lambda_max))
    spectrum = _ball_cache.pop(key, None)
    if spectrum is None:
        spectrum = _build_ball_spectrum(spec.n, spec.radius, which, lambda_max)
    _ball_cache[key] = spectrum
    for stale in list(_ball_cache)[:-_BALL_CACHE_SIZE]:
        _ball_cache.pop(stale, None)
    return spectrum


def _build_ball_spectrum(n, radius, which: str, lambda_max) -> Spectrum:
    offset = n - 2 if which == "dirichlet" else n  # twice the order shift
    limit = math.sqrt(lambda_max) * radius
    cap = lambda_max * radius * radius
    twice_orders = range(offset, math.ceil(2.0 * limit), 2)  # every nu < limit
    if twice_orders:
        # d_{n,l} grows with l, so an overflow shows in the top channel;
        # checked before the zero scan, which may take seconds
        ball_multiplicity(n, len(twice_orders) - 1)
    families = _family_zeros(twice_orders, limit)
    zeros = np.concatenate(families) if families else np.empty(0)
    mults = np.repeat(
        np.array([_harmonics(n, ell) for ell in range(len(families))], dtype=np.int64),
        [family.size for family in families],
    )
    keep = zeros * zeros <= cap
    kernel = 0 if which == "dirichlet" else INFINITE
    return Spectrum._from_arrays(*_merge_coincident((zeros[keep] / radius) ** 2, mults[keep]),
                                 kernel_dim=kernel, complete_below=float(lambda_max))


@dataclass(frozen=True)
class ChannelInterlaceReport:
    """Strict interlacing of one channel's hard and soft eigenvalues."""

    strict: bool
    min_gap: float
    witnesses: tuple


def channel_interlace_report(spec: BallSpec, ell: int, k_max: int) -> ChannelInterlaceReport:
    """Check j_{nu,k} < j_{nu+1,k} < j_{nu,k+1} for nu = l + (n-2)/2.

    Order nu + 1 is exactly the soft-boundary order of the same channel, so
    strictness here is the channelwise hard/soft eigenvalue interlacing.
    """
    if not (isinstance(ell, Integral) and ell >= 0):
        raise ValueError(f"channel index must be an integer >= 0, got {ell}")
    if not (isinstance(k_max, Integral) and k_max >= 1):
        raise ValueError(f"k_max must be an integer >= 1, got {k_max}")
    nu = ell + (spec.n - 2) / 2.0
    strict = True
    min_gap = math.inf
    witnesses = []
    for k in range(1, k_max + 1):
        low = bessel_zero(nu, k)
        mid = bessel_zero(nu + 1.0, k)
        high = bessel_zero(nu, k + 1)
        gap = min(mid - low, high - mid)
        min_gap = min(min_gap, gap)
        if not (low < mid < high):
            strict = False
            witnesses.append(k)
    return ChannelInterlaceReport(strict=strict, min_gap=min_gap, witnesses=tuple(witnesses))
