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
pairs.  The last `_BALL_CACHE_SIZE` = 4 ball spectra built are held by
functools.lru_cache on the private `_build_ball_spectrum`, keyed by
(n, R, condition, lambda_max): one `sandwich_check` builds four, and the
reports on the same ball ask for two of them again.  The bound stays small
because one spectrum can be large: at lambda = 1e6 the unit disk's has
about 1.2e5 entries, some 2 MB.  `ball_spectrum` stays a plain function
that checks its arguments and calls the builder, which bench/tracer.py can
time; `_build_ball_spectrum.cache_info()` counts the hits and misses.  The
Bessel zeros behind the spectra are cached separately, per order, in
`special`, and shared across conditions and radii.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (BracketFailure, DomainError, _condition, _double, _int64_counts, _integer,
                     _pair, _positive, _reals, _require_complete_below, _shown)
from .special import _MAX_TWICE_ORDER, _MAX_ZERO_INDEX, _family_zeros, _first_zeros, tan_fixed_point
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
        a, b = _double(self.a), _double(self.b)
        if a is None or b is None:
            raise DomainError("interval ends must be real numbers, "
                              f"got ({_shown(self.a)}, {_shown(self.b)})")
        if not -math.inf < a < b < math.inf:
            raise ValueError(f"interval ({_shown(self.a)}, {_shown(self.b)}) is empty or unbounded")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class BallSpec:
    n: int
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("dimension", self.n, 2))
        object.__setattr__(self, "radius", _positive("radius", self.radius))


@dataclass(frozen=True, init=False, eq=False)
class Spectrum:
    """Ascending (value, multiplicity) pairs plus the kernel dimension.

    Each value is a real number (`errors._reals`), finite and > 0, and
    each multiplicity an integer from 1 to 2^63 - 1.  Zero modes never
    appear among the entries; they are counted by kernel_dim, a real number
    (not a bool) equal to a double that is an integer >= 0 or inf, kept as
    an int or math.inf.  When complete_below is set, it is a float > 0 (inf
    allowed) and no eigenvalue below it is missing.  The entries are
    validated and stored once, as a pair of read-only numpy arrays, which
    counting functions built from the spectrum reuse; `entries` rebuilds the
    tuple of (float, int) pairs from them on each read.  A spectrum is
    immutable, and equal spectra hash alike, whatever sequence it was given.
    """

    _values: np.ndarray
    _mults: np.ndarray
    kernel_dim: int | float
    complete_below: float | None

    def __init__(self, entries, kernel_dim, complete_below=None):
        try:
            pairs = [_pair(entry, lambda item: item) for entry in entries]
        except TypeError:  # entries is not iterable, as a number is not
            pairs = [None]
        if None in pairs:
            raise ValueError("spectrum entries must be (value, multiplicity) pairs")
        self._hold([v for v, _ in pairs], [m for _, m in pairs], kernel_dim, complete_below)

    @classmethod
    def _from_arrays(cls, values, mults, kernel_dim, complete_below) -> Spectrum:
        """The spectrum of the given value and multiplicity arrays, under
        the constructor's checks; the arrays are copied."""
        spectrum = cls.__new__(cls)
        spectrum._hold(values, mults, kernel_dim, complete_below)
        return spectrum

    def _hold(self, values, mults, kernel, complete_below) -> None:
        """Check the entries, the kernel and complete_below, then store them,
        the entries as read-only arrays."""
        values = _reals("spectrum values", values).copy()  # a copy, as it is frozen below
        mults = _int64_counts(mults, "multiplicities")
        if not np.isfinite(values).all():
            raise ValueError("non-finite value among spectrum entries")
        if np.any(values <= 0.0):
            raise ValueError("nonpositive value among spectrum entries")
        if np.any(values[1:] <= values[:-1]):
            raise ValueError("spectrum entries not strictly increasing")
        if np.any(mults < 1):
            raise ValueError("nonpositive multiplicity")
        dim = _double(kernel)  # dim == kernel: 10**400 reads inf, and is no kernel_dim
        if dim is None or not (0.0 <= dim == kernel and (dim == INFINITE or dim.is_integer())):
            raise ValueError(f"kernel_dim must be an integer >= 0 or inf, got {_shown(kernel)}")
        complete_below = _require_complete_below(complete_below)
        values.setflags(write=False)
        mults.setflags(write=False)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_mults", mults)
        object.__setattr__(self, "kernel_dim", dim if dim == INFINITE else int(dim))
        object.__setattr__(self, "complete_below", complete_below)

    @property
    def entries(self) -> tuple:
        """The (value, multiplicity) pairs as a tuple of (float, int)."""
        return tuple(zip(self._values.tolist(), self._mults.tolist()))

    def _key(self) -> tuple:
        # every value is finite and > 0, so equal values have equal bits
        return (self._values.tobytes(), self._mults.tobytes(), self.kernel_dim,
                self.complete_below)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def values(self):
        return self._values.tolist()

    def flattened(self, count: int | None = None):
        """Eigenvalues repeated by multiplicity, ascending; only the first
        count of them unless count is None."""
        count = None if count is None else _integer("count", count, 0)
        out = []
        for v, m in zip(self._values.tolist(), self._mults.tolist()):
            if count is not None and len(out) + m >= count:
                return out + [v] * (count - len(out))
            out.extend([v] * m)
        return out


_MAX_INTERVAL_COUNT = 2 * _MAX_ZERO_INDEX  # the Krein values of every root of tan t = t


def _interval_size(spec: IntervalSpec, count) -> tuple[int, float]:
    """count as an int and spec.length, once `count` values of either kind
    are known to fit: at most _MAX_INTERVAL_COUNT, and k pi / L in [1e-150,
    1e150] for k <= count + 2, which bounds the Krein values too (2 t_m <
    (2m + 1) pi), so each lies in [1e-300, 1e300].  DomainError otherwise."""
    count = _integer("count", count, 1)
    if count > _MAX_INTERVAL_COUNT:
        raise DomainError(f"count {_shown(count)} exceeds the limit of {_MAX_INTERVAL_COUNT} "
                          "interval eigenvalues")
    length = spec.length
    if not 1e-150 <= math.pi / length <= 1e150 / (count + 2):
        raise DomainError(f"length {length:g} puts the first {count} eigenvalues outside "
                          "[1e-300, 1e300]")
    return count, length


def interval_dirichlet(spec: IntervalSpec, count: int) -> Spectrum:
    """First `count` hard-boundary eigenvalues (j pi / L)^2, all simple.

    At most 200,000 of them, all in [1e-300, 1e300]: DomainError otherwise,
    before any is computed, as in `interval_krein`.
    """
    count, length = _interval_size(spec, count)
    # squared by libm's pow, as a float ** 2; numpy squares by x * x, which
    # differs from it in the last bit of about one value in 1,400
    values = np.array([(j * math.pi / length) ** 2 for j in range(1, count + 1)])
    return Spectrum._from_arrays(values, np.ones(count, dtype=np.int64), kernel_dim=0,
                                 complete_below=float(values[-1]))


def interval_krein(spec: IntervalSpec, count: int) -> Spectrum:
    """First `count` nonzero soft-boundary eigenvalues, kernel dimension 2.

    The even branch (2 m pi / L)^2 and odd branch (2 t_m / L)^2 alternate
    strictly: m pi < t_m < (m + 1/2) pi puts exactly one odd value between
    consecutive even ones.  At most 200,000 values, those of the 100,000
    roots t_m that `tan_fixed_point` gives, all in [1e-300, 1e300]:
    DomainError otherwise, before any is computed, as in `interval_dirichlet`.
    """
    count, length = _interval_size(spec, count)
    m = np.arange(1, (count + 1) // 2 + 1)
    vals = np.empty(2 * m.size)
    vals[0::2] = (2.0 * m * np.pi / length) ** 2
    vals[1::2] = (2.0 * tan_fixed_point(m) / length) ** 2
    vals = vals[:count]
    if np.any(vals[1:] <= vals[:-1]):
        raise BracketFailure("even/odd eigenvalue branches failed to alternate")
    return Spectrum._from_arrays(vals, np.ones(count, dtype=np.int64), kernel_dim=2,
                                 complete_below=float(vals[-1]))


def ball_multiplicity(n: int, ell: int) -> int:
    """Dimension d_{n,l} of degree-l spherical harmonics in R^n.

    Exact integer arithmetic via binomials; equivalent to the ratio of
    Gamma factors but free of floating-point Gamma evaluations.  Raises
    DomainError when it exceeds 2^63 - 1, the int64 range of a Spectrum.
    """
    n, ell = _integer("dimension", n, 2), _integer("degree", ell, 0)
    result = _harmonics(n, ell)
    if result > 2**63 - 1:
        raise DomainError(f"multiplicity d_{{{n},{_shown(ell)}}} exceeds 2^63 - 1")
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


def ball_spectrum(spec: BallSpec, which: str, lambda_max: float) -> Spectrum:
    """Every eigenvalue <= lambda_max with its multiplicity.

    Channel scan: degree l contributes zeros of the order nu = l + (n-2)/2
    (hard boundary) or nu = l + n/2 (soft); the scan stops once nu exceeds
    sqrt(lambda_max) * R because the first zero of order nu exceeds nu.
    All these orders share one parity, and their zeros below
    sqrt(lambda_max) * R come from one batched computation in `special`
    that is cached per order: the hard and soft spectra of one ball, and
    repeated calls, reuse it.  Orders above 500 raise DomainError, and so
    do a radius above 1e150, where a value could fall below 1e-300, and a
    multiplicity above 2^63 - 1, all before any zero is computed.

    The arguments are checked first.  The spectrum itself comes from
    `_build_ball_spectrum`, a functools.lru_cache of the last
    `_BALL_CACHE_SIZE` = 4 built, keyed by (n, R, condition, lambda_max)
    with R and lambda_max as floats, so BallSpec(3, 1) and BallSpec(3, 1.0)
    share one; a call that raises caches nothing.  Every caller of equal
    arguments gets the same immutable object.  The bound is small because
    at lambda = 1e6 the unit disk's spectrum has about 1.2e5 entries, some
    2 MB (16 bytes an entry, its two arrays, measured at R = 0.5).
    This function stays plain, outside the cache, because bench/tracer.py
    wraps only plain functions: behind a wrapper object its
    `spectra.ball_spectrum` time and repeat share would read 0.
    """
    lambda_max, which = _positive("lambda_max", lambda_max), _condition("which", which)
    return _build_ball_spectrum(spec.n, spec.radius, which, lambda_max)


# Not locked: two threads asking for one new key at once each build it.
@functools.lru_cache(maxsize=_BALL_CACHE_SIZE)
def _build_ball_spectrum(n, radius, which: str, lambda_max) -> Spectrum:
    offset = n - 2 if which == "dirichlet" else n  # twice the order shift
    limit = math.sqrt(lambda_max) * radius
    cap = lambda_max * radius * radius
    # every nu < limit, cut where the order cap is passed anyway: past it
    # the limit may exceed what len() counts, or be inf
    twice_orders = range(offset, math.ceil(2.0 * min(limit, _MAX_TWICE_ORDER)), 2)
    if twice_orders:
        if twice_orders[-1] > _MAX_TWICE_ORDER:
            raise DomainError(f"sqrt(lambda_max) R = {limit:g} needs Bessel orders "
                              f"past the limit {_MAX_TWICE_ORDER // 2}")
        # each value (j / R)^2 has j > 2.4, as the interval's have k pi > 3
        if radius > 1e150:
            raise DomainError(f"radius {radius:g} above 1e150 puts eigenvalues below 1e-300")
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
    k_max is at most 99,999, as j_{nu,k_max+1} is the last zero it reads.
    Both orders are checked, as `BesselOrder`s, before any zero is computed.

    The two orders share a parity, so their zeros come from one call of
    `special._first_zeros`, the reach rule of the zero tables: one scan of
    `special._family_zeros` (cached per order, as for ball spectra) past
    j_{nu,k_max+1} < (k_max + 1 + nu / 2) pi, capped at the scan's limit,
    and one `bessel_zero` call a zero past that, which there is McMahon's
    expansion, unrefined, in microseconds.
    """
    ell, k_max = _integer("channel index", ell, 0), _integer("k_max", k_max, 1, _MAX_ZERO_INDEX - 1)
    hard, soft = _first_zeros([2 * ell + spec.n - 2, 2 * ell + spec.n], [k_max + 1, k_max])
    bad = ~((hard[:-1] < soft) & (soft < hard[1:]))
    gaps = np.minimum(soft - hard[:-1], hard[1:] - soft)
    return ChannelInterlaceReport(strict=not bad.any(), min_gap=float(gaps.min()),
                                  witnesses=tuple((np.flatnonzero(bad) + 1).tolist()))
