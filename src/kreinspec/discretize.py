"""Finite-difference realizations feeding the matrix model and the exact
spectra.

Two builds live here.  The interval build encodes the minimal operator
-d^2/dx^2 + V with clamped data as an extension model: the matrix is the
usual second-difference operator on all interior nodes, and the restricted
domain omits the first and last interior node, which pins the boundary
derivatives at first order and reproduces the codimension-2 deficiency of
the continuum problem.

The radial build discretizes each channel of the ball,
-r^(1-n) (r^(n-1) u')' + l (l + n - 2) u / r^2 on (0, R), by finite volumes
on m cells of width R/m, for every n >= 2 and l >= 0.  Its pencil is
symmetric tridiagonal with a diagonal mass, and the condition at R, hard
or soft (u'(R) = l u(R) / R, the profile f = r^((n-1)/2) u meeting
f'(R) = (l + (n-1)/2) f(R) / R), sets only its last diagonal entry.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (ConstructionMismatch, DomainError, InsufficientData, NonMonotoneError,
                     _condition, _double, _integer, _real, _shown)
from .extensions import ExtensionModel, new_model, pencil_values
from .linalg import SymMatrix, sturm_count
from .spectra import BallSpec, IntervalSpec, Spectrum, _merge_coincident

__all__ = [
    "Grid1D",
    "PotentialSpec",
    "RadialChannelSpec",
    "RadialPencil",
    "ConvergenceReport",
    "interval_model",
    "discrete_krein_spectrum",
    "radial_pencil",
    "radial_eigenvalues",
    "convergence_order",
]

# Shifts per multisection sweep, shared evenly by the open brackets: at most
# 512 while at most 64 are open, past that 7 each.  A sweep's cost grows
# with its shifts, but slowly: at m = 800 on a 2-CPU Xeon one twisted at the
# middle row takes a median 0.44 ms at 8 shifts, 0.62 ms at 128 and 1.34 ms
# at 511 (the forward sweep 0.72, 0.88 and 1.66 ms), most of it per-step
# ufunc calls.  The rational finish puts at most _RUNGS rungs on each side
# of its estimate.  On the forward sweep, with a rung in every cell (252 per
# side) a soft count-1 call took 3 sweeps instead of 4, but of 512 shifts
# instead of 40: over the 14 radial channels at m = 800 the benchmark's job
# mix took 25.6 ms per job at 16 rungs, 26.8 at 32, 26.3 at 64 and 28.1 at
# 252.
_SWEEP_CELLS = 512
_RUNGS = 16
_LOG_MAX = math.log(sys.float_info.max)  # about 709.78


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    m: int  # interior point count

    def __post_init__(self):
        object.__setattr__(self, "m", _integer("m", self.m, 8))
        ends = IntervalSpec(self.a, self.b)  # the interval's own check, and its doubles
        object.__setattr__(self, "a", ends.a)
        object.__setattr__(self, "b", ends.b)

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.m + 1)

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.m + 1)


@dataclass(frozen=True)
class PotentialSpec:
    """A potential V, bounded and >= 0 as the paper requires: `values` is one
    float for every node, or a tuple of node samples, all real numbers (no
    bool, no str), finite and >= 0."""

    values: float | tuple

    def __post_init__(self):
        values = self.values
        scalar = (isinstance(values, str) or not isinstance(values, Iterable)
                  or isinstance(values, np.ndarray) and values.ndim == 0)
        samples = [values] if scalar else list(values)
        read = [_double(v) for v in samples]
        for v, x in zip(samples, read):
            if x is None or not 0.0 <= x < math.inf:
                raise ValueError(f"potential must be finite and >= 0, got {_shown(v)}")
        object.__setattr__(self, "values", read[0] if scalar else tuple(read))

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(0.0)

    @classmethod
    def of_constant(cls, c: float) -> "PotentialSpec":
        return cls(c)

    @classmethod
    def sampled(cls, values) -> "PotentialSpec":
        return cls(tuple(values))

    def values_at(self, grid: Grid1D) -> np.ndarray:
        if isinstance(self.values, tuple) and len(self.values) != grid.m:
            raise ValueError(f"sampled potential has {len(self.values)} values for {grid.m} nodes")
        return np.full(grid.m, self.values)


def interval_model(grid: Grid1D, potential: PotentialSpec) -> ExtensionModel:
    """Second-difference operator as an extension model with codimension 2."""
    m = grid.m
    h2 = grid.h * grid.h
    a = np.zeros((m, m))
    idx = np.arange(m)
    a[idx, idx] = 2.0 / h2 + potential.values_at(grid)
    a[idx[:-1], idx[:-1] + 1] = -1.0 / h2
    a[idx[:-1] + 1, idx[:-1]] = -1.0 / h2
    basis = np.eye(m)[:, 1:m - 1]
    return new_model(SymMatrix(a), basis)


def discrete_krein_spectrum(model: ExtensionModel, count: int) -> Spectrum:
    """First `count` nonzero eigenvalues of the model's soft extension.

    These are the compressed-pencil eigenvalues, which agree with the
    nonzero Krein eigenvalues exactly at matrix level; the kernel dimension
    equals the codimension of the restricted domain.  The pencil has
    domain_dim eigenvalues, so a larger count raises DomainError.
    """
    count = _integer("count", count, 1, model.domain_dim)
    vals = pencil_values(model)[:count]
    return Spectrum._from_arrays(*_merge_coincident(vals, np.ones(vals.size, dtype=np.int64)),
                                 kernel_dim=model.codimension, complete_below=float(vals[-1]))


@dataclass(frozen=True)
class RadialChannelSpec:
    n: int
    ell: int
    radius: float
    m: int
    bc: str  # "dirichlet" | "krein"

    def __post_init__(self):
        ball = BallSpec(self.n, self.radius)  # the ball's own check of n and R
        for name, value in (("n", ball.n), ("ell", _integer("channel index", self.ell, 0)),
                            ("radius", ball.radius), ("m", _integer("m", self.m, 8)),
                            ("bc", _condition("bc", self.bc))):
            object.__setattr__(self, name, value)
        if self.bc == "krein" and self.ell >= 2 * self.m:
            raise DomainError("the soft end needs l < 2m, "
                              f"got l={_shown(self.ell)}, m={_shown(self.m)}")
        # the pencil divides by h^2 = (R/m)^2, and no scaling recovers an
        # entry that left the normal doubles there
        if not 2.0 ** -511 <= self.radius / self.m <= 2.0 ** 511:
            raise DomainError(f"radius {_shown(self.radius)} over m={_shown(self.m)} cells "
                              "puts h^2 or 1/h^2 outside the normal doubles")
        # no entry of the pencil or of its reduced form passes the first
        # cell's (n + 4 l (l + n - 2)) / h^2, or 3.15 / h^2 at the hard end
        # (n = 2, 3 and l = 0); both that factor and the entries must be
        # doubles.  math.log reads any int, so n and l never become floats
        top = math.log(max(self.n + 4 * self.ell * (self.ell + self.n - 2), 3.15))
        if top - 2.0 * min(math.log(self.radius / self.m), 0.0) >= _LOG_MAX:
            raise DomainError(f"n={_shown(self.n)}, l={_shown(self.ell)}, radius "
                              f"{_shown(self.radius)} and m={_shown(self.m)} put the largest "
                              "pencil entry past the doubles")


@dataclass(frozen=True)
class RadialPencil:
    """Symmetric tridiagonal stiffness with a diagonal mass matrix."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    mass: np.ndarray

    def reduced_tridiagonal(self):
        """Congruence by the inverse mass square root, staying tridiagonal."""
        root = np.sqrt(self.mass)
        d = self.diagonal / self.mass
        e = self.offdiagonal / (root[:-1] * root[1:])
        return d, e


def radial_pencil(spec: RadialChannelSpec) -> RadialPencil:
    """Finite volumes for -r^(1-n) (r^(n-1) u')' + l (l + n - 2) u / r^2.

    Cell i = 1..m is [(i-1) h, i h] with h = R/m on both conditions.  The
    flux through the face at i h has weight (i h)^(n-1), which is 0 at the
    origin; the mass is the cell measure, and the angular term is that
    measure over the squared cell centre (i - 1/2) h.  The condition sets
    only the flux through the face at R, so only the last diagonal entry:
    the ghost u_(m+1) = -u_m on the hard end, and u'(R) = l u(R) / R with
    u(R) = u_m / (1 - h l / (2R)) on the soft one.  The entries are stored
    after the congruence by D_i = (i^(n-1) h^n)^(-1/2), which turns each
    into a ratio near 1 over h^2: the plain weights underflow near the
    origin once n is in the hundreds.
    """
    n, ell, m = spec.n, spec.ell, spec.m
    h2 = (spec.radius / m) ** 2
    i = np.arange(1.0, m + 1.0)
    # i (1 - ((i-1)/i)^n) / n without the cancellation at large i; the first
    # cell takes log1p(-1) = -inf
    with np.errstate(divide="ignore"):
        mass = -i * np.expm1(n * np.log1p(-1.0 / i)) / n
    # flux weights of the faces at (i - 1) h and i h, relative to the latter
    inner = ((i - 1.0) / i) ** (n - 1)
    outer = np.ones(m)
    outer[-1] = 2.0 if spec.bc == "dirichlet" else -2.0 * ell / (2 * m - ell)
    diag = (inner + outer + ell * (ell + n - 2) * mass / (i - 0.5) ** 2) / h2
    off = -(i[:-1] / i[1:]) ** ((n - 1) / 2.0) / h2
    return RadialPencil(diagonal=diag, offdiagonal=off, mass=mass)


def _isolated_root(x, c, p, below):
    """Estimate of the eigenvalue in the isolated bracket [x[1], x[2]), else
    NaN; see _multisect.  x, c and p are columns below - 1 to below + 2 of a
    sweep row with their counts and pivots, as Python floats.  The pivot's
    reciprocal is fitted by z = a + b x + w / (lam - x) through the bracket
    ends and both outside neighbours, or with b = 0 through the one
    neighbour whose pivot is known.  Then (lam - x) z is a polynomial of
    degree two below the number of points, so its divided difference over
    all of them is 0; that is linear in lam, and solved for it.
    """
    (xl, xa, xb, xr), (pl, pa, pb, pr) = x, p
    if not (c[2] - c[1] == 1 and pa > 0.0 > pb):
        return math.nan
    # an outside neighbour is known unless it is a Gershgorin end (NaN), the
    # wrapped left column or the repeated right end; a zero pivot has no 1/p
    points = [(xa, pa), (xb, pb)] + [(xo, po) for xo, po, known in (
        (xl, pl, below), (xr, pr, xr != xb)) if known and not math.isnan(po) and po]
    if len(points) < 3:
        return math.nan
    # measured from the end with the smaller pivot; the weights of the
    # divided difference are 1 / prod(x_i - x_j) over j != i
    origin = xa if abs(pa) <= abs(pb) else xb
    num = den = 0.0
    for i, (xi, w) in enumerate(points):
        for j, (xj, _) in enumerate(points):
            if j != i:
                w *= xi - xj
        if not w:  # coincident points
            return math.nan
        num += (xi - origin) / w
        den += 1.0 / w
    root = origin + num / den if den else math.nan
    return root if xa < root < xb else math.nan


def _stop_width(x, lo, hi):
    """Width at which a bracket that reaches |x| closes, for a tridiagonal
    T with Gershgorin interval [lo, hi]: max(1e-13 |x|, eps ||T||) with
    ||T|| = max(-lo, hi).

    A Sturm count is exact only for some matrix within about eps ||T|| of T
    (Demmel, Dhillon & Ren, ETNA 3 (1995)), so a narrower bracket would not
    be more accurate.  The rule has no absolute part: scaling T by a power
    of two scales every width, and with it every bracket, by exactly that
    power.  It is 0 only for T = 0, whose brackets all have width 0.
    """
    return np.maximum(1e-13 * np.abs(x), np.finfo(float).eps * max(-lo, hi))


def _outward_split(lo, hi, count):
    """count shifts in (lo, hi), geometric in the distance from c, the point
    of [lo, hi] nearest 0.

    start is the stop at c, _stop_width(c).  Each side of c gets a share of
    the shifts in proportion to its log-length log(L / start), L its end's
    distance from c, and its k-th shift sits at start (L / start)^(k / share)
    from c, so on each side every cell past start spans one ratio of
    distances.  c itself is a shift when it lies inside.  An interval within
    start of c, T = 0 included, gets the even split.
    """
    c = min(max(0.0, lo), hi)
    start = _stop_width(c, lo, hi)
    if not max(c - lo, hi - c) > start:
        return lo + (hi - lo) * (np.arange(1, count + 1) / (count + 1))
    reach = np.log(np.maximum(np.array([c - lo, hi - c]) / start, 1.0))
    inner = 1 if lo < c < hi else 0
    right = round((count - inner) * reach[1] / reach.sum())
    left = count - inner - right
    return np.concatenate((
        c - start * np.exp(reach[0] * np.arange(left) / max(left, 1)),
        [c] * inner,
        c + start * np.exp(reach[1] * np.arange(right) / max(right, 1)),
    ))


def _multisect(sweep, lo, hi, wanted, is_open=None):
    """Brackets [a, b) of the eigenvalues with the given ascending 1-based indices.

    sweep maps an array of shifts to the Sturm counts there (eigenvalues
    strictly below each shift) and a pivot q, the twist element of
    sturm_count: 1 / q(x) = ((T - x)^-1)_kk = sum_j v_j(k)^2 / (lambda_j - x)
    for one row k, and [lo, hi] holds the whole spectrum.  A bracket is open
    while its width exceeds its stop, _stop_width at its end farther from 0;
    is_open(a, b, stop), if given, replaces that rule and returns the mask
    of open brackets.  Each step is one sweep at about _SWEEP_CELLS shifts,
    and every index keeps the sub-interval that holds it.  In the first
    sweep all indices share [lo, hi], and its shifts are geometric in the
    distance from the point of [lo, hi] nearest 0 (_outward_split): on a
    fine grid hi is about 4/h^2, far above the low eigenvalues, and an even
    split would leave them all in its first cell.  Later sweeps share their
    shifts evenly by the distinct open brackets, with at least 7 in each.

    A bracket whose end counts differ by 1 and whose q is positive at a and
    negative at b is isolated: q decreases strictly between its poles, which
    interlace the eigenvalues, so a pole in (a, b] would force a second zero
    and with it a second eigenvalue.  So q is continuous there, and 1 / q is
    the one pole w / (lambda - x) plus terms smooth near lambda.  For each
    bracket still open, `_isolated_root` fits that pole and a line through
    both ends and both outside neighbours of the last sweep; its root
    estimates the eigenvalue, and the line takes the smooth terms' slope.
    That slope matters where v(k) is small, near a node of the eigenvector:
    two poles of q then flank lambda closely, and in the (4, 4) Dirichlet
    count-20 call at m = 800 a fit with b = 0 missed lambda_14 by 115 stop
    widths on its last sweep but one, which took a sixth sweep.  The next
    sweep places the estimate, at most _RUNGS geometric rungs on each side
    from stop/64 out to the bracket ends, and the 7 interior points of an
    8-cell split, so every bracket still shrinks at least 8 times.  The
    counts alone choose every sub-interval, and a missing or outside
    estimate falls back to the even split.  Rungs from stop/64 rather than
    stop/4 left the last bracket a median 0.09 of the stop wide instead of
    0.23 on the forward sweep (the count-20 calls of the 15 radial channels
    at m = 800 now end a median 0.058 wide), so the midpoint adds little to
    the count's own rounding.
    """
    size = wanted.size
    # One row per index: its bracket's left end a, the count and pivot
    # there, the same at its right end b, its estimate and its stop.  The
    # Gershgorin ends are never swept, so their pivots are unknown and the
    # count at hi is inf; counts are exact in doubles.
    state = np.empty((size, 8))
    state[:] = lo, 0.0, np.nan, hi, np.inf, np.nan, np.nan, 0.0
    a, b = state[:, 0], state[:, 3]
    live = np.arange(size)
    # Each step shrinks a bracket at least 8 = 2^3 times: 40 steps match 120
    # bisections.
    for step in range(40):
        # Open brackets never overlap and ascend with the indices, so the
        # indices that share one are neighbours: a group starts where a changes.
        left = a[live]
        first = np.empty(live.size, dtype=bool)
        first[0] = True
        np.not_equal(left[1:], left[:-1], first[1:])
        group = first.cumsum() - 1
        rows = state[live[first]]
        lf, rf, est = rows[:, 0:1], rows[:, 3:4], rows[:, 6:7]
        width = rf - lf
        cells = max(_SWEEP_CELLS // rows.shape[0], 8)
        # One row of points per group, each with its count and pivot: the
        # left end, the shifts sorted with the unused slots last, and the
        # right end twice.
        points = np.empty((rows.shape[0], cells + 3, 3))
        points[:, 0], points[:, 1:] = rows[:, :3], rows[:, None, 3:6]
        grid = points[:, 1:-2, 0]
        grid[:, -1] = np.nan
        if step:
            grid[:, :-1] = lf + width * (np.arange(1, cells) / cells)
        else:
            grid[0, :-1] = _outward_split(lo, hi, cells - 1)
        fin = np.isfinite(est)
        if fin.any():
            # a row with an estimate trades its even split for the rungs
            gap = rows[:, 7:8] / 64.0
            steps = min((cells - 8) // 2, _RUNGS)
            rungs = np.arange(steps) / max(steps, 1)
            shifts = np.concatenate((lf + width * (np.arange(1, 8) / 8), est,
                                     est - gap * ((est - lf) / gap) ** rungs,
                                     est + gap * ((rf - est) / gap) ** rungs,
                                     np.full((rows.shape[0], cells - 8 - 2 * steps), np.nan)),
                                    axis=1)
            shifts[(shifts <= lf) | (shifts >= rf)] = np.nan
            np.copyto(grid, shifts, where=fin)
        grid.sort(axis=1)
        unused = np.isnan(grid)
        swept = ~unused
        points[:, 1:-2, 1][swept], points[:, 1:-2, 2][swept] = sweep(grid[swept])
        # an unused slot, sorted last, becomes a copy of the right end
        np.copyto(grid, rf, where=unused)
        # each index's columns below - 1 to below + 2 of its row (the left
        # one wraps to the right end when below is 0)
        below = (points[group, 1:-2, 1] < wanted[live, None]).sum(1)
        near = points[group[:, None], below[:, None] + np.arange(-1, 3)]
        state[live, :6] = near[:, 1:3].reshape(-1, 6)
        stop = _stop_width(np.maximum(abs(a), abs(b)), lo, hi)
        state[:, 7] = stop
        wide = b - a > stop if is_open is None else is_open(a, b, stop)
        keep = wide[live]
        live = live[keep]
        if not live.size:
            break
        # a closed bracket's estimate is never read, so only the open get one
        for row, (x, c, p), k in zip(live, near[keep].transpose(0, 2, 1).tolist(),
                                     below[keep].tolist()):
            state[row, 6] = _isolated_root(x, c, p, k)
    return a.copy(), b.copy()


def radial_eigenvalues(spec: RadialChannelSpec, count: int) -> np.ndarray:
    """Lowest nonzero pencil eigenvalues by Sturm multisection.

    All wanted indices are bracketed together by _multisect, from the
    Gershgorin interval [lo, hi] down to the width _stop_width gives.  Each
    step is one sturm_count sweep twisted at the middle row k = m // 2,
    which runs the rows above and below k side by side in half the steps of
    a forward sweep and also returns the twist element gamma_k at every
    shift; an isolated bracket is finished by a rational fit to gamma_k, and
    the counts alone still choose every bracket.  The first sweep is
    geometric in the distance from the point of [lo, hi] nearest 0, where
    the wanted values lie.  The poles of gamma_k, the eigenvalues of T
    without row k, lie far from the lowest eigenvalue on both conditions,
    so its first bracket is isolated at once: at m = 800 a count-1 call
    takes 3 sweeps (511, 40 and 40 shifts) in each channel with n = 2-4 and
    l = 0-4, R = 0.8, 1 and 1.25, and a count-20 call 4 or 5.

    The soft condition keeps the channel's kernel u = r^l, so its pencil has
    exactly one near-zero eigenvalue, which is dropped: 0 up to rounding at
    l = 0, and truncation error of order (R/m)^2 otherwise.  A kernel
    candidate above the bound below times the first nonzero eigenvalue, up
    to that eigenvalue's stop width, indicates a broken assembly and raises
    ConstructionMismatch.  Only that check reads the zero mode, so its
    bracket stops once all of it passes the check, or else at the first
    nonzero eigenvalue's stop width.  The pencil has m eigenvalues, so a
    count that needs more (with the dropped zero mode) raises DomainError.
    """
    skip = 1 if spec.bc == "krein" else 0
    count = _integer("count", count, 1, spec.m - skip)
    pencil = radial_pencil(spec)
    # T's entries are near 1/h^2, whose square under- or overflows in the
    # Sturm pivots at radii like 1e100 and 1e-100; scaled by a power of two
    # near h^2 they are near 1, and every count, stop and bracket scales
    # exactly with them, so the brackets are divided back at the end
    scale = 2.0 ** round(2.0 * math.log2(spec.radius / spec.m))
    d, e = (scale * x for x in pencil.reduced_tridiagonal())
    abs_e = np.concatenate(([0.0], np.abs(e), [0.0]))
    radius = abs_e[:-1] + abs_e[1:]
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    # The zero mode is truncation error, which grows with l from exactly 0 at
    # l = 0 to about (alpha / (m - l/2))^2 / 5 of lambda_1 at large l.  Correct
    # assemblies stay at or below 0.77 bound (n = 2-300, l < 2m, m = 8-1600);
    # a soft term with l off by 1/2 or by 1 lands at least 1.25 times above it
    # for n = 2-5, l = 0-6 and m >= 16, and passes only at m <= 14 with l >= 4.
    # The zero mode is known only to index 1's stop width, which exceeds
    # bound lambda_1 at l = 0 from m = 3,400 in (2, 0) and 5,300 in (3, 0).
    alpha = spec.ell + (spec.n - 1) / 2.0
    bound = (spec.ell + 1) / (3.0 * (spec.ell + 20)) * (alpha / (spec.m - spec.ell / 2.0)) ** 2
    wanted = np.arange(1, count + skip + 1)

    def is_open(a, b, stop):
        wide = b - a > stop
        if skip:
            wide[0] = (b[0] - a[0] > stop[1]
                       and not max(-a[0], b[0]) <= bound * a[1])
        return wide

    a, b = _multisect(lambda shifts: sturm_count(d, e, shifts, last_pivot=True, twist=d.size // 2),
                      lo, hi, wanted, is_open)
    out = 0.5 * (a + b)
    if skip:
        stop = _stop_width(out[1], lo, hi)
        if not abs(out[0]) <= bound * abs(out[1]) + stop:
            raise ConstructionMismatch(
                f"expected a zero mode, got lowest eigenvalues {out[0] / scale:.3e}, "
                f"{out[1] / scale:.3e} (ratio bound {bound:.3e})"
            )
    return out[skip:] / scale


@dataclass(frozen=True)
class ConvergenceReport:
    order: float             # least-squares slope of log error vs log h
    richardson: float        # extrapolated value from the two finest grids
    errors: tuple
    sizes: tuple


def convergence_order(run, sizes, target: float, spacing=None) -> ConvergenceReport:
    """Empirical order of a grid refinement study against a known target.

    `run` maps a size to the computed value, a real number; sizes must be a
    sequence of integers >= 1 that refine by factors of two, spacing(m)
    (1/(m + 1) by default) must be a finite positive real number, and the
    target must be finite; each breach raises ValueError.  Every value and
    spacing is read by `_double`.  A value that is not finite, as one past
    the doubles, or an error of exactly zero at the finest size, leaves no
    order to fit and raises InsufficientData naming its size; errors that
    fail to decrease raise NonMonotoneError carrying the measured data.
    """
    target = _real("target", target)
    if not math.isfinite(target):
        raise ValueError(f"target {target} is not finite")
    try:
        sizes = tuple(sizes)
    except TypeError:  # not iterable, as a number
        raise ValueError(f"sizes must be a sequence of integers, got {_shown(sizes)}") from None
    sizes = tuple(_integer("size", s, 1) for s in sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes")
    for a, b in zip(sizes, sizes[1:]):
        if b != 2 * a:
            raise ValueError(f"sizes must double: {_shown(a)} -> {_shown(b)}")
    if spacing is None:
        spacing = lambda m: 1.0 / (m + 1)
    spaced = tuple(spacing(m) for m in sizes)
    steps = tuple(map(_double, spaced))
    if not all(h is not None and 0.0 < h < math.inf for h in steps):
        raise ValueError(f"spacing must be finite and positive, got {_shown(spaced)}")
    returned = tuple(run(m) for m in sizes)
    values = tuple(map(_double, returned))
    for m, v, value in zip(sizes, returned, values):
        if value is None:
            raise ValueError(f"size {_shown(m)} gave {_shown(v)}, not a real number")
        if not math.isfinite(value):
            raise InsufficientData(f"size {_shown(m)} gave the value {value}: no error to fit")
    errors = tuple(abs(v - target) for v in values)
    if any(e2 >= e1 for e1, e2 in zip(errors, errors[1:])):
        raise NonMonotoneError(f"errors not decreasing: sizes={_shown(sizes)} errors={errors}")
    # decreasing errors can reach zero only at the finest size
    if errors[-1] == 0.0:
        raise InsufficientData(f"size {_shown(sizes[-1])} hits the target exactly: no error to fit")
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    ratio = steps[-2] / steps[-1]
    coarse, fine = values[-2:]
    rich = fine + (fine - coarse) / (ratio**slope - 1.0)
    return ConvergenceReport(
        order=float(slope), richardson=float(rich), errors=errors, sizes=sizes
    )
