"""Finite-difference realizations feeding the matrix model and the exact
spectra.

Two builds live here.  The interval build encodes the minimal operator
-d^2/dx^2 + V with clamped data as an extension model: the matrix is the
usual second-difference operator on all interior nodes, and the restricted
domain omits the first and last interior node, which pins the boundary
derivatives at first order and reproduces the codimension-2 deficiency of
the continuum problem.  The radial build discretizes the reduced channel
operators -d^2/dr^2 + c/r^2 on (0, R) with either a hard endpoint row or
the soft derivative condition f'(R) = (l + (n-1)/2) f(R) / R.

The soft endpoint row is produced by eliminating a centered ghost node and
restoring symmetry with a half-weight mass entry, which keeps the pencil
symmetric-definite (real spectrum) at the cost of a nonidentity mass matrix.

The channel (n=2, l=0) is excluded: its coefficient c = -1/4 is the
attractive-critical case with logarithmic behavior at the origin, where this
plain difference scheme does not converge reliably; the closed-form spectra
cover that channel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConstructionMismatch, InsufficientData, NonMonotoneError, UnsupportedChannel
from .extensions import ExtensionModel, new_model, pencil_values
from .linalg import SymMatrix, sturm_count
from .spectra import Spectrum, _merge_coincident

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
# with its shifts, but slowly: at m = 800 on a 2-CPU Xeon one takes about
# 1.2-1.6 ms at 8 shifts, 1.7-2.0 ms at 128 and 2.3-2.6 ms at 511, most of
# it per-row ufunc calls.  The rational finish puts at most _RUNGS rungs on
# each side of its estimate.  With a rung in every cell (252 per side) a
# soft count-1 call takes 3 sweeps instead of 4, but of 512 shifts instead
# of 40: over the 14 radial channels at m = 800 the benchmark's job mix
# took 25.6 ms per job at 16 rungs, 26.8 at 32, 26.3 at 64 and 28.1 at 252.
_SWEEP_CELLS = 512
_RUNGS = 16


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    m: int  # interior point count

    def __post_init__(self):
        if not (isinstance(self.m, Integral) and self.m >= 8):
            raise ValueError(f"need an integer m >= 8 interior points, got {self.m}")
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"interval ({self.a}, {self.b}) is empty or unbounded")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.m + 1)

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.m + 1)


@dataclass(frozen=True)
class PotentialSpec:
    """Bounded nonnegative potential: zero, constant, or node samples."""

    kind: str                      # "zero" | "constant" | "sampled"
    constant: float = 0.0
    samples: tuple = ()

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(kind="zero")

    @classmethod
    def of_constant(cls, c: float) -> "PotentialSpec":
        if not (c >= 0.0 and math.isfinite(c)):
            raise ValueError(f"constant potential must be finite and >= 0, got {c}")
        return cls(kind="constant", constant=float(c))

    @classmethod
    def sampled(cls, values) -> "PotentialSpec":
        vals = tuple(float(v) for v in values)
        bad = [v for v in vals if not (v >= 0.0 and math.isfinite(v))]
        if bad:
            raise ValueError(f"sampled potential has invalid entries, e.g. {bad[0]}")
        return cls(kind="sampled", samples=vals)

    def values_at(self, grid: Grid1D) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(grid.m)
        if self.kind == "constant":
            return np.full(grid.m, self.constant)
        if len(self.samples) != grid.m:
            raise ValueError(
                f"sampled potential has {len(self.samples)} values for {grid.m} nodes"
            )
        return np.array(self.samples)


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
    domain_dim eigenvalues, so a larger count raises ValueError.
    """
    if not (isinstance(count, Integral) and 1 <= count <= model.domain_dim):
        raise ValueError(f"count must be an integer in 1..{model.domain_dim}, got {count}")
    vals = pencil_values(model)[:count]
    return Spectrum(
        entries=_merge_coincident(vals, np.ones(vals.size, dtype=np.int64)),
        kernel_dim=model.codimension,
        complete_below=float(vals[-1]),
    )


@dataclass(frozen=True)
class RadialChannelSpec:
    n: int
    ell: int
    radius: float
    m: int
    bc: str  # "dirichlet" | "krein"

    def __post_init__(self):
        if not (isinstance(self.n, Integral) and isinstance(self.ell, Integral)
                and self.n >= 2 and self.ell >= 0):
            raise ValueError(
                f"channel needs integers n >= 2 and l >= 0, got n={self.n}, l={self.ell}"
            )
        if self.n == 2 and self.ell == 0:
            raise UnsupportedChannel(
                "channel n=2, l=0 has critical coefficient -1/4; use exact spectra"
            )
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius {self.radius} is not positive and finite")
        if not (isinstance(self.m, Integral) and self.m >= 8):
            raise ValueError(f"need an integer m >= 8 grid points, got {self.m}")
        if self.bc not in ("dirichlet", "krein"):
            raise ValueError(f"bc must be dirichlet or krein, got {self.bc!r}")

    @property
    def coefficient(self) -> float:
        """c_{n,l} = l (l + n - 2) + (n-1)(n-3)/4 in the c / r^2 term."""
        return self.ell * (self.ell + self.n - 2) + (self.n - 1) * (self.n - 3) / 4.0


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
    """Assemble the channel operator on (0, R].

    Hard endpoint: grid r_i = i h with h = R/(m+1), no node at R.  Soft
    endpoint: h = R/m with a node at r_m = R whose ghost neighbor is
    eliminated through the centered derivative condition, symmetrized by a
    half mass weight.  The origin row is truncated (no node at r = 0).
    """
    m = spec.m
    c = spec.coefficient
    if spec.bc == "dirichlet":
        h = spec.radius / (m + 1)
    else:
        h = spec.radius / m
    r = h * np.arange(1, m + 1)
    h2 = h * h
    diag = 2.0 / h2 + c / (r * r)
    off = np.full(m - 1, -1.0 / h2)
    mass = np.ones(m)
    if spec.bc == "krein":
        alpha = (spec.ell + (spec.n - 1) / 2.0) / spec.radius
        diag[-1] = (1.0 - h * alpha) / h2 + 0.5 * c / (spec.radius * spec.radius)
        mass[-1] = 0.5
    return RadialPencil(diagonal=diag, offdiagonal=off, mass=mass)


def _rational_root(x, y):
    """Root of the one-pole fit y = (alpha x + beta) / (x - mu) through the
    three points (x[:, i], y[:, i]) of each row, measured from x[:, 0].

    The fit is exact for a one-pole function, as a Halley step is, without
    its two derivatives.  Coincident nodes or infinite samples give NaN or
    inf, which callers reject.
    """
    t2, t3 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
    y1, y2, y3 = y.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return x[:, 0] + y1 * t2 * t3 * (y2 - y3) / ((y2 - y1) * y3 * t3 - (y3 - y1) * y2 * t2)


def _outward_split(lo, hi, count, floor):
    """count shifts in (lo, hi), geometric in the distance from c, the point
    of [lo, hi] nearest 0.

    start is the stop at c.  Each side of c gets a share of the shifts in
    proportion to its log-length log(L / start), L its end's distance from
    c, and its k-th shift sits at start (L / start)^(k / share) from c, so
    on each side every cell past start spans one ratio of distances.  c
    itself is a shift when it lies inside.  An interval within start of c
    gets the even split.
    """
    c = min(max(0.0, lo), hi)
    start = max(1e-13 * max(abs(c), 1.0), floor)
    reach = np.log(np.maximum(np.array([c - lo, hi - c]) / start, 1.0))
    if not reach.sum() > 0.0:
        return lo + (hi - lo) * (np.arange(1, count + 1) / (count + 1))
    inner = 1 if lo < c < hi else 0
    right = round((count - inner) * reach[1] / reach.sum())
    left = count - inner - right
    return np.concatenate((
        c - start * np.exp(reach[0] * np.arange(left) / max(left, 1)),
        [c] * inner,
        c + start * np.exp(reach[1] * np.arange(right) / max(right, 1)),
    ))


def _multisect(sweep, lo, hi, wanted, floor, is_open=None):
    """Brackets [a, b) of the eigenvalues with the given 1-based indices.

    sweep maps an array of shifts to the Sturm counts there (eigenvalues
    strictly below each shift) and the last LDL^T pivots, and [lo, hi]
    holds the whole spectrum.  A bracket is open while its width exceeds its
    stop, max(1e-13 relative, floor); is_open(a, b, stop), if given,
    replaces that rule and returns the mask of open brackets.  Each step is
    one sweep at about _SWEEP_CELLS shifts, and every index keeps the
    sub-interval that holds it.  In the first sweep all indices share
    [lo, hi], and its shifts are geometric in the distance from the point
    of [lo, hi] nearest 0 (_outward_split): on a fine grid hi is about
    4/h^2, far above the low eigenvalues, and an even split would leave
    them all in its first cell.  Later sweeps share their shifts evenly by
    the distinct open brackets, with at least 7 in each.

    A bracket whose end counts differ by 1 and whose last pivot q is
    positive at a and negative at b is isolated: q decreases strictly
    between its poles, which interlace the eigenvalues, so a pole in (a, b]
    would force a second zero and with it a second eigenvalue.  So q is
    continuous there, and the root of a one-pole fit through q at both ends
    and at the nearer outside neighbour of the last sweep estimates the
    eigenvalue.  The next sweep places that estimate, at most _RUNGS
    geometric rungs on each side from stop/64 out to the bracket ends, and
    the 7 interior points of an 8-cell split, so every bracket still
    shrinks at least 8 times.  The counts alone choose every sub-interval,
    and a missing or outside estimate falls back to the even split.  Rungs from stop/64 rather than
    stop/4 leave the last bracket a median 0.09 of the floor wide instead of
    0.23, so the midpoint adds little to the count's own rounding; they cost
    0.14 sweeps per radial-fd benchmark job.
    """
    size = wanted.size
    a, b = np.full(size, lo), np.full(size, hi)
    # Counts and last pivots at the bracket ends; the Gershgorin ends are
    # never swept, so their pivots are unknown.  No index exceeds `most`.
    most = np.iinfo(np.intp).max
    ca, cb = np.zeros(size, dtype=np.intp), np.full(size, most)
    pa, pb = np.full(size, np.nan), np.full(size, np.nan)
    guess = np.full(size, np.nan)
    stop = np.full(size, floor)
    live = np.arange(size)
    # Open brackets never overlap, so their left ends tell them apart.  Each
    # step shrinks a bracket at least 8 = 2^3 times: 40 steps match 120
    # bisections.
    for step in range(40):
        left, first, group = np.unique(a[live], return_index=True, return_inverse=True)
        head = live[first]
        right = b[head]
        cells = max(_SWEEP_CELLS // left.size, 8)
        grid = np.full((left.size, cells), np.nan)
        est = guess[head]
        fin = np.isfinite(est)
        if step:
            grid[~fin, :cells - 1] = (left[~fin, None] + (right - left)[~fin, None]
                                      * (np.arange(1, cells) / cells))
        else:
            grid[0, :cells - 1] = _outward_split(lo, hi, cells - 1, floor)
        if fin.any():
            est, gap = est[fin, None], stop[head[fin], None] / 64.0
            lf, rf = left[fin, None], right[fin, None]
            steps = min((cells - 8) // 2, _RUNGS)
            rungs = np.arange(steps) / max(steps, 1)
            shifts = np.hstack((lf + (rf - lf) * (np.arange(1, 8) / 8), est,
                                est - gap * ((est - lf) / gap) ** rungs,
                                est + gap * ((rf - est) / gap) ** rungs))
            shifts[~((lf < shifts) & (shifts < rf))] = np.nan
            grid[fin, :shifts.shape[1]] = shifts
        grid.sort(axis=1)
        swept = ~np.isnan(grid)
        counts, pivots = np.empty(grid.shape, dtype=np.intp), np.empty(grid.shape)
        counts[swept], pivots[swept] = sweep(grid[swept])
        # unused slots, sorted last, become copies of the right end
        grid = np.where(swept, grid, right[:, None])
        counts = np.where(swept, counts, cb[head, None])
        pivots = np.where(swept, pivots, pb[head, None])
        below = np.sum(counts[group] < wanted[live, None], axis=1)
        xs = np.column_stack((left, grid, right, right))[group]
        cs = np.column_stack((ca[head], counts, cb[head], cb[head]))[group]
        ps = np.column_stack((pa[head], pivots, pb[head], pb[head]))[group]
        rows = np.arange(live.size)
        a[live], b[live] = xs[rows, below], xs[rows, below + 1]
        ca[live], cb[live] = cs[rows, below], cs[rows, below + 1]
        pa[live], pb[live] = ps[rows, below], ps[rows, below + 1]
        # the nearer outside neighbour with a known pivot, left on ties
        near_left = np.full(live.size, np.inf)
        near_left[below > 0] = (xs[rows, below] - xs[rows, below - 1])[below > 0]
        near_right = xs[rows, below + 2] - xs[rows, below + 1]
        near_left[np.isnan(ps[rows, below - 1])] = np.inf
        near_right[(near_right == 0.0) | np.isnan(ps[rows, below + 2])] = np.inf
        outer = np.where(near_left <= near_right, below - 1, below + 2)
        # measured from the end with the smaller pivot, the nearer one
        near = np.where(abs(pa[live]) <= abs(pb[live]), below, below + 1)
        cols = np.column_stack((near, 2 * below + 1 - near, outer))
        root = _rational_root(xs[rows[:, None], cols], ps[rows[:, None], cols])
        isolated = ((cb[live] - ca[live] == 1) & (pa[live] > 0.0) & (pb[live] < 0.0)
                    & (a[live] < root) & (root < b[live])
                    & np.isfinite(np.minimum(near_left, near_right)))
        guess[live] = np.where(isolated, root, np.nan)
        scale = np.maximum(np.maximum(abs(a), abs(b)), 1.0)
        stop = np.maximum(1e-13 * scale, floor)
        wide = b - a > stop if is_open is None else is_open(a, b, stop)
        live = live[wide[live]]
        if not live.size:
            break
    return a, b


def radial_eigenvalues(spec: RadialChannelSpec, count: int) -> np.ndarray:
    """Lowest nonzero pencil eigenvalues by Sturm multisection.

    All wanted indices are bracketed together by _multisect, from the
    Gershgorin interval [lo, hi] down to a width of max(1e-13 relative,
    eps ||T||) with ||T|| = max(|lo|, |hi|): a Sturm count is exact only for
    some matrix within about eps ||T|| of T, so narrower brackets would not
    be more accurate.  Each step is one sturm_count sweep, which also
    returns the last LDL^T pivot q_m at every shift.  Once a bracket holds
    one eigenvalue and q_m > 0 > q_m at its ends, q_m has no pole inside it
    (a pole would force a second zero, so a second eigenvalue), and the
    next sweep centres its shifts on the root of a one-pole rational fit to
    q_m; see _multisect.  The counts alone still choose every bracket.  The
    first sweep is geometric in the distance from the point of [lo, hi]
    nearest 0, where the wanted values lie.  At m = 800 a count-1 call
    takes 3 sweeps on the hard condition and 4 on the soft one, and a
    count-20 call 5 on either.  On the hard condition the first bracket of
    the lowest value also holds the lowest eigenvalue of T_{m-1}, a pole of
    q_m, so the second sweep is an even split, and one rational sweep
    closes what it leaves.  On the soft condition that bracket is isolated
    at once, and the rational finish takes three sweeps of 40 shifts.

    The soft endpoint condition carries the channel's one-dimensional kernel
    (the discrete image of r^(l + (n-1)/2)), so its pencil has exactly one
    near-zero eigenvalue, which is dropped.  That eigenvalue is truncation
    error of order h^2 = (R/m)^2; a kernel candidate above
    (alpha h / R)^2 / 4 times the first nonzero eigenvalue,
    alpha = l + (n-1)/2, indicates a broken assembly and raises
    ConstructionMismatch.  Only that check reads the zero mode, so its
    bracket stops once all of it passes the check, or else at the first
    nonzero eigenvalue's stop width.  The pencil has m eigenvalues, so a
    count that needs more (with the dropped zero mode) raises ValueError.
    """
    skip = 1 if spec.bc == "krein" else 0
    if not (isinstance(count, Integral) and 1 <= count <= spec.m - skip):
        raise ValueError(f"count must be an integer in 1..{spec.m - skip}, got {count}")
    pencil = radial_pencil(spec)
    d, e = pencil.reduced_tridiagonal()
    abs_e = np.concatenate(([0.0], np.abs(e), [0.0]))
    radius = abs_e[:-1] + abs_e[1:]
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    floor = np.finfo(float).eps * max(-lo, hi)
    # Correct assemblies keep |lambda_0| below a fifth of bound |lambda_1|; a
    # soft row built with alpha off by 1/2 lands at least 1.87 times above it.
    alpha = spec.ell + (spec.n - 1) / 2.0
    bound = (alpha / spec.m) ** 2 / 4.0
    wanted = np.arange(1, count + skip + 1)

    def is_open(a, b, stop):
        wide = b - a > stop
        if skip:
            wide[0] = (b[0] - a[0] > stop[1]
                       and not max(-a[0], b[0]) <= bound * a[1])
        return wide

    a, b = _multisect(lambda shifts: sturm_count(d, e, shifts, last_pivot=True),
                      lo, hi, wanted, floor, is_open)
    out = 0.5 * (a + b)
    if skip:
        if not abs(out[0]) <= bound * abs(out[1]):
            raise ConstructionMismatch(
                f"expected a zero mode, got lowest eigenvalues {out[0]:.3e}, "
                f"{out[1]:.3e} (ratio bound {bound:.3e})"
            )
    return out[skip:]


@dataclass(frozen=True)
class ConvergenceReport:
    order: float             # least-squares slope of log error vs log h
    richardson: float        # extrapolated value from the two finest grids
    errors: tuple
    sizes: tuple


def convergence_order(run, sizes, target: float, spacing=None) -> ConvergenceReport:
    """Empirical order of a grid refinement study against a known target.

    `run` maps a size to the computed value; sizes must refine by factors of
    two, and the target must be finite.  A value that is not finite, or an
    error of exactly zero at the finest size, leaves no order to fit and
    raises InsufficientData naming its size; errors that fail to decrease
    raise NonMonotoneError carrying the measured data.
    """
    if not math.isfinite(target):
        raise ValueError(f"target {target} is not finite")
    sizes = tuple(sizes)
    if not all(isinstance(s, Integral) for s in sizes):
        raise ValueError(f"sizes must be integers, got {sizes}")
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes")
    for a, b in zip(sizes, sizes[1:]):
        if b != 2 * a:
            raise ValueError(f"sizes must double: {a} -> {b}")
    if spacing is None:
        spacing = lambda m: 1.0 / (m + 1)
    values = tuple(run(m) for m in sizes)
    for m, v in zip(sizes, values):
        if not math.isfinite(v):
            raise InsufficientData(f"size {m} gave the value {v}: no error to fit")
    errors = tuple(abs(v - target) for v in values)
    if any(e2 >= e1 for e1, e2 in zip(errors, errors[1:])):
        raise NonMonotoneError(f"errors not decreasing: sizes={sizes} errors={errors}")
    # decreasing errors can reach zero only at the finest size
    if errors[-1] == 0.0:
        raise InsufficientData(f"size {sizes[-1]} hits the target exactly: no error to fit")
    logs_h = np.log([spacing(m) for m in sizes])
    logs_e = np.log(errors)
    slope = np.polyfit(logs_h, logs_e, 1)[0]
    ratio = spacing(sizes[-2]) / spacing(sizes[-1])
    coarse, fine = values[-2:]
    rich = fine + (fine - coarse) / (ratio**slope - 1.0)
    return ConvergenceReport(
        order=float(slope), richardson=float(rich), errors=errors, sizes=sizes
    )
