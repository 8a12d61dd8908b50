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

from .errors import ConstructionMismatch, NonMonotoneError, UnsupportedChannel
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

# Sub-intervals per multisection sweep.  A sweep costs mostly per-row
# overhead, so a few hundred shifts per sweep are nearly free.
_SWEEP_CELLS = 512


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

    @classmethod
    def from_csv(cls, path, m: int) -> "PotentialSpec":
        """One value per line; the count must equal the interior node count."""
        vals = []
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    v = float(text)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: not a number: {text!r}")
                if not (v >= 0.0 and math.isfinite(v)):
                    raise ValueError(f"{path}: line {lineno}: potential value {v} < 0")
                vals.append(v)
        if len(vals) != m:
            raise ValueError(f"{path}: expected {m} values, found {len(vals)}")
        return cls.sampled(vals)

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
        if self.n < 2 or self.ell < 0:
            raise ValueError(f"invalid channel n={self.n}, l={self.ell}")
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

    def k_matrix(self) -> SymMatrix:
        a = np.diag(self.diagonal)
        idx = np.arange(self.diagonal.size - 1)
        a[idx, idx + 1] = self.offdiagonal
        a[idx + 1, idx] = self.offdiagonal
        return SymMatrix(a)

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


def radial_eigenvalues(spec: RadialChannelSpec, count: int,
                       include_zero_mode: bool = False) -> np.ndarray:
    """Lowest nonzero pencil eigenvalues by Sturm multisection.

    All wanted indices are bracketed together, from the Gershgorin interval
    down to 1e-13 relative.  Each step is one sturm_count sweep at about
    _SWEEP_CELLS shifts, shared evenly by the distinct open brackets (all
    indices share one at first) with at least 7 in each, and every index
    keeps the sub-interval that holds it.

    The soft endpoint condition carries the channel's one-dimensional kernel
    (the discrete image of r^(l + (n-1)/2)), so its pencil has exactly one
    near-zero eigenvalue, which is dropped unless include_zero_mode is set.
    That eigenvalue is truncation error of order h^2 = (R/m)^2; a kernel
    candidate above (alpha h / R)^2 / 4 times the first nonzero eigenvalue,
    alpha = l + (n-1)/2, indicates a broken assembly and raises
    ConstructionMismatch.  Only that check reads a dropped zero mode, so its
    bracket stops once all of it passes the check, or else at 1e-13 of the
    first nonzero eigenvalue's scale.  The pencil has m eigenvalues, so a
    count that needs more (with the dropped zero mode) raises ValueError.
    """
    skip = 1 if (spec.bc == "krein" and not include_zero_mode) else 0
    if not (isinstance(count, Integral) and 1 <= count <= spec.m - skip):
        raise ValueError(f"count must be an integer in 1..{spec.m - skip}, got {count}")
    pencil = radial_pencil(spec)
    d, e = pencil.reduced_tridiagonal()
    abs_e = np.concatenate(([0.0], np.abs(e), [0.0]))
    radius = abs_e[:-1] + abs_e[1:]
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    # Correct assemblies keep |lambda_0| below a fifth of bound |lambda_1|; a
    # soft row built with alpha off by 1/2 lands at least 1.87 times above it.
    alpha = spec.ell + (spec.n - 1) / 2.0
    bound = (alpha / spec.m) ** 2 / 4.0
    wanted = np.arange(1, count + skip + 1)
    a = np.full(wanted.size, lo)
    b = np.full(wanted.size, hi)
    live = np.arange(wanted.size)
    # Open brackets never overlap, so their left ends tell them apart.  Each
    # step shrinks a bracket at least 8 = 2^3 times: 40 steps match 120
    # bisections.
    for _ in range(40):
        left, first, group = np.unique(a[live], return_index=True, return_inverse=True)
        cells = max(_SWEEP_CELLS // left.size, 8)
        right = b[live[first]]
        grid = left[:, None] + (right - left)[:, None] * (np.arange(1, cells) / cells)
        below = np.sum(sturm_count(d, e, grid)[group] < wanted[live, None], axis=1)
        edges = np.column_stack((left, grid, right))[group]
        rows = np.arange(live.size)
        a[live], b[live] = edges[rows, below], edges[rows, below + 1]
        scale = np.maximum(np.maximum(abs(a), abs(b)), 1.0)
        wide = b - a > 1e-13 * scale
        if skip:
            wide[0] = (b[0] - a[0] > 1e-13 * scale[1]
                       and not max(-a[0], b[0]) <= bound * a[1])
        live = live[wide[live]]
        if not live.size:
            break
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
    two.  Errors that fail to decrease raise NonMonotoneError carrying the
    measured data.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes")
    for a, b in zip(sizes, sizes[1:]):
        if b != 2 * a:
            raise ValueError(f"sizes must double: {a} -> {b}")
    if spacing is None:
        spacing = lambda m: 1.0 / (m + 1)
    values = tuple(run(m) for m in sizes)
    errors = tuple(abs(v - target) for v in values)
    if any(e2 >= e1 for e1, e2 in zip(errors, errors[1:])):
        raise NonMonotoneError(f"errors not decreasing: sizes={sizes} errors={errors}")
    logs_h = np.log([spacing(m) for m in sizes])
    logs_e = np.log(errors)
    slope = np.polyfit(logs_h, logs_e, 1)[0]
    ratio = spacing(sizes[-2]) / spacing(sizes[-1])
    coarse, fine = values[-2:]
    rich = fine + (fine - coarse) / (ratio**slope - 1.0)
    return ConvergenceReport(
        order=float(slope), richardson=float(rich), errors=errors, sizes=sizes
    )
