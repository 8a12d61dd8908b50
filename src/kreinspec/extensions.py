"""Finite-dimensional model of nonnegative self-adjoint extension theory.

The model: a positive-definite symmetric matrix A on an N-dimensional space,
restricted to a proper subspace D of dimension d < N.  The restriction
S = A|_D plays the role of a strictly positive symmetric operator whose
deficiency is the codimension N - d; ker(S*) is represented concretely by
ran(A D)^perp.

Why the Friedrichs extension collapses to A itself.  The Friedrichs domain
decomposes as D + S_F^{-1} (A D)^perp, which by a dimension count is all of
the ambient space, and the extension acts as the ambient operator on the
complementary part, so the unique everywhere-defined operator satisfying the
decomposition while extending A|_D and staying positive definite is A: every
other candidate in the parametrized family below is strictly smaller in the
quadratic-form order, and A is their least upper bound.  The continuum
theory never needs to state this collapse because there the Friedrichs
domain is a proper subspace.

Relative primeness of the two extremal extensions (their domains meeting
only in D) is intentionally not asserted anywhere: every matrix here is
everywhere defined, so domain intersections carry no information in the
finite model.

Every nonnegative extension here is the closed form

    E = A - A W (W^T A W + B)^{-1} W^T A

for an orthonormal basis W of a subspace of ker(S*) = (A D)^perp and a PSD
parameter B on it: the shorted-operator identity of Anderson & Trapp (SIAM
J. Appl. Math. 28 (1975)).  W = {0} gives the Friedrichs extension A, and
W = ker(S*) with B = 0 the Krein extension (Krein, Mat. Sb. 20 (1947)).
krein builds that endpoint by one of two constructions, chosen by the
basis of D alone:

- a coordinate D, every basis column +-e_r (the clamped interval of
  discretize.interval_model is one), takes the shorted block: A with its
  complement block A_PP replaced by A_PD A_DD^-1 A_DP, from one Cholesky
  factor of A_DD.  pencil_values takes the pencil from the same factor;
- any other D takes the equal closed form A^(1/2) P A^(1/2), with P the
  orthogonal projector onto A^(1/2) D (Ando & Nishio, Tohoku Math. J. 22
  (1970)), through spd_sqrt's eigensolve, and pencil_values the SVD of
  A Q L^-T.

Both krein constructions and parametrized_extension are checked against
their definition: equal to A on D and zero on their kernel, which for the
Krein extension is all of ker(S*).  The ambient space is the direct sum of
D and ker(S*), so for the Krein extension the check is complete.

The working-set rule: no dense intermediate outlives its last reader.  A
stage that needs temporaries is a helper whose locals go when it returns,
and a name that would keep a dense array alive past its last use is
deleted.  So the general krein finds the adjoint_kernel basis before the
square root exists and drops the root and F before its check, and
buckling_analysis builds the Krein matrix first, beside no other dense
array, and drops every intermediate after its last reader.  The order
changes no operation and no bit.  At n = 200 and d = 150 the traced peaks,
in units of one 200 x 200 float64 array, are 6.1 for buckling_analysis and
4.6 for the general krein; tests/test_extensions.py::TestWorkingSet holds
them to 7 and 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .errors import (ConstructionMismatch, NoDeficiency, NotOrthogonal, NotPositiveDefinite, NotPSD,
                     RankDeficientBasis, SingularDecomposition, _integer, _positive, _reals, _shown)
from .linalg import (
    SymMatrix,
    _cholesky_inverse,
    _eigh,
    _svd,
    cholesky,
    max_norm,
    spd_sqrt,
    sym_eigen,
)
from .tolerances import (ADJOINT_KERNEL_REL, CHOLESKY_PIVOT_REL, CONSTRUCTION_REL, DEFAULT,
                         ORTHONORMAL_REL, PSD_CLAMP_REL, RANK_REL, ToleranceProfile)

__all__ = [
    "ExtensionModel",
    "ExtensionResult",
    "BucklingReport",
    "new_model",
    "friedrichs",
    "adjoint_kernel",
    "krein",
    "parametrized_extension",
    "buckling_analysis",
    "pencil_values",
    "order_compare",
    "SplitMix64",
    "random_model",
]


@dataclass(frozen=True)
class ExtensionModel:
    """Positive-definite A together with an orthonormal basis of D."""

    A: SymMatrix
    domain_basis: np.ndarray  # N x d, orthonormal columns spanning D

    @property
    def ambient_dim(self) -> int:
        return self.A.order

    @property
    def domain_dim(self) -> int:
        return self.domain_basis.shape[1]

    @property
    def codimension(self) -> int:
        return self.ambient_dim - self.domain_dim


@dataclass(frozen=True)
class ExtensionResult:
    """A nonnegative self-adjoint extension of A|_D with its kernel."""

    matrix: SymMatrix
    kind: str                     # "friedrichs" | "krein" | "parametrized"
    kernel_basis: np.ndarray      # N x k, orthonormal (k may be 0)
    construction_gap: float = 0.0  # krein, parametrized: larger of the two defining residuals

    def extends_residual(self, model: ExtensionModel) -> float:
        q = model.domain_basis
        return max_norm(self.matrix.array @ q - model.A.array @ q)

    def kernel_residual(self) -> float:
        if self.kernel_basis.shape[1] == 0:
            return 0.0
        return max_norm(self.matrix.array @ self.kernel_basis)


@dataclass(frozen=True)
class BucklingReport:
    """Pencil data for P_D A^2|_D u = lambda P_D A|_D u and its companions."""

    pencil_values: np.ndarray       # ascending, squared singular values of A Q L^-T
    pencil_vectors: np.ndarray      # coordinates in D, orthonormal for Q^T A Q = L L^T
    t_matrix: SymMatrix             # |S|^-1 Q^T A Q |S|^-1, bounded by 1/lambda_min(A) in norm
    polar_modulus: SymMatrix        # |S| = V Sigma V^T, from A Q = U Sigma V^T
    isometry: np.ndarray            # U_S = U V^T = A Q |S|^-1, orthonormal columns
    residuals: dict


def _qr_split(columns: np.ndarray, rel_floor: float, error, complete: bool = False):
    """Orthonormal bases of span(columns) and, if complete, of its complement.

    One Householder QR from LAPACK; the complement is the trailing columns of
    the complete factorization, orthogonal to the span up to rounding at every
    size (None unless complete).  Raises `error` when some |R_jj| falls at or
    below rel_floor times the largest column norm.

    columns is overwritten, as working space: both run on columns / s, for
    s the `_unit_scale` of its largest entry, whose squares cannot overflow
    and whose Householder steps cannot either.  Dividing by s is exact and
    every step is homogeneous, so below that range the factors are those
    of the columns, up to the scale of R, and the test decides as on the
    columns.  The quotients are then squared in place for the norms, so
    the split takes no n x d temporary.
    """
    d = columns.shape[1]
    columns /= _unit_scale(max_norm(columns))
    q, r = np.linalg.qr(columns, mode="complete" if complete else "reduced")
    columns *= columns
    floor = rel_floor * np.max(np.sqrt(np.add.reduce(columns, axis=0)), initial=0.0)
    independent = int(np.count_nonzero(np.abs(np.diagonal(r)) > floor))
    if independent < d:
        raise error(f"only {independent} of {d} columns are independent")
    return q[:, :d], (q[:, d:].copy() if complete else None)


def _columns(matrix, what: str) -> np.ndarray:
    """matrix as a float array of columns, a 1-D one as one column;
    ValueError naming `what` unless its entries are real numbers
    (`errors._reals`) and it is 1-D or 2-D."""
    columns = _reals(what, matrix)
    if columns.ndim not in (1, 2):
        raise ValueError(f"{what} must be 1-D or 2-D, got shape {columns.shape}")
    return columns[:, None] if columns.ndim == 1 else columns


def new_model(a, raw_basis) -> ExtensionModel:
    """Build a model from A and a spanning set of D (columns).

    A basis that is already orthonormal is kept as given; any other is
    replaced by the Q of its Householder QR.  A must pass linalg.cholesky,
    the library's one positive-definiteness rule; the factor is discarded.
    Its floor bounds pivots, not conditioning: no pivot is below
    lambda_min(A), but from order 3 on A can pass with lambda_min(A)
    exponentially far below the floor.  A non-finite A raises
    NotPositiveDefinite, and a basis entry that is not a finite real
    number, or a basis that is not 1-D or 2-D, ValueError.
    """
    a = a if isinstance(a, SymMatrix) else SymMatrix(a)
    raw = _columns(raw_basis, "basis")
    n = a.order
    if raw.shape[0] != n:
        raise ValueError(f"basis rows {raw.shape[0]} != ambient dimension {n}")
    if not np.isfinite(raw).all():
        i, j = np.argwhere(~np.isfinite(raw))[0]
        raise ValueError(f"basis has non-finite entries, the first {raw[i, j]} "
                         f"at row {i}, column {j}")
    d = raw.shape[1]
    if d >= n:
        raise NoDeficiency(f"domain dimension {d} leaves no deficiency in {n}")
    if d < 1:
        raise ValueError("domain must have at least one column")
    cholesky(a)
    gram = raw.T @ raw
    if max_norm(gram - np.eye(d)) <= ORTHONORMAL_REL:
        basis = raw.copy()
    else:
        basis = _qr_split(raw.copy(), n * RANK_REL, RankDeficientBasis)[0]
    basis.flags.writeable = False
    return ExtensionModel(A=a, domain_basis=basis)


def friedrichs(model: ExtensionModel) -> ExtensionResult:
    """The largest extension; in the finite model this is A itself."""
    n = model.ambient_dim
    return ExtensionResult(
        matrix=model.A, kind="friedrichs", kernel_basis=np.empty((n, 0))
    )


def adjoint_kernel(model: ExtensionModel) -> np.ndarray:
    """Orthonormal basis of ran(A D)^perp, the model's ker(S*): the trailing
    columns of the complete QR of A Q, as an owned n x codim array, so
    that the complete n x n Q goes when it returns."""
    aq = model.A.array @ model.domain_basis
    return _qr_split(aq, model.ambient_dim * RANK_REL,
                     SingularDecomposition, complete=True)[1]


def _checked(result: ExtensionResult, model: ExtensionModel, rel: float) -> ExtensionResult:
    """result with its construction_gap, checked against its definition.

    The gap is the larger of extends_residual and kernel_residual.  Beyond
    rel * max|A| it is a bug, never a math failure, and raises
    ConstructionMismatch.
    """
    gap = max(result.extends_residual(model), result.kernel_residual())
    tol = rel * model.A.norm_max
    if not gap <= tol:
        raise ConstructionMismatch(
            f"{result.kind} extension residual {gap:.3e} exceeds {tol:.3e}: "
            "the matrix misses its defining action")
    return replace(result, construction_gap=gap)


def krein(model: ExtensionModel, profile: ToleranceProfile = DEFAULT) -> ExtensionResult:
    """The smallest extension: equal to A on D and zero on (A D)^perp.

    A coordinate D, whose basis columns are all +-e_r (the clamped
    interval of discretize.interval_model has one), takes the shorted
    block, found by `_coordinate_rows`: the result is A
    with its complement block A_PP replaced by A_PD A_DD^-1 A_DP = Z^T Z,
    for A_DD = L L^T and Z = L^-1 A_DP (Anderson & Trapp, SIAM J. Appl.
    Math. 28 (1975)), and its kernel basis is the Q of the QR of
    [-L^-T Z; I], full rank by its identity block.  No square root, no
    eigensolve and no SVD.  Any other D takes the closed form
    A^(1/2) P A^(1/2) with P projecting onto A^(1/2) D (Ando & Nishio,
    Tohoku Math. J. 22 (1970)), through spd_sqrt, with the adjoint_kernel
    basis, found before the square root is built; the root and F go once
    F F^T is formed, before the check.  Either result is then checked
    against the definition:
    extends_residual and kernel_residual.  A residual beyond
    construction_rel * max|A| is a bug, never a math failure, and raises
    ConstructionMismatch; the larger residual is the result's
    construction_gap.

    `profile` sets only construction_rel; every other threshold, the
    Cholesky pivot floor's CHOLESKY_PIVOT_REL included, is a tolerances
    constant.  It stays because the benchmark's tracer reads
    profile.construction_rel.
    """
    shorted = _shorted_krein(model)
    if shorted is None:
        # first, so that its complete n x n Q never sits beside the square root
        kernel = adjoint_kernel(model)
        matrix = SymMatrix(_projected_root(model))
    else:
        matrix, kernel = shorted
    result = ExtensionResult(matrix=matrix, kind="krein", kernel_basis=kernel)
    return _checked(result, model, profile.construction_rel)


def _shorted_krein(model: ExtensionModel):
    """The Krein matrix and kernel basis of a coordinate D, from
    `_coordinate_factors`; None for any other D."""
    factors = _coordinate_factors(model)
    if factors is None:
        return None
    # the factors are of A / s: Z^T Z scales by s, L^-T Z not at all
    scale, dom, comp, low, z = factors
    matrix = model.A.array.copy()
    matrix[np.ix_(comp, comp)] = scale * (z.T @ z)
    kernel = np.zeros((model.ambient_dim, comp.size))
    kernel[dom] = -np.linalg.solve(low.T, z)
    kernel[comp] = np.eye(comp.size)
    return SymMatrix(matrix), np.linalg.qr(kernel)[0]


def _projected_root(model: ExtensionModel) -> np.ndarray:
    """A^(1/2) P A^(1/2) = F F^T for F = A^(1/2) Q_h, P = Q_h Q_h^T from the
    QR of A^(1/2) Q; the square root and F go when it returns.

    The floor is the Cholesky pivot floor of the Gram matrix Q^T A Q, whose
    pivots are the squares of |R_jj|.
    """
    root = spd_sqrt(model.A).array
    rel_floor = math.sqrt(model.domain_dim * CHOLESKY_PIVOT_REL)
    factor = root @ _qr_split(root @ model.domain_basis, rel_floor, NotPositiveDefinite)[0]
    return factor @ factor.T


def parametrized_extension(model: ExtensionModel, w_basis, b) -> ExtensionResult:
    """Extension selected by a PSD parameter B on a subspace W of ker(S*).

    The defining action: a domain vector f + A^{-1}(W B beta + eta) + W beta,
    with f in D and eta in ker(S*) orthogonal to W, is sent to
    A f + W B beta + eta.  The matrix with that action is the closed form
    A - A W (W^T A W + B)^{-1} W^T A, built from one Cholesky factor of
    W^T A W + B.  It is checked PSD and against its definition, and its
    kernel is W applied to the eigenvectors v of B whose image E W v, by
    the closed form, is within half the definition check's bound
    CONSTRUCTION_REL * max|A|: ker(B), and eigenvalues of B too small for
    that bound to tell from zero.

    W = {0} returns A itself, the Friedrichs extension; W = ker(S*) with
    B = 0 gives the Krein extension.
    """
    a = model.A.array
    n = model.ambient_dim
    w = _columns(w_basis, "W")
    if w.shape[0] != n:
        raise ValueError(f"W rows {w.shape[0]} != ambient dimension {n}")
    p = w.shape[1]
    if not p:
        return ExtensionResult(matrix=model.A, kind="parametrized",
                               kernel_basis=np.empty((n, 0)))
    # written as not (... <= tol), so that a NaN in W fails them
    if not max_norm(w.T @ w - np.eye(p)) <= ORTHONORMAL_REL:
        raise NotOrthogonal(
            f"W basis columns are not orthonormal within {ORTHONORMAL_REL:g}")
    aw = a @ w
    if not max_norm(aw.T @ model.domain_basis) <= ADJOINT_KERNEL_REL * model.A.norm_max * n:
        raise NotOrthogonal("W is not inside ker(S*) = ran(A D)^perp")
    b = b if isinstance(b, SymMatrix) else SymMatrix(np.atleast_2d(b))
    if b.order != p:
        raise ValueError(f"parameter order {b.order} != dim W = {p}")
    b_eigen = sym_eigen(b)
    if b_eigen.values[0] < -PSD_CLAMP_REL * max(b.norm_max, 1e-300):
        raise NotPSD(f"parameter has eigenvalue {b_eigen.values[0]:.3e}")

    # A W (W^T A W + B)^{-1} W^T A = half^T half with half = L^{-1} (A W)^T;
    # the same solve gives L^{-1} V for the eigenvectors V of B
    half, low_v = np.split(
        np.linalg.solve(cholesky(aw.T @ w + b.array), np.hstack((aw.T, b_eigen.vectors))),
        [n], axis=1)
    matrix = SymMatrix(a - half.T @ half)
    tol = CONSTRUCTION_REL * model.A.norm_max
    bottom = _eigh(matrix.array, with_vectors=False)[0][0]
    if bottom < -tol:
        raise ConstructionMismatch(f"parametrized matrix has eigenvalue {bottom:.3e}")
    # E W v = A W (W^T A W + B)^{-1} B v = b half^T L^{-1} v for each
    # eigenpair (b, v) of B.  W v is kernel where that closed form is within
    # half the definition check's bound, so the assembled matrix, a rounding
    # away from it, passes the check there.
    action = np.abs(b_eigen.values) * np.max(np.abs(half.T @ low_v), axis=0)
    result = ExtensionResult(
        matrix=matrix,
        kind="parametrized",
        kernel_basis=w @ b_eigen.vectors[:, action <= tol / 2],
    )
    return _checked(result, model, CONSTRUCTION_REL)


def _unit_scale(largest: float) -> float:
    """The power of two near a largest modulus: 2^e for largest = f 2^e with
    f in [1/2, 1), and 1.0 for 0.  The pencil routes divide A by it at
    largest = max|A|, and `_qr_split` takes its column norms at it.

    Every construction here is exactly homogeneous in A, and dividing by a
    power of two is exact in IEEE arithmetic, so working at unit scale and
    scaling results back commits no extra rounding: a model whose A differs
    by a power of two gets the same unit-scale data bit for bit, and so
    pencil values scaled by exactly that power.  The exponent is capped at
    1023, since 2^1024 overflows: from largest >= 2^1023 on, the quotients
    lie in [1, 2) in place of [1/2, 1), and nothing else changes a bit.
    """
    return float(2.0 ** min(math.frexp(largest)[1], 1023)) if largest else 1.0


def _coordinate_rows(basis: np.ndarray):
    """The rows of D and of its complement, ascending, when every column of
    basis is +-e_r for distinct r; None for any other basis.

    A mask test: each column has one nonzero entry, of modulus exactly 1,
    and no two columns share its row.  A column one ulp off a unit vector
    is no coordinate column.
    """
    nonzero = basis != 0.0
    unit = (np.count_nonzero(nonzero, axis=0) == 1) & (np.abs(basis).sum(axis=0) == 1.0)
    inside = nonzero.any(axis=1)
    if not unit.all() or np.count_nonzero(inside) != basis.shape[1]:
        return None
    return np.flatnonzero(inside), np.flatnonzero(~inside)


def _coordinate_factors(model: ExtensionModel):
    """For a coordinate D, (s, rows of D, rows of P, L, Z) with s from
    `_unit_scale`, A_DD / s = L L^T by linalg.cholesky and Z = L^-1 A_DP / s
    by one solve; None for any other D.

    In the model's basis Q (signed, in any column order) A Q L^-T is
    [L; Z^T] up to a permutation of its rows and L up to the signs of its
    columns, neither of which moves a singular value or the Krein matrix.
    """
    split = _coordinate_rows(model.domain_basis)
    if split is None:
        return None
    dom, comp = split
    scale, a = _unit_scale(model.A.norm_max), model.A.array
    # the blocks, then their quotients: the same bits as blocks of A / s
    low = cholesky(a[np.ix_(dom, dom)] / scale)
    return scale, dom, comp, low, np.linalg.solve(low, a[np.ix_(dom, comp)] / scale)


def _pencil(model: ExtensionModel):
    """The scale s, and A Q, G_b = Q^T A Q and L^-1 for G_b = L L^T, for A / s.

    s is `_unit_scale`'s power of two.  The pencil Q^T A^2 Q u = l Q^T A Q u
    itself is never formed: its values are the squared singular values of
    A Q L^-T (Van Loan, SIAM J. Numer. Anal. 13 (1976)), which keep the
    digits that squaring A loses.
    """
    scale = _unit_scale(model.A.norm_max)
    q = model.domain_basis
    aq = (model.A.array / scale) @ q
    g_b = SymMatrix(q.T @ aq)
    low = cholesky(g_b)
    return scale, aq, g_b, np.linalg.solve(low, np.eye(low.shape[0]))


def pencil_values(model: ExtensionModel) -> np.ndarray:
    """Ascending eigenvalues of the compressed pencil Q^T A^2 Q u = l Q^T A Q u.

    They are the squared singular values of A Q L^-T, for Q^T A Q = L L^T,
    at `_unit_scale`.  A coordinate D (see krein) takes them from the
    stacked [L; Z^T] of `_coordinate_factors`, which is that matrix with
    its rows permuted and no explicit L^-1: one Cholesky factor, one solve
    and one SVD.  Any other D forms it from `_pencil`'s L^-1.
    """
    factors = _coordinate_factors(model)
    if factors is not None:
        scale, _, _, low, z = factors
        return scale * _svd(np.vstack((low, z.T)), with_vectors=False)[::-1] ** 2
    scale, aq, _, low_inv = _pencil(model)
    return scale * _svd(aq @ low_inv.T, with_vectors=False)[::-1] ** 2


def _pencil_pairs(model: ExtensionModel):
    """(s, A Q, G_b, pencil values ascending, pencil vectors) for A / s,
    from `_pencil` and one SVD of A Q L^-T, whose U is never kept; L^-1
    goes when it returns."""
    scale, aq, g_b, low_inv = _pencil(model)
    sigma, vt = _svd(aq @ low_inv.T)[1:]
    # L^-T w is orthonormal for Q^T (A / s) Q; 1 / sqrt(s) makes it so for Q^T A Q
    return scale, aq, g_b, sigma[::-1] ** 2, low_inv.T @ vt[::-1].T / math.sqrt(scale)


def _polar(aq: np.ndarray):
    """(|S|, |S|^-1, U V^T) for S = aq = U Sigma V^T and |S| = V Sigma V^T,
    from one SVD; U and V go when it returns."""
    u, sigma, vt = _svd(aq)
    return (vt.T * sigma) @ vt, (vt.T / sigma) @ vt, u @ vt


def _inverse_gap(compressed: np.ndarray, t_tilde: SymMatrix) -> float:
    """max|C^-1 - T| / max|C^-1| for C^-1 from the Cholesky factor of C."""
    inverse = _cholesky_inverse(cholesky(compressed))
    return float(max_norm(inverse - t_tilde.array) / max(max_norm(inverse), 1e-300))


def buckling_analysis(model: ExtensionModel) -> BucklingReport:
    """Pencil, polar data, and the identity residuals tying them together.

    The pencil pairs come from one SVD of A Q L^-T, and the polar data of
    S = A Q from one SVD A Q = U Sigma V^T: |S| = V Sigma V^T and the
    isometry U V^T (Higham, SIAM J. Sci. Stat. Comput. 7 (1986)).

    Each intermediate goes after its last reader.  The Krein matrix comes
    first, beside no other dense array, and goes once its eigenvalues and
    its compression to the isometry are taken; L^-1 goes after the pencil
    vectors, A Q after the polar SVD, U after the isometry, and |S|^-1 and
    G_b after T.  So krein's errors come before the pencil's on a model
    where both fail.

    residuals keys:
      krein_vs_pencil      nonzero Krein eigenvalues against pencil values
                           (relative, exact at matrix level up to roundoff)
      unitary_equivalence  inverse of the compressed Krein matrix against
                           the T operator expressed in the isometry basis;
                           T = U^T A^{-1} U, so this checks that the Krein
                           matrix and A^{-1} compressed to ran(A D) are
                           inverse to each other
      reciprocal_spectrum  eigenvalues of T against reciprocal pencil values
    """
    krein_matrix = krein(model).matrix.array
    krein_vals = _eigh(krein_matrix, with_vectors=False)[0]
    scale, aq, g_b, unit_values, vectors = _pencil_pairs(model)
    values = scale * unit_values
    nonzero = krein_vals[model.codimension:]
    resid_a = float(np.max(np.abs(nonzero - values) / np.abs(values)))

    modulus, mod_inv, isometry = _polar(aq)
    del aq
    # compress the physical Krein matrix, compare at the rescaled scale
    compressed = (isometry.T @ krein_matrix @ isometry) / scale
    del krein_matrix
    t_tilde = SymMatrix(mod_inv @ g_b.array @ mod_inv)
    del mod_inv, g_b
    resid_b = _inverse_gap(compressed, t_tilde)

    t_vals = _eigh(t_tilde.array, with_vectors=False)[0]
    recips = 1.0 / unit_values[::-1]
    resid_c = float(np.max(np.abs(t_vals - recips) / np.abs(recips)))

    return BucklingReport(
        pencil_values=values,
        pencil_vectors=vectors,
        t_matrix=SymMatrix(t_tilde.array / scale),
        polar_modulus=SymMatrix(scale * modulus),
        isometry=isometry,
        residuals={
            "krein_vs_pencil": resid_a,
            "unitary_equivalence": resid_b,
            "reciprocal_spectrum": resid_c,
        },
    )


def order_compare(e1: ExtensionResult, e2: ExtensionResult, a: float) -> float:
    """Smallest eigenvalue of (E1 + aI)^{-1} - (E2 + aI)^{-1}.

    A result down to a small negative slack (the tests allow -1e-10)
    certifies E1 <= E2 in the extension order, because PSD order is
    equivalent to the reversed order of resolvents at any positive shift.
    """
    a = _positive("shift", a)
    n = e1.matrix.order
    if e2.matrix.order != n:
        raise ValueError(f"extensions of orders {n} and {e2.matrix.order} cannot be compared")
    eye = np.eye(n)
    r1 = _cholesky_inverse(cholesky(e1.matrix.array + a * eye))
    r2 = _cholesky_inverse(cholesky(e2.matrix.array + a * eye))
    return float(_eigh(SymMatrix(r1 - r2).array, with_vectors=False)[0][0])


class SplitMix64:
    """Deterministic 64-bit stream used for cross-platform random models."""

    _GAMMA = 0x9E3779B97F4A7C15
    _MIX1 = 0xBF58476D1CE4E5B9
    _MIX2 = 0x94D493DDA76E2B63
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        if not isinstance(seed, Integral) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, got {_shown(seed)}")
        self._state = int(seed) & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * self._MIX1) & self._MASK
        z = ((z ^ (z >> 27)) * self._MIX2) & self._MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows * cols draws of `uniform`, row by row, bit for bit.

        The i-th draw mixes the state seed + i * gamma (mod 2^64), so all of
        them are computed at once in wrapping uint64 arithmetic.
        """
        rows, cols = _integer("rows", rows, 0), _integer("cols", cols, 0)
        count = rows * cols
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(self._GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(self._MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(self._MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * self._GAMMA) & self._MASK
        return ((z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53).reshape(rows, cols)


def random_model(seed: int, n: int, d: int) -> ExtensionModel:
    """Seeded random model: A = M^T M + 0.1 I keeps the bottom above 0.1."""
    stream = SplitMix64(seed)
    m = stream.uniform_matrix(n, n)
    a = SymMatrix(m.T @ m + 0.1 * np.eye(n))
    raw = stream.uniform_matrix(n, d)
    return new_model(a, raw)
