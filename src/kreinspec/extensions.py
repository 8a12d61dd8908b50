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

Two independent constructions of the Krein extension are always computed and
cross-checked: the piecewise one (equal to A on D, zero on (A D)^perp) is
the canonical output because it exercises the direct-sum domain splitting
literally; the closed form A^(1/2) P A^(1/2), with P the orthogonal
projector onto A^(1/2) D, validates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionMismatch,
    NoDeficiency,
    NotOrthogonal,
    NotPositiveDefinite,
    NotPSD,
    RankDeficientBasis,
    SingularDecomposition,
)
from .linalg import (
    SymMatrix,
    _eigh,
    cholesky,
    gen_sym_eigen,
    gen_sym_eigen_values,
    max_norm,
    solve_cholesky,
    spd_sqrt,
    sym_eigen,
    sym_eigen_values,
)
from .tolerances import DEFAULT, ToleranceProfile

__all__ = [
    "ExtensionModel",
    "ExtensionResult",
    "ReducedKrein",
    "BucklingReport",
    "new_model",
    "friedrichs",
    "adjoint_kernel",
    "krein",
    "parametrized_extension",
    "reduced_krein",
    "buckling_analysis",
    "pencil_values",
    "direct_sum",
    "conjugate_by_unitary",
    "order_compare",
    "SplitMix64",
    "random_model",
]


@dataclass(frozen=True)
class ExtensionModel:
    """Positive-definite A together with an orthonormal basis of D."""

    A: SymMatrix
    domain_basis: np.ndarray  # N x d, orthonormal columns spanning D
    epsilon: float            # smallest eigenvalue of A

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
    construction_gap: float = 0.0  # krein: piecewise vs closed-form mismatch
    w_basis: np.ndarray | None = None   # parametrized: the subspace W
    b_matrix: SymMatrix | None = None   # parametrized: the parameter B

    def extends_residual(self, model: ExtensionModel) -> float:
        q = model.domain_basis
        return max_norm(self.matrix.array @ q - model.A.array @ q)

    def kernel_residual(self) -> float:
        if self.kernel_basis.shape[1] == 0:
            return 0.0
        return max_norm(self.matrix.array @ self.kernel_basis)


@dataclass(frozen=True)
class ReducedKrein:
    """Krein extension compressed to the complement of its kernel."""

    basis: np.ndarray        # N x d, orthonormal columns spanning (ker S_K)^perp
    matrix: SymMatrix        # d x d compression, positive definite
    skinv_residual: float    # inverse-formula defect against compressed A^{-1}


@dataclass(frozen=True)
class BucklingReport:
    """Pencil data for P_D A^2|_D u = lambda P_D A|_D u and its companions."""

    pencil_values: np.ndarray
    pencil_vectors: np.ndarray      # G_b-orthonormal coordinates in D
    t_matrix: SymMatrix             # d x d, bounded by 1/epsilon in norm
    polar_modulus: SymMatrix        # |S| = (Q^T A^2 Q)^(1/2)
    isometry: np.ndarray            # U_S = A Q |S|^{-1}, orthonormal columns
    residuals: dict


def _qr_split(columns: np.ndarray, rel_floor: float, error, complete: bool = False):
    """Orthonormal bases of span(columns) and, if complete, of its complement.

    One Householder QR from LAPACK; the complement is the trailing columns of
    the complete factorization, orthogonal to the span up to rounding at every
    size (None unless complete).  Raises `error` when some |R_jj| falls at or
    below rel_floor times the largest column norm.
    """
    d = columns.shape[1]
    q, r = np.linalg.qr(columns, mode="complete" if complete else "reduced")
    floor = rel_floor * np.max(np.linalg.norm(columns, axis=0), initial=0.0)
    independent = int(np.count_nonzero(np.abs(np.diagonal(r)) > floor))
    if independent < d:
        raise error(f"only {independent} of {d} columns are independent")
    return q[:, :d], (q[:, d:] if complete else None)


def new_model(a, raw_basis) -> ExtensionModel:
    """Build a model from A and a spanning set of D (columns).

    A basis that is already orthonormal is kept as given; any other is
    replaced by the Q of its Householder QR.  The bottom eigenvalue of A is
    computed by LAPACK eigvalsh, without eigenvectors, and stored.
    """
    a = a if isinstance(a, SymMatrix) else SymMatrix(a)
    raw = np.asarray(raw_basis, dtype=float)
    if raw.ndim == 1:
        raw = raw[:, None]
    n = a.order
    if raw.shape[0] != n:
        raise ValueError(f"basis rows {raw.shape[0]} != ambient dimension {n}")
    d = raw.shape[1]
    if d >= n:
        raise NoDeficiency(f"domain dimension {d} leaves no deficiency in {n}")
    if d < 1:
        raise ValueError("domain must have at least one column")
    eps = float(_eigh(a.array, with_vectors=False)[0][0])
    if eps <= n * DEFAULT.cholesky_pivot_rel * a.norm_max:
        raise NotPositiveDefinite(f"bottom eigenvalue {eps:.3e} not positive")
    gram = raw.T @ raw
    if max_norm(gram - np.eye(d)) <= DEFAULT.orthonormal_rel:
        basis = raw.astype(float).copy()
    else:
        basis = _qr_split(raw, n * DEFAULT.rank_rel, RankDeficientBasis)[0]
    basis.flags.writeable = False
    return ExtensionModel(A=a, domain_basis=basis, epsilon=eps)


def friedrichs(model: ExtensionModel) -> ExtensionResult:
    """The largest extension; in the finite model this is A itself."""
    n = model.ambient_dim
    return ExtensionResult(
        matrix=model.A, kind="friedrichs", kernel_basis=np.empty((n, 0))
    )


def adjoint_kernel(model: ExtensionModel) -> np.ndarray:
    """Orthonormal basis of ran(A D)^perp, the model's ker(S*)."""
    aq = model.A.array @ model.domain_basis
    return _qr_split(aq, model.ambient_dim * DEFAULT.rank_rel,
                     SingularDecomposition, complete=True)[1]


def _extension_from_action(span: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The matrix sending span[:, j] to images[:, j], for a square span.

    Raises SingularDecomposition when the span is numerically singular
    (smallest singular value, from LAPACK's SVD, at or below
    N * rank_rel * largest); the construction fails loudly instead of
    regularizing.
    """
    n = span.shape[0]
    sing = np.linalg.svd(span, compute_uv=False)
    if sing[-1] <= n * DEFAULT.rank_rel * sing[0]:
        raise SingularDecomposition(
            f"spanning set has singular values {sing[-1]:.3e} .. {sing[0]:.3e}"
        )
    return np.linalg.solve(span.T, images.T).T


def krein(model: ExtensionModel, profile: ToleranceProfile = DEFAULT) -> ExtensionResult:
    """The smallest extension: equal to A on D and zero on (A D)^perp.

    Assembled piecewise from that definition, then cross-checked against the
    independent closed form A^(1/2) P A^(1/2) with P projecting onto
    A^(1/2) D; a mismatch beyond construction_rel * max|A| is a bug, never a
    math failure, and raises ConstructionMismatch.

    `profile` sets only construction_rel and the Gram floor's
    cholesky_pivot_rel; the callees read tolerances.DEFAULT.  It stays
    because the benchmark's tracer reads profile.construction_rel.
    """
    a = model.A.array
    q = model.domain_basis
    kernel = adjoint_kernel(model)
    span = np.concatenate((q, kernel), axis=1)
    images = np.concatenate((a @ q, np.zeros_like(kernel)), axis=1)
    piecewise = _extension_from_action(span, images)
    piecewise = 0.5 * (piecewise + piecewise.T)

    # P = Q_h Q_h^T from the QR of A^(1/2) Q, so A^(1/2) P A^(1/2) = F F^T
    # with F = A^(1/2) Q_h.  The floor is the Cholesky pivot floor of the
    # Gram matrix Q^T A Q, whose pivots are the squares of |R_jj|.
    root = spd_sqrt(model.A).array
    rel_floor = math.sqrt(model.domain_dim * profile.cholesky_pivot_rel)
    half_dom = _qr_split(root @ q, rel_floor, NotPositiveDefinite)[0]
    factor = root @ half_dom
    closed_form = factor @ factor.T

    gap = max_norm(piecewise - closed_form)
    if gap > profile.construction_rel * model.A.norm_max:
        raise ConstructionMismatch(
            f"piecewise vs closed-form Krein matrices differ by {gap:.3e}"
        )
    return ExtensionResult(
        matrix=SymMatrix(piecewise),
        kind="krein",
        kernel_basis=kernel,
        construction_gap=gap,
    )


def parametrized_extension(model: ExtensionModel, w_basis, b) -> ExtensionResult:
    """Extension selected by a PSD parameter B on a subspace W of ker(S*).

    The defining action: a domain vector f + A^{-1}(B w + eta) + w, with f
    in D, w in W and eta in ker(S*) orthogonal to W, is sent to
    A f + B w + eta.  The assembled matrix is verified symmetric PSD and an
    extension of A|_D, and its kernel is W applied to ker(B).

    The choices W = ker(S*) with B = 0, and W = {0}, recover the Krein and
    Friedrichs extensions.
    """
    a = model.A.array
    n = model.ambient_dim
    q = model.domain_basis
    w = np.asarray(w_basis, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    p = w.shape[1]
    kernel = adjoint_kernel(model)
    if p:
        if max_norm(w.T @ w - np.eye(p)) > DEFAULT.orthonormal_rel:
            raise NotOrthogonal(
                f"W basis columns are not orthonormal within {DEFAULT.orthonormal_rel:g}")
        if max_norm((a @ q).T @ w) > DEFAULT.adjoint_kernel_rel * model.A.norm_max * n:
            raise NotOrthogonal("W is not inside ker(S*) = ran(A D)^perp")
    if p:
        b = b if isinstance(b, SymMatrix) else SymMatrix(np.asarray(b, dtype=float).reshape(p, p))
        if b.order != p:
            raise ValueError(f"parameter order {b.order} != dim W = {p}")
        b_eigen = sym_eigen(b)
        if b_eigen.values[0] < -DEFAULT.psd_clamp_rel * max(b.norm_max, 1e-300):
            raise NotPSD(f"parameter has eigenvalue {b_eigen.values[0]:.3e}")
    else:
        b, b_eigen = None, None

    # eta directions: ker(S*) part orthogonal to W
    if p:
        # W in kernel coordinates is orthonormal, so it never fails the floor
        eta = kernel @ _qr_split(kernel.T @ w, DEFAULT.rank_rel,
                                 SingularDecomposition, complete=True)[1]
    else:
        eta = kernel

    a_low = cholesky(model.A)
    pieces_span = [q]
    pieces_img = [a @ q]
    if p:
        wb = w @ b.array
        pieces_span.append(solve_cholesky(a_low, wb) + w)
        pieces_img.append(wb)
    if eta.shape[1]:
        pieces_span.append(solve_cholesky(a_low, eta))
        pieces_img.append(eta)
    span = np.concatenate(pieces_span, axis=1)
    images = np.concatenate(pieces_img, axis=1)
    matrix = _extension_from_action(span, images)

    sym_defect = max_norm(matrix - matrix.T)
    matrix = 0.5 * (matrix + matrix.T)
    scale = model.A.norm_max
    if sym_defect > DEFAULT.construction_rel * scale:
        raise ConstructionMismatch(f"assembled matrix asymmetric by {sym_defect:.3e}")
    values = sym_eigen_values(matrix)
    if values[0] < -DEFAULT.construction_rel * scale:
        raise ConstructionMismatch(f"assembled matrix has eigenvalue {values[0]:.3e}")
    ext_resid = max_norm(matrix @ q - a @ q)
    if ext_resid > DEFAULT.extension_residual_rel * scale * n:
        raise ConstructionMismatch(f"extension residual {ext_resid:.3e}")

    if p:
        floor = DEFAULT.psd_clamp_rel * max(b.norm_max, 1.0) * p
        null_cols = b_eigen.vectors[:, np.abs(b_eigen.values) <= floor]
        kernel_basis = w @ null_cols
    else:
        kernel_basis = np.empty((n, 0))
    return ExtensionResult(
        matrix=SymMatrix(matrix),
        kind="parametrized",
        kernel_basis=kernel_basis,
        w_basis=w,
        b_matrix=b,
    )


def reduced_krein(model: ExtensionModel) -> ReducedKrein:
    """Compression of the Krein extension to the complement of its kernel.

    The inverse formula is reported as a residual: the inverse of the
    compressed Krein matrix should equal the compression of A^{-1} to the
    same subspace.
    """
    kr = krein(model)
    aq = model.A.array @ model.domain_basis
    basis = _qr_split(aq, model.ambient_dim * DEFAULT.rank_rel, SingularDecomposition)[0]
    compressed = basis.T @ kr.matrix.array @ basis
    compressed = 0.5 * (compressed + compressed.T)
    low = cholesky(compressed)
    inv_compressed = solve_cholesky(low, np.eye(model.domain_dim))
    a_low = cholesky(model.A)
    a_inv_compressed = basis.T @ solve_cholesky(a_low, basis)
    resid = max_norm(0.5 * (inv_compressed + inv_compressed.T) - a_inv_compressed)
    return ReducedKrein(
        basis=basis, matrix=SymMatrix(compressed), skinv_residual=float(resid)
    )


def _pencil(model: ExtensionModel):
    """The scale s, and A Q, Q^T A^2 Q and Q^T A Q for the rescaled A / s.

    s is a power of two near max|A|.  Every construction here is exactly
    homogeneous in A, and dividing by a power of two is exact in IEEE
    arithmetic, so working at unit scale and scaling results back commits no
    extra rounding.  This matters for the pencil: squaring A at physical
    scale (discretizations carry 1/h^2) otherwise buries the small
    eigenvalues in assembly noise.
    """
    norm = model.A.norm_max
    scale = float(2.0 ** math.frexp(norm)[1]) if norm else 1.0
    q = model.domain_basis
    aq = (model.A.array / scale) @ q
    return scale, aq, SymMatrix(aq.T @ aq), SymMatrix(q.T @ aq)


def pencil_values(model: ExtensionModel) -> np.ndarray:
    """Ascending eigenvalues of the compressed pencil Q^T A^2 Q u = l Q^T A Q u."""
    scale, _, g_a, g_b = _pencil(model)
    return scale * gen_sym_eigen_values(g_a, g_b)


def buckling_analysis(model: ExtensionModel) -> BucklingReport:
    """Pencil, polar data, and the identity residuals tying them together.

    residuals keys:
      krein_vs_pencil      nonzero Krein eigenvalues against pencil values
                           (relative, exact at matrix level up to roundoff)
      unitary_equivalence  inverse of the compressed Krein matrix against
                           the T operator expressed in the isometry basis
      reciprocal_spectrum  eigenvalues of T against reciprocal pencil values
    """
    scale, aq, g_a, g_b = _pencil(model)
    d = model.domain_dim
    pencil = gen_sym_eigen(g_a, g_b)
    values = scale * pencil.values

    modulus = spd_sqrt(g_a)
    mod_low = cholesky(modulus)
    mod_inv = solve_cholesky(mod_low, np.eye(d))
    t_tilde = mod_inv @ g_b.array @ mod_inv
    t_tilde = 0.5 * (t_tilde + t_tilde.T)
    isometry = aq @ mod_inv

    kr = krein(model)
    krein_vals = sym_eigen_values(kr.matrix)
    nonzero = krein_vals[model.codimension:]
    resid_a = float(np.max(np.abs(nonzero - values) / np.abs(values)))

    # compress the physical Krein matrix, compare at the rescaled scale
    compressed = (isometry.T @ kr.matrix.array @ isometry) / scale
    low = cholesky(compressed)
    inv_compressed = solve_cholesky(low, np.eye(d))
    resid_b = float(
        max_norm(inv_compressed - t_tilde)
        / max(max_norm(inv_compressed), 1e-300)
    )

    t_vals = sym_eigen_values(t_tilde)
    recips = np.sort(1.0 / pencil.values)
    resid_c = float(np.max(np.abs(t_vals - recips) / np.abs(recips)))

    return BucklingReport(
        pencil_values=values,
        pencil_vectors=pencil.vectors,
        t_matrix=SymMatrix(t_tilde / scale),
        polar_modulus=SymMatrix(scale * modulus.array),
        isometry=isometry,
        residuals={
            "krein_vs_pencil": resid_a,
            "unitary_equivalence": resid_b,
            "reciprocal_spectrum": resid_c,
        },
    )


def direct_sum(m1: ExtensionModel, m2: ExtensionModel) -> ExtensionModel:
    """Block model: extensions of a direct sum are direct sums of extensions."""
    n1, n2 = m1.ambient_dim, m2.ambient_dim
    a = np.zeros((n1 + n2, n1 + n2))
    a[:n1, :n1] = m1.A.array
    a[n1:, n1:] = m2.A.array
    basis = np.zeros((n1 + n2, m1.domain_dim + m2.domain_dim))
    basis[:n1, :m1.domain_dim] = m1.domain_basis
    basis[n1:, m1.domain_dim:] = m2.domain_basis
    return new_model(SymMatrix(a), basis)


def conjugate_by_unitary(model: ExtensionModel, u) -> ExtensionModel:
    """Model with A replaced by U A U^T and the domain carried along."""
    u = np.asarray(u, dtype=float)
    n = model.ambient_dim
    if u.shape != (n, n):
        raise ValueError(f"conjugator shape {u.shape} != ({n}, {n})")
    if max_norm(u.T @ u - np.eye(n)) > DEFAULT.orthonormal_rel:
        raise NotOrthogonal(f"conjugator is not orthogonal within {DEFAULT.orthonormal_rel:g}")
    a = SymMatrix(u @ model.A.array @ u.T)
    return new_model(a, u @ model.domain_basis)


def order_compare(e1: ExtensionResult, e2: ExtensionResult, a: float) -> float:
    """Smallest eigenvalue of (E1 + aI)^{-1} - (E2 + aI)^{-1}.

    A result down to a small negative slack (the tests allow -1e-10)
    certifies E1 <= E2 in the extension order, because PSD order is
    equivalent to the reversed order of resolvents at any positive shift.
    """
    if a <= 0.0:
        raise ValueError("shift must be positive")
    n = e1.matrix.order
    eye = np.eye(n)
    r1 = solve_cholesky(cholesky(e1.matrix.array + a * eye), eye)
    r2 = solve_cholesky(cholesky(e2.matrix.array + a * eye), eye)
    return float(sym_eigen_values(r1 - r2)[0])


class SplitMix64:
    """Deterministic 64-bit stream used for cross-platform random models."""

    _GAMMA = 0x9E3779B97F4A7C15
    _MIX1 = 0xBF58476D1CE4E5B9
    _MIX2 = 0x94D493DDA76E2B63
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

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
