"""Dense symmetric linear algebra used by every other module.

The factorizations are numpy's LAPACK-backed routines: eigh (syevd),
eigvalsh, svd (gesdd), cholesky (potrf) and solve (gesv).  This module adds
the library's contracts around them: exactly symmetric input, ascending
eigenvalues, the Cholesky pivot floor, the PSD clamp of the square root, and
typed errors in place of LinAlgError.  Each Cholesky factor is inverted at
most once, by one solve, and the inverse is then applied by GEMM.  Spectra
the library needs only the values of come from eigvalsh, and singular values
from svd without U and V.  Exact symmetry comes from SymMatrix alone: it is
the only code that averages a matrix with its transpose, every routine here
wraps a plain array in one, and a SymMatrix argument is used as is.  The
Sturm count for symmetric tridiagonals is written out here: numpy has no
tridiagonal routine, and radial multisection needs the counts at many shifts
from one sweep.  It relies on IEEE infinities and signed zeros in place of a
pivot floor, so it needs no tuning constant.  The sweep takes the rows in
fixed row blocks: a block's d_i - lam for every shift come from one
broadcast, each row then costs at most two ufunc calls, and the block's sign
bits are counted at once, in scratch memory of a few row blocks times the
number of shifts.  The same sweep can also return each shift's last pivot,
det(T - lam) / det(T_{m-1} - lam), which radial multisection fits to finish
an isolated bracket: it costs no ufunc call beyond the count's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, NotPositiveSemidefinite
from .tolerances import CHOLESKY_PIVOT_REL, PSD_CLAMP_REL

__all__ = [
    "SymMatrix",
    "EigenDecomposition",
    "cholesky",
    "sym_eigen",
    "spd_sqrt",
    "sturm_count",
    "max_norm",
]

# Rows per row block of the Sturm sweep; at most 255, so a block's sign
# bits sum in uint8.
_STURM_BLOCK = 64


def max_norm(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


class SymMatrix:
    """Square symmetric matrix of IEEE doubles.

    The constructor symmetrizes by averaging, so downstream code can always
    rely on exact entrywise symmetry.  It is the library's only
    symmetrizer: a new matrix is wrapped once, and a SymMatrix argument is
    used as is, never averaged again.  Its array is read-only.
    """

    __slots__ = ("array", "order")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        # inf + -inf is NaN: a non-finite matrix fails later with the typed
        # error of the routine it reaches
        with np.errstate(invalid="ignore"):
            sym = 0.5 * (a + a.T)
        sym.flags.writeable = False
        self.array = sym
        self.order = int(a.shape[0])

    @property
    def norm_max(self) -> float:
        return max_norm(self.array)

    def __repr__(self):
        return f"SymMatrix(order={self.order})"


def _as_sym(s) -> SymMatrix:
    return s if isinstance(s, SymMatrix) else SymMatrix(s)


@dataclass
class EigenDecomposition:
    """Full spectral decomposition A = V diag(values) V^T, values ascending."""

    values: np.ndarray
    vectors: np.ndarray  # columns orthonormal


def cholesky(s) -> np.ndarray:
    """Lower-triangular L with L L^T = S, from LAPACK through numpy.

    Raises NotPositiveDefinite when LAPACK breaks down or when a pivot
    diag(L)^2 falls at or below order * CHOLESKY_PIVOT_REL * max|S|: for
    this library that always means an invalid pencil or model rather than a
    borderline matrix, and so does a non-finite entry, checked before LAPACK.
    """
    a = _as_sym(s).array
    if not np.all(np.isfinite(a)):
        raise NotPositiveDefinite("matrix has non-finite entries")
    floor = a.shape[0] * CHOLESKY_PIVOT_REL * max_norm(a)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from None
    pivots = np.diagonal(low) ** 2
    bad = np.flatnonzero(~(pivots > floor))
    if bad.size:
        j = int(bad[0])
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at column {j} below floor {floor:.3e}"
        )
    return low


def _cholesky_inverse(low: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 = L^-T L^-1 from one solve for L^-1 and one GEMM."""
    low_inv = np.linalg.solve(low, np.eye(low.shape[0]))
    return low_inv.T @ low_inv


def _eigh(a: np.ndarray, with_vectors: bool = True):
    """LAPACK eigh, or eigvalsh without vectors (which are then None).

    A non-finite entry, a failure or a non-finite eigenvalue raises
    NoConvergence.  The entries are checked first because eigvalsh can
    return finite values for a NaN matrix ([0, -0] for diag(NaN, 1)).
    """
    if not np.all(np.isfinite(a)):
        raise NoConvergence("symmetric eigensolver got non-finite entries")
    try:
        values, vectors = np.linalg.eigh(a) if with_vectors else (np.linalg.eigvalsh(a), None)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise NoConvergence("symmetric eigensolver returned non-finite eigenvalues")
    return values, vectors


def _svd(a: np.ndarray, with_vectors: bool = True):
    """Thin LAPACK SVD (gesdd) as (U, s, V^T), or s alone without vectors.

    s is descending.  A non-finite entry or a failure raises NoConvergence;
    the entries are checked first, as in _eigh.
    """
    if not np.all(np.isfinite(a)):
        raise NoConvergence("singular value decomposition got non-finite entries")
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=with_vectors)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value decomposition failed: {exc}") from None


def sym_eigen(s) -> EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors, by LAPACK syevd."""
    values, vectors = _eigh(_as_sym(s).array)
    return EigenDecomposition(values=values, vectors=vectors)


def spd_sqrt(s) -> SymMatrix:
    """Symmetric PSD square root via the eigendecomposition.

    Eigenvalues below -PSD_CLAMP_REL * max|S| are rejected; the roundoff
    window [-tol, 0] is clamped to zero because discretization matrices are
    PSD only up to rounding.
    """
    s = _as_sym(s)
    eig = sym_eigen(s)
    lo = -PSD_CLAMP_REL * max(s.norm_max, 1e-300)
    if eig.values[0] < lo:
        raise NotPositiveSemidefinite(
            f"eigenvalue {eig.values[0]:.6e} below clamp window {lo:.3e}"
        )
    vals = np.clip(eig.values, 0.0, None)
    root = (eig.vectors * np.sqrt(vals)) @ eig.vectors.T
    return SymMatrix(root)


def sturm_count(diag, offdiag, lam, *, last_pivot=False):
    """Number of eigenvalues strictly below lam for a symmetric tridiagonal.

    lam is one shift, which gives an int, or an array of shifts, which gives
    an int array of counts of the same shape.  The pivots of T - lam I,
    q_i = (d_i - lam) - e_{i-1}^2 / q_{i-1}, are formed in IEEE arithmetic
    with no pivot floor, and each pivot whose sign bit is set counts one
    eigenvalue (Demmel, Dhillon & Ren, ETNA 3 (1995)); the count is then
    monotone in lam.  A zero pivot is +0 and is not counted, the next pivot
    is -inf and is, and the one after is finite again.  So an eigenvalue at
    exactly lam is not counted: the count is of eigenvalues strictly below
    lam.  At an off-diagonal that is exactly zero T splits, and the pivot
    restarts at q_i = d_i - lam, which also keeps 0/0 out of the sweep.
    A non-finite entry of T, or a NaN shift, raises ValueError: the sign
    bits would count nothing meaningful.

    One sweep over the rows updates every shift at once.  It takes the rows
    in row blocks of _STURM_BLOCK: one broadcast fills a rows-by-shifts
    buffer with d_i - lam, each row with a nonzero off-diagonal then turns
    into its pivot in place by two ufunc calls (a row where T splits already
    is its pivot), and the block's sign bits are summed at once.  Scratch
    memory is about two row blocks by the number of shifts.

    With last_pivot=True the result is the pair (counts, pivots), pivots
    holding the last pivot q_m(lam) = det(T - lam) / det(T_{m-1} - lam) of
    each shift (a float for one shift), taken from the same sweep; the
    counts are the same bits either way.  Between its poles, the
    eigenvalues of T_{m-1}, q_m decreases strictly, and its zeros are
    eigenvalues of T.  A zero off-diagonal restarts the pivots, so q_m then
    belongs to the last diagonal block alone.
    """
    # + 0.0 turns a -0 diagonal entry into +0, so no pivot is ever -0
    d = np.asarray(diag, dtype=float) + 0.0
    e = np.asarray(offdiag, dtype=float)
    n = d.size
    if n < 1:
        raise ValueError("tridiagonal has no rows")
    if e.size != n - 1:
        raise ValueError(f"offdiag length {e.size} does not match order {n}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal has non-finite entries")
    shifts = np.asarray(lam, dtype=float)
    if np.isnan(shifts).any():
        raise ValueError("shift is NaN")
    s = shifts.reshape(-1)
    # Row 0 of q carries the last pivot of the previous row block.  Per-call
    # overhead is most of a row's cost, so each row is at most two calls.
    q = np.empty((_STURM_BLOCK + 1, s.size))
    rows = list(q)
    tmp = np.empty_like(s)
    sign = np.empty((_STURM_BLOCK, s.size), dtype=bool)
    count = np.zeros(s.shape, dtype=np.intp)
    e2 = [0.0] + (e * e).tolist()
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, n, _STURM_BLOCK):
            size = min(_STURM_BLOCK, n - start)
            np.subtract(d[start:start + size, None], s, q[1:size + 1])
            for row, e2i in enumerate(e2[start:start + size], 1):
                if e2i != 0.0:
                    np.divide(e2i, rows[row - 1], tmp)
                    np.subtract(rows[row], tmp, rows[row])
            np.signbit(q[1:size + 1], sign[:size])
            count += sign[:size].view(np.uint8).sum(axis=0, dtype=np.uint8)
            rows[0][:] = rows[size]
    if shifts.ndim == 0:
        count = int(count[0])
        return (count, float(q[0, 0])) if last_pivot else count
    count = count.reshape(shifts.shape)
    return (count, q[0].reshape(shifts.shape).copy()) if last_pivot else count
