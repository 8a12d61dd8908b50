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
fixed row blocks: a block's d_i - lam for every shift come from one copy and
one subtraction, each step then costs two ufunc calls and nothing else, and
the block's sign bits are counted at once, in scratch memory of a few row
blocks times the number of shifts.  A count twisted at row k takes the rows
above k forward and those below it backward in the same steps, as two lanes
of one buffer, so a twist at the middle row halves the steps: at m = 800 on
a 2-CPU Xeon a sweep took a median 1.08 ms at 40 shifts and 1.94 ms at 511,
against 1.63 and 2.26 ms forward, mostly call overhead.  The same sweep can
also return each shift's twist element 1 / ((T - lam)^-1)_kk, at the
default twist the last pivot det(T - lam) / det(T_{m-1} - lam), which radial
multisection fits to finish an isolated bracket: it costs no ufunc call
beyond the count's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, NotPositiveSemidefinite, _integer
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

# Rows per row block of the Sturm sweep, shared by its lanes; at most 255,
# so a block's sign bits sum in uint8.
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
        # halves never overflow; pairs equal bit for bit are kept, as a half
        # of a subnormal rounds.  inf + -inf is NaN, for a later typed error
        with np.errstate(invalid="ignore"):
            sym = np.where(a.view(np.int64) == a.T.view(np.int64), a, 0.5 * a + 0.5 * a.T)
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


def sturm_count(diag, offdiag, lam, *, last_pivot=False, twist=None):
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

    twist is the row k (0-based) of the twisted factorization
    T - lam = N_k Gamma N_k^T (Marques, Riedy & Voemel, SIAM J. Sci. Comput.
    28 (2006), LAPACK's dlaneg).  Rows 0..k-1 are taken forward as above,
    rows m-1..k+1 backward by the mirrored recurrence
    p_i = (d_i - lam) - e_i^2 / p_{i+1}, and k itself by the twist element
    gamma_k = (d_k - lam) - e_{k-1}^2 / q_{k-1} - e_k^2 / p_{k+1}; the count
    is the sign bits of all three, under the same IEEE rules.  The default
    None is the last row, where the backward part is empty: that is the
    forward sweep above, bit for bit.  Another twist counts the eigenvalues
    of a matrix as close to T, so it may differ within a few ulps of one.
    A twist that is not an integer in 0..m-1 raises DomainError.

    One sweep over the rows updates every shift at once, the two parts side
    by side: each step takes a forward and a backward row, so twist m // 2
    takes about half as many steps as the default.  The rows come in row
    blocks of _STURM_BLOCK rows, so of half as many steps while both parts
    run: a copy of the shifts and one subtraction fill a
    steps-by-parts-by-shifts buffer with d_i - lam, each step with a
    nonzero off-diagonal then turns its rows into pivots in place by two
    ufunc calls (a row where T splits already is its pivot), and the
    block's sign bits are summed at once.  Below a few hundred shifts a step
    costs mostly the overhead of those two calls, so at m = 800 on a 2-CPU
    Xeon a sweep twisted at m // 2 took a median 0.41 of the forward
    sweep's time at one shift, 0.65 at 8 to 40 shifts and 0.86 at 511.
    Scratch memory is about two row blocks by the number of shifts.

    With last_pivot=True the result is the pair (counts, pivots), pivots
    holding each shift's twist element (a float for one shift), taken from
    the same sweep; the counts are the same bits either way.  It is
    gamma_k(lam) = 1 / ((T - lam)^-1)_kk, which decreases strictly between
    its poles, the eigenvalues of T with row and column k deleted, and whose
    zeros are eigenvalues of T.  At the default twist it is the last pivot
    q_m = det(T - lam) / det(T_{m-1} - lam).  A zero off-diagonal restarts
    the pivots, so gamma_k then belongs to the diagonal block of row k alone.
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
    k = n - 1 if twist is None else _integer("twist", twist, 0, n - 1)
    shifts = np.asarray(lam, dtype=float)
    if np.isnan(shifts).any():
        raise ValueError("shift is NaN")
    s = shifts.reshape(-1)
    e2 = e * e
    # Lane 0 holds rows 0..k-1 and lane 1 rows m-1..k+1: step j of a lane
    # is its j-th row, with the e^2 that links it to the lane's row before
    # (none at step 0)
    top, bottom = k, n - 1 - k
    rows = np.zeros((2, max(top, bottom)))
    links = np.zeros_like(rows)
    rows[0, :top], rows[1, :bottom] = d[:k], d[:k:-1]
    links[0, 1:top], links[1, 1:bottom] = e2[:k][:-1], e2[:k:-1]
    # Both lanes run while both have rows, then the longer one alone; ends
    # holds each lane's last pivot
    count = np.zeros(s.shape, dtype=np.intp)
    ends = np.zeros((2, s.size))
    shared = min(top, bottom)
    with np.errstate(divide="ignore", over="ignore"):
        if shared:
            ends[:] = _sweep_lanes(rows[:, :shared], links[:, :shared], s, count, ends)
        if rows.shape[1] > shared:
            lane = slice(1, 2) if bottom > top else slice(0, 1)
            ends[lane] = _sweep_lanes(rows[lane, shared:], links[lane, shared:], s, count,
                                      ends[lane])
        gamma = d[k] - s
        if top and e2[k - 1]:  # e^2 is never -0 or NaN
            gamma -= e2[k - 1] / ends[0]
        if bottom and e2[k]:
            gamma -= e2[k] / ends[1]
    count += np.signbit(gamma)
    if shifts.ndim == 0:
        count = int(count[0])
        return (count, float(gamma[0])) if last_pivot else count
    count = count.reshape(shifts.shape)
    return (count, gamma.reshape(shifts.shape)) if last_pivot else count


def _sweep_lanes(rows, links, s, count, carry):
    """Pivots of one sweep's lanes over their steps, the sign bits added to
    count; returns each lane's last pivot.

    rows and links are the (lanes, steps) diagonal entries and e^2 of each
    step, and carry each lane's pivot before the first step.  A step is two
    ufunc calls over all its lanes, or over the one lane with a link when
    the other has none; a step with no link is its own pivots, which also
    keeps 0/0 out.
    """
    lanes, steps = rows.shape
    per = _STURM_BLOCK // lanes  # steps per row block
    # row 0 of q carries the last pivots of the previous row block
    q = np.empty((min(steps, per) + 1, lanes, s.size))
    q[0] = carry
    table = np.empty_like(q[1:])
    tmp = np.empty_like(q[0])
    sign = np.empty(table.shape, dtype=bool)
    linked = links.all(0).tolist()
    pivots, e2s = list(q), list(table)
    divide, subtract = np.divide, np.subtract
    for start in range(0, steps, per):
        size = min(per, steps - start)
        block = q[1:size + 1]
        block[...] = s  # then d_i - lam in place: faster than broadcasting both
        subtract(rows.T[start:start + size, :, None], block, block)
        table[:size] = links.T[start:start + size, :, None]
        for both, e2i, prev, row in zip(linked[start:start + size], e2s, pivots, pivots[1:]):
            if both:
                subtract(row, divide(e2i, prev, tmp), row)
            elif e2i.any():  # e^2 is never -0 or NaN
                lane = 0 if e2i[0, 0] else 1
                subtract(row[lane], divide(e2i[lane], prev[lane], tmp[lane]), row[lane])
        np.signbit(block, sign[:size])
        count += sign[:size].view(np.uint8).sum(axis=(0, 1), dtype=np.uint8)
        q[0] = q[size]
    return q[0]
