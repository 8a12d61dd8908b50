"""Dense symmetric linear algebra used by every other module.

The factorizations are numpy's LAPACK-backed routines: eigh (syevd),
eigvalsh, svd (gesdd), cholesky (potrf) and solve (gesv).  This module adds
the library's contracts around them: exactly symmetric input, ascending
eigenvalues, the Cholesky pivot floor, the PSD clamp of the square root, and
typed errors in place of LinAlgError.  Those errors live in one gate,
`_lapack`, the only caller of eigh, eigvalsh, svd and cholesky: it checks
the entries are finite before LAPACK and turns a LinAlgError into the
caller's error.  solve runs only on Cholesky factors that passed the pivot
floor, or their transposes.  Each Cholesky factor is inverted at
most once, by one solve, and the inverse is then applied by GEMM.  Spectra
the library needs only the values of come from eigvalsh, and singular values
from svd without U and V.  Exact symmetry comes from SymMatrix alone: it is
the only code that averages a matrix with its transpose, every routine here
wraps a plain array in one, and a SymMatrix argument is used as is.  The
Sturm count for symmetric tridiagonals is written out here: numpy has no
tridiagonal routine, and radial multisection needs the counts at many shifts
from one sweep.  It relies on IEEE infinities and signed zeros in place of a
pivot floor, so it needs no tuning constant.  The sweep takes the rows in
fixed row blocks: a block's d_i - lam for every shift come from one copy of
its diagonal entries and one subtraction of a block of shifts made once per
sweep, each step then costs two ufunc calls and nothing else, and the
block's sign bits are added at once into a byte per row and shift, in
scratch memory of a few row blocks times the number of shifts.  A count
twisted at row k takes the rows above k forward and those below it backward
in the same steps, as two lanes of one buffer, so a twist at the middle row
halves the steps: at m = 800 on a 2-CPU Xeon (Python 3.11, numpy 2.4) a
sweep took a median 0.48 ms at 40 shifts and 1.34 ms at 511, against 0.77
and 1.66 ms forward, mostly call overhead at the fewer shifts.  The same
sweep can also return each shift's twist element 1 / ((T - lam)^-1)_kk, at
the default twist the last pivot det(T - lam) / det(T_{m-1} - lam), which
radial multisection fits to finish an isolated bracket: it costs no ufunc
call beyond the count's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, NotPositiveSemidefinite, _integer, _reals
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

# Rows per row block of the Sturm sweep, shared by its lanes.  Of 16, 32, 64
# and 96, 64 took the least time at m = 800 and 511 shifts.
_STURM_BLOCK = 64


def max_norm(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


class SymMatrix:
    """Square symmetric matrix of IEEE doubles.

    The constructor symmetrizes by averaging, so downstream code can always
    rely on exact entrywise symmetry.  It is the library's only
    symmetrizer: a new matrix is wrapped once, and a SymMatrix argument is
    used as is, never averaged again.  Its array is read-only.  Entries
    that are not real numbers raise ValueError (`errors._reals`).
    """

    __slots__ = ("array", "order")

    def __init__(self, entries):
        a = _reals("matrix entries", entries)
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
    low = _lapack(np.linalg.cholesky, a, "Cholesky factorization", NotPositiveDefinite)
    floor = a.shape[0] * CHOLESKY_PIVOT_REL * max_norm(a)
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


def _lapack(routine, a: np.ndarray, what: str, error, **options):
    """routine(a, **options), for one of numpy's LAPACK routines.

    A non-finite entry of a, or a LinAlgError, raises error naming what.
    The entries are checked first because LAPACK can return finite results
    for them: eigvalsh gives [0, -0] for diag(NaN, 1).
    """
    if not np.all(np.isfinite(a)):
        raise error(f"{what} got non-finite entries")
    try:
        return routine(a, **options)
    except np.linalg.LinAlgError as exc:
        raise error(f"{what} failed: {exc}") from None


def _eigh(a: np.ndarray, with_vectors: bool = True):
    """LAPACK eigh, or eigvalsh without vectors (which are then None).

    A non-finite entry, a failure or a non-finite eigenvalue raises
    NoConvergence.
    """
    what = "symmetric eigensolver"
    if with_vectors:
        values, vectors = _lapack(np.linalg.eigh, a, what, NoConvergence)
    else:
        values, vectors = _lapack(np.linalg.eigvalsh, a, what, NoConvergence), None
    if not np.all(np.isfinite(values)):
        raise NoConvergence("symmetric eigensolver returned non-finite eigenvalues")
    return values, vectors


def _svd(a: np.ndarray, with_vectors: bool = True):
    """Thin LAPACK SVD (gesdd) as (U, s, V^T), or s alone without vectors.

    s is descending.  A non-finite entry or a failure raises NoConvergence.
    """
    return _lapack(np.linalg.svd, a, "singular value decomposition", NoConvergence,
                   full_matrices=False, compute_uv=with_vectors)


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
    bits would count nothing meaningful.  So do diag or offdiag arrays that
    are not 1-D, and entries or shifts that are not real numbers
    (`errors._reals`).

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
    takes about half as many steps as the default.  The longer part's rows
    past the shorter one's then run alone, but a single such row, as at an
    even order and twist m // 2, is taken with the twist element, so that
    sweep is one run of paired steps.  The rows come in
    row blocks of _STURM_BLOCK rows, so of half as many steps while both
    parts run: a copy of the block's diagonal entries and one subtraction
    of a block of shifts, made once per sweep, fill a
    steps-by-parts-by-shifts buffer with d_i - lam, each step with a
    nonzero off-diagonal then turns its rows into pivots in place by two
    ufunc calls (a row where T splits already is its pivot), and the
    block's sign bits are added at once into a byte per row and shift,
    totalled every 255 blocks and at the end.  Below a few hundred shifts a
    step costs mostly the overhead of those two calls, so at m = 800 on a
    2-CPU Xeon a sweep twisted at m // 2 took a median 0.33 of the forward
    sweep's time at one shift, 0.62 at 8 to 40 shifts and 0.80 at 511.
    Scratch memory is about four row blocks by the number of shifts.

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
    d = _reals("diag", diag) + 0.0
    e = _reals("offdiag", offdiag)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError(f"diag and offdiag must be 1-D, got shapes {d.shape} and {e.shape}")
    n = d.size
    if n < 1:
        raise ValueError("tridiagonal has no rows")
    if e.size != n - 1:
        raise ValueError(f"offdiag length {e.size} does not match order {n}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal has non-finite entries")
    k = n - 1 if twist is None else _integer("twist", twist, 0, n - 1)
    shifts = _reals("shifts", lam)
    s = shifts.reshape(-1)
    if np.isnan(s).any():
        raise ValueError("shift is NaN")
    # link[i] is the e^2 between row i and row i - 1, 0 at both ends: the
    # forward lane reads row i's at link[i], the backward lane at link[i + 1]
    link = np.zeros(n + 1)
    np.multiply(e, e, link[1:-1])
    # Lane 0 holds rows 0..k-1 and lane 1 rows m-1..k+1, run side by side
    # while both have rows; ends holds each lane's last pivot
    top, bottom = k, n - 1 - k
    shared = min(top, bottom)
    count = np.zeros(s.size, dtype=np.intp)
    with np.errstate(divide="ignore", over="ignore"):
        if shared:
            rows, links = np.empty((2, shared, 2))
            rows[:, 0], rows[:, 1] = d[:shared], d[n - 1:n - 1 - shared:-1]
            links[:, 0], links[:, 1] = link[:shared], link[n:n - shared:-1]
            ends = _sweep_lanes(rows, links, s, count, 0.0)
        else:
            ends = np.zeros((2, s.size))
        if top != bottom:
            # the longer lane's other rows run alone; one such row, as at an
            # even order and twist m // 2, is taken here like the twist row
            lane = 0 if top > bottom else 1
            rows, links = ((d[shared:k], link[shared:k]) if lane == 0 else
                           (d[n - 1 - shared:k:-1], link[n - shared:k + 1:-1]))
            if rows.size > 1:
                ends[lane] = _sweep_lanes(rows[:, None], links[:, None], s, count, ends[lane])[0]
            else:
                last = rows[0] - s
                if links[0]:  # e^2 is never -0 or NaN
                    last -= links[0] / ends[lane]
                count += np.signbit(last)
                ends[lane] = last
        gamma = d[k] - s
        if link[k]:
            gamma -= link[k] / ends[0]
        if link[k + 1]:
            gamma -= link[k + 1] / ends[1]
    count += np.signbit(gamma)
    if shifts.ndim == 0:
        count = int(count[0])
        return (count, float(gamma[0])) if last_pivot else count
    count = count.reshape(shifts.shape)
    return (count, gamma.reshape(shifts.shape)) if last_pivot else count


def _sweep_lanes(rows, links, s, count, carry):
    """Pivots of one sweep's lanes over their steps, the sign bits added to
    count; returns each lane's last pivot.

    rows and links are the (steps, lanes) diagonal entries and e^2 of each
    step, and carry each lane's pivot before the first step.  A step is two
    ufunc calls over all its lanes, or over the one lane with a link when
    the other has none; a step with no link is its own pivots, which also
    keeps 0/0 out.
    """
    steps, lanes = rows.shape
    per = _STURM_BLOCK // lanes  # steps per row block
    # row 0 of q carries the last pivots of the previous row block; shifts
    # holds lam in every row of a block, so that d_i - lam is one
    # subtraction of whole blocks (a column broadcast across the shifts
    # costs numpy about three times as much)
    q = np.empty((min(steps, per) + 1, lanes, s.size))
    q[0] = carry
    table, shifts = np.empty((2,) + q[1:].shape)
    shifts[...] = s
    tmp = np.empty_like(q[0])
    sign = np.empty(table.shape, dtype=bool)
    # each row block adds its sign bits here, at most 255 before they are
    # totalled
    signs = np.zeros(table.shape, dtype=np.uint8)
    linked = links.all(1).tolist()
    pivots, e2s = list(q), list(table)
    divide, subtract = np.divide, np.subtract
    for block_index, start in enumerate(range(0, steps, per)):
        size = min(per, steps - start)
        block = q[1:size + 1]
        block[...] = rows[start:start + size, :, None]
        subtract(block, shifts[:size], block)
        table[:size] = links[start:start + size, :, None]
        for both, e2i, prev, row in zip(linked[start:start + size], e2s, pivots, pivots[1:]):
            if both:
                subtract(row, divide(e2i, prev, tmp), row)
            elif e2i.any():  # e^2 is never -0 or NaN
                lane = 0 if e2i[0, 0] else 1
                subtract(row[lane], divide(e2i[lane], prev[lane], tmp[lane]), row[lane])
        np.signbit(block, sign[:size])
        np.add(signs[:size], sign[:size].view(np.uint8), signs[:size])
        if block_index % 255 == 254:
            count += signs.sum(axis=(0, 1), dtype=np.intp)
            signs[...] = 0
        q[0] = q[size]
    count += signs.sum(axis=(0, 1), dtype=np.intp)
    return q[0]
