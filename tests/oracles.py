"""Brute-force reference implementations used only by the test suite.

These are deliberately independent of the library code paths they check:
Bessel values come from the alternating power series with compensated
summation (trustworthy for x <= 12), roots from plain bisection on those
series, Sturm pivots one shift and one row at a time in Python floats, exact
Sturm counts in Python ints, the Krein matrix by Krein's formula in exact
rational arithmetic, and whatever else a test freezes as an expected value
was produced by one of the functions in here.
"""

import functools
import math
from fractions import Fraction


def gamma_int_or_half_oracle(twice_a: int) -> float:
    """Gamma(a), a = twice_a / 2 > 0, by the functional equation alone."""
    assert twice_a >= 1
    if twice_a % 2 == 0:
        val, arg = 1.0, 1.0
    else:
        val, arg = math.sqrt(math.pi), 0.5
    while 2 * arg < twice_a:
        val *= arg
        arg += 1.0
    return val


def series_bessel_j(twice_order: int, x: float, terms: int = 120) -> float:
    """Power series for J_nu(x), nu = twice_order/2, compensated summation.

    Alternating and rapidly decaying for x <= 12, where every test uses it.
    """
    nu = twice_order / 2.0
    pieces = []
    term = (0.5 * x) ** nu / gamma_int_or_half_oracle(twice_order + 2)
    q = 0.25 * x * x
    for j in range(terms):
        pieces.append(term)
        term *= -q / ((j + 1.0) * (nu + j + 1.0))
        if abs(term) < 1e-300:
            break
    return math.fsum(pieces)


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    assert flo != 0.0 and math.copysign(1.0, flo) != math.copysign(1.0, f(hi))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=None)
def series_bessel_zero(twice_order: int, k: int) -> float:
    """k-th zero of J_nu by scanning the power series; only for zeros <= 12."""
    f = lambda x: series_bessel_j(twice_order, x)
    x = max(twice_order / 2.0, 0.05)
    step = 0.1
    found = 0
    prev = f(x)
    while x < 12.0:
        nxt = f(x + step)
        if math.copysign(1.0, nxt) != math.copysign(1.0, prev):
            found += 1
            if found == k:
                return bisect_root(f, x, x + step)
        x += step
        prev = nxt
    raise AssertionError("zero beyond the series oracle range")


def tan_fixed_point_oracle(m: int) -> float:
    """m-th root of tan t = t by bisection on t cos t - sin t."""
    lo = m * math.pi + 1e-12
    hi = (2 * m + 1) * math.pi / 2.0 - 1e-12
    return bisect_root(lambda t: t * math.cos(t) - math.sin(t), lo, hi)


def soft_bc_residual_oracle(a: float, b: float, branch: str, k: float) -> float:
    """Worst violation of the soft condition v'(a) = v'(b) = (v(b) - v(a)) / L
    by cos(k (x - c)) ("cos") or sin(k (x - c)) ("sin"), c the midpoint.

    The even branch satisfies it at k = 2 m pi / L, the odd one at
    k = 2 t_m / L with tan t_m = t_m.
    """
    center = 0.5 * (a + b)
    if branch == "cos":
        value = lambda x: math.cos(k * (x - center))
        deriv = lambda x: -k * math.sin(k * (x - center))
    else:
        assert branch == "sin"
        value = lambda x: math.sin(k * (x - center))
        deriv = lambda x: k * math.cos(k * (x - center))
    slope = (value(b) - value(a)) / (b - a)
    return max(abs(deriv(a) - slope), abs(deriv(b) - slope))


def sturm_pivots_oracle(diag, offdiag, lam: float) -> list:
    """Pivots q_i = (d_i - lam) - e_{i-1}^2 / q_{i-1} of T - lam I, row by row.

    Plain Python floats, so each operation is the IEEE one; only division by
    a zero pivot, which Python refuses, is written out as its IEEE result.
    A zero off-diagonal restarts with q_i = d_i - lam, and a -0 diagonal entry
    is read as +0.
    """
    pivots = []
    for i, d in enumerate(diag):
        q = (float(d) + 0.0) - lam
        e = float(offdiag[i - 1]) if i else 0.0
        e2 = e * e
        if e2 != 0.0:
            prev = pivots[-1]
            q -= math.copysign(math.inf, prev) if prev == 0.0 else e2 / prev
        pivots.append(q)
    return pivots


def sturm_count_oracle(diag, offdiag, lam: float) -> int:
    """Pivots whose sign bit is set: eigenvalues strictly below lam."""
    return sum(math.copysign(1.0, q) < 0.0 for q in sturm_pivots_oracle(diag, offdiag, lam))


def twisted_sturm_oracle(diag, offdiag, lam: float, twist: int) -> tuple:
    """(count, gamma) of the twisted factorization of T - lam I at row k = twist.

    Rows 0..k-1 take sturm_pivots_oracle forward and rows m-1..k+1 take it
    on the reversed rows, and row k the twist element
    gamma = (d_k - lam) - e_{k-1}^2 / q_{k-1} - e_k^2 / p_{k+1}, each term
    present where its part has rows and its e^2 is nonzero, a zero pivot
    dividing as in sturm_pivots_oracle.  The count is the pivots and gamma
    whose sign bit is set.
    """
    d = [float(x) for x in diag]
    e = [float(x) for x in offdiag]
    k = twist
    forward = sturm_pivots_oracle(d[:k], e[:max(k - 1, 0)], lam)
    backward = sturm_pivots_oracle(d[:k:-1], e[:k:-1], lam)
    gamma = (d[k] + 0.0) - lam
    for part, link in ((forward, e[k - 1] if k else 0.0), (backward, e[k] if backward else 0.0)):
        e2 = link * link
        if part and e2 != 0.0:
            prev = part[-1]
            gamma -= math.copysign(math.inf, prev) if prev == 0.0 else e2 / prev
    count = sum(math.copysign(1.0, q) < 0.0 for q in forward + backward + [gamma])
    return count, gamma


def exact_count(diag, offdiag, lam) -> int:
    """Eigenvalues strictly below lam of the symmetric tridiagonal T whose
    entries are the doubles diag and offdiag, counted exactly.

    Every double is a dyadic rational, so one power of two 2^s scales the
    entries and lam to integers D_i, E_i and L.  The leading minors
    p_i = det(2^s (T - lam I)) of order i then follow
    p_i = (D_i - L) p_{i-1} - E_{i-1}^2 p_{i-2} from p_0 = 1 in Python ints,
    and the count is their sign changes (Sturm).  A zero E_{i-1} splits T,
    and row i starts a block with p_0 = 1 again.  A zero minor inside a
    block is skipped: the next one has the sign opposite to the one before
    it, so the pair adds one change, as the strict interlacing of the
    leading minors' eigenvalues requires; a zero at a block's end, lam an
    eigenvalue of that block, adds none.
    """
    ratios = [Fraction(float(x)) for x in (*diag, *offdiag, lam)]
    scale = max(r.denominator for r in ratios)
    *ints, shift = [int(r * scale) for r in ratios]
    d, e = ints[:len(diag)], ints[len(diag):]
    count = 0
    for i, di in enumerate(d):
        e2 = e[i - 1] ** 2 if i else 0
        if not e2:
            before, minor, negative = 0, 1, False
        before, minor = minor, (di - shift) * minor - e2 * before
        if minor and (minor < 0) != negative:
            count += 1
            negative = not negative
    return count


def universal_inequalities_oracle(lam, mu, n: int, volume: float, k_max: int) -> list:
    """The reports of analysis.universal_inequalities, each inequality
    evaluated literally in plain loops over Python floats.

    lam and mu are the soft and hard eigenvalues, ascending and repeated by
    multiplicity.  Returns one (name, satisfied, margin, witnesses,
    inconclusive) tuple per claim.  Each slack is normalized by the scale of
    what it bounds; a claim with tie width tie is violated where a slack is
    below -tie (its first 16 such indices are the witnesses) and
    inconclusive when tie > 0 and its smallest slack is within tie of 0.
    j_{(n-2)/2,1} comes from the power series, v_n from the Gamma recursion.
    """
    tie = 1e-12

    def verdict(name, slacks, tie=0.0, indexed=False):
        witnesses = []
        for index, slack in slacks:
            if slack < -tie and len(witnesses) < 16:
                witnesses.append(index)
        margin = min(slack for _, slack in slacks)
        violated = any(slack < -tie for _, slack in slacks)
        return (name, not violated, margin, tuple(witnesses) if indexed else (),
                tie > 0.0 and abs(margin) <= tie)

    # lam_2 / lam_1 <= (n^2 + 8n + 20) / (n + 2)^2
    ratio_bound = (n * n + 8.0 * n + 20.0) / (n + 2.0) ** 2
    ratio = [(1, ratio_bound - lam[1] / lam[0])]
    # sum_{i=2}^{n+1} lam_i <= (n + 4) lam_1 - 4 / (n + 4) (lam_2 - lam_1)
    total = 0.0
    for i in range(1, n + 1):
        total += lam[i]
    sum_bound = (n + 4.0) * lam[0] - 4.0 / (n + 4.0) * (lam[1] - lam[0])
    first_sum = [(1, (sum_bound - total) / lam[0])]
    # sum_{j<k} (lam_k - lam_j)^2 <= 4 (n + 2) / n^2 sum_{j<k} (lam_k - lam_j) lam_j
    gap = []
    for k in range(1, k_max + 1):
        squares, weighted = 0.0, 0.0
        for j in range(k):
            squares += (lam[k] - lam[j]) ** 2
            weighted += (lam[k] - lam[j]) * lam[j]
        gap.append((k, (4.0 * (n + 2.0) / (n * n) * weighted - squares) / (lam[0] * lam[0])))
    # Krahn-Szego: mu_2 >= 2^(2/n) j^2 (v_n / |Omega|)^(2/n)
    j_first = series_bessel_zero(n - 2, 1)
    v_n = math.pi ** (n / 2.0) / gamma_int_or_half_oracle(n + 2)
    iso = 2.0 ** (2.0 / n) * j_first * j_first * (v_n / volume) ** (2.0 / n)
    krahn = [(1, (mu[1] - iso) / mu[1])]
    # mu_2 <= lam_1
    hard_second = [(1, (lam[0] - mu[1]) / lam[0])]
    # 1 <= lam_1 / mu_1 <= 4
    bottom = lam[0] / mu[0]
    bracket = [(1, bottom - 1.0), (1, 4.0 - bottom)]
    # lam_j >= mu_j for j <= k_max
    per_index = [(j + 1, (lam[j] - mu[j]) / mu[j]) for j in range(k_max)]
    return [
        verdict("second-to-first-ratio", ratio),
        verdict("first-sum-bound", first_sum, tie),
        verdict("gap-quadratic-bound", gap, indexed=True),
        verdict("isoperimetric-lower", krahn),
        verdict("hard-second-below-soft-first", hard_second, tie),
        verdict("bottom-ratio-bracket", bracket, tie),
        verdict("per-index-domination", per_index, tie, indexed=True),
    ]


def remainder_sup_oracle(breakpoints, cumulative, n: int, lo: float, hi: float,
                         lead: float, second: float) -> float:
    """sup over [lo, hi] of |N(lam) - lead lam^(n/2) - second lam^((n-1)/2)|,
    N the step function equal to cumulative[i] from breakpoints[i] on (0
    before the first), in plain loops over Python floats.

    The breakpoints inside the window cut it into pieces on which N is
    constant.  On each closed piece |N - law| peaks at an end or where the
    law's derivative changes sign, found here by bisection; N(hi) is taken
    on its own, since hi may be a breakpoint.
    """
    def law(lam):
        return lead * lam ** (n / 2.0) + second * lam ** ((n - 1) / 2.0)

    def slope(lam):
        return (0.5 * n * lead * lam ** (n / 2.0 - 1.0)
                + 0.5 * (n - 1) * second * lam ** ((n - 3) / 2.0))

    def count(lam):
        value = 0
        for x, c in zip(breakpoints, cumulative):
            if x <= lam:
                value = c
        return value

    cuts = [lo] + [x for x in breakpoints if lo < x < hi] + [hi]
    best = abs(count(hi) - law(hi))
    for left, right in zip(cuts, cuts[1:]):
        candidates = [left, right]
        if slope(left) * slope(right) < 0.0:
            candidates.append(bisect_root(slope, left, right))
        for lam in candidates:
            best = max(best, abs(count(left) - law(lam)))
    return best


def _exact_solve(m, rhs):
    """X with m X = rhs, for m square and invertible, by Gauss-Jordan
    elimination in Fractions; m, rhs and X are lists of rows."""
    n = len(m)
    rows = [[Fraction(v) for v in row] + [Fraction(v) for v in b] for row, b in zip(m, rhs)]
    for j in range(n):
        pivot = next(i for i in range(j, n) if rows[i][j])
        rows[j], rows[pivot] = rows[pivot], rows[j]
        head = rows[j][j]
        rows[j] = [v / head for v in rows[j]]
        for i in range(n):
            factor = rows[i][j]
            if i != j and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[j])]
    return [row[n:] for row in rows]


def _exact_complement(basis):
    """Columns spanning the orthogonal complement of basis's columns, as a
    list of rows of Fractions: the null space of basis^T from its reduced
    row echelon form.  basis's columns must be independent."""
    n, d = len(basis), len(basis[0])
    rows = [[Fraction(basis[i][j]) for i in range(n)] for j in range(d)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        pick = next((i for i in range(r, d) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        head = rows[r][col]
        rows[r] = [v / head for v in rows[r]]
        for i in range(d):
            factor = rows[i][col]
            if i != r and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    assert len(pivots) == d, "basis columns are dependent"
    free = [c for c in range(n) if c not in pivots]
    columns = []
    for f in free:
        vector = [Fraction(0)] * n
        vector[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vector[c] = -rows[r][f]
        columns.append(vector)
    return [list(row) for row in zip(*columns)]


def exact_krein(a, basis):
    """The Krein extension A - P (P^T A^-1 P)^-1 P^T of A restricted to the
    span D of basis's columns, for P a rational basis of D^perp, in exact
    rational arithmetic (Krein, Mat. Sb. 20 (1947)).  The result does not
    depend on which P.  a and basis hold integers or Fractions, as nested
    lists or arrays; the result is a list of rows of Fractions."""
    def rational(v):  # Fraction(numpy int) would keep the fixed-width numerator
        return v if isinstance(v, Fraction) else Fraction(int(v))

    a = [[rational(v) for v in row] for row in a]
    p = _exact_complement([[rational(v) for v in row] for row in basis])
    n, k = len(a), len(p[0])
    x = _exact_solve(a, p)  # A^-1 P
    gram = [[sum(p[r][i] * x[r][j] for r in range(n)) for j in range(k)] for i in range(k)]
    y = _exact_solve(gram, [list(col) for col in zip(*p)])  # (P^T A^-1 P)^-1 P^T
    return [[a[i][j] - sum(p[i][r] * y[r][j] for r in range(k)) for j in range(n)]
            for i in range(n)]
