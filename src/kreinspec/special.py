"""Bessel functions of the first kind for integer and half-integer orders,
their positive zeros, and the fixed points of tan t = t.

Only integer and half-integer orders are supported: every radial channel of
the interval and ball spectra uses an order of the form l + (n-2)/2 or
l + n/2 with integer n and l, so general-order Gamma machinery is never
needed.

Evaluation is by backward recurrence: integer orders use Miller's algorithm
normalized through J_0(x) + 2*sum_k J_{2k}(x) = 1, half-integer orders
recur on spherical Bessel functions and normalize against the closed forms
sin(x)/x and sin(x)/x^2 - cos(x)/x, whichever is better conditioned.  These
rules, the orders kept, J' = (J_{nu-1} - J_{nu+1}) / 2 and the sqrt(2x/pi)
amplitude live once, in `_scan_table`; its loop runs in numpy over a grid,
or in Python floats at the one point that `bessel_j` and single zeros need.

Every root is refined inside a sign-change bracket by `_halley_batch`, the
one safeguarded root iteration of the library, which steps many brackets at
once.  Its callers hand it f, f' and f'': the second derivative comes from
the differential equation of f, so a Halley step costs no more evaluation
than a Newton step.  The fixed points of tan t = t run through it as one
batch per call.  Bessel zeros reach it by two routes:

* A single zero j_{nu,k} starts from McMahon's asymptotic expansion
  whenever its terms certify themselves by rapid decay, and is refined as
  a batch of one on the Taylor series of J about the guess, from a single
  evaluation of J and J' there.
* Whole zero sets come from `_family_zeros`: for the orders l + p/2 of one
  parity p it finds every zero below a bound at once.  One backward
  recurrence over orders, vectorized with numpy over an ascending grid of
  arguments of step _SCAN_STEP, gives J and J' of every order on the grid
  and brackets every zero.  Its seeds ascend with the grid, so the points
  seeded at one order form one slice, and it stores one window of
  consecutive orders, the lowest wanted minus 1 to the top plus 1.  Then
  every bracket is refined together on a Taylor series of J about one of
  its ends, whose coefficients Bessel's equation generates from the grid
  values, so the Halley steps evaluate polynomials and run no further
  recurrence.  The zeros are cached per order in `_zero_cache` with
  the argument below which they are complete, so the hard and soft spectra
  of one ball (orders of one parity) share one computation.  A single zero
  in the large-order, small-index regime, where the expansion is
  unreliable, is read from the same cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DomainError, _double, _integer, _positive, _shown

__all__ = ["BesselOrder", "bessel_j", "bessel_zero", "tan_fixed_point"]

_MAX_TWICE_ORDER = 1000     # nu <= 500
_MAX_X = 1.0e4              # public evaluation domain
_MAX_X_INTERNAL = 4.0e4     # zero refinement may evaluate somewhat further
_MAX_ZERO_INDEX = 100_000
_RESCALE = 1.0e250          # rescaling threshold inside backward recurrences
_SCAN_STEP = 1.5            # below the minimal spacing of consecutive zeros
_NEWTON_STEPS = 200         # cap on the Halley, Newton or bisection steps of one root
_STOP_REL = 5e-15           # a root is done once its step is this small relative to x
_TAYLOR_TERMS = 26          # terms of the Taylor series of J_nu on which a zero is refined


def _recurrence_start(n_max, x: np.ndarray) -> np.ndarray:
    """Start order for backward recurrence, elementwise for the numpy array x.

    The seed must sit well past the turning point k = x, where the wanted
    solution decays like an Airy tail.  The margin bounds two errors by the
    size of J_seed(x): the contamination of the unwanted solution, and the
    tail of Miller's sum J_0 + 2 sum_k J_2k, which is cut off at the seed.
    11 x^(1/3) extra orders, with a floor of 40 for small arguments, keep
    |J_seed(x)| below 2e-16 (mpmath, x <= 4000), beneath rounding; 9 x^(1/3)
    left it near 5e-13 for x around 100.
    """
    margin = np.maximum(40, np.ceil(11.0 * x ** (1.0 / 3.0)).astype(int))
    return np.maximum(n_max, np.ceil(x).astype(int)) + margin


@dataclass(frozen=True)
class BesselOrder:
    """Order nu = twice_order / 2 in 0..500, twice_order an int in 0..1000 (no bool)."""

    twice_order: int

    def __post_init__(self):
        object.__setattr__(self, "twice_order",
                           _integer("twice the order", self.twice_order, 0, _MAX_TWICE_ORDER))

    @property
    def nu(self) -> float:
        return self.twice_order / 2.0


def _coerce_order(nu) -> BesselOrder:
    if isinstance(nu, BesselOrder):
        return nu
    number = _double(nu)
    twice = math.nan if number is None else 2.0 * number
    if not math.isfinite(twice) or abs(twice - round(twice)) > 1e-12:
        raise DomainError(f"order {_shown(nu)} is neither integer nor half-integer")
    return BesselOrder(int(round(twice)))


def _tiny_argument_series(order: BesselOrder, x: float) -> float:
    """Leading power-series terms; only used for x <= 1e-3 where 4 terms
    leave a relative error far below 1e-12."""
    nu = order.nu
    q = 0.25 * x * x
    total, term = 1.0, 1.0
    for j in range(1, 4):
        term *= -q / (j * (nu + j))
        total += term
    log_lead = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    if log_lead < -745.0:
        return 0.0
    return math.exp(log_lead) * total


def _eval_j_pair(order: BesselOrder, x: float):
    """(J_nu(x), J_nu'(x)) from one recurrence pass: the one-point `_scan_table`."""
    value, slope = _scan_table(order.twice_order % 2, np.array([order.twice_order // 2]),
                               np.array([float(x)]))
    return float(value[0, 0]), float(slope[0, 0])


def bessel_j(nu, x: float) -> float:
    """J_nu(x) for an integer or half-integer nu <= 500 (a real number or a
    `BesselOrder`) and a real 0 < x <= 1e4; DomainError otherwise, and for bools."""
    order, x = _coerce_order(nu), _positive("argument", x)
    if x > _MAX_X:
        raise DomainError(f"argument {_shown(x)} above {_MAX_X:g}")
    if x <= 1e-3:
        return _tiny_argument_series(order, x)
    return _eval_j_pair(order, x)[0]


def _mcmahon_terms(order: BesselOrder, k: int):
    """Asymptotic expansion terms for the k-th zero; returns (beta, [t2..t5])."""
    nu = order.nu
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    m1 = mu - 1.0
    b8 = 8.0 * beta
    t2 = m1 / b8
    t3 = 4.0 * m1 * (7.0 * mu - 31.0) / (3.0 * b8**3)
    t4 = 32.0 * m1 * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8**5)
    t5 = 64.0 * m1 * (6949.0 * mu**3 - 153855.0 * mu * mu
                      + 1585743.0 * mu - 6277237.0) / (105.0 * b8**7)
    return beta, (t2, t3, t4, t5)


def _mcmahon_is_reliable(terms) -> bool:
    t2, t3, t4, t5 = (abs(t) for t in terms)
    if t2 < 1e-13:
        return True  # nu = 1/2: the expansion is exact
    return t3 <= 0.05 * t2 and t4 <= 0.05 * t3 + 1e-13 and t5 <= 0.05 * t4 + 1e-13


def _bessel_triple(nu, x, j, jp):
    """(J, J', J'') of order nu at x, scalars or arrays alike, with J'' from
    Bessel's equation x^2 J'' + x J' + (x^2 - nu^2) J = 0."""
    return j, jp, -jp / x - (1.0 - (nu / x) ** 2) * j


def _taylor_coefficients(nu, g, j, jp) -> list:
    """The first _TAYLOR_TERMS Taylor coefficients of J_nu about g, from
    J_nu(g) and J_nu'(g) by the recurrence in `_solve_family`; scalars or
    arrays alike."""
    a = [0.0, 0.0, j, jp]  # a_{-2} .. a_1
    g2 = g * g
    shift = g2 - nu * nu
    for k in range(_TAYLOR_TERMS - 2):
        a.append(-((g * ((k + 1) * (2 * k + 1))) * a[k + 3] + (k * k + shift) * a[k + 2]
                   + (2.0 * g) * a[k + 1] + a[k]) / (g2 * ((k + 1) * (k + 2))))
    return a[2:]


def _taylor_pair(coefs, t):
    """(J, J') at g + t from the Taylor coefficients of J about g, by Horner's
    rule; coefs is a list or an array whose rows are the coefficients."""
    value, deriv = coefs[-1], 0.0
    for c in coefs[-2::-1]:
        deriv = deriv * t + value
        value = value * t + c
    return value, deriv


def _refine_zero(order: BesselOrder, guess: float) -> float:
    """Zero of J_nu in [guess - 1/2, guess + 1/2], certified by the sign
    change at the ends.

    J and J' are evaluated once, at the guess; the Taylor series they seed
    gives the signs at the ends and every Halley iterate.
    """
    nu = order.nu
    coefs = _taylor_coefficients(nu, guess, *_eval_j_pair(order, guess))
    lo, hi = guess - 0.5, guess + 0.5
    flo = _taylor_pair(coefs, -0.5)[0]
    fhi = _taylor_pair(coefs, 0.5)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketFailure(f"no sign change in [{lo}, {hi}] for order {nu}")

    def triple(live, x):  # a batch of one: f, f' and f'' as one-element arrays
        at = float(x[0])
        return np.array(_bessel_triple(nu, at, *_taylor_pair(coefs, at - guess)))[:, None]

    return float(_halley_batch(triple, np.array([lo]), np.array([hi]), np.array([flo]),
                               np.array([guess]))[0])


def _backward_pass(parity: int, x: np.ndarray, starts: np.ndarray, out: np.ndarray, lo: int):
    """The backward recurrence over orders, Miller's for integer orders and
    spherical for half-integer ones, run for every argument of x at once.

    Element e is seeded at order starts[e].  x ascends and starts with it,
    as `_recurrence_start` gives them on an ascending grid, so the elements
    seeded at order k are one slice.  Row r of out receives the
    unnormalized values of order lo + r + parity/2, for the consecutive
    orders its rows hold.  Rescaling acts on every row of the rescaled
    elements.  Returns the unnormalized values of orders 0 and 1 (plus
    parity/2) and, for integer orders, the Miller sum 2 * sum_{k>=1} J_{2k}.
    """
    f = np.zeros_like(x)
    fplus = np.zeros_like(x)
    norm = np.zeros_like(x)
    top, hi = int(starts.max(initial=0)), lo + len(out)
    first = np.searchsorted(starts, np.arange(top + 2)).tolist()
    inv = 1.0 / _RESCALE
    for k in range(top, 0, -1):
        f[first[k]:first[k + 1]] = 1.0e-30
        fminus = ((2.0 * k + parity) / x) * f - fplus
        fplus = f
        f = fminus
        idx = k - 1
        if lo <= idx < hi:
            out[idx - lo] = f
        if parity == 0 and idx >= 2 and idx % 2 == 0:
            norm += 2.0 * f
        big = np.abs(f) > _RESCALE
        if big.any():
            f[big] *= inv
            fplus[big] *= inv
            norm[big] *= inv
            out[:, big] *= inv
    return f, fplus, norm


def _backward_one(parity: int, x: np.ndarray, starts: np.ndarray, out: np.ndarray, lo: int):
    """`_backward_pass` on a grid x of one point, in Python floats: numpy's
    call overhead on every order would make it 20-25 times slower.  For
    speed, c = 2k + parity is kept as an exact float, abs(f) <= big is
    written -big <= f <= big, and the window test reads idx < hi first,
    which fails at most orders."""
    x, start = float(x[0]), int(starts[0])
    stored = [0.0] * len(out)
    f, fplus, norm = 1.0e-30, 0.0, 0.0
    big, inv = _RESCALE, 1.0 / _RESCALE
    hi, even, c = lo + len(out), parity == 0, 2.0 * start + parity
    for idx in range(start - 1, -1, -1):
        f, fplus = (c / x) * f - fplus, f
        c -= 2.0
        if idx < hi and lo <= idx:
            stored[idx - lo] = f
        if even and idx >= 2 and not idx % 2:
            norm += 2.0 * f
        if not -big <= f <= big:
            f *= inv
            fplus *= inv
            norm *= inv
            stored = [v * inv for v in stored]
    out[:, 0] = stored
    return f, fplus, norm


def _normalized(parity: int, x: np.ndarray, out: np.ndarray, f, fplus, norm) -> np.ndarray:
    """out scaled to J for integer orders, by Miller's J_0 + 2 sum_k J_2k = 1,
    and for half-integer ones to the spherical j (no sqrt(2x/pi) factor),
    against sin(x)/x or sin(x)/x^2 - cos(x)/x, whichever is larger in modulus."""
    if parity == 0:
        return out / (norm + f)
    sin = np.sin(x)
    j0 = sin / x
    j1 = sin / (x * x) - np.cos(x) / x
    use_j0 = (np.abs(j0) >= np.abs(j1)) | (fplus == 0.0)
    return out * (np.where(use_j0, j0, j1) / np.where(use_j0, f, fplus))


def _scan_table(parity: int, ells: np.ndarray, grid: np.ndarray):
    """(J_nu, J_nu') of each order nu = l + parity/2, l in ells (ascending),
    at every grid point, as two arrays with one row per order, from one
    recurrence pass seeded by `_recurrence_start`: `_backward_one` on a grid
    of one point, `_backward_pass` otherwise.  The pass stores one window
    of consecutive orders, from the lowest l - 1 (0 at least) to the top
    l + 1; J' = (J_{nu-1} - J_{nu+1}) / 2, with J_0' = -J_1, and
    half-integer orders carry sqrt(2x/pi), with j_{-1} = cos x / x.
    """
    lo = max(int(ells[0]) - 1, 0)
    out = np.zeros((int(ells[-1]) + 2 - lo, len(grid)))
    # the grid pass seeds each point past x alone, so its values, and the
    # zeros bracketed from them, do not depend on which orders are scanned
    # with it; a one-point call also seeds above its top order, since
    # bessel_j(500, 100) needs orders above x
    starts = _recurrence_start(int(ells[-1]) + 1 if len(grid) == 1 else 0, grid)
    recur = _backward_one if len(grid) == 1 else _backward_pass
    table = _normalized(parity, grid, out, *recur(parity, grid, starts, out, lo))
    # order -1 of l = 0 reads the last row, replaced below
    below, mid, above = table[ells + np.array([[-1], [0], [1]]) - lo]
    first = (ells == 0)[:, None]
    if parity == 0:
        return mid, np.where(first, -above, 0.5 * (below - above))
    amp = np.sqrt(2.0 * grid / np.pi)
    below = np.where(first, np.cos(grid) / grid, below)
    return amp * mid, 0.5 * amp * (below - above)


def _halley_batch(fun, lo, hi, flo, x) -> np.ndarray:
    """Roots of f inside the sign-change brackets [lo, hi], elementwise, by
    Halley's method from x, bisecting wherever a step would leave its bracket.

    fun(live, x) returns (f(x), f'(x), f''(x)) as arrays for the iterates
    still running, live being their indices into the batch; flo carries the
    sign of f at lo.  The step is Halley's 2 f f' / (2 f'^2 - f f''), or
    Newton's f / f' where |f f''| > f'^2, that is where Halley's denominator
    1 - f f'' / (2 f'^2) leaves [1/2, 3/2]; where f' = 0 there is no step
    and the bracket is bisected.  An iterate is done when

    * its step (zero where f = 0), or the bisection that replaces it, is at
      most _STOP_REL |x|.  The test applies to the raw step before the
      safeguard: once an iterate has become a bracket end, a converged step
      of rounding size fails lo < x - step < hi, and bisecting there would
      walk away from the root;
    * a Halley point lands strictly inside its bracket with
      |step|^3 <= _STOP_REL |x|.  It is taken without evaluating f there.
      Near a root r Halley's error obeys e' = C e^3 + O(e^4), where
      C = f''^2 / (4 f'^2) - f''' / (6 f') at r, and the step is e up to
      that term, so the point lies within |C| _STOP_REL |x| of r.  For the
      two functions solved here |C| < 1/4:

      - J_nu.  Bessel's equation gives J'' = -J'/x - (1 - nu^2/x^2) J, and
        by differentiation J''' = -J''/x + J'/x^2 - (1 - nu^2/x^2) J'
        - 2 nu^2 J / x^3.  At a zero J = 0, so J'' = -J'/x and
        J''' = (2/x^2 - 1 + nu^2/x^2) J', which give
        C = (1 - nu^2/x^2)/6 - 1/(12 x^2).  Every zero exceeds both nu and
        j_{0,1} > 2.4, so -0.015 < C <= 1/6.
      - f(t) = t cos t - sin t.  f' = -t sin t, f'' = -sin t - t cos t and
        f''' = t sin t - 2 cos t.  At a root t cos t = sin t, so
        f'' / f' = 2/t and f''' / f' = 2/t^2 - 1, which give
        C = 1/6 + 2/(3 t^2) < 1/4 at every root t > 4.49.

    An iterate still running after _NEWTON_STEPS steps returns its last value.
    """
    zeros = x.copy()
    live = np.arange(len(x))
    lo, hi = lo.copy(), hi.copy()  # narrowed in place
    neg = flo < 0.0
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        f, fp, fpp = fun(live, x)
        left = (f < 0.0) == neg  # x lies on the side of lo
        np.putmask(lo, left, x)
        np.putmask(hi, ~left, x)
        fp2 = fp * fp
        np.putmask(fp2, fp2 == 0.0, np.nan)  # no step where f' = 0: bisect
        curv = f * fpp
        halley = np.abs(curv) <= fp2
        np.putmask(curv, ~halley, 0.0)  # Newton's step
        step = f * fp / (fp2 - 0.5 * curv)
        nxt = x - step
        inside = (lo < nxt) & (nxt < hi)
        size = np.abs(step)
        tol = _STOP_REL * np.abs(x)
        x_new = 0.5 * (lo + hi)
        np.copyto(x_new, nxt, where=inside | (size <= tol))
        done = (np.abs(x_new - x) <= tol) | (halley & inside & (size <= np.cbrt(tol)))
        zeros[live] = x_new
        running = (~done).nonzero()[0]
        if not running.size:  # where every scalar root ends, so skip the filtering
            break
        live, lo, hi, neg, x = live[running], lo[running], hi[running], neg[running], x_new[running]
    return zeros


def _solve_family(parity: int, ells: np.ndarray, x_max: float):
    """Every zero below the returned bound (> x_max) of each J_{l + parity/2},
    l in ells (ascending), as one ascending array per order.

    One recurrence pass, `_scan_table`, gives J and J' on a grid of step
    _SCAN_STEP; each sign change of J between neighbours brackets a zero.
    Halley's iterates then evaluate the Taylor series sum_k a_k (x - g)^k of
    J about the bracket end g nearer the secant start, where a_0 = J(g),
    a_1 = J'(g), a_{-1} = a_{-2} = 0 and, by Bessel's equation about g,

        g^2 (k+1)(k+2) a_{k+2} = -[g (k+1)(2k+1) a_{k+1}
                                   + (k^2 + g^2 - nu^2) a_k + 2 g a_{k-1} + a_{k-2}],

    so no iterate runs a recurrence; J'' comes from Bessel's equation as for
    every root.  The iterates stay in their brackets, |x - g| <= 1.5, and
    the remainder after _TAYLOR_TERMS = 26 terms is J^(26)(xi) (x - g)^26 / 26!.
    J^(k) is 2^-k times a signed binomial sum of J_{nu-k}, ..., J_{nu+k}, all
    at most 1 in modulus for integer nu: a remainder below 1.5^26/26! < 1e-22.
    For half-integer nu the negative orders grow near the origin, the
    series' singularity, and the terms fall like (|x - g| / g)^k instead,
    0.5^26 = 1.5e-8 at the far end of the first bracket [3, 4.5].  The
    iterates converge near the zero, though, and at every bracket of the
    orders up to 500 below 900 the zero lies within 0.76 and within 0.1 g
    of g.
    """
    grid = _SCAN_STEP * np.arange(1, int(x_max / _SCAN_STEP) + 3)
    table, slope = _scan_table(parity, ells, grid)
    # zeros exceed their order, and J_nu > 0 below its first zero, so a value
    # that underflowed to 0 carries the sign of its neighbours
    positive = table >= 0.0
    rows, cols = np.nonzero(positive[:, :-1] != positive[:, 1:])
    lo, hi = grid[cols], grid[cols + 1]
    flo, fhi = table[rows, cols], table[rows, cols + 1]
    start = lo - flo * (hi - lo) / (fhi - flo)
    ends = cols + (hi - start < start - lo)
    at = grid[ends]
    nus = ells[rows] + 0.5 * parity
    coefs = np.array(_taylor_coefficients(nus, at, table[rows, ends], slope[rows, ends]))
    zeros = _halley_batch(
        lambda live, x: _bessel_triple(nus[live], x, *_taylor_pair(coefs[:, live], x - at[live])),
        lo, hi, flo, start)
    return np.split(zeros, np.searchsorted(rows, np.arange(1, len(ells)))), float(grid[-1])


# twice_order -> (ascending zeros, the argument below which no zero is missing)
_zero_cache: dict = {}


def _family_zeros(twice_orders, x_max: float) -> list:
    """For each order twice_orders[i] / 2 (ascending, of one parity, in 0..500 as
    its caller checked), its ascending zeros, complete below x_max; cached per order."""
    missing = [t for t in twice_orders if t not in _zero_cache or _zero_cache[t][1] <= x_max]
    if missing:
        zeros, complete = _solve_family(missing[0] % 2, np.array(missing) // 2, x_max)
        for t, z in zip(missing, zeros):
            z.setflags(write=False)  # shared by every caller
            _zero_cache[t] = (z, complete)
    return [_zero_cache[t][0] for t in twice_orders]


def bessel_zero(nu, k: int) -> float:
    """k-th positive zero j_{nu,k}, within 1e-14 relative, for nu as in
    `bessel_j` and an integer k (no bool, no float) in 1..100000.  Against
    30-digit mpmath roots the largest error measured was 3.0e-16 over 257
    zeros, k = 100,000 and orders up to 500 among them.

    The asymptotic expansion seeds a Halley iteration inside a sign-change
    bracket whenever its terms certify themselves by rapid decay; otherwise
    (large order, small index) every zero of the order up to the k-th is
    found by the batched scan of `_family_zeros` and cached.
    """
    order, k = _coerce_order(nu), _integer("zero index", k, 1, _MAX_ZERO_INDEX)
    beta, terms = _mcmahon_terms(order, k)
    guess = beta - sum(terms)
    if _mcmahon_is_reliable(terms):
        if guess > _MAX_X_INTERNAL:
            return guess  # off by at most 1.4e-16 relative where measured, k >= 13,000
        return _refine_zero(order, guess)
    x_max = order.nu + 4.0 * k
    while True:
        zeros, complete = _zero_cache.get(order.twice_order, ((), 0.0))
        if len(zeros) >= k:
            return float(zeros[k - 1])
        # widen the reach past the order at least twofold, so that ascending
        # calls k = 1, 2, ... recompute O(log k) times
        x_max = max(x_max, order.nu + 2.0 * (complete - order.nu))
        _family_zeros([order.twice_order], x_max)


def _tan_pair(t):
    """t cos t - sin t, the pole-free form of tan t = t, and its derivative."""
    return t * np.cos(t) - np.sin(t), -t * np.sin(t)


def tan_fixed_point(m):
    """m-th positive root of tan t = t, inside (m pi, (2m+1) pi / 2).

    m is one index, which gives a float, or an array of indices, which gives
    a float array of roots of the same shape; each is in 1..100000 and of an
    integer dtype (no bool, no float), else DomainError.  Halley's method runs
    on the pole-free form f(t) = t cos t - sin t = 0 from the guess
    (2m+1) pi/2 - 1/((2m+1) pi/2), safeguarded by the enclosing bracket.
    f solves t f'' = 2 f' - t f, so f'' = -sin t - t cos t comes from the
    values of f and f'.
    """
    index = np.asarray(m)
    if index.dtype.kind not in "iu" or not np.all((1 <= index) & (index <= _MAX_ZERO_INDEX)):
        raise DomainError(f"root index must be an integer in 1..{_MAX_ZERO_INDEX}, got {_shown(m)}")
    ms = index.reshape(-1).astype(int)
    lo = ms * np.pi
    hi = (2 * ms + 1) * np.pi / 2.0

    def triple(live, t):
        f, fp = _tan_pair(t)
        return f, fp, 2.0 * fp / t - f

    roots = _halley_batch(triple, lo, hi, _tan_pair(lo)[0], hi - 1.0 / hi)
    return float(roots[0]) if index.ndim == 0 else roots.reshape(index.shape)
