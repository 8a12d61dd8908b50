"""Bessel functions of the first kind for integer and half-integer orders,
their positive zeros, and the fixed points of tan t = t.

Only integer and half-integer orders are supported: every radial channel of
the interval and ball spectra uses an order of the form l + (n-2)/2 or
l + n/2 with integer n and l, so general-order Gamma machinery is never
needed.

Evaluation is by backward recurrence: integer orders use Miller's algorithm
normalized through J_0(x) + 2*sum_k J_{2k}(x) = 1, half-integer orders
recur on spherical Bessel functions and normalize against the closed forms
sin(x)/x and sin(x)/x^2 - cos(x)/x, whichever is better conditioned.

Every root is refined inside a sign-change bracket by `_newton_batch`, the
one safeguarded Newton iteration of the library, which steps many brackets
at once.  The fixed points of tan t = t run through it as one batch per
call.  Bessel zeros reach it by two routes:

* A single zero j_{nu,k} starts from McMahon's asymptotic expansion
  whenever its terms certify themselves by rapid decay, and is refined as
  a batch of one.
* Whole zero sets come from `_family_zeros`: for the orders l + p/2 of one
  parity p it finds every zero below a bound at once.  One backward
  recurrence over orders, vectorized with numpy over a grid of arguments of
  step _SCAN_STEP, brackets every zero of every order; then every bracket
  is refined together, each Newton step being one vectorized recurrence
  pass over the live iterates.  The zeros are cached per order in
  `_zero_cache` with the argument below which they are complete, so the
  hard and soft spectra of one ball (orders of one parity) share one
  computation.  A single zero in the large-order, small-index regime, where
  the expansion is unreliable, is read from the same cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DomainError

__all__ = ["BesselOrder", "bessel_j", "bessel_j_derivative", "bessel_zero", "tan_fixed_point"]

_MAX_TWICE_ORDER = 1000     # nu <= 500
_MAX_X = 1.0e4              # public evaluation domain
_MAX_X_INTERNAL = 4.0e4     # zero refinement may evaluate somewhat further
_MAX_ZERO_INDEX = 100_000
_RESCALE = 1.0e250          # rescaling threshold inside backward recurrences
_SCAN_STEP = 1.5            # below the minimal spacing of consecutive zeros
_NEWTON_STEPS = 200
_STOP_REL = 5e-15           # Newton stops once a step is this small relative to x


def _recurrence_start(n_max, x):
    """Start order for backward recurrence; elementwise for numpy arrays.

    The seed must sit well past the turning point k = x, where the wanted
    solution decays like an Airy tail; 9 x^(1/3) extra orders push the
    contamination of the unwanted solution below 1e-14 of the amplitude,
    and 40 is the floor for small arguments.
    """
    if isinstance(x, np.ndarray):
        margin = np.maximum(40, np.ceil(9.0 * x ** (1.0 / 3.0)).astype(int))
        return np.maximum(n_max, np.ceil(x).astype(int)) + margin
    margin = max(40, int(math.ceil(9.0 * x ** (1.0 / 3.0))))
    return max(n_max, int(math.ceil(x))) + margin


@dataclass(frozen=True)
class BesselOrder:
    """Order nu = twice_order / 2; only integers and half-integers exist."""

    twice_order: int

    def __post_init__(self):
        if self.twice_order < 0:
            raise DomainError(f"negative order {self.twice_order / 2}")
        if self.twice_order > _MAX_TWICE_ORDER:
            raise DomainError(f"order {self.twice_order / 2} exceeds 500")

    @property
    def nu(self) -> float:
        return self.twice_order / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_order % 2 == 0


def _coerce_order(nu) -> BesselOrder:
    if isinstance(nu, BesselOrder):
        return nu
    twice = 2.0 * float(nu)
    if not math.isfinite(twice) or abs(twice - round(twice)) > 1e-12:
        raise DomainError(f"order {nu} is neither integer nor half-integer")
    return BesselOrder(int(round(twice)))


def _gamma_int_or_half(twice_a: int) -> float:
    """Gamma(a) for a = twice_a/2 > 0 by the recurrence from Gamma(1), Gamma(1/2)."""
    if twice_a % 2 == 0:
        g, a = 1.0, 1.0
    else:
        g, a = math.sqrt(math.pi), 0.5
    while 2.0 * a < twice_a:
        g *= a
        a += 1.0
    return g


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


def _backward_all(parity: int, n_max: int, x: float) -> list:
    """Orders parity/2 .. n_max + parity/2 at x by one backward recurrence:
    J_0(x) .. J_{n_max}(x) by Miller's algorithm for parity 0, the spherical
    j_0(x) .. j_{n_max}(x) (no sqrt(2x/pi) factor) for parity 1."""
    start = _recurrence_start(n_max, x)
    out = [0.0] * (n_max + 1)
    fplus = 0.0
    f = 1.0e-30
    norm = 0.0
    for k in range(start, 0, -1):
        fminus = ((2.0 * k + parity) / x) * f - fplus
        fplus = f
        f = fminus
        idx = k - 1
        if idx <= n_max:
            out[idx] = f
        if parity == 0 and idx >= 2 and idx % 2 == 0:
            norm += 2.0 * f
        if abs(f) > _RESCALE:
            inv = 1.0 / _RESCALE
            f *= inv
            fplus *= inv
            norm *= inv
            for j in range(max(idx, 0), n_max + 1):
                out[j] *= inv
    if parity == 0:
        norm += f  # f is now J_0 up to the common factor
        return [v / norm for v in out]
    j0 = math.sin(x) / x
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    # f is the unnormalized j_0 and fplus the unnormalized j_1
    if abs(j0) >= abs(j1) or fplus == 0.0:
        scale = j0 / f
    else:
        scale = j1 / fplus
    return [v * scale for v in out]


def _eval_j(order: BesselOrder, x: float) -> float:
    if x <= 1e-3:
        return _tiny_argument_series(order, x)
    if order.is_integer:
        n = order.twice_order // 2
        return _backward_all(0, n, x)[n]
    l = (order.twice_order - 1) // 2
    return math.sqrt(2.0 * x / math.pi) * _backward_all(1, l, x)[l]


def _eval_j_pair(order: BesselOrder, x: float):
    """(J_nu(x), J_nu'(x)) sharing a single recurrence pass."""
    if order.is_integer:
        n = order.twice_order // 2
        vals = _backward_all(0, n + 1, x)
        if n == 0:
            return vals[0], -vals[1]
        return vals[n], 0.5 * (vals[n - 1] - vals[n + 1])
    l = (order.twice_order - 1) // 2
    amp = math.sqrt(2.0 * x / math.pi)
    vals = _backward_all(1, l + 1, x)
    below = math.cos(x) / x if l == 0 else vals[l - 1]
    return amp * vals[l], 0.5 * amp * (below - vals[l + 1])


def bessel_j(nu, x: float) -> float:
    """J_nu(x) for integer or half-integer nu <= 500 and 0 < x <= 1e4."""
    order = _coerce_order(nu)
    if not (0.0 < x <= _MAX_X):
        raise DomainError(f"argument {x} outside (0, {_MAX_X:g}]")
    return _eval_j(order, x)


def bessel_j_derivative(nu, x: float) -> float:
    """J_nu'(x) = (J_{nu-1}(x) - J_{nu+1}(x)) / 2."""
    order = _coerce_order(nu)
    if not (0.0 < x <= _MAX_X):
        raise DomainError(f"argument {x} outside (0, {_MAX_X:g}]")
    return _eval_j_pair(order, x)[1]


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


def _refine_zero(order: BesselOrder, lo: float, hi: float) -> float:
    """Zero of J_nu in [lo, hi], certified by the sign change at the ends."""
    flo = _eval_j(order, lo)
    fhi = _eval_j(order, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketFailure(f"no sign change in [{lo}, {hi}] for order {order.nu}")
    # a batch of one: f and f' as one-element arrays
    pair = lambda live, x: np.array(_eval_j_pair(order, float(x[0])))[:, None]
    return float(_newton_batch(pair, np.array([lo]), np.array([hi]), np.array([flo]),
                               np.array([0.5 * (lo + hi)]))[0])


def _backward_pass(parity: int, x: np.ndarray, starts: np.ndarray, out: np.ndarray,
                   writes: dict):
    """The backward recurrence of `_backward_all`, run for every argument
    of x at once.

    Element e is seeded at order starts[e].  writes maps an order index i
    to (slot, a, b) triples: out[slot, a:b] receives the unnormalized value
    of order i + parity/2 at x[a:b].  Rescaling acts on every slot of the
    rescaled elements, as the scalar code rescales every stored order.
    Returns the unnormalized values of orders 0 and 1 (plus parity/2) and,
    for integer orders, the Miller sum 2 * sum_{k>=1} J_{2k}.
    """
    f = np.zeros_like(x)
    fplus = np.zeros_like(x)
    norm = np.zeros_like(x)
    by_start = np.argsort(starts, kind="stable")
    values, first = np.unique(starts[by_start], return_index=True)
    seeds = dict(zip(values.tolist(), np.split(by_start, first[1:])))
    inv = 1.0 / _RESCALE
    for k in range(int(starts.max(initial=0)), 0, -1):
        if k in seeds:
            f[seeds[k]] = 1.0e-30
        fminus = ((2.0 * k + parity) / x) * f - fplus
        fplus = f
        f = fminus
        idx = k - 1
        for slot, a, b in writes.get(idx, ()):
            out[slot, a:b] = f[a:b]
        if parity == 0 and idx >= 2 and idx % 2 == 0:
            norm += 2.0 * f
        big = np.abs(f) > _RESCALE
        if big.any():
            f[big] *= inv
            fplus[big] *= inv
            norm[big] *= inv
            out[:, big] *= inv
    return f, fplus, norm


def _normalized(parity: int, x: np.ndarray, out: np.ndarray, f, fplus, norm) -> np.ndarray:
    """out scaled like `_backward_all` scales its results: J for
    integer orders, spherical j (no sqrt(2x/pi) factor) for half-integers."""
    if parity == 0:
        return out / (norm + f)
    j0 = np.sin(x) / x
    j1 = np.sin(x) / (x * x) - np.cos(x) / x
    use_j0 = (np.abs(j0) >= np.abs(j1)) | (fplus == 0.0)
    scale = np.divide(j0, f, out=np.zeros_like(x), where=use_j0)
    np.divide(j1, fplus, out=scale, where=~use_j0)
    return out * scale


def _eval_pairs(parity: int, ells: np.ndarray, x: np.ndarray):
    """(J_nu(x), J_nu'(x)) elementwise for nu = ells + parity/2, ells ascending,
    the same values `_eval_j_pair` gives, from one recurrence pass.

    Sorted orders make the elements of each order one slice, so J_{nu-1},
    J_nu and J_{nu+1} are three slice copies per order, not a full table.
    """
    writes: dict = {}
    values, first = np.unique(ells, return_index=True)
    for ell, a, b in zip(values.tolist(), first.tolist(), first[1:].tolist() + [len(ells)]):
        for slot, idx in enumerate((ell - 1, ell, ell + 1)):
            writes.setdefault(idx, []).append((slot, a, b))
    out = np.zeros((3, len(x)))
    below, mid, above = _normalized(parity, x, out,
                                    *_backward_pass(parity, x, _recurrence_start(ells + 1, x),
                                                    out, writes))
    if parity == 0:
        return mid, np.where(ells == 0, -above, 0.5 * (below - above))
    amp = np.sqrt(2.0 * x / np.pi)
    below = np.where(ells == 0, np.cos(x) / x, below)
    return amp * mid, 0.5 * amp * (below - above)


def _newton_batch(pair, lo, hi, flo, x) -> np.ndarray:
    """Roots of f inside the sign-change brackets [lo, hi], elementwise, by
    Newton's method from x, bisecting wherever a step would leave its bracket.

    pair(live, x) returns (f(x), f'(x)) as arrays for the iterates still
    running, live being their indices into the batch; flo carries the sign
    of f at lo.  The stop test applies to the raw Newton step before the
    safeguard: once an iterate has become a bracket end, a converged step of
    rounding size fails lo < x - f/f' < hi, and bisecting there would walk
    away from the root.  An iterate still running after _NEWTON_STEPS steps
    returns its last value.
    """
    zeros = x.copy()
    live = np.arange(len(x))
    for _ in range(_NEWTON_STEPS):
        if live.size == 0:
            break
        f, fp = pair(live, x)
        same = np.copysign(1.0, f) == np.copysign(1.0, flo)
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        has_step = fp != 0.0
        newton = x - np.divide(f, fp, out=np.zeros_like(f), where=has_step)
        tol = _STOP_REL * np.abs(x)
        raw_done = has_step & (np.abs(newton - x) <= tol)
        nxt = np.where(has_step & (lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        hit = f == 0.0
        done = hit | raw_done | (np.abs(nxt - x) <= tol)
        zeros[live[done]] = np.where(hit, x, np.where(raw_done, newton, nxt))[done]
        keep = ~done
        live, lo, hi, flo, x = (a[keep] for a in (live, lo, hi, flo, nxt))
    zeros[live] = x
    return zeros


def _solve_family(parity: int, ells: np.ndarray, x_max: float):
    """Every zero below the returned bound (> x_max) of each J_{l + parity/2},
    l in ells (ascending), as one ascending array per order."""
    grid = _SCAN_STEP * np.arange(1, int(x_max / _SCAN_STEP) + 3)
    out = np.zeros((len(ells), len(grid)))
    writes = {ell: ((row, 0, len(grid)),) for row, ell in enumerate(ells.tolist())}
    table = _normalized(parity, grid, out,
                        *_backward_pass(parity, grid, _recurrence_start(int(ells[-1]), grid),
                                        out, writes))
    # zeros exceed their order, and J_nu > 0 below its first zero, so a value
    # that underflowed to 0 carries the sign of its neighbours
    positive = table >= 0.0
    rows, cols = np.nonzero(positive[:, :-1] != positive[:, 1:])
    lo, hi = grid[cols], grid[cols + 1]
    flo, fhi = table[rows, cols], table[rows, cols + 1]
    start = lo - flo * (hi - lo) / (fhi - flo)
    orders = ells[rows]
    zeros = _newton_batch(lambda live, x: _eval_pairs(parity, orders[live], x),
                          lo, hi, flo, start)
    return np.split(zeros, np.searchsorted(rows, np.arange(1, len(ells)))), float(grid[-1])


# twice_order -> (ascending zeros, the argument below which no zero is missing)
_zero_cache: dict = {}


def _family_zeros(twice_orders, x_max: float) -> list:
    """For each order twice_orders[i] / 2 (ascending, all of one parity), an
    ascending array of its zeros, complete below x_max; cached per order."""
    if len(twice_orders):
        BesselOrder(twice_orders[-1])  # orders above 500 raise DomainError
    missing = [t for t in twice_orders if t not in _zero_cache or _zero_cache[t][1] <= x_max]
    if missing:
        zeros, complete = _solve_family(missing[0] % 2, np.array(missing) // 2, x_max)
        for t, z in zip(missing, zeros):
            z.setflags(write=False)  # shared by every caller
            _zero_cache[t] = (z, complete)
    return [_zero_cache[t][0] for t in twice_orders]


def bessel_zero(nu, k: int) -> float:
    """k-th positive zero j_{nu,k}, accurate to about 1e-11 relative.

    The asymptotic expansion seeds a Newton iteration inside a sign-change
    bracket whenever its terms certify themselves by rapid decay; otherwise
    (large order, small index) every zero of the order up to the k-th is
    found by the batched scan of `_family_zeros` and cached.
    """
    order = _coerce_order(nu)
    if not (1 <= k <= _MAX_ZERO_INDEX and k == int(k)):
        raise DomainError(f"zero index {k} is not an integer in 1..{_MAX_ZERO_INDEX}")
    beta, terms = _mcmahon_terms(order, k)
    guess = beta - sum(terms)
    if _mcmahon_is_reliable(terms):
        if guess > _MAX_X_INTERNAL:
            return guess  # residual expansion error is far below 1e-11 relative
        return _refine_zero(order, guess - 0.5, guess + 0.5)
    x_max = order.nu + 4.0 * k
    while True:
        zeros, complete = _zero_cache.get(order.twice_order, ((), 0.0))
        if len(zeros) >= k:
            return float(zeros[int(k) - 1])
        # widen the reach past the order at least twofold, so that ascending
        # calls k = 1, 2, ... recompute O(log k) times
        x_max = max(x_max, order.nu + 2.0 * (complete - order.nu))
        _family_zeros([order.twice_order], x_max)


def _tan_pair(t):
    """t cos t - sin t, the pole-free form of tan t = t, and its derivative."""
    return t * np.cos(t) - np.sin(t), -t * np.sin(t)


def tan_fixed_point(m):
    """m-th positive root of tan t = t, inside (m pi, (2m+1) pi / 2).

    m is one index, which gives a float, or an integer array of indices,
    which gives a float array of roots of the same shape.  Newton runs on
    the pole-free form t cos t - sin t = 0 from the guess
    (2m+1) pi/2 - 1/((2m+1) pi/2), safeguarded by the enclosing bracket.
    """
    index = np.asarray(m)
    if not np.all((1 <= index) & (index <= _MAX_ZERO_INDEX) & (index == np.floor(index))):
        raise DomainError(f"root index {m} is not an integer in 1..{_MAX_ZERO_INDEX}")
    ms = index.reshape(-1).astype(int)
    lo = ms * np.pi
    hi = (2 * ms + 1) * np.pi / 2.0
    roots = _newton_batch(lambda live, t: _tan_pair(t), lo, hi, _tan_pair(lo)[0], hi - 1.0 / hi)
    return float(roots[0]) if index.ndim == 0 else roots.reshape(index.shape)
