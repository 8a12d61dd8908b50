"""Exception types shared across the library, and the argument rules.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from KreinspecError, so one except clause catches the lot.
Each kind of scalar argument has one rule: `_integer` (counts, sizes,
dimensions, degrees), `_positive` (positive reals), `_real` (reals whose
range the caller checks) and `_condition` ("dirichlet" or "krein").  Each
raises DomainError naming the argument and returns the plain int, float or
str that its caller uses in place of the input, so no numpy scalar or bool
reaches the arithmetic behind it.  Every argument message shows the value
through `_shown`, which keeps an int too long for decimal from replacing
the site's error by Python's own ValueError.  Every real argument is read
by `_double` alone, as float() of a real number (no bool), +-inf past the
doubles; each site range-checks that double, never the raw input.  A pair,
as a window or a law, is read by `_pair`, its items by the same rules,
and an array of reals, as shifts, probes, spectrum values, breakpoints,
tridiagonals, matrix entries or basis columns, by `_reals`.
Spectra and counting functions share `_int64_counts` and
`_require_complete_below`.
"""

import math
from numbers import Integral, Real

import numpy as np


class KreinspecError(Exception):
    """Base class for all library errors."""


class NotPositiveDefinite(KreinspecError):
    """A matrix required to be positive definite is not (pivot breakdown)."""


class NotPositiveSemidefinite(KreinspecError):
    """A matrix required to be PSD has a significantly negative eigenvalue."""


# Parameter matrices B in the extension family carry the same requirement.
NotPSD = NotPositiveSemidefinite


class NoConvergence(KreinspecError):
    """The symmetric eigensolver failed to converge."""


class RankDeficientBasis(KreinspecError):
    """Supplied basis columns are numerically dependent."""


class NoDeficiency(KreinspecError):
    """The restricted domain fills the whole space (d = N)."""


class NotOrthogonal(KreinspecError):
    """A matrix required to be orthogonal is not."""


class ConstructionMismatch(KreinspecError):
    """Two independent constructions of the same operator disagree."""


class SingularDecomposition(KreinspecError):
    """A spanning set that should be a basis is numerically rank deficient."""


class DomainError(KreinspecError, ValueError):
    """Argument outside its supported domain."""


class BracketFailure(KreinspecError):
    """Root bracketing failed; indicates a programming error, not bad input."""


class NonMonotoneError(KreinspecError):
    """Convergence study errors failed to decrease with refinement."""


class InsufficientData(KreinspecError):
    """Not enough samples in the requested window for a fit."""


class InsufficientEigenvalues(KreinspecError):
    """Spectrum too short for the requested inequality checks."""


def _shown(value) -> str:
    """repr(value) for an argument message.  An int of more than
    sys.get_int_max_str_digits() digits has no decimal repr; it is shown as
    "<int of N bits>", also inside a tuple, and any other value whose repr
    raises ValueError as "<type name>"."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, tuple):
            return f"({', '.join(map(_shown, value))}{',' * (len(value) == 1)})"
        size = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{size}>"


def _integer(name: str, value, least: int, most: int | None = None) -> int:
    """value as an int; DomainError unless it is an integer (no bool) in least..most."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        number = int(value)
        if least <= number and (most is None or number <= most):
            return number
    limits = f">= {least}" if most is None else f"in {least}..{most}"
    raise DomainError(f"{name} must be an integer {limits}, got {_shown(value)}")


def _double(value) -> float | None:
    """value as a float, +-inf for an int or fraction past the doubles; None
    unless it is a real number (no bool)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:  # the sign of an int or fraction is exact
        return math.inf if value > 0 else -math.inf


def _pair(value, read=_double) -> tuple | None:
    """value's two items, each through read (`_double` unless given); None
    unless value has exactly two items, as a sized iterable that is not a
    number has."""
    try:
        items = tuple(value) if len(value) == 2 else ()
    except TypeError:  # no len(), as a number has none
        return None
    return tuple(map(read, items)) if len(items) == 2 else None


def _positive(name: str, value) -> float:
    """value as a float; DomainError unless it is a real number (no bool), positive and finite."""
    number = _double(value)
    if number is not None and 0.0 < number < math.inf:
        return number
    raise DomainError(f"{name} {_shown(value)} is not positive and finite")


def _real(name: str, value) -> float:
    """value as a float, +-inf past the doubles; DomainError unless a real number (no bool)."""
    number = _double(value)
    if number is None:
        raise DomainError(f"{name} {_shown(value)} is not a real number")
    return number


def _reals(name: str, value) -> np.ndarray:
    """value as a float array of its own shape, each entry read as `_double`
    reads one; ValueError naming the argument unless it is a real number or
    an array of them (no bool, str or complex)."""
    held = np.asarray(value)
    if held.dtype.kind in "iuf":
        return held.astype(float, copy=False)
    reals = [_double(v) for v in held.reshape(-1).tolist()] if held.dtype.kind == "O" else [None]
    if None in reals:
        raise ValueError(f"{name} must be real numbers, got {_shown(value)}")
    return np.array(reals, dtype=float).reshape(held.shape)


def _condition(name: str, value) -> str:
    """value as a str; DomainError unless it is "dirichlet" (hard) or "krein" (soft)."""
    if isinstance(value, str) and value in ("dirichlet", "krein"):
        return str(value)
    raise DomainError(f"{name} must be dirichlet or krein, got {_shown(value)}")


def _int64_counts(counts, what: str) -> np.ndarray:
    """counts as a new int64 array; ValueError naming `what` unless each is
    an integer in the int64 range.  What numpy reads as int64 is exact; the
    rest is converted count by count, so a float among ints rounds none."""
    exact = np.array(counts)
    if exact.dtype != np.int64:
        held = np.array(counts, dtype=object)
        try:
            exact = held.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            exact = None
        if exact is None or not np.array_equal(exact, held):
            raise ValueError(f"{what} must be integers no larger than 2^63 - 1")
    return exact


def _require_complete_below(value) -> float | None:
    """complete_below as a float, or None; ValueError unless None or a number > 0 (inf allowed)."""
    if value is None:
        return None
    number = _double(value)
    if number is None or not number > 0.0:
        raise ValueError(f"complete_below must be None or > 0, got {_shown(value)}")
    return number
