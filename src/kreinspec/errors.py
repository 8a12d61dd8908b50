"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from KreinspecError, so one except clause catches the lot.
"""


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
    """Argument outside the supported domain of a special function."""


class BracketFailure(KreinspecError):
    """Root bracketing failed; indicates a programming error, not bad input."""


class NonMonotoneError(KreinspecError):
    """Convergence study errors failed to decrease with refinement."""


class InsufficientData(KreinspecError):
    """Not enough samples in the requested window for a fit."""


class InsufficientEigenvalues(KreinspecError):
    """Spectrum too short for the requested inequality checks."""
