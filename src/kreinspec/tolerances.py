"""The thresholds of the library's numerical checks, in one place.

All tolerances are relative to the max-norm of the input (times the order
where stated in the individual contracts).  Each check site reads its
threshold from a module constant here.  The one threshold a caller can set
is extensions.krein's: its `profile`, a ToleranceProfile, sets only its
construction_rel, and stays because the benchmark's tracer reads it.  The
profile checks that value by errors._positive (DomainError unless it is
positive and finite) and stores it as a plain float.
parametrized_extension reads CONSTRUCTION_REL, and chooses its kernel by it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import _positive

# linalg-core; CHOLESKY_PIVOT_REL is the one positive-definiteness rule
CHOLESKY_PIVOT_REL = 1e-14   # Cholesky pivot <= order * this * max|S| fails
PSD_CLAMP_REL = 1e-12        # spd_sqrt negative-eigenvalue window
ORTHONORMAL_REL = 1e-12      # max|V^T V - I| <= this, for any order
# extension-core
ADJOINT_KERNEL_REL = 1e-11   # orthogonality of ker(S*) columns to A*D
CONSTRUCTION_REL = 1e-9      # krein and parametrized against their definition
RANK_REL = 1e-12             # QR column floor: |R_jj| / largest column norm
# exact spectra
MERGE_REL = 1e-11            # cross-channel coincident-eigenvalue merge


@dataclass(frozen=True)
class ToleranceProfile:
    construction_rel: float = CONSTRUCTION_REL  # positive and finite

    def __post_init__(self):
        object.__setattr__(self, "construction_rel", _positive("construction_rel", self.construction_rel))


DEFAULT = ToleranceProfile()
