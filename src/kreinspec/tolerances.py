"""The thresholds of the library's numerical checks, in one place.

All tolerances are relative to the max-norm of the input (times the order
where stated in the individual contracts).  Each check site reads its
threshold from a module constant here.  The one threshold a caller can set
is extensions.krein's: its `profile`, a ToleranceProfile, sets only its
construction_rel, and stays because the benchmark's tracer reads it.
parametrized_extension reads CONSTRUCTION_REL, and chooses its kernel by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not 0.0 < self.construction_rel < math.inf:
            raise ValueError(f"construction_rel {self.construction_rel!r} is not positive and finite")


DEFAULT = ToleranceProfile()
