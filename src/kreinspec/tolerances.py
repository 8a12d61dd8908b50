"""The thresholds of the library's numerical checks, in one place.

All tolerances are relative to the max-norm of the input (times the order
where stated in the individual contracts).  DEFAULT is the one profile the
library ships, and each check reads its threshold from it at the check site.
Only extensions.krein still takes a profile argument, and it reads only its
own two thresholds from it: construction_rel and cholesky_pivot_rel.
construction_rel bounds both extension constructions against their
definition: krein reads it from its profile, parametrized_extension from
DEFAULT, and parametrized_extension also chooses its kernel by it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceProfile:
    # linalg-core
    cholesky_pivot_rel: float = 1e-14     # pivot <= order * this * max|S| fails
    psd_clamp_rel: float = 1e-12          # spd_sqrt negative-eigenvalue window
    orthonormal_rel: float = 1e-12        # max|V^T V - I| <= this, for any order
    # extension-core
    adjoint_kernel_rel: float = 1e-11      # orthogonality of ker(S*) columns to A*D
    construction_rel: float = 1e-9         # krein and parametrized against their definition
    rank_rel: float = 1e-12                # QR column floor: |R_jj| / largest column norm
    # exact spectra
    merge_rel: float = 1e-11               # cross-channel coincident-eigenvalue merge


DEFAULT = ToleranceProfile()
