"""Central tolerance profile threaded through every numerical check.

All tolerances are relative to the max-norm of the input (times the order
where stated in the individual contracts).  A single profile object is
passed down by callers; DEFAULT is the one the library ships.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceProfile:
    # linalg-core
    cholesky_pivot_rel: float = 1e-14     # pivot <= order * this * max|S| fails
    psd_clamp_rel: float = 1e-12          # spd_sqrt negative-eigenvalue window
    orthonormal_rel: float = 1e-12        # ||V^T V - I|| <= this * order
    # extension-core
    extension_residual_rel: float = 1e-10  # extends-S and kernel residuals
    adjoint_kernel_rel: float = 1e-11      # orthogonality of ker(S*) columns to A*D
    construction_rel: float = 1e-9         # piecewise vs Ando-Nishio mismatch
    rank_rel: float = 1e-12                # spanning-set smallest/largest singular value
    # exact spectra
    merge_rel: float = 1e-11               # cross-channel coincident-eigenvalue merge


DEFAULT = ToleranceProfile()
