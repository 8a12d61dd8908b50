"""Radial multisection against LAPACK dense eigenvalues of the same tridiagonal."""

import numpy as np
import pytest

from kreinspec import discretize as dz

EPS = float(np.finfo(float).eps)
COUNT = 20


# Dense eigvalsh is normwise backward stable: it fixes each eigenvalue only to
# a few eps * ||T|| absolute.  At m = 800 that stays below 1e-11 of the
# lowest eigenvalue for these channels (at most 6e-12 measured), at m = 4000
# it reaches 4e-9, so there the comparison allows 8 eps * ||T||.
@pytest.mark.parametrize("m, atol_eps", [
    (800, 0.0),
    pytest.param(4000, 8.0, marks=pytest.mark.slow),
])
@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("n, ell", [(2, 1), (3, 2), (4, 4)])
def test_agrees_with_dense_eigvalsh(n, ell, bc, m, atol_eps):
    spec = dz.RadialChannelSpec(n, ell, 1.0, m, bc)
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    skip = 1 if bc == "krein" else 0
    norm = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
    np.testing.assert_allclose(
        dz.radial_eigenvalues(spec, COUNT), dense[skip:skip + COUNT],
        rtol=1e-11, atol=atol_eps * EPS * norm,
    )
