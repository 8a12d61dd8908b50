"""Sturm counts against exact integer counts of the stored tridiagonals.

`oracles.exact_count` counts the eigenvalues below a shift of the matrix
whose entries are the stored doubles, in Python ints, so it is the count
that `linalg.sturm_count` approximates in IEEE arithmetic.  The float count
of the forward and the twisted sweep is the exact count of a matrix within
rounding of T; so each shift that they count differently lies within a band
around an exact eigenvalue.  Over random tridiagonals and the radial
channels (2, 0), (2, 1), (3, 0), (3, 2) and (4, 4) on both conditions, at
m = 16, 40, 64, 200 and 800, with shifts at the dense eigenvalues, their
neighbouring doubles and up to 4,096 ulps from them, 161 of 13,068 float
counts differed from the exact ones, every one within 0.21 eps ||T|| (at
most 1.7e-12 relative) of an exact eigenvalue: the band here is eps ||T||,
with ||T|| the Gershgorin bound.  The Tier-1 cases below differ at 5 of
their 720 counts.
"""

import numpy as np
import pytest

from kreinspec import discretize as dz
from kreinspec.linalg import sturm_count

from oracles import exact_count

EPS = float(np.finfo(float).eps)


def _tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _radial(n, ell, m, bc, radius=1.0):
    return dz.radial_pencil(dz.RadialChannelSpec(n, ell, radius, m, bc)).reduced_tridiagonal()


def _random(seed, m, split=None):
    rng = np.random.default_rng(seed)
    d, e = 10.0 * rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m - 1)
    if split is not None:
        e[split] = 0.0  # T splits there, and each block counts alone
    return d, e


def _shifts_near(d, e, seed, picks):
    """Shifts where rounding decides the count: at picks of the dense
    eigenvalues, at their neighbouring doubles and up to 4,096 ulps away."""
    rng = np.random.default_rng(seed)
    dense = np.linalg.eigvalsh(_tridiagonal(d, e))
    chosen = dense[rng.choice(dense.size, min(picks, dense.size), replace=False)]
    steps = rng.integers(-2**12, 2**12, (chosen.size, 6)) * np.spacing(np.abs(chosen))[:, None]
    return np.concatenate((chosen, np.nextafter(chosen, -np.inf), np.nextafter(chosen, np.inf),
                           (chosen[:, None] + steps).ravel()))


def _check_against_exact(d, e, shifts):
    """Forward and twisted (m // 2) counts equal the exact count at every
    shift more than the band eps ||T|| from an exact eigenvalue; inside it,
    each is an exact count of a point of the band."""
    band = EPS * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    exact = [exact_count(d, e, lam) for lam in shifts.tolist()]
    for twist in (None, d.size // 2):
        counts = sturm_count(d, e, shifts, twist=twist).tolist()
        for lam, count, want in zip(shifts.tolist(), counts, exact):
            if count != want:
                low, high = exact_count(d, e, lam - band), exact_count(d, e, lam + band)
                assert low <= count <= high and low < high, (twist, lam, count, want)


RANDOM = {"random-8": (1, 8, None), "random-33": (2, 33, None), "random-64": (3, 64, None),
          "random-40-split": (4, 40, 17)}


@pytest.mark.parametrize("seed, m, split", RANDOM.values(), ids=RANDOM.keys())
def test_random_tridiagonals_count_exactly_outside_the_band(seed, m, split):
    d, e = _random(seed, m, split)
    _check_against_exact(d, e, _shifts_near(d, e, seed, 4))


@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("n, ell", [(2, 0), (3, 2), (4, 4)])
def test_radial_tridiagonals_count_exactly_outside_the_band(n, ell, bc):
    d, e = _radial(n, ell, 64, bc)
    _check_against_exact(d, e, _shifts_near(d, e, 10 * n + ell, 4))


# The channels of ROADMAP item 31's measurement at m = 800, where one exact
# count takes about 14 ms: a few seconds in all.
@pytest.mark.slow
def test_radial_counts_at_m_800():
    for n, ell, bc in ((3, 2, "dirichlet"), (3, 0, "dirichlet"), (4, 4, "krein")):
        d, e = _radial(n, ell, 800, bc)
        _check_against_exact(d, e, _shifts_near(d, e, 10 * n + ell, 6))


# The two conditions differ only in the last diagonal entry, the soft one
# the smaller, so T_K <= T_D by rank one and count_D <= count_K <= count_D + 1
# at every shift (Cauchy interlacing), the Krein count including its zero
# mode; the hard diagonal grows with l and nothing else changes, so
# count_{D,l+1} <= count_{D,l}.  For the stored matrices these are theorems,
# and the exact counts hold them at every shift, the eigenvalues of each
# matrix and their neighbouring doubles included.
@pytest.mark.parametrize("n, ell, radius", [(2, 0, 1.0), (2, 3, 0.8), (3, 1, 1.0), (4, 2, 1.25)])
def test_interlacing_and_order_in_l_hold_on_the_exact_counts(n, ell, radius):
    m = 48
    hard, soft, higher = (_radial(n, ell + up, m, bc, radius)
                          for up, bc in ((0, "dirichlet"), (0, "krein"), (1, "dirichlet")))
    shifts = np.concatenate([_shifts_near(*tri, seed, 4)[:12]
                             for seed, tri in enumerate((hard, soft, higher))])
    for lam in shifts.tolist():
        count_d, count_k, count_higher = (exact_count(*tri, lam) for tri in (hard, soft, higher))
        assert count_d <= count_k <= count_d + 1, lam
        assert count_higher <= count_d, lam
