"""Radial multisection against LAPACK dense eigenvalues of the same
tridiagonal, its sweep budget, and the Sturm count on radial pencils."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinspec import discretize as dz
from kreinspec.linalg import sturm_count

from oracles import sturm_count_oracle

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


@settings(max_examples=60, deadline=None)
@given(
    channel=st.sampled_from([(2, 1), (3, 0), (3, 2), (4, 4)]),
    bc=st.sampled_from(["dirichlet", "krein"]),
    m=st.integers(8, 300),
    index=st.integers(0, 7),
    steps=st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=40),
    spread=st.lists(st.floats(-1.0, 2.0), max_size=10),
)
def test_counts_never_decrease(channel, bc, m, index, steps, spread):
    # shifts within a million ulps of an eigenvalue, where rounding decides
    # the count, plus some across the whole spectrum
    d, e = dz.radial_pencil(dz.RadialChannelSpec(*channel, 1.0, m, bc)).reduced_tridiagonal()
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    lam = dense[min(index, m - 1)]
    shifts = np.sort(np.concatenate((
        lam + np.spacing(abs(lam)) * np.array(steps, dtype=float),
        dense[0] + (dense[-1] - dense[0]) * np.array(spread),
    )))
    counts = sturm_count(d, e, shifts)
    assert np.all(np.diff(counts) >= 0)
    assert 0 <= counts[0] and counts[-1] <= m


@pytest.fixture
def sweeps(monkeypatch):
    calls = []

    def counted(diag, offdiag, lam):
        calls.append(np.size(lam))
        return sturm_count(diag, offdiag, lam)

    monkeypatch.setattr(dz, "sturm_count", counted)
    return calls


def _norm(d, e):
    """Gershgorin bound on ||T|| for the tridiagonal (d, e)."""
    return np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))


# The budgets are the largest counts measured over all 14 channels at R = 1.
# The krein pencil also brackets its zero mode, until it passes the check
# |lambda_0| <= bound |lambda_1|.  While it and index 1 are both open they
# split each sweep's shifts, which can take one more sweep than a Dirichlet
# index.  Both calls stop at eps ||T||, so they agree to that (0.071 of it
# measured at most, over 14 channels and both conditions).
@pytest.mark.parametrize("bc, most_one, most_twenty", [
    ("dirichlet", 6, 10),
    ("krein", 7, 10),
])
@pytest.mark.parametrize("n, ell", [(2, 1), (3, 2), (4, 4)])
def test_sweep_budget(sweeps, n, ell, bc, most_one, most_twenty):
    spec = dz.RadialChannelSpec(n, ell, 1.0, 800, bc)
    one = dz.radial_eigenvalues(spec, 1)
    assert len(sweeps) <= most_one
    del sweeps[:]
    twenty = dz.radial_eigenvalues(spec, COUNT)
    assert len(sweeps) <= most_twenty
    assert max(sweeps) <= 512
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    assert abs(one[0] - twenty[0]) <= EPS * _norm(d, e)


# Dirichlet values recorded at the stop max(1e-13 relative, eps ||T||).  The
# blocked sweep reproduces every count bit for bit, so they must not move by
# one bit.  Their accuracy rests on bounds independent of this record: the
# eigvalsh comparison above and the Bessel-zero extrapolation in
# tests/test_cross_route.py.
RECORDED_DIRICHLET = {
    (2, 1, 100): ["0x1.d5bec62b7f366p+3", "0x1.89911aa892ae2p+5", "0x1.9d9f217d6fa78p+6",
                  "0x1.6280e34c975bep+7", "0x1.0ea9bfa3f0adcp+8"],
    (2, 1, 800): ["0x1.d5d2549c1001ep+3", "0x1.89be93de3c132p+5", "0x1.9dfdc7b615ec3p+6",
                  "0x1.63084bec0cf88p+7", "0x1.0f45725e187c4p+8"],
    (3, 2, 100): ["0x1.09b6a76995114p+5", "0x1.4ac1dcefaeb8dp+6", "0x1.2f7881dafc3bep+7",
                  "0x1.e0be95fc4c1bfp+7", "0x1.5c8a0111b3b26p+8"],
    (3, 2, 800): ["0x1.09bd415e5c456p+5", "0x1.4ae0017185f96p+6", "0x1.2fb4b8faf30d6p+7",
                  "0x1.e165320eb7081p+7", "0x1.5d44aec9757cdp+8"],
    (4, 4, 100): ["0x1.33b8636ec649cp+6", "0x1.305b37cc7db3ep+7", "0x1.ec8ec185fa0c4p+7",
                  "0x1.67b3d8a12e562p+8", "0x1.ec7f1e7a80fe2p+8"],
    (4, 4, 800): ["0x1.33c1517f35a90p+6", "0x1.307af537f0c13p+7", "0x1.ecfbea4dead44p+7",
                  "0x1.683ca228c4892p+8", "0x1.ed9cd341ca910p+8"],
}


@pytest.mark.parametrize("n, ell, m", list(RECORDED_DIRICHLET))
def test_dirichlet_values_bit_equal_to_recorded(n, ell, m):
    got = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, m, "dirichlet"), 5)
    assert [float(v).hex() for v in got] == RECORDED_DIRICHLET[n, ell, m]


CHANNELS = [(n, ell) for n in (2, 3, 4) for ell in range(5) if (n, ell) != (2, 0)]


# The stop's contract, checked by the pure-Python count: value k (counted with
# the zero mode on the krein condition) has its eigenvalue in [v - w, v + w),
# w = max(1e-13 relative, eps ||T||), however the brackets were shared.
@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("n, ell", CHANNELS)
def test_each_value_within_stop_by_independent_count(n, ell, bc):
    spec = dz.RadialChannelSpec(n, ell, 1.0, 800, bc)
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    floor = EPS * _norm(d, e)
    d, e = d.tolist(), e.tolist()
    first = 2 if bc == "krein" else 1
    for k, v in enumerate(dz.radial_eigenvalues(spec, 3).tolist(), start=first):
        w = max(1e-13 * max(abs(v), 1.0), floor)
        assert sturm_count_oracle(d, e, v - w) < k <= sturm_count_oracle(d, e, v + w)


# The zero mode is read only by |lambda_0| <= bound |lambda_1|, so its bracket
# closes once that check is settled, before index 1's.  While both are open
# they share one sweep's shifts, which can cost one sweep over Dirichlet.
@pytest.mark.parametrize("n, ell", CHANNELS)
def test_zero_mode_closes_before_first_index(sweeps, n, ell):
    dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, 800, "dirichlet"), 1)
    dirichlet = len(sweeps)
    del sweeps[:]
    dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, 800, "krein"), 1)
    assert len(sweeps) <= dirichlet + 1
    assert sweeps[-1] == 511
