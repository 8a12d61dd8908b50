"""Radial multisection against LAPACK dense eigenvalues of the same
tridiagonal, its sweep budget, and the Sturm count on radial pencils."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinspec import discretize as dz
from kreinspec.linalg import sturm_count

from oracles import sturm_count_oracle

EPS = float(np.finfo(float).eps)
COUNT = 20


# Dense eigvalsh is normwise backward stable: it fixes each eigenvalue only to
# a few eps * ||T|| absolute.  At m = 800 and R = 1 that stays below 1e-11 of
# the lowest eigenvalue for these channels (at most 6e-12 measured); at other
# radii, and at m = 4000, where it reaches 4e-9, it does not, so there the
# comparison allows 8 eps * ||T|| (at R = 0.8 and 1.25 at most 1.12 eps * ||T||
# measured).
@pytest.mark.parametrize("m, atol_eps, radius", [
    pytest.param(800, 0.0, 1.0, id="800-0.0"),
    pytest.param(800, 8.0, 0.8, id="800-8.0-R0.8"),
    pytest.param(800, 8.0, 1.25, id="800-8.0-R1.25"),
    pytest.param(4000, 8.0, 1.0, marks=pytest.mark.slow, id="4000-8.0"),
])
@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("n, ell", [(2, 1), (3, 2), (4, 4)])
def test_agrees_with_dense_eigvalsh(n, ell, bc, m, atol_eps, radius):
    spec = dz.RadialChannelSpec(n, ell, radius, m, bc)
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

    def counted(diag, offdiag, lam, **kwargs):
        calls.append(np.size(lam))
        return sturm_count(diag, offdiag, lam, **kwargs)

    monkeypatch.setattr(dz, "sturm_count", counted)
    return calls


def _norm(d, e):
    """Gershgorin bound on ||T|| for the tridiagonal (d, e)."""
    return np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))


# The budgets are the largest counts measured over all 14 channels at R = 1.
# A Dirichlet count-1 call takes an even split and one rational sweep after
# the geometric first sweep; a krein one starts the rational finish at once
# and takes three narrow sweeps.  Both calls stop at eps ||T||, so they
# agree to that.
@pytest.mark.parametrize("bc, most_one, most_twenty", [
    pytest.param("dirichlet", 3, 5, id="dirichlet"),
    pytest.param("krein", 4, 5, id="krein"),
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


# Dirichlet values recorded at the stop max(1e-13 relative, eps ||T||), with
# the rational finish.  The blocked sweep reproduces every count bit for bit
# and the shifts are a fixed function of them, so the values must not move
# by one bit.  Their accuracy rests on bounds independent of this record:
# the stop contract by the pure-Python count below, the eigvalsh comparison
# above and the Bessel-zero extrapolation in tests/test_cross_route.py.
RECORDED_DIRICHLET = {
    (2, 1, 100): ["0x1.d5bec62b7f55ep+3", "0x1.89911aa892b00p+5", "0x1.9d9f217d6fa7ep+6",
                  "0x1.6280e34c975c0p+7", "0x1.0ea9bfa3f0adep+8"],
    (2, 1, 800): ["0x1.d5d2549c0f296p+3", "0x1.89be93de3be40p+5", "0x1.9dfdc7b615cafp+6",
                  "0x1.63084bec0d596p+7", "0x1.0f45725e18820p+8"],
    (3, 2, 100): ["0x1.09b6a76995103p+5", "0x1.4ac1dcefaeb82p+6", "0x1.2f7881dafc3b6p+7",
                  "0x1.e0be95fc4c1bcp+7", "0x1.5c8a0111b3b1ep+8"],
    (3, 2, 800): ["0x1.09bd415e5c28fp+5", "0x1.4ae0017185f03p+6", "0x1.2fb4b8faf32d6p+7",
                  "0x1.e165320eb6e5cp+7", "0x1.5d44aec9754b8p+8"],
    (4, 4, 100): ["0x1.33b8636ec6484p+6", "0x1.305b37cc7db49p+7", "0x1.ec8ec185fa0c4p+7",
                  "0x1.67b3d8a12e558p+8", "0x1.ec7f1e7a80fe8p+8"],
    (4, 4, 800): ["0x1.33c1517f36131p+6", "0x1.307af537f130ap+7", "0x1.ecfbea4deb272p+7",
                  "0x1.683ca228c4716p+8", "0x1.ed9cd341ca702p+8"],
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


def _gershgorin(d, e):
    """The Gershgorin interval [lo, hi] of the tridiagonal (d, e)."""
    abs_e = np.concatenate(([0.0], np.abs(e), [0.0]))
    radius = abs_e[:-1] + abs_e[1:]
    return float(np.min(d - radius)), float(np.max(d + radius))


# The zero mode is read only by |lambda_0| <= bound |lambda_1|, so its bracket
# closes once that check is settled, before index 1's.  While both are open
# they share one sweep's shifts, but the finish closes both brackets in no
# more sweeps than index 1 (index 2 of the pencil) takes alone on the same
# pencil, with the same interval and stop floor.
@pytest.mark.parametrize("n, ell", CHANNELS)
def test_zero_mode_closes_before_first_index(sweeps, n, ell):
    spec = dz.RadialChannelSpec(n, ell, 1.0, 800, "krein")
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    lo, hi = _gershgorin(d, e)
    dz._multisect(lambda shifts: dz.sturm_count(d, e, shifts, last_pivot=True),
                  lo, hi, np.array([2]), EPS * max(-lo, hi))
    alone = len(sweeps)
    del sweeps[:]
    dz.radial_eigenvalues(spec, 1)
    assert len(sweeps) <= alone
    assert max(sweeps) <= 512


def _assert_within_stop(d, e, values, first):
    """Value k (1-based, counted with any zero mode) has its eigenvalue in
    [v - w, v + w), w = max(1e-13 relative, eps ||T||), by the oracle count."""
    floor = EPS * _norm(d, e)
    d, e = np.asarray(d).tolist(), np.asarray(e).tolist()
    for k, v in enumerate(np.asarray(values).tolist(), start=first):
        w = max(1e-13 * max(abs(v), 1.0), floor)
        assert sturm_count_oracle(d, e, v - w) < k <= sturm_count_oracle(d, e, v + w)


@pytest.mark.parametrize("n, ell, m", list(RECORDED_DIRICHLET))
def test_recorded_values_within_stop_by_independent_count(n, ell, m):
    spec = dz.RadialChannelSpec(n, ell, 1.0, m, "dirichlet")
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    _assert_within_stop(d, e, [float.fromhex(v) for v in RECORDED_DIRICHLET[n, ell, m]], 1)


@settings(max_examples=40, deadline=None)
@given(
    channel=st.sampled_from(CHANNELS),
    bc=st.sampled_from(["dirichlet", "krein"]),
    m=st.integers(8, 400),
    radius=st.floats(0.8, 1.25),
    count=st.integers(1, 20),
)
def test_stop_contract_by_independent_count(channel, bc, m, radius, count):
    skip = 1 if bc == "krein" else 0
    count = min(count, m - skip)
    spec = dz.RadialChannelSpec(*channel, radius, m, bc)
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    _assert_within_stop(d, e, dz.radial_eigenvalues(spec, count), 1 + skip)


@st.composite
def placed_tridiagonals(draw):
    """A tridiagonal with entries in [-1, 1] times a scale, moved so that
    its spectrum lies far above 0, all below 0, or around 0."""
    m = draw(st.integers(2, 40))
    unit = st.floats(-1.0, 1.0)
    d = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
    e = np.array(draw(st.lists(unit, min_size=m - 1, max_size=m - 1)))
    scale = 10.0 ** draw(st.integers(-3, 6))
    place = draw(st.sampled_from(["far", "negative", "around"]))
    if place == "far":
        shift = 10.0 ** draw(st.integers(2, 9))
    elif place == "negative":
        # before the shift every Gershgorin disc lies below 3
        shift = -3.0 - draw(st.floats(1e-3, 1e6))
    else:
        shift = -float(np.mean(d))
    return scale * (d + shift), scale * e


# The geometric first sweep starts at the point of [lo, hi] nearest 0, but
# the wanted values need not lie there: each one, low or high in a spectrum
# far from 0, all negative or around 0, still meets the stop contract.
@settings(max_examples=80, deadline=None)
@given(tri=placed_tridiagonals(), first=st.integers(1, 40), count=st.integers(1, 8))
def test_multisect_stop_contract_off_radial_pencils(tri, first, count):
    d, e = tri
    first = min(first, d.size)
    wanted = np.arange(first, min(first + count, d.size + 1))
    lo, hi = _gershgorin(d, e)
    a, b = dz._multisect(lambda shifts: sturm_count(d, e, shifts, last_pivot=True),
                         lo, hi, wanted, EPS * _norm(d, e))
    _assert_within_stop(d, e, 0.5 * (a + b), first)


# An off-diagonal cut to 1e-9 of its size near the far end nearly splits T.
# The low eigenvalues then belong to the long first block, and each sits
# within far less than the stop of a pole of the last pivot, an eigenvalue of
# T_{m-1}.  So no bracket around them is ever isolated, every sweep falls
# back to the even split, and the counts alone must still meet the stop.
def test_fit_defeated_by_near_split_falls_back_to_even_split(monkeypatch):
    spec = dz.RadialChannelSpec(3, 1, 1.0, 200, "dirichlet")
    good = dz.radial_pencil(spec)
    off = good.offdiagonal.copy()
    off[-10] *= 1e-9
    near_split = dataclasses.replace(good, offdiagonal=off)
    monkeypatch.setattr(dz, "radial_pencil", lambda s: near_split)
    shifts = []
    monkeypatch.setattr(dz, "sturm_count", lambda d, e, lam, **kwargs: (
        shifts.append(np.array(lam)) or sturm_count(d, e, lam, **kwargs)))
    d, e = near_split.reduced_tridiagonal()
    values = dz.radial_eigenvalues(spec, 3)
    _assert_within_stop(d, e, values, 1)
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    np.testing.assert_allclose(values, dense[:3], rtol=1e-11)
    # once the three indices have brackets of their own, each sweep is three
    # even splits of 170 cells: 169 shifts evenly spaced in each, up to the
    # rounding of the shifts themselves
    late = [s for s in shifts if s.size == 3 * 169]
    assert len(late) >= 4
    for s in late:
        split = s.reshape(3, 169)
        steps = np.diff(split, axis=1)
        even = (split[:, -1:] - split[:, :1]) / 168
        np.testing.assert_allclose(steps, even * np.ones_like(steps), rtol=0,
                                   atol=4 * np.spacing(np.max(s)))
