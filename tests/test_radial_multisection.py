"""Radial multisection against LAPACK dense eigenvalues of the same
tridiagonal, its sweep budget, and the Sturm count on radial pencils."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kreinspec import discretize as dz
from kreinspec.linalg import sturm_count

from oracles import sturm_count_oracle

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
COUNT = 20


# Dense eigvalsh is normwise backward stable: it fixes each eigenvalue only to
# a few eps * ||T|| absolute, and at m = 4000 that reaches 4e-9 of the lowest
# eigenvalue.  So the comparison allows 8 eps * ||T|| (at most 1.2 eps * ||T||
# measured over R = 0.8, 1 and 1.25 and the channels (2, 0), (2, 1), (3, 0),
# (3, 2) and (4, 4)).  At R = 1 a relative 1e-11 alone no longer holds: for
# (2, 1) krein, lambda_1 reads 2.2e-11 apart, and a 50-digit bisection of the
# same tridiagonal puts the library value 1.3e-11 (0.28 of its stop) and
# eigvalsh 9.3e-12 from the exact eigenvalue.
@pytest.mark.parametrize("m, atol_eps, radius", [
    pytest.param(800, 8.0, 1.0, id="800-8.0-R1"),
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
    channel=st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 2), (4, 4)]),
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


# The budgets are the largest counts measured over these channels at R = 1.
# Over all 15 channels the count-1 budgets hold, and a Dirichlet count-20
# call takes 6 sweeps in (2, 0) and (3, 0), 5 elsewhere.  A Dirichlet
# count-1 call takes an even split and one rational sweep after the
# geometric first sweep; a krein one starts the rational finish at once and
# takes three narrow sweeps.  Both calls stop at eps ||T||, so they agree to
# that.
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


# Dirichlet values of the finite-volume scheme, recorded at the stop
# max(1e-13 relative, eps ||T||), with the rational finish.  The blocked
# sweep reproduces every count bit for bit and the shifts are a fixed
# function of them, so the values must not move by one bit.  Their accuracy
# rests on bounds independent of this record: the stop contract by the
# pure-Python count below, the eigvalsh comparison above and the Bessel-zero
# extrapolation in tests/test_cross_route.py.
RECORDED_DIRICHLET = {
    (2, 1, 100): ["0x1.d5cd41a5c6c38p+3", "0x1.89a40c458ea9dp+5", "0x1.9db94be4fa26dp+6",
                  "0x1.629c0e48d443ep+7", "0x1.0ec1b23d82461p+8"],
    (2, 1, 800): ["0x1.d5d29e4e5fac0p+3", "0x1.89bef89c93f06p+5", "0x1.9dfe58307eae0p+6",
                  "0x1.6308e76e210e0p+7", "0x1.0f4600767a7e0p+8"],
    (3, 2, 100): ["0x1.09bb4ab7bbe62p+5", "0x1.4ac8d0d25bf71p+6", "0x1.2f7fb0bca094ap+7",
                  "0x1.e0cad2df845e2p+7", "0x1.5c933391d4024p+8"],
    (3, 2, 800): ["0x1.09bd5464928e6p+5", "0x1.4ae01f6b3a88cp+6", "0x1.2fb4da0c9b35ep+7",
                  "0x1.e1656f0997108p+7", "0x1.5d44e115b3709p+8"],
    (4, 4, 100): ["0x1.33bea8c924cfcp+6", "0x1.306179bdbcb3cp+7", "0x1.ec98844c2185cp+7",
                  "0x1.67ba6503bf84ep+8", "0x1.ec86defa7fefdp+8"],
    (4, 4, 800): ["0x1.33c16b37d758cp+6", "0x1.307b10844b31cp+7", "0x1.ecfc192921846p+7",
                  "0x1.683cc627e2090p+8", "0x1.ed9d06c2bcc1ap+8"],
}


@pytest.mark.parametrize("n, ell, m", list(RECORDED_DIRICHLET))
def test_dirichlet_values_bit_equal_to_recorded(n, ell, m):
    got = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, m, "dirichlet"), 5)
    assert [float(v).hex() for v in got] == RECORDED_DIRICHLET[n, ell, m]


# Soft-condition values recorded the same way.  These calls also bracket the
# zero mode, whose bracket closes by its own rule (is_open in
# radial_eigenvalues), so they pin that path too.
RECORDED_KREIN = {
    (2, 1, 100): ["0x1.a5f22f672e8acp+4", "0x1.1b47d4c7ed974p+6", "0x1.0dccced08b81bp+7",
                  "0x1.b52b9200370d1p+7", "0x1.41cd9a0cd8d0ep+8"],
    (2, 1, 800): ["0x1.a5fe3cd137f88p+4", "0x1.1b65ebd3aa440p+6", "0x1.0e09a31726cadp+7",
                  "0x1.b5d4745f844eep+7", "0x1.428b1964a57d9p+8"],
    (3, 2, 100): ["0x1.869d6114f86cep+5", "0x1.b1e230efbf749p+6", "0x1.76ed95dbf4f69p+7",
                  "0x1.1df50c3d94f60p+8", "0x1.93e9fe52ad3dap+8"],
    (3, 2, 800): ["0x1.86a6253d74545p+5", "0x1.b2100627de544p+6", "0x1.77442cc151268p+7",
                  "0x1.1e66e2c937896p+8", "0x1.94df3323f14a8p+8"],
    (4, 4, 100): ["0x1.8adfe271aab7cp+6", "0x1.712bbdaad4cecp+7", "0x1.20d751ed394a7p+8",
                  "0x1.9c3a0ca058268p+8", "0x1.156e11ab70c14p+9"],
    (4, 4, 800): ["0x1.8ae794b5fa50fp+6", "0x1.7155c33955ddap+7", "0x1.2120186694950p+8",
                  "0x1.9cec6520f6226p+8", "0x1.1623f20f0188cp+9"],
}


@pytest.mark.parametrize("n, ell, m", list(RECORDED_KREIN))
def test_krein_values_bit_equal_to_recorded(n, ell, m):
    got = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, m, "krein"), 5)
    assert [float(v).hex() for v in got] == RECORDED_KREIN[n, ell, m]


# One count-20 call per condition in channel (3, 2) at m = 800, recorded the
# same way: its later sweeps share their shifts among many open brackets.
RECORDED_TWENTY = {
    "dirichlet": [
        "0x1.09bd546490192p+5", "0x1.4ae01f6b39d7dp+6", "0x1.2fb4da0c9aebcp+7",
        "0x1.e1656f0998244p+7", "0x1.5d44e115b39fap+8", "0x1.dd91e9313e9a8p+8",
        "0x1.38ccf412a44a0p+9", "0x1.8cae4ae5fd44ap+9", "0x1.ea6cbacc2148cp+9",
        "0x1.2903f9e7f8de3p+10", "0x1.61bfcc0325dffp+10", "0x1.9f699eab42323p+10",
        "0x1.e2013732d7636p+10", "0x1.14c32ac5ef4a8p+11", "0x1.3afc5a3669e20p+11",
        "0x1.63ac04b38f18cp+11", "0x1.8ed2027a878cap+11", "0x1.bc6e29417c6aep+11",
        "0x1.ec804c3aa48e0p+11", "0x1.0f841e0b31772p+12",
    ],
    "krein": [
        "0x1.86a6253d79992p+5", "0x1.b2100627ddf55p+6", "0x1.77442cc150bedp+7",
        "0x1.1e66e2c9370aep+8", "0x1.94df3323f18fcp+8", "0x1.0f87910e9ad6cp+9",
        "0x1.5e7c0d73a0c34p+9", "0x1.b74d3bc565236p+9", "0x1.0cfd83af3987ap+10",
        "0x1.43429b315ad8ep+10", "0x1.7e75bb461fcbcp+10", "0x1.be96b1ba1cc32p+10",
        "0x1.01d2a27870b7dp+11", "0x1.26d09a686c2fep+11", "0x1.4e451da68271ep+11",
        "0x1.7830065c658c6p+11", "0x1.a4912bfe57e99p+11", "0x1.d368635c4e909p+11",
        "0x1.025abf56b1f74p+12", "0x1.1c3c26cbd7679p+12",
    ],
}


@pytest.mark.parametrize("bc", list(RECORDED_TWENTY))
def test_count_twenty_values_bit_equal_to_recorded(bc):
    got = dz.radial_eigenvalues(dz.RadialChannelSpec(3, 2, 1.0, 800, bc), COUNT)
    assert [float(v).hex() for v in got] == RECORDED_TWENTY[bc]


CHANNELS = [(n, ell) for n in (2, 3, 4) for ell in range(5)]


# The stop's contract, checked by the pure-Python count: value k (counted with
# the zero mode on the krein condition) has its eigenvalue within the stop
# width of v (_assert_within_stop), however the brackets were shared.
@pytest.mark.parametrize("bc", ["dirichlet", "krein"])
@pytest.mark.parametrize("n, ell", CHANNELS)
def test_each_value_within_stop_by_independent_count(n, ell, bc):
    spec = dz.RadialChannelSpec(n, ell, 1.0, 800, bc)
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    _assert_within_stop(d, e, dz.radial_eigenvalues(spec, 3), 2 if bc == "krein" else 1)


def _gershgorin(d, e):
    """The Gershgorin interval [lo, hi] of the tridiagonal (d, e)."""
    abs_e = np.concatenate(([0.0], np.abs(e), [0.0]))
    radius = abs_e[:-1] + abs_e[1:]
    return float(np.min(d - radius)), float(np.max(d + radius))


# The zero mode is read only by |lambda_0| <= bound |lambda_1|, so its bracket
# closes once that check is settled, before index 1's.  While both are open
# they share one sweep's shifts, but the finish closes both brackets in no
# more sweeps than index 1 (index 2 of the pencil) takes alone on the same
# pencil, with the same interval and stop rule.
@pytest.mark.parametrize("n, ell", CHANNELS)
def test_zero_mode_closes_before_first_index(sweeps, n, ell):
    spec = dz.RadialChannelSpec(n, ell, 1.0, 800, "krein")
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    lo, hi = _gershgorin(d, e)
    dz._multisect(lambda shifts: dz.sturm_count(d, e, shifts, last_pivot=True),
                  lo, hi, np.array([2]))
    alone = len(sweeps)
    del sweeps[:]
    dz.radial_eigenvalues(spec, 1)
    assert len(sweeps) <= alone
    assert max(sweeps) <= 512


def _assert_within_stop(d, e, values, first):
    """Value k (1-based, counted with any zero mode) has its eigenvalue in
    [v - w, v + w), w = max(1e-13 |v|, eps ||T||), by the oracle count.  The
    rule has no absolute part; the smallest normal double keeps w positive
    for T = 0, whose eigenvalues are exactly 0."""
    floor = max(EPS * _norm(d, e), TINY)
    d, e = np.asarray(d).tolist(), np.asarray(e).tolist()
    for k, v in enumerate(np.asarray(values).tolist(), start=first):
        w = max(1e-13 * abs(v), floor)
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
# T = 0 has a stop of 0 and every eigenvalue at the point nearest 0.
@settings(max_examples=80, deadline=None)
@given(tri=placed_tridiagonals(), first=st.integers(1, 40), count=st.integers(1, 8))
@example(tri=(np.zeros(2), np.zeros(1)), first=1, count=2)
def test_multisect_stop_contract_off_radial_pencils(tri, first, count):
    d, e = tri
    first = min(first, d.size)
    wanted = np.arange(first, min(first + count, d.size + 1))
    a, b = _brackets(d, e, wanted)
    _assert_within_stop(d, e, 0.5 * (a + b), first)


def _brackets(d, e, wanted):
    """dz._multisect of the tridiagonal (d, e) over its Gershgorin interval."""
    return dz._multisect(lambda shifts: sturm_count(d, e, shifts, last_pivot=True),
                         *_gershgorin(d, e), wanted)


def test_zero_tridiagonal_gives_zero_brackets():
    a, b = _brackets(np.zeros(2), np.zeros(1), np.array([1, 2]))
    assert np.array_equal(a, [0.0, 0.0]) and np.array_equal(b, [0.0, 0.0])


# Scaling T by 2^k scales its Gershgorin interval, every Sturm pivot, every
# shift and every stop width by exactly 2^k, since the stop has no absolute
# part; so the brackets scale bit for bit.  Entries below 2^-100 are set to
# 0, so that no square or pivot leaves the normal range at any k here.
@settings(max_examples=60, deadline=None)
@given(tri=placed_tridiagonals(), first=st.integers(1, 40), count=st.integers(1, 8),
       k=st.integers(-40, 40))
def test_multisect_brackets_scale_by_powers_of_two(tri, first, count, k):
    d, e = (np.where(abs(x) < 2.0 ** -100, 0.0, x) for x in tri)
    first = min(first, d.size)
    wanted = np.arange(first, min(first + count, d.size + 1))
    a, b = _brackets(d, e, wanted)
    a2, b2 = _brackets(np.ldexp(d, k), np.ldexp(e, k), wanted)
    assert np.array_equal(a2, np.ldexp(a, k)) and np.array_equal(b2, np.ldexp(b, k))


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
