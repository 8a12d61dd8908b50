"""Radial multisection against LAPACK dense eigenvalues of the same
tridiagonal, its sweep budget, and the Sturm count on radial pencils."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from kreinspec import discretize as dz
from kreinspec.errors import ConstructionMismatch
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


# The same at any twist: the twisted count is a Sturm count of its own, and
# radial multisection sweeps at twist m // 2.
@settings(max_examples=60, deadline=None)
@given(
    channel=st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 2), (4, 4)]),
    bc=st.sampled_from(["dirichlet", "krein"]),
    m=st.integers(8, 300),
    index=st.integers(0, 7),
    where=st.floats(0.0, 1.0),
    steps=st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=40),
    spread=st.lists(st.floats(-1.0, 2.0), max_size=10),
)
def test_twisted_counts_never_decrease(channel, bc, m, index, where, steps, spread):
    d, e = dz.radial_pencil(dz.RadialChannelSpec(*channel, 1.0, m, bc)).reduced_tridiagonal()
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    lam = dense[min(index, m - 1)]
    shifts = np.sort(np.concatenate((
        lam + np.spacing(abs(lam)) * np.array(steps, dtype=float),
        dense[0] + (dense[-1] - dense[0]) * np.array(spread),
    )))
    for twist in (m // 2, min(int(where * m), m - 1)):
        counts = sturm_count(d, e, shifts, twist=twist)
        assert np.all(np.diff(counts) >= 0)
        assert 0 <= counts[0] and counts[-1] <= m


def _reduced(n, ell, radius, m, bc):
    return dz.radial_pencil(dz.RadialChannelSpec(n, ell, radius, m, bc)).reduced_tridiagonal()


# The two conditions of a channel share every entry but the last diagonal
# one, where the soft end weight -2l/(2m - l) <= 0 is below the hard 2, so
# T_K <= T_D and they differ by rank one: count_D <= count_K <= count_D + 1
# at every shift, the Krein count including its zero mode (the discrete
# j_{nu,k} < j_{nu+1,k} < j_{nu,k+1}).  On the hard condition the diagonal
# grows with l and nothing else changes, so count_{D,l+1} <= count_{D,l}.
# Proven bit for bit: the interlacing on the forward sweep (twist None, the
# last row).  Its pivots q_1 .. q_{m-1} are the same bits on both
# conditions, and the last, fl(fl(d_m - lam) - t) with the same t, is
# monotone in d_m, which rounding keeps at d_K <= d_D.  Measured only: the
# interlacing at the twist m // 2 and the order in l on either sweep.  With
# shifts at every eigenvalue of either matrix and its neighbouring doubles,
# n = 2-4 and m = 16, 101 and 800, the interlacing held at all 38,400
# shifts (l = 0-4) and the order in l at all 52,488 (l = 0-6).
@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 4),
    ell=st.integers(0, 6),
    radius=st.floats(0.25, 4.0),
    m=st.integers(8, 100),
    source=st.integers(0, 2),
    index=st.integers(0, 7),
    steps=st.lists(st.integers(-2**20, 2**20), max_size=20),
    spread=st.lists(st.floats(-0.1, 1.1), max_size=8),
)
def test_conditions_interlace_and_hard_counts_fall_with_l(n, ell, radius, m, source, index,
                                                          steps, spread):
    hard, soft, higher = (_reduced(n, ell + up, radius, m, bc)
                          for up, bc in ((0, "dirichlet"), (0, "krein"), (1, "dirichlet")))
    d, e = (hard, soft, higher)[source]
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    lam = dense[index]
    shifts = np.concatenate((
        dense, np.nextafter(dense, -np.inf), np.nextafter(dense, np.inf),
        lam + np.spacing(abs(lam)) * np.array(steps, dtype=float),
        dense[0] + (dense[-1] - dense[0]) * np.array(spread),
    ))
    for twist in (None, m // 2):
        count_d, count_k, count_higher = (sturm_count(*tri, shifts, twist=twist)
                                          for tri in (hard, soft, higher))
        assert np.all(count_d <= count_k) and np.all(count_k <= count_d + 1)
        assert np.all(count_higher <= count_d)


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


# The budgets were the largest counts measured over these channels at R = 1
# on the forward sweep; the sweep twisted at m // 2 stays within them.  Over
# all 15 channels at R = 0.8, 1 and 1.25 a count-1 call now takes 3 sweeps
# on both conditions: the geometric first sweep isolates the lowest value,
# and two rational sweeps of 40 shifts close it.  A count-20 call takes 4
# or 5.  Both calls stop at eps ||T||, so they agree to that.
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
# max(1e-13 relative, eps ||T||), with the sweep twisted at m // 2 and the
# rational finish.  The blocked sweep reproduces every count bit for bit and
# the shifts are a fixed function of them, so the values must not move by
# one bit.  Their accuracy
# rests on bounds independent of this record: the stop contract by the
# pure-Python count below, the eigvalsh comparison above and the Bessel-zero
# extrapolation in tests/test_cross_route.py.
RECORDED_DIRICHLET = {
    (2, 1, 100): ["0x1.d5cd41a5c6bd2p+3", "0x1.89a40c458eac0p+5", "0x1.9db94be4fa13bp+6",
                  "0x1.629c0e48d444ap+7", "0x1.0ec1b23d8245cp+8"],
    (2, 1, 800): ["0x1.d5d29e4e6f0b9p+3", "0x1.89bef89c93c4cp+5", "0x1.9dfe58307d956p+6",
                  "0x1.6308e76e20f23p+7", "0x1.0f4600767a7acp+8"],
    (3, 2, 100): ["0x1.09bb4ab7bb938p+5", "0x1.4ac8d0d25bfd4p+6", "0x1.2f7fb0bca093dp+7",
                  "0x1.e0cad2df84588p+7", "0x1.5c933391d401fp+8"],
    (3, 2, 800): ["0x1.09bd54649358ep+5", "0x1.4ae01f6b3a082p+6", "0x1.2fb4da0c98a9ep+7",
                  "0x1.e1656f0995716p+7", "0x1.5d44e115af4b6p+8"],
    (4, 4, 100): ["0x1.33bea8c925cbap+6", "0x1.306179bdbcb6ap+7", "0x1.ec98844c225f8p+7",
                  "0x1.67ba6503bf851p+8", "0x1.ec86defa7fef9p+8"],
    (4, 4, 800): ["0x1.33c16b37c5535p+6", "0x1.307b10844bc54p+7", "0x1.ecfc192921732p+7",
                  "0x1.683cc627e242ep+8", "0x1.ed9d06c2bccacp+8"],
}


@pytest.mark.parametrize("n, ell, m", list(RECORDED_DIRICHLET))
def test_dirichlet_values_bit_equal_to_recorded(n, ell, m):
    got = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, m, "dirichlet"), 5)
    assert [float(v).hex() for v in got] == RECORDED_DIRICHLET[n, ell, m]


# Soft-condition values recorded the same way.  These calls also bracket the
# zero mode, whose bracket closes by its own rule (the bound of
# _multisect), so they pin that path too.
RECORDED_KREIN = {
    (2, 1, 100): ["0x1.a5f22f672ead8p+4", "0x1.1b47d4c7ed98cp+6", "0x1.0dccced08b84cp+7",
                  "0x1.b52b9200370c8p+7", "0x1.41cd9a0cd8ce1p+8"],
    (2, 1, 800): ["0x1.a5fe3cd138553p+4", "0x1.1b65ebd3a98bcp+6", "0x1.0e09a317272d7p+7",
                  "0x1.b5d4745f85452p+7", "0x1.428b1964a581ep+8"],
    (3, 2, 100): ["0x1.869d6114f8507p+5", "0x1.b1e230efbf736p+6", "0x1.76ed95dbf4f4ap+7",
                  "0x1.1df50c3d94f5dp+8", "0x1.93e9fe52ad3eep+8"],
    (3, 2, 800): ["0x1.86a6253d7582cp+5", "0x1.b2100627e56dep+6", "0x1.77442cc15057fp+7",
                  "0x1.1e66e2c937ac0p+8", "0x1.94df3323f17bdp+8"],
    (4, 4, 100): ["0x1.8adfe271aab1ap+6", "0x1.712bbdaad4ceap+7", "0x1.20d751ed39492p+8",
                  "0x1.9c3a0ca058245p+8", "0x1.156e11ab70c08p+9"],
    (4, 4, 800): ["0x1.8ae794b5f87cap+6", "0x1.7155c33954b56p+7", "0x1.212018669482ap+8",
                  "0x1.9cec6520f614ep+8", "0x1.1623f20f01a52p+9"],
}


@pytest.mark.parametrize("n, ell, m", list(RECORDED_KREIN))
def test_krein_values_bit_equal_to_recorded(n, ell, m):
    got = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, m, "krein"), 5)
    assert [float(v).hex() for v in got] == RECORDED_KREIN[n, ell, m]


# One count-20 call per condition in channel (3, 2) at m = 800, recorded the
# same way: its later sweeps share their shifts among many open brackets.
RECORDED_TWENTY = {
    "dirichlet": [
        "0x1.09bd54648f5bap+5", "0x1.4ae01f6b3dbd4p+6", "0x1.2fb4da0c9b746p+7",
        "0x1.e1656f0995b40p+7", "0x1.5d44e115b3668p+8", "0x1.dd91e931404aap+8",
        "0x1.38ccf412a4060p+9", "0x1.8cae4ae5fd3ccp+9", "0x1.ea6cbacc21626p+9",
        "0x1.2903f9e7f8ddap+10", "0x1.61bfcc03269c6p+10", "0x1.9f699eab40e0ep+10",
        "0x1.e2013732d7504p+10", "0x1.14c32ac5ef385p+11", "0x1.3afc5a3669ccap+11",
        "0x1.63ac04b38f0dep+11", "0x1.8ed2027a87870p+11", "0x1.bc6e29417c6e4p+11",
        "0x1.ec804c3aa48cep+11", "0x1.0f841e0b31a6cp+12",
    ],
    "krein": [
        "0x1.86a6253d72efdp+5", "0x1.b2100627d5fbcp+6", "0x1.77442cc1512c9p+7",
        "0x1.1e66e2c937986p+8", "0x1.94df3323f191bp+8", "0x1.0f87910e9ae25p+9",
        "0x1.5e7c0d73a0f5cp+9", "0x1.b74d3bc567b54p+9", "0x1.0cfd83af399c2p+10",
        "0x1.43429b315a412p+10", "0x1.7e75bb461fa26p+10", "0x1.be96b1ba1c7b2p+10",
        "0x1.01d2a27870eaep+11", "0x1.26d09a686c2ddp+11", "0x1.4e451da6826c4p+11",
        "0x1.7830065c65882p+11", "0x1.a4912bfe57ceap+11", "0x1.d368635c4e9c4p+11",
        "0x1.025abf56b1daap+12", "0x1.1c3c26cbd767cp+12",
    ],
}


@pytest.mark.parametrize("bc", list(RECORDED_TWENTY))
def test_count_twenty_values_bit_equal_to_recorded(bc):
    got = dz.radial_eigenvalues(dz.RadialChannelSpec(3, 2, 1.0, 800, bc), COUNT)
    assert [float(v).hex() for v in got] == RECORDED_TWENTY[bc]


# Count-20 calls of three channels at m = 800, R = 1, both conditions: the
# number of shifts of each sweep and the values, recorded with the scalar
# rational finish and the step bookkeeping before it was vectorized.  The
# later sweeps share about 512 shifts among up to 20 open brackets, so these
# pin the many-bracket bookkeeping that the count-5 records do not reach.
RECORDED_TWENTY_SWEEPS = {
    (2, 1, "dirichlet"): [511, 480, 480, 512, 80],
    (3, 2, "dirichlet"): [511, 480, 480, 512],
    (4, 4, "dirichlet"): [511, 480, 480, 510, 80],
    (2, 1, "krein"): [511, 480, 480, 504, 80],
    (3, 2, "krein"): [511, 480, 480, 504],
    (4, 4, "krein"): [511, 479, 480, 510],
}
RECORDED_TWENTY_VALUES = {
    (2, 1, "dirichlet"): [
        "0x1.d5d29e4e6a480p+3", "0x1.89bef89c94186p+5", "0x1.9dfe58307e8a8p+6",
        "0x1.6308e76e21947p+7", "0x1.0f4600767a7eap+8", "0x1.80c3d36fdc03ep+8",
        "0x1.02febc45f9bf2p+9", "0x1.4f793551533cep+9", "0x1.a5d108df21f8dp+9",
        "0x1.0302f09eed978p+10", "0x1.380baf723f532p+10", "0x1.72028c31e95b0p+10",
        "0x1.b0e74d2fa5a31p+10", "0x1.f4b9b3c4c2e20p+10", "0x1.1ebcbe28a399ep+11",
        "0x1.45932f1dc6674p+11", "0x1.6ee005f81410bp+11", "0x1.9aa31970f9546p+11",
        "0x1.c8dc3dc51cb06p+11", "0x1.f98b44b47a0fcp+11",
    ],
    (3, 2, "dirichlet"): RECORDED_TWENTY["dirichlet"],
    (4, 4, "dirichlet"): [
        "0x1.33c16b37cd492p+6", "0x1.307b10844be0ep+7", "0x1.ecfc19291e9aap+7",
        "0x1.683cc627e706ep+8", "0x1.ed9d06c2bc2a4p+8", "0x1.4355bf56e5458p+9",
        "0x1.99b6c29a395fcp+9", "0x1.f9f2bbdb52ceep+9", "0x1.320512f2c30aap+10",
        "0x1.6bfe8dcb1986cp+10", "0x1.aae5bf77963aep+10", "0x1.eeba866aeb522p+10",
        "0x1.1bbe59eead882p+11", "0x1.4296076a7241cp+11", "0x1.6be42af9903bap+11",
        "0x1.97a8a04953ce0p+11", "0x1.c5e33fbea5704p+11", "0x1.f693deb1e15e4p+11",
        "0x1.14dd27cb93c3bp+12", "0x1.2fab310d1225ep+12",
    ],
    (2, 1, "krein"): [
        "0x1.a5fe3cd136d93p+4", "0x1.1b65ebd3aadb1p+6", "0x1.0e09a31726c06p+7",
        "0x1.b5d4745f88368p+7", "0x1.428b1964a57dap+8", "0x1.bde7921d4d657p+8",
        "0x1.267fb0820a0f0p+9", "0x1.77e908ee7fb80p+9", "0x1.d32f883bc3632p+9",
        "0x1.1c296bc5b71b1p+10", "0x1.53a94a4c70150p+10", "0x1.9017292fc528fp+10",
        "0x1.d172ccb7e349ap+10", "0x1.0bddfa074150ap+11", "0x1.31792ca613a30p+11",
        "0x1.598ad8c0114e4p+11", "0x1.8412d65ad19bcp+11", "0x1.b110fafb860f3p+11",
        "0x1.e08519a82410ep+11", "0x1.093781741db94p+12",
    ],
    (3, 2, "krein"): RECORDED_TWENTY["krein"],
    (4, 4, "krein"): [
        "0x1.8ae794b60a2b8p+6", "0x1.7155c33955008p+7", "0x1.21201866945b6p+8",
        "0x1.9cec6520f62bep+8", "0x1.1623f20f01b02p+9", "0x1.67a3cac2b9cd6p+9",
        "0x1.c2fa60d827bf8p+9", "0x1.1414f6c6562dep+10", "0x1.4b99c1ae9f4dcp+10",
        "0x1.880bcc163b0d6p+10", "0x1.c96b235757ffep+10", "0x1.07dbdbff30148p+11",
        "0x1.2d78b37c03a48p+11", "0x1.558bff6d65bcep+11", "0x1.8015a18a72eacp+11",
        "0x1.ad1576f404b82p+11", "0x1.dc8b58d822d15p+11", "0x1.073b8e6f15228p+12",
        "0x1.216c4ab8134e6p+12", "0x1.3cd7c8f6d0357p+12",
    ],
}


@pytest.mark.parametrize("n, ell, bc", list(RECORDED_TWENTY_SWEEPS))
def test_count_twenty_sweeps_and_values_bit_equal_to_recorded(sweeps, n, ell, bc):
    got = dz.radial_eigenvalues(dz.RadialChannelSpec(n, ell, 1.0, 800, bc), COUNT)
    assert sweeps == RECORDED_TWENTY_SWEEPS[n, ell, bc]
    assert [float(v).hex() for v in got] == RECORDED_TWENTY_VALUES[n, ell, bc]


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


# The zero mode is read only by |lambda_0| <= bound |lambda_1|, so its bracket
# closes once that check is settled, before index 1's.  While both are open
# they share one sweep's shifts, but the finish closes both brackets in no
# more sweeps than index 1 (index 2 of the pencil) takes alone on the same
# pencil, by _multisect with no bound: the same twisted sweep, interval and
# stop rule.
@pytest.mark.parametrize("n, ell", CHANNELS)
def test_zero_mode_closes_before_first_index(sweeps, n, ell):
    spec = dz.RadialChannelSpec(n, ell, 1.0, 800, "krein")
    d, e = dz.radial_pencil(spec).reduced_tridiagonal()
    dz._multisect(d, e, np.array([2]))
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
# T = 0 has every eigenvalue at the point nearest 0.  Where eps ||T||
# underflows to 0, as with the off-diagonal 2^-1023, the stop is the
# smallest normal double.
@settings(max_examples=80, deadline=None)
@given(tri=placed_tridiagonals(), first=st.integers(1, 40), count=st.integers(1, 8))
@example(tri=(np.zeros(2), np.zeros(1)), first=1, count=2)
@example(tri=(np.zeros(2), np.array([2.0 ** -1023])), first=1, count=2)
def test_multisect_stop_contract_off_radial_pencils(tri, first, count):
    d, e = tri
    first = min(first, d.size)
    wanted = np.arange(first, min(first + count, d.size + 1))
    a, b = dz._multisect(d, e, wanted)
    _assert_within_stop(d, e, 0.5 * (a + b), first)


def test_zero_tridiagonal_gives_zero_brackets():
    a, b = dz._multisect(np.zeros(2), np.zeros(1), np.array([1, 2]))
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
    a, b = dz._multisect(d, e, wanted)
    a2, b2 = dz._multisect(np.ldexp(d, k), np.ldexp(e, k), wanted)
    assert np.array_equal(a2, np.ldexp(a, k)) and np.array_equal(b2, np.ldexp(b, k))


# The kernel rule away from radial pencils: the Neumann path Laplacian
# (d = 1, 2, ..., 2, 1, e = -1) has the constant kernel exactly and the
# eigenvalues 4 sin^2(k pi / 2m), k = 0..m-1, so it passes bound 0.  With
# d_0 raised by 1e-3 its lowest eigenvalue is about 1e-3 / m, far past the
# stop, and the rule refuses it.
@pytest.mark.parametrize("m", [8, 101, 800])
def test_multisect_kernel_rule_on_the_neumann_path(m):
    d = np.full(m, 2.0)
    d[[0, -1]] = 1.0
    e = np.full(m - 1, -1.0)
    a, b = dz._multisect(d, e, np.arange(1, 6), 0.0)
    exact = 4.0 * np.sin(np.arange(5) * math.pi / (2 * m)) ** 2
    stop = np.maximum(1e-13 * exact, EPS * 4.0)
    assert np.all(np.abs(0.5 * (a + b) - exact) <= stop)
    d[0] += 1e-3
    with pytest.raises(ConstructionMismatch, match="ratio"):
        dz._multisect(d, e, np.arange(1, 6), 0.0)


# The two off-diagonals of the twist row k = m // 2, cut to 1e-9 of their
# size, nearly split T into the rows before k, row k and the rows after it.
# The low eigenvalues then belong to the two long blocks, and each sits
# within far less than the stop of a pole of the twist element, an
# eigenvalue of T without row k.  So no bracket around them is ever
# isolated, every sweep falls back to the even split, and the counts alone
# must still meet the stop.
def test_fit_defeated_by_near_split_falls_back_to_even_split(monkeypatch):
    spec = dz.RadialChannelSpec(3, 1, 1.0, 200, "dirichlet")
    good = dz.radial_pencil(spec)
    off = good.offdiagonal.copy()
    off[spec.m // 2 - 1:spec.m // 2 + 1] *= 1e-9
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


PIVOTS = st.one_of(st.floats(-1e3, 1e3),
                   st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e-300]))


@st.composite
def finish_rows(draw, exact=False):
    """One row (x, c, p, below) of the rational finish, and its pole: the
    left neighbour, the bracket ends a and b and the right neighbour, with
    counts and pivots.  The pivots follow 1 / (w / (lam - x) + alpha + beta x)
    with lam in [a, b], beta 0 or not, and then the pole is (lam, beta); or
    they are drawn freely, and the pole is None.  Then a neighbour may lose
    its pivot (a Gershgorin end is NaN) or get a zero one, the left column
    may wrap (below = 0, where it holds the row's right end), the right
    neighbour may repeat b, and points may coincide.  exact=True always
    takes the pole, with end counts 1 apart."""
    xa = draw(st.one_of(st.floats(-1e4, 1e4), st.floats(-1.0, 1.0)))
    gap = st.one_of(st.sampled_from([0.0, 1e-9, 1.0]), st.floats(0.0, 10.0))
    xl, xb = xa - draw(gap), xa + draw(gap)
    xr = xb + draw(gap)
    below = draw(st.integers(0, 3))
    if below == 0:
        xl = xr + draw(gap)
    x = [xl, xa, xb, xr]
    pole = None
    if exact or draw(st.booleans()):
        lam = xa + draw(st.floats(0.0, 1.0)) * (xb - xa)
        w, alpha = draw(st.floats(1e-3, 1e3)), draw(st.floats(-1.0, 1.0))
        beta = draw(st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)))
        with np.errstate(all="ignore"):
            p = [float(1.0 / (w / np.float64(lam - xi) + alpha + beta * xi)) for xi in x]
        pole = lam, beta
    else:
        p = [draw(PIVOTS) for _ in x]
    for side in (0, 3):
        p[side] = draw(st.sampled_from([p[side]] * 3 + [math.nan, 0.0]))
    ca = draw(st.integers(0, 5))
    cb = ca + (1 if exact else draw(st.sampled_from([1, 1, 1, 0, 2])))
    c = [ca - draw(st.integers(0, 1)), ca, cb, cb + draw(st.integers(0, 1))]
    return (x, c, p, below), pole


def _pole_row(x, c, below, beta=0.01):
    """A finish row whose pivots are 1 / (1 / (0.1 - x) + 0.1 + beta x), the
    reciprocal of one pole at 0.1 in (x[1], x[2]) plus a line."""
    return x, c, [1.0 / (1.0 / (0.1 - xi) + 0.1 + beta * xi) for xi in x], below


# Rows that hold a NaN (Gershgorin) neighbour, the wrapped left column, a
# zero neighbour pivot and coincident points.
FIT = _pole_row([-1.3, -0.35, 0.55, 1.7], [3, 4, 5, 6], 2)
NAN_LEFT = (FIT[0], FIT[1], [math.nan] + FIT[2][1:], 2)
WRAPPED = _pole_row([2.9, -0.35, 0.55, 1.7], [9, 0, 1, 2], 0)
ZERO_RIGHT = (FIT[0], FIT[1], FIT[2][:3] + [0.0], 2)
COINCIDENT = _pole_row([-0.35, -0.35, 0.55, 1.7], [4, 4, 5, 6], 2)


@settings(max_examples=100, deadline=None)
@given(drawn=finish_rows())
@example(drawn=(FIT, None))
@example(drawn=(WRAPPED, None))
@example(drawn=(COINCIDENT, None))
def test_finish_estimate_lies_inside_its_bracket(drawn):
    (x, c, p, below), _ = drawn
    root = dz._isolated_root(x, c, p, below)
    assert math.isnan(root) or x[1] < root < x[2]


def _points_fitted(x, p, below):
    """The points (x, p) the finish fits: both bracket ends, and each outside
    neighbour with a known, nonzero pivot that is not the wrapped left
    column or the repeated right end."""
    return [(x[1], p[1]), (x[2], p[2])] + [
        (xo, po) for xo, po, known in ((x[0], p[0], below), (x[3], p[3], x[3] != x[2]))
        if known and not math.isnan(po) and po]


# On rows whose pivots are the exact reciprocal of one pole plus a line, the
# fit through four distinct points (or three when the line is flat) is exact
# up to rounding, which the divided difference amplifies by spread / gap, the
# ratio of the fitted points' extent to their closest pair's distance.  Over
# 1.6 million random rows from finish_rows' ranges, the error read at most
# 0.77 of eps (max |x| + spread) spread / gap, and the fit never missed the
# bracket; the bound allows 4 of it, and held over 20,000 hypothesis
# examples.  Most drawn rows are not isolated brackets, or keep too few
# points, so the filter check is off.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(drawn=finish_rows(exact=True))
@example(drawn=(FIT, (0.1, 0.01)))
@example(drawn=(_pole_row(WRAPPED[0], WRAPPED[1], 0, beta=0.0), (0.1, 0.0)))
def test_finish_recovers_an_exact_pole(drawn):
    (x, c, p, below), (lam, beta) = drawn
    fitted = _points_fitted(x, p, below)
    enough = len(fitted) == 4 or len(fitted) == 3 and beta == 0.0
    assume(p[1] > 0.0 > p[2] and x[1] < lam < x[2] and enough)
    xs = [xi for xi, _ in fitted]
    spread = max(xs) - min(xs)
    gap = min(abs(u - v) for i, u in enumerate(xs) for v in xs[i + 1:])
    # the weights p_i prod (x_i - x_j) must stay normal doubles: below that
    # they lose digits, and at 0 they read as coincident points
    assume(min(abs(pi) for _, pi in fitted) * gap ** (len(fitted) - 1) > 1e-290)
    bound = 4.0 * EPS * (max(map(abs, xs)) + spread) * spread / gap
    root = dz._isolated_root(x, c, p, below)
    # where rounding may move the root by the bracket's width, it may miss it
    assert abs(root - lam) <= bound or math.isnan(root) and bound >= x[2] - x[1]


def test_finish_examples_reach_each_case():
    # the examples above reach what they are claimed to: each bracket but the
    # coincident one fits inside, through four points or through the three
    # it keeps; NAN_LEFT and WRAPPED both drop the left neighbour
    fit, nan_left, wrapped, zero_right = (dz._isolated_root(*row)
                                          for row in (FIT, NAN_LEFT, WRAPPED, ZERO_RIGHT))
    assert all(-0.35 < r < 0.55 for r in (fit, nan_left, zero_right))
    assert nan_left == wrapped and len({fit, nan_left, zero_right}) == 3
    assert math.isnan(dz._isolated_root(*COINCIDENT))
