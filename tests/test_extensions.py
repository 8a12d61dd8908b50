import math

import numpy as np
import pytest

from kreinspec.errors import (
    ConstructionMismatch,
    NoDeficiency,
    NotOrthogonal,
    NotPositiveDefinite,
    NotPSD,
    RankDeficientBasis,
)
from kreinspec import discretize as dz
from kreinspec import extensions as ext
from kreinspec.linalg import SymMatrix, cholesky, max_norm, sym_eigen
from kreinspec.tolerances import ToleranceProfile

from oracles import exact_krein

A2 = [[2.0, 1.0], [1.0, 2.0]]
E1 = [[1.0], [0.0]]


def unit_staircase_gram(n):
    """L L^T for L unit lower triangular with -1 below the diagonal.

    Its entries are integers, so a Cholesky factorization recovers L exactly
    and every pivot is 1; its bottom eigenvalue is at most 4^-(n-2).
    """
    low = np.eye(n) - np.tril(np.ones((n, n)), -1)
    return low @ low.T


@pytest.fixture
def model2():
    return ext.new_model(A2, E1)


class TestNewModel:
    def test_two_by_two(self, model2):
        assert model2.domain_dim == 1 and model2.codimension == 1

    def test_identity_ambient(self):
        m = ext.new_model(np.eye(3), np.eye(3)[:, :2])
        assert m.A.array.tobytes() == np.eye(3).tobytes()
        assert m.domain_dim == 2 and m.codimension == 1

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            ext.new_model([[1.0, 2.0], [2.0, 1.0]], E1)

    def test_rank_deficient_basis(self):
        raw = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(RankDeficientBasis):
            ext.new_model(np.eye(3), raw)

    def test_rank_message_counts_independent_columns(self):
        raw = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(RankDeficientBasis, match="only 2 of 3 columns"):
            ext.new_model(np.eye(4), raw)

    def test_orthonormal_basis_kept_bitwise(self):
        raw = np.eye(6)[:, [4, 1, 2]]
        raw[:, 0] = -raw[:, 0]
        m = ext.new_model(np.eye(6), raw)
        assert m.domain_basis.tobytes() == raw.tobytes()

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_matrix_raises(self, bad):
        # linalg.cholesky checks the entries before LAPACK; eigvalsh read
        # the bottom of diag(NaN, 1) as 0
        with pytest.raises(NotPositiveDefinite, match="non-finite entries"):
            ext.new_model(np.diag([bad, 1.0]), E1)

    def test_one_positive_definiteness_rule(self):
        # new_model accepts A exactly when linalg.cholesky does; at N = 2 the
        # pivot floor is 2e-14.  A floor on the bottom eigenvalue rejected
        # [[1, 1], [1, 1 + 3e-14]], whose bottom eigenvalue is 1.5e-14 but
        # whose last pivot is 3e-14.
        def accepts(check, a):
            try:
                check(a)
            except NotPositiveDefinite:
                return False
            return True

        verdicts = set()
        for x in [*np.logspace(-16, -12, 33), 3e-14]:
            for a in (np.diag([1.0, x]), np.array([[1.0, 1.0], [1.0, 1.0 + x]])):
                verdict = accepts(cholesky, a)
                assert accepts(lambda a: ext.new_model(a, E1), a) == verdict, (x, a)
                verdicts.add(verdict)
        assert verdicts == {False, True}
        ext.new_model([[1.0, 1.0], [1.0, 1.0 + 3e-14]], E1)
        # the floor bounds pivots, not conditioning: every pivot of L L^T
        # below is 1, yet its bottom eigenvalue is at most 4^-28, below the
        # old eigenvalue floor 30 * 1e-14 * 30 = 9e-12
        a = unit_staircase_gram(30)
        np.testing.assert_array_equal(np.diagonal(cholesky(a)), np.ones(30))
        assert np.linalg.eigvalsh(a)[0] <= 9e-12
        ext.new_model(a, np.eye(30)[:, :15])

    def test_full_domain_rejected(self):
        with pytest.raises(NoDeficiency):
            ext.new_model(np.eye(2), np.eye(2))

    def test_reorthonormalization(self):
        raw = np.array([[3.0, 1.0], [0.0, 2.0], [0.0, 5.0]])
        m = ext.new_model(np.eye(3), raw)
        q = m.domain_basis
        assert max_norm(q.T @ q - np.eye(2)) <= 1e-14


class TestFriedrichs:
    def test_returns_ambient_matrix_bitwise(self, model2):
        fr = ext.friedrichs(model2)
        assert fr.matrix.array is model2.A.array
        assert fr.kernel_basis.shape == (2, 0)

    def test_identity(self):
        m = ext.new_model(np.eye(3), np.eye(3)[:, :1])
        np.testing.assert_array_equal(ext.friedrichs(m).matrix.array, np.eye(3))


class TestAdjointKernel:
    def test_hand_case(self, model2):
        # A e1 = (2, 1); the orthogonal complement is spanned by (1, -2)/sqrt 5
        ker = ext.adjoint_kernel(model2)
        direction = np.array([1.0, -2.0]) / math.sqrt(5.0)
        assert min(
            max_norm(ker[:, 0] - direction), max_norm(ker[:, 0] + direction)
        ) <= 1e-14

    def test_identity_ambient(self):
        m = ext.new_model(np.eye(5), np.eye(5)[:, :3])
        ker = ext.adjoint_kernel(m)
        assert max_norm(ker[:3, :]) == 0.0
        assert max_norm(ker[3:, :].T @ ker[3:, :] - np.eye(2)) <= 1e-14

    @pytest.mark.parametrize("seed,n,d", [(0, 6, 2), (1, 9, 5), (2, 12, 11)])
    def test_dimension_and_orthogonality(self, seed, n, d):
        m = ext.random_model(seed, n, d)
        ker = ext.adjoint_kernel(m)
        assert ker.shape == (n, n - d)
        aq = m.A.array @ m.domain_basis
        assert max_norm(aq.T @ ker) <= 1e-11 * m.A.norm_max


class TestKrein:
    def test_hand_case(self, model2):
        kr = ext.krein(model2)
        np.testing.assert_allclose(kr.matrix.array, [[2.0, 1.0], [1.0, 0.5]], atol=1e-13)
        np.testing.assert_allclose(sym_eigen(kr.matrix).values, [0.0, 2.5], atol=1e-13)
        assert kr.construction_gap <= 1e-10 * model2.A.norm_max

    def test_identity_gives_projector(self):
        raw = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        m = ext.new_model(np.eye(3), raw)
        q = m.domain_basis
        np.testing.assert_allclose(ext.krein(m).matrix.array, q @ q.T, atol=1e-12)

    def test_decoupled_diagonal(self):
        m = ext.new_model(np.diag([3.0, 7.0]), E1)
        np.testing.assert_allclose(ext.krein(m).matrix.array, np.diag([3.0, 0.0]), atol=1e-13)

    @pytest.mark.parametrize("seed,n,d", [(4, 8, 5), (5, 16, 12), (6, 20, 3)])
    def test_result_invariants(self, seed, n, d):
        m = ext.random_model(seed, n, d)
        kr = ext.krein(m)
        scale = m.A.norm_max
        assert kr.extends_residual(m) <= 1e-10 * scale
        assert kr.kernel_residual() <= 1e-10 * scale
        assert sym_eigen(kr.matrix).values[0] >= -1e-10 * scale
        assert kr.kernel_basis.shape[1] == n - d


class TestParametrized:
    def test_full_kernel_zero_parameter_is_krein(self, model2):
        ker = ext.adjoint_kernel(model2)
        pe = ext.parametrized_extension(model2, ker, [[0.0]])
        assert max_norm(pe.matrix.array - ext.krein(model2).matrix.array) <= 1e-10
        assert pe.kernel_basis.shape[1] == 1

    def test_empty_subspace_is_friedrichs(self, model2):
        pe = ext.parametrized_extension(model2, np.empty((2, 0)), None)
        assert max_norm(pe.matrix.array - model2.A.array) <= 1e-12
        assert pe.kernel_basis.shape[1] == 0

    def test_positive_parameter_kills_kernel(self, model2):
        ker = ext.adjoint_kernel(model2)
        pe = ext.parametrized_extension(model2, ker, [[1.0]])
        assert pe.matrix.array[1, 1] == pytest.approx(13.0 / 11.0, abs=1e-12)
        assert sym_eigen(pe.matrix).values[0] > 0.0
        assert pe.kernel_basis.shape[1] == 0

    def test_kernel_equals_parameter_kernel(self):
        m = ext.random_model(21, 9, 5)
        ker = ext.adjoint_kernel(m)  # 4 columns
        b = np.diag([0.0, 1.0, 0.0, 2.0])
        pe = ext.parametrized_extension(m, ker, b)
        assert pe.kernel_basis.shape[1] == 2
        assert max_norm(pe.matrix.array @ pe.kernel_basis) <= 1e-10 * m.A.norm_max

    # E W e_0 = b_0 A W (W^T A W + B)^{-1} e_0 is 1.6e-7 max|A| at b_0 = 1e-6:
    # not kernel by the definition check's bound, 1e-9 max|A|, though a floor
    # relative to max|B| = 1e6 took it for kernel and then failed that check
    # (5.7e-7 against 3.5e-9).  An exact zero of B, on its axis or rotated
    # off it, is kernel at every scale of the rest of B.
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("b_0, rotated, kernel_dim", [
        (1e-6, False, 0), (0.0, False, 1), (0.0, True, 1),
    ])
    def test_kernel_chosen_by_the_check_bound(self, scale, b_0, rotated, kernel_dim):
        m = ext.random_model(31, 8, 4)
        w = ext.adjoint_kernel(m)
        turn = (np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
                if rotated else np.eye(4))
        b = turn @ np.diag([b_0, scale, scale, scale]) @ turn.T
        pe = ext.parametrized_extension(m, w, b)
        assert pe.kernel_basis.shape[1] == kernel_dim
        assert pe.construction_gap <= 1e-9 * m.A.norm_max
        if kernel_dim:
            assert abs(pe.kernel_basis[:, 0] @ (w @ turn[:, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_indefinite_parameter(self, model2):
        ker = ext.adjoint_kernel(model2)
        with pytest.raises(NotPSD):
            ext.parametrized_extension(model2, ker, [[-1.0]])

    def test_rejects_subspace_outside_kernel(self, model2):
        w = np.array([[1.0], [0.0]])  # inside D, not inside ker(S*)
        with pytest.raises(NotOrthogonal):
            ext.parametrized_extension(model2, w, [[1.0]])

    def test_rejects_basis_off_orthonormal(self):
        m = ext.random_model(31, 8, 4)
        w = ext.adjoint_kernel(m).copy()
        ext.parametrized_extension(m, w, np.eye(4))
        # one column 1e-11 too long puts W^T W about 2e-11 off the identity
        w[:, 1] *= 1.0 + 1e-11
        with pytest.raises(NotOrthogonal, match="not orthonormal within 1e-12"):
            ext.parametrized_extension(m, w, np.eye(4))

    def test_partial_subspace(self):
        m = ext.random_model(31, 8, 4)
        ker = ext.adjoint_kernel(m)
        w = ker[:, :2]
        pe = ext.parametrized_extension(m, w, np.diag([0.5, 3.0]))
        assert pe.extends_residual(m) <= 1e-10 * m.A.norm_max
        assert sym_eigen(pe.matrix).values[0] >= -1e-10 * m.A.norm_max


class TestParametrizedAssemblyChecks:
    # each corruption of the Cholesky factor of W^T A W + B trips one of the
    # checks: a factor 10 too small subtracts 100 times the shorted term, and
    # one 1e-6 too large leaves E off zero on ker(B) = span(W e_0)
    @pytest.mark.parametrize("corrupt, message", [
        (lambda low: low / 10.0, "has eigenvalue"),
        (lambda low: low * (1.0 + 1e-6), "extension residual"),
    ])
    def test_corrupted_assembly_raises(self, monkeypatch, corrupt, message):
        m = ext.random_model(3, 12, 8)
        w = ext.adjoint_kernel(m)[:, :2]
        b = np.diag([0.0, 1.0])
        ext.parametrized_extension(m, w, b)
        factor = ext.cholesky
        monkeypatch.setattr(ext, "cholesky", lambda s: corrupt(factor(s)))
        with pytest.raises(ConstructionMismatch, match=message):
            ext.parametrized_extension(m, w, b)


class TestParametrizedDefinition:
    # the defining action, built with plain numpy and without the closed
    # form: f + A^{-1}(W B beta + eta) + W beta goes to A f + W B beta + eta
    # for f in D and eta in ker(S*) orthogonal to W, with W a random
    # p-dimensional subspace of ker(S*) and B of rank r
    @pytest.mark.parametrize("seed,n,d,p,r", [
        (1, 8, 4, 2, 2), (2, 12, 8, 4, 2), (3, 30, 20, 10, 10), (4, 30, 20, 5, 0),
        (5, 60, 40, 7, 3), (6, 200, 150, 20, 10), (7, 200, 150, 50, 50),
    ])
    def test_action_on_the_domain_decomposition(self, seed, n, d, p, r):
        m = ext.random_model(seed, n, d)
        rng = np.random.default_rng(seed)
        a, q = m.A.array, m.domain_basis
        ker = np.linalg.qr(a @ q, mode="complete")[0][:, d:]
        turn = np.linalg.qr(rng.standard_normal((n - d, n - d)))[0]
        w, rest = ker @ turn[:, :p], ker @ turn[:, p:]
        root = rng.standard_normal((p, r))
        b = root @ root.T
        f = q @ rng.standard_normal((d, 5))
        beta = rng.standard_normal((p, 5))
        eta = rest @ rng.standard_normal((n - d - p, 5))
        wb = w @ b @ beta
        x = f + np.linalg.solve(a, wb + eta) + w @ beta
        e = ext.parametrized_extension(m, w, b).matrix.array
        # measured at most 6.0e-15 over these cases
        assert max_norm(e @ x - (a @ f + wb + eta)) <= 1e-13 * m.A.norm_max * max_norm(x)

    @pytest.mark.parametrize("model", [
        *(lambda s=s: ext.random_model(s, 200, 150) for s in range(1, 9)),
        *(lambda length=length: dz.interval_model(dz.Grid1D(0.0, length, 200),
                                                  dz.PotentialSpec.zero())
          for length in (0.5, 1.0, 2.0)),
    ], ids=[f"random-{s}" for s in range(1, 9)] + [f"interval-{x}" for x in (0.5, 1.0, 2.0)])
    def test_krein_endpoint_agrees_with_krein(self, model):
        # the shorted operator in the adjoint_kernel basis against krein's
        # A^(1/2) P A^(1/2) on the random models, measured at most 4.9e-14
        # max|A|, and against its coordinate block on the intervals, 1.6e-14
        m = model()
        ker = ext.adjoint_kernel(m)
        pe = ext.parametrized_extension(m, ker, np.zeros((ker.shape[1],) * 2))
        kr = ext.krein(m)
        assert max_norm(pe.matrix.array - kr.matrix.array) <= 5e-13 * m.A.norm_max
        assert pe.kernel_basis.shape[1] == kr.kernel_basis.shape[1] == m.codimension


class TestKreinConstructionCheck:
    def test_perturbed_root_raises(self, monkeypatch):
        # a square root off by 1e-6 max|root| in one entry moves the closed
        # form off A on D far beyond construction_rel * max|A|
        m = ext.random_model(3, 12, 8)
        ext.krein(m)
        sqrt = ext.spd_sqrt

        def shifted(s):
            root = sqrt(s).array.copy()
            root[0, 0] += 1e-6 * max_norm(root)
            return SymMatrix(root)

        monkeypatch.setattr(ext, "spd_sqrt", shifted)
        with pytest.raises(ConstructionMismatch, match="defining action"):
            ext.krein(m)

    def test_profile_sets_the_construction_threshold(self):
        # the gap of a correct construction is about 1e-16 max|A|, far
        # below the default 1e-9 and far above 1e-30
        m = ext.random_model(3, 12, 8)
        assert ext.krein(m, ToleranceProfile(construction_rel=1e-9)).construction_gap > 0.0
        with pytest.raises(ConstructionMismatch, match="defining action"):
            ext.krein(m, ToleranceProfile(construction_rel=1e-30))


def reduced_krein(model):
    """The Krein matrix compressed to ran(A D), its orthonormal basis, and
    the inverse-formula defect: the compression inverted against the
    compression of A^{-1}, both formed here with plain numpy."""
    basis = np.linalg.qr(model.A.array @ model.domain_basis)[0]
    compressed = basis.T @ ext.krein(model).matrix.array @ basis
    a_inv = basis.T @ np.linalg.solve(model.A.array, basis)
    return basis, compressed, max_norm(np.linalg.inv(compressed) - a_inv)


class TestReducedKrein:
    def test_hand_case(self, model2):
        basis, compressed, defect = reduced_krein(model2)
        np.testing.assert_allclose(compressed, [[2.5]], atol=1e-13)
        direction = np.array([2.0, 1.0]) / math.sqrt(5.0)
        assert min(
            max_norm(basis[:, 0] - direction), max_norm(basis[:, 0] + direction)
        ) <= 1e-14
        # compression of A^{-1}: (2,1) A^{-1} (2,1)^T / 5 = 2/5 = 1/2.5
        assert defect <= 1e-12

    def test_identity(self):
        _, compressed, defect = reduced_krein(ext.new_model(np.eye(2), E1))
        np.testing.assert_allclose(compressed, [[1.0]], atol=1e-15)
        assert defect <= 1e-15

    def test_random_inverse_formula(self):
        assert reduced_krein(ext.random_model(7, 16, 12))[2] <= 1e-9


class TestBuckling:
    def test_hand_case(self, model2):
        rep = ext.buckling_analysis(model2)
        np.testing.assert_allclose(rep.pencil_values, [2.5], atol=1e-13)
        np.testing.assert_allclose(rep.polar_modulus.array, [[math.sqrt(5.0)]], atol=1e-13)
        np.testing.assert_allclose(rep.t_matrix.array, [[0.4]], atol=1e-13)
        assert all(r <= 1e-12 for r in rep.residuals.values())

    def test_decoupled_diagonal(self):
        m = ext.new_model(np.diag([3.0, 7.0]), E1)
        rep = ext.buckling_analysis(m)
        np.testing.assert_allclose(rep.pencil_values, [3.0], atol=1e-13)

    def test_random_residuals(self):
        rep = ext.buckling_analysis(ext.random_model(3, 24, 20))
        assert all(r <= 1e-9 for r in rep.residuals.values())

    @pytest.mark.parametrize("seed", [1, 7])
    def test_full_size_random_residuals(self, seed):
        # seeds whose pencils once defeated a 50-sweep QL eigensolver
        rep = ext.buckling_analysis(ext.random_model(seed, 200, 150))
        assert all(r < 1e-7 for r in rep.residuals.values())

    def test_report_invariants(self):
        m = ext.random_model(13, 12, 7)
        rep = ext.buckling_analysis(m)
        assert np.all(rep.pencil_values > 0.0)
        t_norm = max(abs(v) for v in sym_eigen(rep.t_matrix).values)
        assert t_norm <= 1.0 / np.linalg.eigvalsh(m.A.array)[0] + 1e-10
        gram = rep.isometry.T @ rep.isometry
        assert max_norm(gram - np.eye(m.domain_dim)) <= 1e-10

    def test_eigenvector_correspondence(self):
        # each pencil pair (lambda, u) gives the Krein eigenvector A Q u / lambda
        m = ext.random_model(17, 10, 6)
        rep = ext.buckling_analysis(m)
        kr = ext.krein(m).matrix.array
        aq = m.A.array @ m.domain_basis
        scale = m.A.norm_max
        for lam, u in zip(rep.pencil_values, rep.pencil_vectors.T):
            v = aq @ u / lam
            assert max_norm(kr @ v - lam * v) <= 1e-9 * scale * max_norm(v)

    @pytest.mark.parametrize("seed, n, d", [(5, 15, 10), (11, 40, 25), (1, 200, 150)])
    def test_pencil_vectors_solve_the_pencil(self, seed, n, d):
        # U^T G_b U = I and G_a U = G_b U diag(lambda), G_a = Q^T A^2 Q and
        # G_b = Q^T A Q formed here with plain numpy at the model's own scale;
        # measured at most 6.6e-14 and 3e-16
        m = ext.random_model(seed, n, d)
        rep = ext.buckling_analysis(m)
        aq = m.A.array @ m.domain_basis
        g_a, g_b = aq.T @ aq, m.domain_basis.T @ aq
        u = rep.pencil_vectors
        assert max_norm(u.T @ g_b @ u - np.eye(d)) <= 1e-12
        resid = max_norm(g_a @ u - g_b @ u * rep.pencil_values)
        assert resid <= 1e-12 * max_norm(g_a) * max_norm(u)

    @pytest.mark.parametrize("seed", [3, 19])
    def test_pencil_values_are_orthogonally_invariant(self, seed):
        # a new orthonormal basis R of D and a rotation P of the space,
        # (A, Q) -> (P^T A P, P^T Q R), leave the pencil values unchanged;
        # measured at most 8.4e-15
        m = ext.random_model(seed, 16, 9)
        stream = ext.SplitMix64(seed + 1000)
        p = np.linalg.qr(stream.uniform_matrix(16, 16) - 0.5)[0]
        r = np.linalg.qr(stream.uniform_matrix(9, 9) - 0.5)[0]
        moved = ext.new_model(p.T @ m.A.array @ p, p.T @ m.domain_basis @ r)
        base = ext.pencil_values(m)
        assert np.max(np.abs(ext.pencil_values(moved) - base) / base) <= 1e-12

    def test_domination_of_reduced_by_ambient(self):
        # ascending eigenvalues: mu_j(A) <= mu_j(reduced Krein), the
        # pencil values
        for seed in range(5):
            m = ext.random_model(seed + 100, 10, 7)
            mu_f = sym_eigen(m.A).values[: m.domain_dim]
            mu_k = ext.pencil_values(m)
            assert np.all(mu_f <= mu_k + 1e-10 * m.A.norm_max)


def zero_interval(length, m):
    return dz.interval_model(dz.Grid1D(0.0, length, m), dz.PotentialSpec.zero())


def pencil_reference(model, dps=40):
    """Ascending pencil values of Q^T A^2 Q u = l Q^T A Q u for the model's
    own double entries, reduced by a Cholesky factor and solved by
    mpmath.eigsy at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        q = mpmath.matrix(model.domain_basis.tolist())
        aq = mpmath.matrix(model.A.array.tolist()) * q
        low_inv = mpmath.inverse(mpmath.cholesky(q.T * aq))
        reduced = low_inv * (aq.T * aq) * low_inv.T
        return np.array(sorted(float(v) for v in mpmath.eigsy(reduced, eigvals_only=True)))


class TestBucklingAccuracy:
    """The pencil from SVDs of A Q, never from Q^T A^2 Q, against references
    that share none of its code."""

    @pytest.mark.parametrize("m", [32, pytest.param(60, marks=pytest.mark.slow)])
    def test_pencil_values_against_mpmath(self, m):
        # the coordinate route's [L; Z^T] measured 2.0e-15 at m = 32 and
        # 2.8e-15 at m = 60; A Q L^-T with the explicit L^-1 read 4.6e-15
        # and 1.1e-14, and squaring A lost about half the digits: 1.6e-12
        # at m = 32
        model = zero_interval(1.0, m)
        want = pencil_reference(model)
        got = ext.pencil_values(model)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_interval_residuals_at_m_400(self):
        # measured 4.0e-12, 4.6e-12 and 3.0e-12; squaring A gave 1.0e-11,
        # 5.5e-8 and 3.3e-8
        rep = ext.buckling_analysis(zero_interval(1.0, 400))
        assert all(r <= 2e-11 for r in rep.residuals.values()), rep.residuals

    def test_model_near_singular_beyond_its_pivots(self):
        # A = L L^T of condition 7e17 passes new_model, since its pivots are
        # all 1; Q^T A Q, its leading block, has condition 9e9.  krein
        # passes its definition check (gap 0.6% of its bound), and the
        # pencil keeps bounded errors and residuals: measured 5.2e-9
        # against the reference and at most 5.5e-9 in the residuals
        model = ext.new_model(unit_staircase_gram(30), np.eye(30)[:, :15])
        assert ext.krein(model).construction_gap <= 1e-9 * model.A.norm_max
        got = ext.pencil_values(model)
        want = pencil_reference(model)
        assert np.max(np.abs(got - want) / want) <= 1e-7
        rep = ext.buckling_analysis(model)
        assert np.max(np.abs(rep.pencil_values - want) / want) <= 1e-7
        assert all(r <= 1e-7 for r in rep.residuals.values()), rep.residuals

    def test_power_of_two_rescaling_is_exact(self):
        # doubling the interval divides A by exactly 4: the pencil values
        # follow bit for bit, and the unit-scale data do not move at all
        short, long = zero_interval(1.0, 200), zero_interval(2.0, 200)
        np.testing.assert_array_equal(ext.pencil_values(long) * 4.0, ext.pencil_values(short))
        rep_short, rep_long = ext.buckling_analysis(short), ext.buckling_analysis(long)
        np.testing.assert_array_equal(rep_long.isometry, rep_short.isometry)
        assert rep_long.residuals == rep_short.residuals


def direct_sum(m1, m2):
    """Block model: extensions of a direct sum are direct sums of extensions."""
    n1, n2 = m1.ambient_dim, m2.ambient_dim
    a = np.zeros((n1 + n2, n1 + n2))
    a[:n1, :n1] = m1.A.array
    a[n1:, n1:] = m2.A.array
    basis = np.zeros((n1 + n2, m1.domain_dim + m2.domain_dim))
    basis[:n1, :m1.domain_dim] = m1.domain_basis
    basis[n1:, m1.domain_dim:] = m2.domain_basis
    return ext.new_model(SymMatrix(a), basis)


def conjugate_by_unitary(model, u):
    """Model with A replaced by U A U^T and the domain carried along."""
    return ext.new_model(SymMatrix(u @ model.A.array @ u.T), u @ model.domain_basis)


class TestStructure:
    def test_direct_sum_krein_blockdiag(self):
        m = ext.random_model(41, 5, 3)
        ds = direct_sum(m, m)
        k = ext.krein(m).matrix.array
        blk = np.zeros((10, 10))
        blk[:5, :5] = k
        blk[5:, 5:] = k
        assert max_norm(ext.krein(ds).matrix.array - blk) <= 1e-10

    def test_direct_sum_friedrichs_blockdiag(self):
        m1, m2 = ext.random_model(42, 4, 2), ext.random_model(43, 3, 1)
        ds = direct_sum(m1, m2)
        fr = ext.friedrichs(ds).matrix.array
        assert max_norm(fr[:4, :4] - m1.A.array) == 0.0
        assert max_norm(fr[4:, 4:] - m2.A.array) == 0.0

    def test_direct_sum_random_sizes(self):
        m1, m2 = ext.random_model(44, 8, 5), ext.random_model(45, 6, 4)
        ds = direct_sum(m1, m2)
        blk = np.zeros((14, 14))
        blk[:8, :8] = ext.krein(m1).matrix.array
        blk[8:, 8:] = ext.krein(m2).matrix.array
        assert max_norm(ext.krein(ds).matrix.array - blk) <= 1e-10

    def test_conjugate_identity(self):
        m = ext.random_model(46, 6, 3)
        mc = conjugate_by_unitary(m, np.eye(6))
        assert max_norm(mc.A.array - m.A.array) == 0.0

    def test_conjugate_permutation(self):
        m = ext.random_model(47, 6, 3)
        perm = np.eye(6)[:, [1, 0, 2, 3, 4, 5]]
        mc = conjugate_by_unitary(m, perm)
        expected = perm @ ext.krein(m).matrix.array @ perm.T
        assert max_norm(ext.krein(mc).matrix.array - expected) <= 1e-10

    def test_conjugate_householder(self):
        rng = np.random.default_rng(5)
        m = ext.random_model(48, 7, 4)
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        u = np.eye(7) - 2.0 * np.outer(v, v)
        mc = conjugate_by_unitary(m, u)
        expected = u @ ext.krein(m).matrix.array @ u.T
        assert max_norm(ext.krein(mc).matrix.array - expected) <= 1e-10

    def test_symmetry_commutes_with_krein(self):
        # block swap leaves A fixed and maps D onto D, so it fixes the
        # Krein extension as well
        rng = np.random.default_rng(8)
        b = rng.standard_normal((4, 4))
        b = b @ b.T + 4 * np.eye(4)
        a = np.zeros((8, 8))
        a[:4, :4] = b
        a[4:, 4:] = b
        swap = np.zeros((8, 8))
        swap[:4, 4:] = np.eye(4)
        swap[4:, :4] = np.eye(4)
        sym_part = rng.standard_normal((4, 2))
        anti_part = rng.standard_normal((4, 1))
        raw = np.concatenate(
            (
                np.concatenate((sym_part, sym_part), axis=0),
                np.concatenate((anti_part, -anti_part), axis=0),
            ),
            axis=1,
        )
        m = ext.new_model(SymMatrix(a), raw)
        assert max_norm(swap @ a @ swap.T - a) <= 1e-12
        k = ext.krein(m).matrix.array
        assert max_norm(swap @ k @ swap.T - k) <= 1e-10


class TestOrderCompare:
    def test_krein_below_friedrichs(self, model2):
        val = ext.order_compare(ext.krein(model2), ext.friedrichs(model2), 1.0)
        assert val >= -1e-10
        # the difference of shifted inverses is singular PSD: {0, 15/28}
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_reflexive_zero(self, model2):
        kr = ext.krein(model2)
        assert ext.order_compare(kr, kr, 0.7) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sandwich_for_parametrized(self, seed):
        m = ext.random_model(seed + 200, 8, 5)
        kr, fr = ext.krein(m), ext.friedrichs(m)
        ker = ext.adjoint_kernel(m)
        stream = ext.SplitMix64(seed + 900)
        for _ in range(4):
            raw = stream.uniform_matrix(3, 3)
            b = raw.T @ raw
            pe = ext.parametrized_extension(m, ker, b)
            for shift in (0.5, 2.0):
                assert ext.order_compare(kr, pe, shift) >= -1e-10
                assert ext.order_compare(pe, fr, shift) >= -1e-10

    def test_monotone_in_parameter(self):
        m = ext.random_model(301, 7, 4)
        ker = ext.adjoint_kernel(m)
        stream = ext.SplitMix64(77)
        raw = stream.uniform_matrix(3, 3)
        b_small = raw.T @ raw
        bump = stream.uniform_matrix(3, 3)
        b_large = b_small + bump.T @ bump
        p_small = ext.parametrized_extension(m, ker, b_small)
        p_large = ext.parametrized_extension(m, ker, b_large)
        for shift in (0.5, 2.0):
            assert ext.order_compare(p_small, p_large, shift) >= -1e-10


class TestOrderCompareShift:
    @pytest.mark.parametrize("shift", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_shift_not_positive_and_finite(self, model2, shift):
        kr, fr = ext.krein(model2), ext.friedrichs(model2)
        with pytest.raises(ValueError, match="positive and finite"):
            ext.order_compare(kr, fr, shift)


class TestSymmetrizeOnce:
    def test_no_symmatrix_is_built_from_a_symmatrix_array(self, monkeypatch):
        # SymMatrix arrays are read-only, so a read-only input is a re-wrap
        init = SymMatrix.__init__
        writeable = []

        def spy(self, entries):
            writeable.append(not (isinstance(entries, np.ndarray)
                                  and not entries.flags.writeable))
            init(self, entries)

        monkeypatch.setattr(SymMatrix, "__init__", spy)
        m = ext.random_model(3, 30, 20)
        kr = ext.krein(m)
        ext.buckling_analysis(m)
        pe = ext.parametrized_extension(m, ext.adjoint_kernel(m)[:, :2], np.eye(2))
        ext.pencil_values(m)
        ext.order_compare(kr, pe, 1.0)
        assert writeable and all(writeable)


def _count_lapack_calls(monkeypatch, names):
    """A dict of call counts, one per numpy.linalg routine in names."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def call(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)
    return counts


class TestFactorizationCounts:
    def test_new_model_checks_a_by_one_cholesky(self, monkeypatch):
        # no eigensolve; a basis that is not orthonormal costs one QR
        m = ext.random_model(3, 30, 20)
        counts = _count_lapack_calls(monkeypatch, ("cholesky", "eigh", "eigvalsh", "qr"))
        ext.new_model(m.A, m.domain_basis)
        assert counts == dict(cholesky=1, eigh=0, eigvalsh=0, qr=0)
        counts.update(cholesky=0)
        ext.new_model(m.A, 2.0 * m.domain_basis)
        assert counts == dict(cholesky=1, eigh=0, eigvalsh=0, qr=1)

    def test_buckling_pencil_and_order_compare(self, monkeypatch):
        # no factor is solved with twice, and value-only spectra skip the
        # eigenvectors
        m = ext.random_model(3, 30, 20)
        interval = dz.interval_model(dz.Grid1D(0.0, 1.0, 20), dz.PotentialSpec.zero())
        kr, fr = ext.krein(m), ext.friedrichs(m)
        counts = _count_lapack_calls(monkeypatch, ("eigh", "eigvalsh", "solve", "svd"))

        def lapack_calls(run):
            counts.update(eigh=0, eigvalsh=0, solve=0, svd=0)
            run()
            return counts

        # the pencil and the polar data are one SVD each; the one eigh is
        # krein's square root on the random model's general domain
        assert lapack_calls(lambda: ext.buckling_analysis(m)) == dict(
            eigh=1, eigvalsh=2, solve=2, svd=2)
        # the interval's coordinate domain: one solve for Z = L^-1 A_DP and
        # one SVD of [L; Z^T], the same two calls as the general route's
        # solve for L^-1 and SVD of A Q L^-T
        assert lapack_calls(lambda: ext.pencil_values(interval)) == dict(
            eigh=0, eigvalsh=0, solve=1, svd=1)
        assert lapack_calls(lambda: ext.order_compare(kr, fr, 1.0)) == dict(
            eigh=0, eigvalsh=1, solve=2, svd=0)

    def test_parametrized_extension(self, monkeypatch):
        # one factor of W^T A W + B and one solve with it; no QR or SVD
        m = ext.random_model(3, 30, 20)
        w = ext.adjoint_kernel(m)[:, :4]
        counts = _count_lapack_calls(
            monkeypatch, ("eigh", "eigvalsh", "solve", "cholesky", "qr", "svd"))
        ext.parametrized_extension(m, w, np.diag([0.0, 1.0, 2.0, 3.0]))
        assert counts == dict(eigh=1, eigvalsh=1, solve=1, cholesky=1, qr=0, svd=0)


    def test_krein_on_a_coordinate_domain_takes_no_square_root(self, monkeypatch):
        # one Cholesky factor of A_DD; the only QR is the n x codim one of
        # the kernel basis.  The general domain keeps spd_sqrt's one eigh and
        # its n x d QR
        interval = dz.interval_model(dz.Grid1D(0.0, 1.0, 20), dz.PotentialSpec.zero())
        m = ext.random_model(3, 30, 20)
        counts = _count_lapack_calls(monkeypatch, ("eigh", "eigvalsh", "svd", "cholesky"))
        shapes = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        ext.krein(interval)
        assert counts == dict(eigh=0, eigvalsh=0, svd=0, cholesky=1)
        assert shapes == [(20, 2)]
        counts.update(cholesky=0)
        shapes.clear()
        ext.krein(m)
        assert counts == dict(eigh=1, eigvalsh=0, svd=0, cholesky=0)
        assert shapes == [(30, 20), (30, 20)]


def rotated(model, seed):
    """The same D by its basis turned by a seeded random rotation, which
    takes the general route."""
    d = model.domain_dim
    turn = np.linalg.qr(ext.SplitMix64(seed).uniform_matrix(d, d) - 0.5)[0]
    return ext.new_model(model.A, model.domain_basis @ turn)


def signed_coordinates(seed, n, d):
    """A random model's A, and D spanned by d signed unit vectors +-e_r on
    distinct rows r chosen and ordered at random."""
    stream = ext.SplitMix64(seed)
    rows = np.argsort(stream.uniform_matrix(1, n)[0])[:d]
    basis = np.zeros((n, d))
    basis[rows, np.arange(d)] = np.where(stream.uniform_matrix(1, d)[0] < 0.5, -1.0, 1.0)
    return ext.new_model(ext.random_model(seed, n, 1).A, basis)


class TestCoordinateRoute:
    """krein and pencil_values of a coordinate D, from one Cholesky factor of
    A_DD, against the general route on the same D."""

    @pytest.mark.parametrize("model", [
        *(lambda length=length: zero_interval(length, 200) for length in (0.5, 1.0, 2.0)),
        lambda: dz.interval_model(dz.Grid1D(0.0, 1.0, 200), dz.PotentialSpec.sampled(
            50.0 * ext.SplitMix64(9).uniform_matrix(1, 200)[0])),
        *(lambda args=args: signed_coordinates(*args)
          for args in ((11, 12, 7), (12, 30, 29), (13, 40, 2), (14, 60, 45))),
    ], ids=["interval-0.5", "interval-1", "interval-2", "interval-sampled-v",
            "hand-12x7", "hand-30x29", "hand-40x2", "hand-60x45"])
    def test_agrees_with_a_rotated_basis(self, model):
        # measured over rotation seeds 1-3: krein within 3.2e-14 max|A| and
        # the pencil within 9.6e-13 relative, both at the m = 200 interval;
        # the rotated basis carries the error, as the coordinate pencil is
        # within 7.1e-15 of mpmath at m = 100 and the rotated one 5.4e-14
        # to 9.5e-14.  The coordinate construction gap read 1.2e-16 max|A|
        # on the intervals and at most 1.2e-15, at 40 x 2
        m = model()
        assert ext._coordinate_rows(m.domain_basis) is not None
        krein, values = ext.krein(m), ext.pencil_values(m)
        assert krein.construction_gap <= 5e-15 * m.A.norm_max
        assert krein.kernel_basis.shape == (m.ambient_dim, m.codimension)
        for seed in (1, 2, 3):
            general = rotated(m, seed)
            assert ext._coordinate_rows(general.domain_basis) is None
            assert max_norm(ext.krein(general).matrix.array - krein.matrix.array) \
                <= 1e-13 * m.A.norm_max
            assert np.max(np.abs(ext.pencil_values(general) - values) / values) <= 3e-12

    def test_order_and_signs_of_the_columns_keep_the_bits(self):
        # the rows of D are taken ascending whatever the basis lists
        m = signed_coordinates(15, 24, 13)
        rows = np.sort(np.flatnonzero(np.any(m.domain_basis, axis=1)))
        plain = ext.new_model(m.A, np.eye(24)[:, rows])
        got, want = ext.krein(m), ext.krein(plain)
        np.testing.assert_array_equal(got.matrix.array, want.matrix.array)
        np.testing.assert_array_equal(got.kernel_basis, want.kernel_basis)
        np.testing.assert_array_equal(ext.pencil_values(m), ext.pencil_values(plain))

    def test_a_column_one_ulp_off_a_unit_vector_takes_the_general_route(self, monkeypatch):
        m = zero_interval(1.0, 40)
        basis = m.domain_basis.copy()
        basis[5, 4] = np.nextafter(1.0, 0.0)
        off = ext.new_model(m.A, basis)
        assert ext._coordinate_rows(off.domain_basis) is None
        counts = _count_lapack_calls(monkeypatch, ("eigh",))
        krein = ext.krein(off)
        assert counts == dict(eigh=1)
        assert max_norm(krein.matrix.array - ext.krein(m).matrix.array) <= 1e-13 * m.A.norm_max

    @pytest.mark.parametrize("basis,rows", [
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], ([0, 2], [1])),
        ([[0.0, 0.0], [0.0, -1.0], [-1.0, 0.0]], ([1, 2], [0])),
        ([[0.0], [-1.0], [0.0]], ([1], [0, 2])),
        ([[np.nextafter(1.0, 2.0)], [0.0], [0.0]], None),
        ([[1.0], [1e-300], [0.0]], None),
        ([[0.5], [0.0], [0.0]], None),
        ([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]], None),
        ([[np.nan], [0.0], [0.0]], None),
    ], ids=["identity", "signed-swapped", "one-column", "ulp-above-one", "tiny-entry",
            "half", "repeated-row", "nan"])
    def test_coordinate_rows(self, basis, rows):
        got = ext._coordinate_rows(np.array(basis))
        if rows is None:
            assert got is None
        else:
            assert [g.tolist() for g in got] == list(rows)


def integer_model(seed, n, d, coordinate):
    """A = G G^T + n I with the entries of G in -3..3, and D spanned by d
    signed unit vectors on random rows (coordinate) or by an n x d integer
    basis with entries in -2..2, both as int arrays."""
    stream = ext.SplitMix64(seed)
    g = np.floor(7.0 * stream.uniform_matrix(n, n)).astype(int) - 3
    a = g @ g.T + n * np.eye(n, dtype=int)
    if coordinate:
        rows = np.argsort(stream.uniform_matrix(1, n)[0])[:d]
        basis = np.zeros((n, d), dtype=int)
        basis[rows, np.arange(d)] = np.where(stream.uniform_matrix(1, d)[0] < 0.5, -1, 1)
    else:
        basis = np.floor(5.0 * stream.uniform_matrix(n, d)).astype(int) - 2
    return a, basis


class TestExactKrein:
    """krein against Krein's formula A - P (P^T A^-1 P)^-1 P^T in exact
    rational arithmetic (tests/oracles.py), on integer SPD models."""

    # measured at seeds 1-3 and (n, d) = (8, 5), (16, 9), (32, 20): the
    # coordinate route within 3.5e-17 to 1.5e-16 max|A| and the general
    # route within 7.2e-16 to 2.1e-15.  The general route reads 1.0e-15 to
    # 3.6e-15 on the coordinate models too, so the coordinate bound fails
    # it there.  The shorted parametrized_extension read 1.6e-16 to 4.5e-16
    BOUND = {True: 5e-16, False: 1e-14}

    @pytest.mark.parametrize("coordinate", [True, False], ids=["coordinate", "integer-basis"])
    @pytest.mark.parametrize("seed,n,d", [
        (1, 8, 5), (2, 8, 5), (3, 8, 5), (1, 16, 9),
        pytest.param(2, 32, 20, marks=pytest.mark.slow)])
    def test_krein_matches_the_rational_formula(self, coordinate, seed, n, d):
        a, basis = integer_model(seed, n, d, coordinate)
        model = ext.new_model(a.astype(float), basis.astype(float))
        assert (ext._coordinate_rows(model.domain_basis) is None) is not coordinate
        want = np.array(exact_krein(a, basis), dtype=float)
        got = ext.krein(model)
        assert max_norm(got.matrix.array - want) <= self.BOUND[coordinate] * model.A.norm_max
        if not coordinate:
            ker = ext.adjoint_kernel(model)
            shorted = ext.parametrized_extension(model, ker, np.zeros((n - d, n - d)))
            assert max_norm(shorted.matrix.array - want) <= 1e-14 * model.A.norm_max


class TestFormIdentity:
    def test_krein_form_matches_ambient_form_on_domain_plus_kernel(self):
        # (u+g)^T S_K (u+g) == u^T A u for u in D, g in ran(A D)^perp
        m = ext.random_model(401, 9, 6)
        kr = ext.krein(m).matrix.array
        ker = ext.adjoint_kernel(m)
        stream = ext.SplitMix64(402)
        for _ in range(20):
            u = m.domain_basis @ (np.array([stream.uniform() for _ in range(6)]) - 0.5)
            g = ker @ (np.array([stream.uniform() for _ in range(3)]) - 0.5)
            lhs = (u + g) @ kr @ (u + g)
            rhs = u @ m.A.array @ u
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


class TestAndoNishioSup:
    def test_sampled_sup_brackets_quadratic_form(self):
        m = ext.random_model(500, 8, 5)
        a = m.A.array
        q = m.domain_basis
        kr = ext.krein(m).matrix.array
        gram = q.T @ a @ q
        stream = ext.SplitMix64(501)
        samples = stream.uniform_matrix(5, 10_000) - 0.5
        denom = np.einsum("ij,ij->j", samples, gram @ samples)
        scale = m.A.norm_max
        for _ in range(50):
            u = np.array([stream.uniform() for _ in range(8)]) - 0.5
            target = u @ kr @ u
            b = q.T @ (a @ u)
            ratios = (b @ samples) ** 2 / denom
            best = float(np.max(ratios))
            assert best <= target + 1e-8
            # local maximization by gradient ascent from the best sample
            c = samples[:, int(np.argmax(ratios))].copy()
            val = best
            step = 1.0
            for _ in range(200):
                bc = b @ c
                gc = gram @ c
                cgc = c @ gc
                grad = 2.0 * bc / cgc * b - 2.0 * bc * bc / cgc**2 * gc
                trial = c + step * grad
                tval = (b @ trial) ** 2 / (trial @ gram @ trial)
                if tval > val:
                    c, val = trial, tval
                    step *= 1.5
                else:
                    step *= 0.5
                    if step < 1e-14:
                        break
            assert val <= target + 1e-8
            assert val >= target - 1e-3 * scale


class TestSplitMix:
    def test_stream_reproducible(self):
        a = ext.SplitMix64(12345)
        b = ext.SplitMix64(12345)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    @pytest.mark.parametrize("seed", [1, 7, 123456789, 2**64 - 1])
    def test_uniform_matrix_is_the_scalar_stream(self, seed):
        # row by row, bit for bit, and the state after the draw included
        fast, slow = ext.SplitMix64(seed), ext.SplitMix64(seed)
        for rows, cols in ((3, 5), (1, 1), (0, 4), (17, 2)):
            got = fast.uniform_matrix(rows, cols)
            want = [[(slow.next_u64() >> 11) * 2.0 ** -53 for _ in range(cols)]
                    for _ in range(rows)]
            assert got.shape == (rows, cols)
            assert got.tolist() == want
            assert fast._state == slow._state
        assert fast.next_u64() == slow.next_u64()

    def test_uniform_range(self):
        s = ext.SplitMix64(9)
        vals = [s.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_random_model_bottom_eigenvalue(self):
        for seed in range(3):
            m = ext.random_model(seed, 8, 5)
            assert np.linalg.eigvalsh(m.A.array)[0] >= 0.1 - 1e-12
