import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinspec.errors import NoConvergence, NotPositiveDefinite, NotPositiveSemidefinite
from kreinspec import linalg as la
from oracles import sturm_count_oracle, sturm_pivots_oracle


def rand_sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.T)


class TestSymMatrix:
    def test_symmetrizes_by_averaging(self):
        s = la.SymMatrix([[1.0, 2.0], [2.5, 3.0]])
        np.testing.assert_allclose(s.array, [[1.0, 2.25], [2.25, 3.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            la.SymMatrix(np.zeros((2, 3)))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(la.cholesky(np.eye(3)), np.eye(3))

    def test_hand_elimination(self):
        L = la.cholesky([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, 2.0]])

    def test_indefinite_raises(self):
        # second pivot 1 - 4 < 0
        with pytest.raises(NotPositiveDefinite):
            la.cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_pivot_below_floor_raises(self):
        # LAPACK factors diag(1, 1e-15), but its second pivot is below
        # order * cholesky_pivot_rel * max|S| = 2e-14
        with pytest.raises(NotPositiveDefinite, match="column 1"):
            la.cholesky(np.diag([1.0, 1e-15]))

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(42)
        for n in (5, 20, 60):
            m = rng.standard_normal((n, n))
            s = m @ m.T + n * np.eye(n)
            L = la.cholesky(s)
            err = la.max_norm(L @ L.T - s)
            assert err <= 1e-12 * la.max_norm(s)


class TestSymEigen:
    def test_identity(self):
        np.testing.assert_allclose(la.sym_eigen(np.eye(2)).values, [1.0, 1.0])

    def test_two_by_two(self):
        # characteristic polynomial (2-x)^2 - 1 = 0
        e = la.sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(e.values, [1.0, 3.0], atol=1e-14)

    def test_diagonal(self):
        e = la.sym_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(e.values, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [3, 17, 64, 200])
    def test_residual_and_orthonormality_bounds(self, n):
        rng = np.random.default_rng(n)
        s = rand_sym(rng, n)
        e = la.sym_eigen(s)
        assert e.orthonormality_defect() <= 1e-12 * n
        assert e.residual(s) <= 1e-10 * (1.0 + la.max_norm(s)) * n
        np.testing.assert_array_equal(e.values, np.sort(e.values))

    def test_matches_values_only_path(self):
        rng = np.random.default_rng(7)
        s = rand_sym(rng, 40)
        np.testing.assert_array_equal(la.sym_eigen(s).values, la.sym_eigen_values(s))

    def test_non_finite_input_raises(self):
        s = [[1.0, np.nan], [np.nan, 1.0]]
        for solve in (la.sym_eigen, la.sym_eigen_values):
            with pytest.raises(NoConvergence):
                solve(s)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("solve, error, message", [
        (la.sym_eigen, NoConvergence, "non-finite"),
        (la.sym_eigen_values, NoConvergence, "non-finite"),
        (la.spd_sqrt, NoConvergence, "non-finite"),
        (la.cholesky, NotPositiveDefinite, "non-finite entries"),
        (lambda s: la.gen_sym_eigen_values(s, np.eye(2)), NoConvergence, "non-finite"),
    ], ids=["sym_eigen", "sym_eigen_values", "spd_sqrt", "cholesky", "gen_sym_eigen_values"])
    def test_non_finite_entries_raise_typed_errors(self, solve, error, message, bad):
        # an inf used to escape as RuntimeWarning from the symmetrizer, and
        # cholesky reported a NaN as a pivot below a NaN floor
        for s in ([[1.0, bad], [bad, 1.0]], np.diag([1.0, bad])):
            with pytest.raises(error, match=message):
                solve(s)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        s = rand_sym(rng, 30)
        a, b = la.sym_eigen(s), la.sym_eigen(s)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)


class TestGenSymEigen:
    def test_identity_mass_reduces_to_sym_eigen(self):
        rng = np.random.default_rng(11)
        s = rand_sym(rng, 12)
        pencil = la.gen_sym_eigen(s, np.eye(12))
        np.testing.assert_allclose(pencil.values, la.sym_eigen(s).values, rtol=0, atol=1e-12)

    def test_scalar_division(self):
        np.testing.assert_allclose(la.gen_sym_eigen([[5.0]], [[2.0]]).values, [2.5])

    def test_per_coordinate_ratio(self):
        vals = la.gen_sym_eigen(np.diag([2.0, 8.0]), np.diag([1.0, 2.0])).values
        np.testing.assert_allclose(vals, [2.0, 4.0])

    def test_vectors_mass_orthonormal(self):
        rng = np.random.default_rng(5)
        a = rand_sym(rng, 15)
        m = rng.standard_normal((15, 15))
        b = m @ m.T + 15 * np.eye(15)
        pencil = la.gen_sym_eigen(a, b)
        gram = pencil.vectors.T @ b @ pencil.vectors
        assert la.max_norm(gram - np.eye(15)) <= 1e-10
        resid = la.max_norm(a @ pencil.vectors - b @ pencil.vectors * pencil.values)
        assert resid <= 1e-9 * (1.0 + la.max_norm(a) + la.max_norm(b))

    def test_indefinite_mass_raises(self):
        with pytest.raises(NotPositiveDefinite):
            la.gen_sym_eigen(np.eye(2), [[1.0, 2.0], [2.0, 1.0]])

    def test_known_pencil_oracle(self):
        # A = X^T diag(lam) X and B = X^T X have the pencil eigenvalues lam
        # and eigenvectors X^-1, whatever the well-conditioned X
        rng = np.random.default_rng(1404)
        n = 16
        x = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
        lam = rng.permutation(np.linspace(0.5, 8.0, n))
        a, b = x.T @ (lam[:, None] * x), x.T @ x
        expect = np.sort(lam)
        values = la.gen_sym_eigen_values(a, b)
        pencil = la.gen_sym_eigen(a, b)
        for got in (values, pencil.values):
            assert np.max(np.abs(got - expect) / expect) <= 1e-12
        v = pencil.vectors
        assert la.max_norm(v.T @ b @ v - np.eye(n)) <= 1e-12
        resid = la.max_norm(a @ v - b @ v * pencil.values)
        assert resid <= 1e-12 * la.max_norm(a) * la.max_norm(v)
        # eigvalsh against the full driver: equal to rounding, not bitwise
        assert np.max(np.abs(values - pencil.values) / np.abs(pencil.values)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_congruence_invariance(self, seed):
        # pencil eigenvalues are invariant under (A,B) -> (C^T A C, C^T B C)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = rand_sym(rng, n)
        m = rng.standard_normal((n, n))
        b = m @ m.T + n * np.eye(n)
        c = rng.standard_normal((n, n)) + 3 * np.eye(n)
        base = la.gen_sym_eigen(a, b).values
        cong = la.gen_sym_eigen(c.T @ a @ c, c.T @ b @ c).values
        scale = np.maximum(np.abs(base), 1.0)
        assert np.max(np.abs(base - cong) / scale) <= 1e-9


class TestSpdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(la.spd_sqrt(np.eye(2)).array, np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(la.spd_sqrt(np.diag([4.0, 9.0])).array, np.diag([2.0, 3.0]))

    def test_eigenbasis_case(self):
        # eigenpairs (1,(1,-1)) and (9,(1,1)), roots 1 and 3
        r = la.spd_sqrt([[5.0, 4.0], [4.0, 5.0]]).array
        np.testing.assert_allclose(r, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)

    def test_square_reproduces(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((30, 30))
        s = m @ m.T
        r = la.spd_sqrt(s).array
        assert la.max_norm(r @ r - s) <= 1e-10 * (1.0 + la.max_norm(s))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            la.spd_sqrt([[1.0, 0.0], [0.0, -1.0]])

    def test_clamps_tiny_negative(self):
        s = np.diag([1.0, -1e-16])
        r = la.spd_sqrt(s).array
        assert r[1, 1] == 0.0


class TestOrderEquivalence:
    """Resolvent ordering: 0 <= A <= B iff (B+a)^-1 <= (A+a)^-1 for a > 0."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_resolvent_ordering(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m1 = rng.standard_normal((n, n))
        m2 = rng.standard_normal((n, n))
        a = m1 @ m1.T
        b = a + m2 @ m2.T
        for shift in (0.1, 1.0, 10.0):
            ra = la.solve_cholesky(la.cholesky(a + shift * np.eye(n)), np.eye(n))
            rb = la.solve_cholesky(la.cholesky(b + shift * np.eye(n)), np.eye(n))
            diff = 0.5 * ((ra - rb) + (ra - rb).T)
            assert la.sym_eigen_values(diff)[0] >= -1e-10


class TestSturmCount:
    def test_diagonal(self):
        assert la.sturm_count([1.0, 2.0, 3.0], [0.0, 0.0], 2.5) == 2

    def test_two_by_two(self):
        # tridiag(2; 1) has eigenvalues {1, 3}
        assert la.sturm_count([2.0, 2.0], [1.0], 0.99) == 0
        assert la.sturm_count([2.0, 2.0], [1.0], 3.01) == 2

    @pytest.mark.parametrize("n, batched", [
        pytest.param(n, batched, id=f"{n}-array" if batched else str(n))
        for batched in (False, True) for n in (10, 100, 500)
    ])
    def test_agrees_with_eigensolver(self, n, batched):
        rng = np.random.default_rng(n + 1)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        vals = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        shifts = rng.uniform(vals[0] - 1.0, vals[-1] + 1.0, size=20)
        want = [int(np.sum(vals < lam)) for lam in shifts]
        if batched:
            got = la.sturm_count(d, e, shifts)
            assert got.dtype.kind == "i"
            np.testing.assert_array_equal(got, want)
        else:
            got = [la.sturm_count(d, e, lam) for lam in shifts]
            assert all(type(c) is int for c in got)
            assert got == want

    def test_zero_pivot_matches_scalar_counts(self):
        # the shift 1.0 makes the first pivot of tridiag(1; 1) exactly zero
        d, e = np.ones(6), np.ones(5)
        shifts = np.array([1.0, -1.5, 1.0 - 1e-16, 1.0, 3.5, 1.0 + 1e-15])
        got = la.sturm_count(d, e, shifts)
        np.testing.assert_array_equal(got, [la.sturm_count(d, e, s) for s in shifts])
        grid = la.sturm_count(d, e, shifts.reshape(2, 3))
        np.testing.assert_array_equal(grid, got.reshape(2, 3))

    def test_zero_pivots_count_below(self):
        # at the shift 1.0 every other pivot of tridiag(1; 1) is exactly zero;
        # of its eigenvalues 1 + 2 cos(k pi / 7), those with k = 4, 5, 6 lie below
        assert la.sturm_count(np.ones(6), np.ones(5), 1.0) == 3

    def test_integer_tridiagonals_match_eigvalsh(self):
        # small integer entries make exact zero pivots common
        rng = np.random.default_rng(7)
        cases = wrong = 0
        for _ in range(1500):
            n = int(rng.integers(1, 9))
            d = rng.integers(-2, 3, n).astype(float)
            e = rng.integers(-2, 3, n - 1).astype(float)
            vals = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            shifts = np.arange(-6.0, 7.0)
            shifts = shifts[np.min(np.abs(shifts[:, None] - vals), axis=1) >= 1e-6]
            want = np.sum(vals < shifts[:, None], axis=1)
            cases += shifts.size
            wrong += int(np.sum(la.sturm_count(d, e, shifts) != want))
        assert cases > 15000
        assert wrong == 0

    @pytest.mark.parametrize("d, e, lam, want", [
        ([1.0, 2.0], [0.0], 1.0, 0),
        ([1.0, 2.0], [0.0], 2.0, 1),
        ([1.0, 2.0, 3.0], [0.0, 0.0], 2.0, 1),
        ([-0.0, 1.0], [0.0], 0.0, 0),
    ])
    def test_zero_offdiagonal_at_eigenvalue(self, d, e, lam, want):
        # an eigenvalue at the shift is not below it: a zero pivot ahead of a
        # zero off-diagonal must not turn into 0/0, nor a -0 entry count
        assert la.sturm_count(d, e, lam) == want
        assert la.sturm_count(d, e, np.array([lam])).tolist() == [want]

    def test_empty_tridiagonal_raises(self):
        with pytest.raises(ValueError, match="no rows"):
            la.sturm_count([], [], 0.0)

    @pytest.mark.parametrize("lam", [np.nan, [0.0, np.nan, 1.0]], ids=["scalar", "array"])
    def test_nan_shift_raises(self, lam):
        with pytest.raises(ValueError, match="NaN"):
            la.sturm_count([2.0, 2.0], [1.0], lam)


BLOCK = la._STURM_BLOCK


def block_boundary_cases():
    """Tridiagonals whose first and last rows of a sweep block hold zero
    off-diagonals and exact zero pivots, at orders around the block size."""
    rng = np.random.default_rng(9)
    cases = []
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        # small integers make zero pivots and zero off-diagonals common
        for k in range(4):
            d = rng.integers(-2, 3, n).astype(float)
            e = rng.integers(-2, 3, n - 1).astype(float)
            cases.append((f"{n}-integers-{k}", d, e))
        # at the shift 1 the pivots of tridiag(1; 1) are +0 on even rows and
        # -inf on odd ones; a zero off-diagonal moves the pattern by one row
        cases.append((f"{n}-zero-pivots-even", np.ones(n), np.ones(n - 1)))
        e = np.ones(n - 1)
        e[0] = 0.0
        cases.append((f"{n}-zero-pivots-odd", np.ones(n), e))
        e = np.ones(n - 1)
        e[BLOCK - 2:BLOCK] = 0.0
        cases.append((f"{n}-zero-offdiagonals", np.ones(n), e))
    return cases


BOUNDARY_CASES = block_boundary_cases()
BOUNDARY_SHIFTS = np.array([-3.0, -1.0, 0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, 3.0])


class TestSturmBlocks:
    def test_cases_hit_the_block_boundary(self):
        # the constructed cases hold what the counts below are claimed on
        n = 2 * BLOCK + 1
        even = sturm_pivots_oracle(np.ones(n), np.ones(n - 1), 1.0)
        assert even[BLOCK] == 0.0 and even[BLOCK - 1] == -np.inf
        assert even[2 * BLOCK] == 0.0 and even[2 * BLOCK - 1] == -np.inf
        e = np.ones(n - 1)
        e[0] = 0.0
        odd = sturm_pivots_oracle(np.ones(n), e, 1.0)
        assert odd[BLOCK - 1] == 0.0 and odd[BLOCK] == -np.inf

    @pytest.mark.parametrize("d, e", [case[1:] for case in BOUNDARY_CASES],
                             ids=[case[0] for case in BOUNDARY_CASES])
    def test_counts_equal_scalar_reference(self, d, e):
        want = [sturm_count_oracle(d, e, lam) for lam in BOUNDARY_SHIFTS]
        got = la.sturm_count(d, e, BOUNDARY_SHIFTS)
        assert got.shape == BOUNDARY_SHIFTS.shape and got.dtype.kind == "i"
        assert got.tolist() == want
        scalar = [la.sturm_count(d, e, lam) for lam in BOUNDARY_SHIFTS]
        assert all(type(c) is int for c in scalar) and scalar == want
        grid = la.sturm_count(d, e, BOUNDARY_SHIFTS.reshape(2, 4))
        assert grid.tolist() == np.reshape(want, (2, 4)).tolist()

    @pytest.mark.parametrize("d, e", [case[1:] for case in BOUNDARY_CASES],
                             ids=[case[0] for case in BOUNDARY_CASES])
    def test_last_pivot_equals_scalar_reference(self, d, e):
        # the same sweep's last pivot, bit for bit, with unchanged counts; the
        # cases hold zero pivots (then -inf next) and zero off-diagonals
        shifts = np.concatenate((BOUNDARY_SHIFTS, [0.0, -0.0, np.inf, -np.inf]))
        want = [sturm_pivots_oracle(d, e, lam)[-1] for lam in shifts]
        counts, pivots = la.sturm_count(d, e, shifts, last_pivot=True)
        assert counts.tolist() == la.sturm_count(d, e, shifts).tolist()
        assert pivots.shape == shifts.shape and pivots.dtype == float
        assert [p.hex() for p in pivots.tolist()] == [w.hex() for w in want]
        scalar = [la.sturm_count(d, e, lam, last_pivot=True) for lam in shifts]
        assert [c for c, _ in scalar] == counts.tolist()
        assert all(type(c) is int and type(p) is float for c, p in scalar)
        assert [p.hex() for _, p in scalar] == [w.hex() for w in want]
        grid_counts, grid_pivots = la.sturm_count(d, e, shifts.reshape(3, 4), last_pivot=True)
        assert grid_counts.tolist() == counts.reshape(3, 4).tolist()
        assert [p.hex() for p in grid_pivots.ravel().tolist()] == [w.hex() for w in want]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.floats(0.0, 0.5),
    )
    def test_random_counts_equal_scalar_reference(self, n, seed, zeros):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        e[rng.random(n - 1) < zeros] = 0.0
        shifts = rng.uniform(-4.0, 4.0, 7)
        want = [sturm_count_oracle(d, e, lam) for lam in shifts]
        assert la.sturm_count(d, e, shifts).tolist() == want
