import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinspec.errors import (DomainError, NoConvergence, NotPositiveDefinite,
                              NotPositiveSemidefinite)
from kreinspec import linalg as la
from oracles import sturm_count_oracle, sturm_pivots_oracle, twisted_sturm_oracle


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

    def test_large_finite_entries_stay_finite(self):
        # 0.5 * (a + a.T) overflowed here to inf, and cholesky then rejected
        # this positive-definite matrix as having non-finite entries
        big = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])
        s = la.SymMatrix(big)
        assert s.array.tobytes() == big.tobytes()
        la.cholesky(s)
        # halves are summed; pairs equal bit for bit, the subnormal ones
        # too, are kept as given
        a = np.array([[1.7e308, 1.6e308, 5e-324],
                      [1.79e308, 3e-320, 1.0],
                      [5e-324, 0.5, 2.0]])
        s = la.SymMatrix(a)
        assert s.array.tobytes() == s.array.T.tobytes()
        assert s.array[0, 1] == 0.5 * 1.6e308 + 0.5 * 1.79e308
        assert s.array[1, 2] == 0.75
        np.testing.assert_array_equal(np.diagonal(s.array), np.diagonal(a))
        assert s.array[0, 2] == 5e-324

    def test_averages_keep_the_bits_of_a_plus_a_t_over_two(self):
        # away from overflow and subnormal halves, each average is the
        # rounded (a + a.T) / 2; 0 against -0 averages to 0
        a = np.random.default_rng(4).standard_normal((40, 40))
        a[3, 5], a[5, 3] = 0.0, -0.0
        s = la.SymMatrix(a)
        assert s.array.tobytes() == (0.5 * (a + a.T)).tobytes()
        assert not np.signbit(s.array[3, 5]) and not np.signbit(s.array[5, 3])

    def test_opposite_infinities_average_to_nan(self):
        s = la.SymMatrix([[1.7e308, np.inf], [-np.inf, 1.7e308]])
        assert np.isnan(s.array[0, 1]) and np.isnan(s.array[1, 0])
        with pytest.raises(NotPositiveDefinite, match="non-finite entries"):
            la.cholesky(s)


class TestMaxNorm:
    @pytest.mark.parametrize("entries", [
        [[-0.0, -0.0]], [0.0, -0.0], [-3.0, 2.0], [2.0, -3.0], [-np.inf, 1.0], [1.0, np.nan],
        [np.nan, 1.0], [-np.nan], [[1, -7], [3, 4]], [5e-324, -5e-324], [[]],
    ], ids=repr)
    def test_is_max_abs_bit_for_bit(self, entries):
        # no copy of |A|: the larger modulus of max A and min A, the same
        # float as max |A| for every input, -0.0 and NaN included
        a = np.asarray(entries, dtype=float)
        want = float(np.max(np.abs(a))) if a.size else 0.0
        got = la.max_norm(entries)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_strided_view_matches_its_copy(self):
        a = rand_sym(np.random.default_rng(5), 40) - 3.0
        assert la.max_norm(a[::3, 1::2].T) == float(np.max(np.abs(a[::3, 1::2])))


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
        v = e.vectors
        assert la.max_norm(v.T @ v - np.eye(n)) <= 1e-12 * n
        assert la.max_norm(s @ v - v * e.values) <= 1e-10 * (1.0 + la.max_norm(s)) * n
        np.testing.assert_array_equal(e.values, np.sort(e.values))

    def test_non_finite_input_raises(self):
        with pytest.raises(NoConvergence):
            la.sym_eigen([[1.0, np.nan], [np.nan, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("solve, error, message", [
        (la.sym_eigen, NoConvergence, "non-finite"),
        (la.spd_sqrt, NoConvergence, "non-finite"),
        (la.cholesky, NotPositiveDefinite, "non-finite entries"),
        (la._svd, NoConvergence, "non-finite"),
    ], ids=["sym_eigen", "spd_sqrt", "cholesky", "svd"])
    def test_non_finite_entries_raise_typed_errors(self, solve, error, message, bad):
        # an inf used to escape as RuntimeWarning from the symmetrizer, and
        # cholesky reported a NaN as a pivot below a NaN floor
        for s in ([[1.0, bad], [bad, 1.0]], np.diag([1.0, bad])):
            with pytest.raises(error, match=message):
                solve(s)

    @pytest.mark.parametrize("solve, routine, error, message", [
        (la.cholesky, "cholesky", NotPositiveDefinite, "Cholesky factorization failed"),
        (la.sym_eigen, "eigh", NoConvergence, "symmetric eigensolver failed"),
        (lambda a: la._eigh(a, with_vectors=False), "eigvalsh", NoConvergence,
         "symmetric eigensolver failed"),
        (la._svd, "svd", NoConvergence, "singular value decomposition failed"),
    ], ids=["cholesky", "sym_eigen", "eigvalsh", "svd"])
    def test_lapack_failures_raise_typed_errors(self, solve, routine, error, message,
                                                monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, routine, broken)
        with pytest.raises(error, match=f"{message}: did not converge"):
            solve(np.eye(3))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        s = rand_sym(rng, 30)
        a, b = la.sym_eigen(s), la.sym_eigen(s)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.vectors, b.vectors)


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
            ra = np.linalg.inv(a + shift * np.eye(n))
            rb = np.linalg.inv(b + shift * np.eye(n))
            diff = 0.5 * ((ra - rb) + (ra - rb).T)
            assert la.sym_eigen(diff).values[0] >= -1e-10


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

    def test_integer_tridiagonals_match_eigvalsh_at_every_twist(self):
        # every twist k of every case: counts away from the eigenvalues
        # match, and the counts over a grid that hits integer eigenvalues
        # exactly never decrease
        rng = np.random.default_rng(11)
        cases = wrong = falls = 0
        grid = np.arange(-6.0, 6.01, 0.25)
        for _ in range(800):
            n = int(rng.integers(1, 10))
            d = rng.integers(-2, 3, n).astype(float)
            e = rng.integers(-2, 3, n - 1).astype(float)
            vals = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            away = np.min(np.abs(grid[:, None] - vals), axis=1) >= 1e-6
            want = np.sum(vals < grid[away, None], axis=1)
            for k in range(n):
                got = la.sturm_count(d, e, grid, twist=k)
                cases += int(away.sum())
                wrong += int(np.sum(got[away] != want))
                falls += int(np.any(np.diff(got) < 0))
        assert cases > 90_000
        assert wrong == 0 and falls == 0

    @pytest.mark.parametrize("twist", [-1, 3, 1.0, True])
    def test_twist_outside_the_rows_raises(self, twist):
        with pytest.raises(DomainError, match="twist must be an integer in 0..2"):
            la.sturm_count([1.0, 2.0, 3.0], [0.5, 0.5], 0.0, twist=twist)

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


def twists_of(n):
    """Twists 0, 1, n // 2, n - 2 and n - 1 (the default), those that make a
    part exactly one row block of two parts (BLOCK // 2 steps) or of one
    (BLOCK) long, and BLOCK - 1, between the zero off-diagonals of the
    boundary cases: those inside 0..n-1."""
    half = BLOCK // 2
    return sorted({k for k in (0, 1, n // 2, n - 2, n - 1, half, n - 1 - half, BLOCK,
                               n - 1 - BLOCK, BLOCK - 1) if 0 <= k < n})


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

    @pytest.mark.parametrize("d, e", [case[1:] for case in BOUNDARY_CASES],
                             ids=[case[0] for case in BOUNDARY_CASES])
    def test_twisted_counts_and_elements_equal_scalar_reference(self, d, e):
        # counts and twist elements bit for bit at the twists of twists_of,
        # by one shift and by an array of them; at twist n - 1 they are the
        # default's
        shifts = np.concatenate((BOUNDARY_SHIFTS, [0.0, -0.0, np.inf, -np.inf]))
        for k in twists_of(d.size):
            want = [twisted_sturm_oracle(d, e, lam, k) for lam in shifts.tolist()]
            counts, gammas = la.sturm_count(d, e, shifts, last_pivot=True, twist=k)
            assert counts.tolist() == [c for c, _ in want]
            assert [g.hex() for g in gammas.tolist()] == [g.hex() for _, g in want]
            assert la.sturm_count(d, e, shifts, twist=k).tolist() == counts.tolist()
            if k == d.size - 1:
                default = la.sturm_count(d, e, shifts, last_pivot=True)
                assert default[0].tolist() == counts.tolist()
                assert [p.hex() for p in default[1].tolist()] == [g.hex() for _, g in want]
            scalar = [la.sturm_count(d, e, lam, last_pivot=True, twist=k) for lam in shifts]
            assert all(type(c) is int and type(g) is float for c, g in scalar)
            assert [(c, g.hex()) for c, g in scalar] == [(c, g.hex()) for c, g in want]

    def test_twist_cases_hold_zero_pivots_and_splits_at_the_twist(self):
        # the constructed cases hold what the twisted counts are claimed on:
        # at the shift 1 both parts of tridiag(1; 1) end in a zero pivot next
        # to an odd twist of an odd order, and the zero off-diagonals at
        # BLOCK - 2 and BLOCK - 1 flank twists BLOCK - 1 and BLOCK
        n = 2 * BLOCK + 1
        k = BLOCK - 1
        forward = sturm_pivots_oracle(np.ones(k), np.ones(k - 1), 1.0)
        backward = sturm_pivots_oracle(np.ones(n - 1 - k), np.ones(n - 2 - k), 1.0)
        assert forward[-1] == 0.0 and backward[-1] == 0.0
        assert twisted_sturm_oracle(np.ones(n), np.ones(n - 1), 1.0, k)[1] == -np.inf
        split = dict((case[0], case[2]) for case in BOUNDARY_CASES)[f"{n}-zero-offdiagonals"]
        assert split[k - 1] == split[k] == 0.0
        assert {BLOCK - 1, BLOCK, n // 2, n - 2, n - 1} <= set(twists_of(n))

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
        # the same sweep's last pivots, bit for bit, across the block boundary
        counts, pivots = la.sturm_count(d, e, shifts, last_pivot=True)
        assert counts.tolist() == want
        last = [sturm_pivots_oracle(d, e, lam)[-1] for lam in shifts.tolist()]
        assert [p.hex() for p in pivots.tolist()] == [q.hex() for q in last]


def folded_row_cases():
    """Even orders n, whose twist n // 2 leaves one row more above the twist
    than below it.  At the shift 1 the pivots of tridiag(1; 1) are +0 on
    even rows, so that extra row, n // 2 - 1, ends on an exact zero pivot
    when n // 2 is odd and on -inf when it is even; a zero link
    e_{n//2 - 2} makes the extra row its own pivot, d - lam."""
    cases = []
    for n in (2, 4, 6, 10, 2 * BLOCK + 2, 4 * BLOCK):
        cases.append((f"{n}-ones", np.ones(n), np.ones(n - 1)))
        if n >= 4:
            e = np.ones(n - 1)
            e[n // 2 - 2] = 0.0
            cases.append((f"{n}-zero-link", np.ones(n), e))
        rng = np.random.default_rng(n)
        e = rng.integers(-2, 3, n - 1).astype(float)
        if n >= 4:
            e[n // 2 - 2] = 0.0
        cases.append((f"{n}-integers-zero-link", rng.integers(-2, 3, n).astype(float), e))
    return cases


FOLDED_CASES = folded_row_cases()


class TestFoldedRow:
    def test_cases_hold_a_zero_link_and_zero_pivots_in_the_extra_row(self):
        for n in (6, 10, 2 * BLOCK + 2):
            k = n // 2
            assert sturm_pivots_oracle(np.ones(k), np.ones(k - 1), 1.0)[-1] == 0.0
            assert twisted_sturm_oracle(np.ones(n), np.ones(n - 1), 1.0, k)[1] == -np.inf
        k = 2 * BLOCK
        assert sturm_pivots_oracle(np.ones(k), np.ones(k - 1), 1.0)[-1] == -np.inf
        links = dict((case[0], case[2]) for case in FOLDED_CASES)
        assert links["10-zero-link"][3] == 0.0 and links["10-integers-zero-link"][3] == 0.0

    @pytest.mark.parametrize("d, e", [case[1:] for case in FOLDED_CASES],
                             ids=[case[0] for case in FOLDED_CASES])
    def test_counts_and_twist_elements_equal_scalar_reference(self, d, e):
        # the twists n // 2 and n // 2 - 1 leave the upper and the lower lane
        # one row longer, which is taken with the twist element; 1 and n - 2
        # leave the longer lane several rows to run alone
        shifts = np.concatenate((BOUNDARY_SHIFTS, [0.0, -0.0, np.inf, -np.inf]))
        for k in sorted({d.size // 2, d.size // 2 - 1, 1, d.size - 2} & set(range(d.size))):
            want = [twisted_sturm_oracle(d, e, lam, k) for lam in shifts.tolist()]
            counts, gammas = la.sturm_count(d, e, shifts, last_pivot=True, twist=k)
            assert counts.tolist() == [c for c, _ in want]
            assert [g.hex() for g in gammas.tolist()] == [g.hex() for _, g in want]
            scalar = [la.sturm_count(d, e, lam, last_pivot=True, twist=k) for lam in shifts]
            assert [(c, g.hex()) for c, g in scalar] == [(c, g.hex()) for c, g in want]


# Each row block adds its sign bits into one byte per row and shift, totalled
# every 255 blocks.  These sweeps run 257 blocks in one lane, forward, and in
# two, at the middle twist.
def test_sweeps_of_more_than_255_row_blocks_equal_scalar_reference():
    n = 257 * BLOCK + 2
    assert (n - 2) // BLOCK > 255 and (n // 2 - 1) // (BLOCK // 2) > 255
    rng = np.random.default_rng(11)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    shifts = np.array([-3.0, -0.5, 0.0, 0.7, 2.0, 5.0])
    for twist in (None, n // 2):
        k = n - 1 if twist is None else twist
        want = [twisted_sturm_oracle(d, e, lam, k) for lam in shifts.tolist()]
        counts, gammas = la.sturm_count(d, e, shifts, last_pivot=True, twist=twist)
        assert counts.tolist() == [c for c, _ in want]
        assert [g.hex() for g in gammas.tolist()] == [g.hex() for _, g in want]
