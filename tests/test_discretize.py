import dataclasses
import math

import numpy as np
import pytest

from kreinspec.errors import ConstructionMismatch, NonMonotoneError
from kreinspec import discretize as dz
from kreinspec import extensions as ext
from kreinspec.linalg import max_norm, sym_eigen

from oracles import tan_fixed_point_oracle, series_bessel_zero

PI = math.pi


def k_matrix(pencil):
    """A radial pencil's tridiagonal stiffness as a dense array."""
    e = pencil.offdiagonal
    return np.diag(pencil.diagonal) + np.diag(e, 1) + np.diag(e, -1)


class TestGridAndPotential:
    def test_grid_nodes(self):
        g = dz.Grid1D(0.0, 1.0, 9)
        assert g.h == pytest.approx(0.1)
        np.testing.assert_allclose(g.nodes(), 0.1 * np.arange(1, 10))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            dz.Grid1D(0.0, 1.0, 7)
        with pytest.raises(ValueError):
            dz.Grid1D(1.0, 0.0, 10)

    def test_potential_kinds(self):
        g = dz.Grid1D(0.0, 1.0, 9)
        assert np.all(dz.PotentialSpec.zero().values_at(g) == 0.0)
        assert np.all(dz.PotentialSpec.of_constant(2.5).values_at(g) == 2.5)
        samples = list(range(9))
        np.testing.assert_array_equal(
            dz.PotentialSpec.sampled(samples).values_at(g), samples
        )

    def test_potential_validation(self):
        with pytest.raises(ValueError):
            dz.PotentialSpec.of_constant(-1.0)
        with pytest.raises(ValueError):
            dz.PotentialSpec.sampled([1.0, -2.0])

    def test_potential_is_one_field_of_values(self):
        assert [f.name for f in dataclasses.fields(dz.PotentialSpec)] == ["values"]
        assert dz.PotentialSpec.zero() == dz.PotentialSpec(0.0) == dz.PotentialSpec(0)
        assert dz.PotentialSpec.of_constant(2) == dz.PotentialSpec(2.0)
        samples = dz.PotentialSpec.sampled(np.arange(3))
        assert samples == dz.PotentialSpec([0, 1.0, 2]) and samples.values == (0.0, 1.0, 2.0)


def _tridiagonal_assembly(grid, v):
    """The interval model's matrix entry by entry: 2/h^2 + V on the
    diagonal, -1/h^2 beside it."""
    h2 = grid.h * grid.h
    a = np.zeros((grid.m, grid.m))
    for i in range(grid.m):
        a[i, i] = 2.0 / h2 + v[i]
        if i:
            a[i, i - 1] = a[i - 1, i] = -1.0 / h2
    return a


@pytest.mark.parametrize("values", [0.0, 2.5, tuple(np.linspace(0.0, 50.0, 37) ** 1.5)],
                         ids=["zero", "constant", "sampled"])
def test_interval_model_is_the_tridiagonal_assembly(values):
    grid = dz.Grid1D(-0.3, 1.7, 37)
    v = np.broadcast_to(values, grid.m)
    got = dz.interval_model(grid, dz.PotentialSpec(values))
    assert np.array_equal(got.A.array, _tridiagonal_assembly(grid, v))
    assert np.array_equal(got.domain_basis, np.eye(grid.m)[:, 1:-1])


class TestIntervalModel:
    def test_codimension_two(self):
        g = dz.Grid1D(0.0, PI, 40)
        model = dz.interval_model(g, dz.PotentialSpec.zero())
        assert model.codimension == 2
        assert ext.adjoint_kernel(model).shape == (40, 2)

    def test_dirichlet_bottom_near_one(self):
        g = dz.Grid1D(0.0, PI, 200)
        model = dz.interval_model(g, dz.PotentialSpec.zero())
        assert sym_eigen(model.A).values[0] == pytest.approx(1.0, abs=5e-4)

    def test_constant_potential_shifts_bottom(self):
        g = dz.Grid1D(0.0, PI, 40)
        plain = dz.interval_model(g, dz.PotentialSpec.zero())
        shifted = dz.interval_model(g, dz.PotentialSpec.of_constant(5.0))
        lo_plain = sym_eigen(plain.A).values[0]
        lo_shift = sym_eigen(shifted.A).values[0]
        assert lo_shift == pytest.approx(lo_plain + 5.0, rel=1e-12)
        assert lo_shift >= 5.0 + lo_plain - 1e-10


class TestDiscreteKreinSpectrum:
    def test_first_values_converge_to_interval_limits(self):
        g = dz.Grid1D(0.0, PI, 160)
        model = dz.interval_model(g, dz.PotentialSpec.zero())
        spec = dz.discrete_krein_spectrum(model, 3)
        targets = [4.0, (2 * tan_fixed_point_oracle(1) / PI) ** 2, 16.0]
        for got, want in zip(spec.values(), targets):
            assert got == pytest.approx(want, rel=2e-2)
        assert spec.kernel_dim == 2

    def test_matrix_level_identity(self):
        # nonzero eigenvalues of the assembled soft extension equal the
        # pencil values up to conditioning noise, with no grid-size term
        g = dz.Grid1D(0.0, PI, 60)
        model = dz.interval_model(g, dz.PotentialSpec.zero())
        kvals = sym_eigen(ext.krein(model).matrix).values[model.codimension:]
        pvals = dz.discrete_krein_spectrum(model, 58).flattened()
        rel = np.max(np.abs(kvals - pvals) / np.abs(pvals))
        assert rel <= 1e-9

    def test_matrix_level_identity_with_potential(self):
        g = dz.Grid1D(0.0, 2.0, 48)
        pot = dz.PotentialSpec.sampled(np.linspace(0.0, 3.0, 48))
        model = dz.interval_model(g, pot)
        kvals = sym_eigen(ext.krein(model).matrix).values[2:]
        pvals = dz.discrete_krein_spectrum(model, 46).flattened()
        assert np.max(np.abs(kvals - pvals) / np.abs(pvals)) <= 1e-9

    def test_count_beyond_domain_dim_raises(self):
        # the pencil of the m = 10 interval has domain_dim = 8 eigenvalues
        model = dz.interval_model(dz.Grid1D(0.0, 1.0, 10), dz.PotentialSpec.zero())
        assert len(dz.discrete_krein_spectrum(model, 8).flattened()) == 8
        for count in (9, 50):
            with pytest.raises(ValueError):
                dz.discrete_krein_spectrum(model, count)

    def test_domain_monotonicity(self):
        # larger interval, pointwise smaller spectrum (inverse-square scaling)
        small = dz.interval_model(dz.Grid1D(0.0, PI, 80), dz.PotentialSpec.zero())
        large = dz.interval_model(dz.Grid1D(0.0, 1.5 * PI, 80), dz.PotentialSpec.zero())
        v_small = dz.discrete_krein_spectrum(small, 5).flattened()
        v_large = dz.discrete_krein_spectrum(large, 5).flattened()
        assert all(b < a for a, b in zip(v_small, v_large))

    def test_dirichlet_domination(self):
        g = dz.Grid1D(0.0, PI, 60)
        for pot in (dz.PotentialSpec.zero(), dz.PotentialSpec.of_constant(2.0)):
            model = dz.interval_model(g, pot)
            mu = sym_eigen(model.A).values
            pv = ext.pencil_values(model)
            d = model.domain_dim
            assert np.all(mu[:d] <= pv * (1.0 + 1e-10))

    def test_rayleigh_quotient_consistency(self):
        g = dz.Grid1D(0.0, PI, 48)
        model = dz.interval_model(g, dz.PotentialSpec.zero())
        rep = ext.buckling_analysis(model)
        lam1 = rep.pencil_values[0]
        u1 = model.domain_basis @ rep.pencil_vectors[:, 0]
        a = model.A.array
        quotient = float((a @ u1) @ (a @ u1)) / float(u1 @ a @ u1)
        assert quotient == pytest.approx(lam1, rel=1e-10)


class TestRadialPencil:
    def test_soft_end_needs_l_below_twice_m(self):
        # u(R) = u_m / (1 - h l / (2R)) has no finite value at l = 2m
        dz.RadialChannelSpec(3, 15, 1.0, 8, "krein")
        dz.RadialChannelSpec(3, 16, 1.0, 8, "dirichlet")
        with pytest.raises(ValueError):
            dz.RadialChannelSpec(3, 16, 1.0, 8, "krein")

    def test_mass_entries(self):
        # the cell measures ((i h)^n - ((i-1) h)^n) / n after the congruence by
        # (i^(n-1) h^n)^(-1/2): 1/n in the first cell, the same on both
        # conditions, and over all cells the ball's measure R^n / n
        m = 30
        for n in (2, 3, 4, 300):
            hard = dz.radial_pencil(dz.RadialChannelSpec(n, 0, 1.0, m, "dirichlet"))
            soft = dz.radial_pencil(dz.RadialChannelSpec(n, 0, 1.0, m, "krein"))
            assert np.array_equal(hard.mass, soft.mass)
            assert hard.mass[0] == pytest.approx(1.0 / n, rel=1e-15)
            if n < 300:
                weights = np.arange(1.0, m + 1.0) ** (n - 1)
                assert np.sum(weights * hard.mass) == pytest.approx(m**n / n, rel=1e-14)

    def test_condition_sets_only_the_last_diagonal_entry(self):
        spec = dz.RadialChannelSpec(3, 2, 1.0, 40, "dirichlet")
        hard = dz.radial_pencil(spec)
        soft = dz.radial_pencil(dataclasses.replace(spec, bc="krein"))
        assert np.array_equal(hard.offdiagonal, soft.offdiagonal)
        assert np.array_equal(hard.diagonal[:-1], soft.diagonal[:-1])
        assert hard.diagonal[-1] != soft.diagonal[-1]

    def test_pencil_matrices_consistent(self):
        spec = dz.RadialChannelSpec(3, 1, 2.0, 20, "krein")
        pencil = dz.radial_pencil(spec)
        k = k_matrix(pencil)
        d, e = pencil.reduced_tridiagonal()
        root = np.sqrt(pencil.mass)
        rebuilt = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        direct = k / np.outer(root, root)
        direct[np.abs(direct) < 1e-300] = 0.0
        keep = np.abs(rebuilt) > 0.0
        np.testing.assert_allclose(rebuilt[keep], direct[keep], rtol=1e-14)

    def test_hard_channel_against_exact(self):
        # c = 0 channel is the plain second-difference operator on (0, R)
        ev = dz.radial_eigenvalues(dz.RadialChannelSpec(3, 0, 1.0, 2000, "dirichlet"), 2)
        assert ev[0] == pytest.approx(PI**2, rel=1e-3)
        assert ev[1] == pytest.approx(4 * PI**2, rel=1e-3)

    def test_soft_channel_against_tan_root(self):
        ev = dz.radial_eigenvalues(dz.RadialChannelSpec(3, 0, 1.0, 2000, "krein"), 1)
        assert ev[0] == pytest.approx(tan_fixed_point_oracle(1) ** 2, rel=5e-3)

    def test_disk_wave_channel_against_bessel(self):
        ev = dz.radial_eigenvalues(dz.RadialChannelSpec(2, 1, 1.0, 2000, "dirichlet"), 1)
        assert ev[0] == pytest.approx(series_bessel_zero(2, 1) ** 2, rel=5e-3)

    def test_zero_mode_is_discrete_kernel_vector(self):
        # at l = 0 the soft pencil's null vector is u = 1, which the stored
        # congruence turns into (i^(n-1) h^n)^(1/2): exact up to rounding
        for n in (2, 3, 4):
            spec = dz.RadialChannelSpec(n, 0, 1.0, 60, "krein")
            pencil = dz.radial_pencil(spec)
            v = np.arange(1.0, spec.m + 1.0) ** ((n - 1) / 2.0)
            resid = k_matrix(pencil) @ v
            resid_scale = max_norm(k_matrix(pencil)) * max_norm(v)
            assert max_norm(resid) <= 1e-12 * resid_scale

    def test_zero_mode_is_near_r_to_the_l(self):
        # for l >= 1, u = r^l at the cell centres is null only up to the
        # truncation error: its Rayleigh quotient is 0.025 h^2 lambda_1 here
        spec = dz.RadialChannelSpec(3, 1, 1.0, 60, "krein")
        pencil = dz.radial_pencil(spec)
        i = np.arange(1.0, spec.m + 1.0)
        h = spec.radius / spec.m
        v = i**((spec.n - 1) / 2.0) * ((i - 0.5) * h) ** spec.ell
        quotient = (v @ k_matrix(pencil) @ v) / (v @ (pencil.mass * v))
        lam1 = dz.radial_eigenvalues(spec, 1)[0]
        assert 0.0 < quotient <= 0.05 * h * h * lam1

    def test_zero_mode_skipped_and_exposed(self):
        spec = dz.RadialChannelSpec(3, 0, 1.0, 400, "krein")
        d, e = dz.radial_pencil(spec).reduced_tridiagonal()
        dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert abs(dense[0]) <= 1e-8
        assert dz.radial_eigenvalues(spec, 1)[0] == pytest.approx(dense[1], rel=1e-11)

    @pytest.mark.parametrize("m", [16, 100, 800])
    def test_zero_mode_check_accepts_every_channel(self, m):
        for n in (2, 3, 4):
            for ell in list(range(5)) + [m // 2, 2 * m - 1]:
                spec = dz.RadialChannelSpec(n, ell, 1.0, m, "krein")
                assert dz.radial_eigenvalues(spec, 1)[0] > 0.0

    def test_zero_mode_check_allows_the_stop_width_at_l_zero(self):
        # at l = 0 the zero mode is rounding, up to half the stop width
        # eps ||T||, which outgrows bound lambda_1 from m of a few thousand
        for n in (2, 3):
            spec = dz.RadialChannelSpec(n, 0, 1.0, 8000, "krein")
            assert dz.radial_eigenvalues(spec, 1)[0] > 0.0

    # The soft term is -2 l / (2m - l) / h^2 in the last diagonal entry; built
    # with l + shift it must fail the zero-mode check.  The closest case,
    # n = 5, l = 6, m = 16 with l - 1/2, lands 1.25 times above the bound.
    @pytest.mark.parametrize("shift", [-0.5, 0.5, 1.0])
    def test_zero_mode_check_rejects_wrong_soft_row(self, monkeypatch, shift):
        for n in (2, 3, 4, 5):
            for ell in range(7):
                for m in (16, 17, 24, 100):
                    spec = dz.RadialChannelSpec(n, ell, 1.0, m, "krein")
                    good = dz.radial_pencil(spec)
                    wrong = ell + shift
                    diag = good.diagonal.copy()
                    diag[-1] += (2.0 * ell / (2 * m - ell) - 2.0 * wrong / (2 * m - wrong)) * m * m
                    bad = dataclasses.replace(good, diagonal=diag)
                    monkeypatch.setattr(dz, "radial_pencil", lambda s: bad)
                    with pytest.raises(ConstructionMismatch):
                        dz.radial_eigenvalues(spec, 1)

    @pytest.mark.parametrize("bc,top", [("dirichlet", 8), ("krein", 7)])
    def test_count_up_to_pencil_order(self, bc, top):
        # an m = 8 pencil has 8 eigenvalues, one of them the soft zero mode;
        # bisection past the top would return the Gershgorin bound
        spec = dz.RadialChannelSpec(3, 1, 1.0, 8, bc)
        d, e = dz.radial_pencil(spec).reduced_tridiagonal()
        dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        np.testing.assert_allclose(dz.radial_eigenvalues(spec, top), dense[8 - top:], rtol=1e-12)
        for count in (top + 1, 10):
            with pytest.raises(ValueError):
                dz.radial_eigenvalues(spec, count)

    def test_nonzero_eigenvalues_positive(self):
        for (n, l, bc) in ((3, 0, "krein"), (2, 1, "krein"), (4, 2, "dirichlet")):
            ev = dz.radial_eigenvalues(dz.RadialChannelSpec(n, l, 1.0, 200, bc), 4)
            assert np.all(ev > 0.0)


class TestConvergenceOrder:
    def test_radial_hard_channel_second_order(self):
        rep = dz.convergence_order(
            lambda m: dz.radial_eigenvalues(dz.RadialChannelSpec(3, 0, 1.0, m, "dirichlet"), 1)[0],
            (250, 500, 1000),
            PI**2,
            spacing=lambda m: 1.0 / m,
        )
        assert rep.order == pytest.approx(2.0, abs=0.3)
        assert rep.richardson == pytest.approx(PI**2, rel=1e-6)

    def test_interval_soft_first_value(self):
        def run(m):
            model = dz.interval_model(dz.Grid1D(0.0, PI, m), dz.PotentialSpec.zero())
            return dz.discrete_krein_spectrum(model, 1).values()[0]

        rep = dz.convergence_order(run, (100, 200, 400), 4.0)
        assert 0.9 <= rep.order <= 2.5

    def test_runs_each_size_once(self):
        calls = []

        def run(m):
            calls.append(m)
            return 1.0 + 1.0 / (m + 1) ** 2

        dz.convergence_order(run, (100, 200, 400), 1.0)
        assert sorted(calls) == [100, 200, 400]

    def test_non_monotone_raises(self):
        calls = {100: 1.0, 200: 1.5, 400: 1.2}
        with pytest.raises(NonMonotoneError):
            dz.convergence_order(lambda m: calls[m], (100, 200, 400), 1.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            dz.convergence_order(lambda m: 1.0, (100, 200), 1.0)
        with pytest.raises(ValueError):
            dz.convergence_order(lambda m: 1.0, (100, 300, 600), 1.0)
