"""Tests for the sweep factor, iteration operator, and fixed-point maps."""

import dataclasses
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgesv

import kaczmarz_lab as kl
from kaczmarz_lab import operator
from kaczmarz_lab.errors import NumericalError
from test_linalg import complex_eigenvectors, lapack_eigenvectors


class SharpCase(NamedTuple):
    """Sharp maps ``sm`` with the problem ``p``, factor ``lf`` and SVD ``sv`` they come from.

    SharpMaps keeps none of these, nor G|_V or the real eigenvector basis
    R0, so the tests carry them here and take the rest from
    ``restricted_gv``: ``kl.eig_general(restricted_gv(case)).R0``.
    """

    p: kl.TestProblem
    sm: kl.SharpMaps
    lf: kl.LFactor
    sv: kl.SvdResult
    variant: str


def sharp_case(p, omega=1.0, variant="standard") -> SharpCase:
    sv, lf = kl.svd(p.A), kl.build_L(p.A, omega)
    return SharpCase(p, kl.sharp_maps(p.A, lf, sv, variant=variant), lf, sv, variant)


def restricted_gv(case) -> np.ndarray:
    """G|_V of a ``sharp_case``, rebuilt by its variant's restriction."""
    restrict = kl.restrict_to_V if case.variant == "standard" else kl.restrict_symmetric_to_V
    return restrict(case.p.A, case.lf, case.sv).Gv


def dense_B(A, lf, variant) -> np.ndarray:
    """B = A^T L^-1, or A^T S with S = (2/omega - 1) L^-T D L^-1, from an explicit inverse of L."""
    Linv = np.linalg.inv(lf.L)
    S = Linv if variant == "standard" else (
        (2.0 / lf.omega - 1.0) * Linv.T @ np.diag(lf.D_diag) @ Linv)
    return A.T @ S


@pytest.mark.parametrize("restrict", [kl.restrict_to_V, kl.restrict_symmetric_to_V])
def test_dgemm_reads_only_fortran_operands(monkeypatch, restrict):
    # f2py copies a C-ordered operand before dgemm reads it: build_L makes A
    # Fortran-ordered once, and svd returns V Fortran-ordered, so neither
    # build_L nor a restriction hands dgemm a C-ordered matrix
    p = kl.gravity(32, 0.06)
    sv = kl.svd(p.A)
    fortran = []

    def spy(*args, **kwargs):
        fortran.extend(a.flags.f_contiguous for a in (*args, *kwargs.values())
                       if isinstance(a, np.ndarray) and a.ndim == 2)
        return dgemm(*args, **kwargs)

    monkeypatch.setattr(operator, "dgemm", spy)
    lf = kl.build_L(p.A, 1.0)
    assert fortran == [True, True]
    restrict(p.A, lf, sv)
    assert len(fortran) > 2 and all(fortran)


def _full_G(A, omega):
    lf = kl.build_L(A, omega)
    return np.eye(A.shape[1]) - A.T @ sla.solve_triangular(lf.L, A, lower=True)


class TestBuildL:
    def test_orthogonal_rows_gives_diagonal(self):
        A = np.diag([2.0, 3.0, 4.0]) @ np.eye(3, 5)
        lf = kl.build_L(A, omega=1.0)
        np.testing.assert_array_equal(lf.L, np.diag([4.0, 9.0, 16.0]))

    def test_two_row_closed_form(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 6))
        lf = kl.build_L(A, omega=1.0)
        want = np.array([[A[0] @ A[0], 0.0], [A[1] @ A[0], A[1] @ A[1]]])
        np.testing.assert_allclose(lf.L, want, rtol=1e-14)

    def test_symmetrized_identity(self):
        # L + L^T = A A^T + (2/omega - 1) D
        rng = np.random.default_rng(1)
        A = rng.standard_normal((7, 4))
        lf = kl.build_L(A, omega=0.5)
        want = A @ A.T + (2.0 / 0.5 - 1.0) * np.diag(lf.D_diag)
        np.testing.assert_allclose(lf.L + lf.L.T, want, atol=1e-12)

    def test_zero_row_rejected(self):
        A = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero row"):
            kl.build_L(A, 1.0)

    def test_analysis_omega_beyond_two_allowed(self):
        A = np.eye(3)
        assert kl.build_L(A, 2.5).omega == 2.5

    @pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_omega_rejected(self, omega):
        # a NaN omega used to give a NaN diagonal, and inf a zero one
        with pytest.raises(ValueError, match="omega"):
            kl.build_L(np.eye(3), omega)

    def test_with_omega_is_build_L(self, small_problems):
        # only the diagonal depends on omega, so the factor at another
        # omega comes from an existing one, bit for bit
        for p in small_problems:
            for w0, w in ((1.0, 0.5), (1.3, 1.0), (0.7, 1.7)):
                got, want = kl.build_L(p.A, w0).with_omega(w), kl.build_L(p.A, w)
                assert np.array_equal(got.L, want.L) and got.omega == want.omega
                assert np.array_equal(got.D_diag, want.D_diag)
        with pytest.raises(ValueError, match="omega"):
            kl.build_L(np.eye(3), 1.0).with_omega(np.nan)

    def test_solve_is_the_triangular_solves(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 4))
        lf = kl.build_L(A, 0.7)
        B = rng.standard_normal((6, 3))
        for got, want in ((lf.solve(B), kl.solve_lower(lf.L, B)),
                          (lf.solve(B, transpose=True), kl.solve_upper(lf.L.T, B))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_gram_is_A_AT(self, small_problems):
        for p in small_problems:
            G = kl.build_L(p.A, 0.7).gram()
            assert np.array_equal(G, G.T)
            want = p.A @ p.A.T
            np.testing.assert_allclose(G, want, rtol=0, atol=1e-14 * np.abs(want).max())

    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    def test_rows_is_the_stacked_factor(self, small_problems, omega):
        # repeated rows included; the identity order gives the factor back
        rng = np.random.default_rng(3)
        for p in small_problems:
            lf = kl.build_L(p.A, omega)
            G = lf.gram()
            same = lf.rows(np.arange(p.m), G)
            assert np.array_equal(same.L, lf.L) and np.array_equal(same.D_diag, lf.D_diag)
            order = rng.integers(0, p.m, size=p.m)
            got, want = lf.rows(order, G), kl.build_L(p.A[order], omega)
            assert got.omega == omega and np.array_equal(got.D_diag, want.D_diag)
            np.testing.assert_allclose(got.L, want.L, rtol=0, atol=1e-14 * np.abs(want.L).max())

    @pytest.mark.parametrize("omega", [0.5, 1.0, 1.5])
    def test_factor_bytes_are_the_sum(self, small_problems, omega):
        # _factor writes the diagonal into tril(G, -1) in place; the bytes
        # are those of tril(G, -1) + diag(d / omega), which would differ if a
        # -0.0 sat below the diagonal (the add makes it +0.0), so compare bytes
        rng = np.random.default_rng(4)
        for p in [*small_problems, kl.paralleltomo(12, 16, 16)]:
            AAT = dgemm(1.0, p.A, p.A, trans_b=1)  # build_L's product
            d = np.diag(AAT).copy()
            lf = kl.build_L(p.A, omega)
            assert lf.L.tobytes() == (np.tril(AAT, -1) + np.diag(d / omega)).tobytes(), p.name
            other = kl.build_L(p.A, 2.0 - omega / 2).with_omega(omega)
            assert other.L.tobytes() == lf.L.tobytes(), p.name
            G = lf.gram()
            order = rng.integers(0, p.m, size=p.m)
            Go, do = G[np.ix_(order, order)], d[order]
            want = np.tril(Go, -1) + np.diag(do / omega)
            assert lf.rows(order, G).L.tobytes() == want.tobytes(), p.name

    def test_gram_has_no_negative_zero(self):
        # the case the in-place diagonal relies on: zero products of mixed
        # sign in A A^T still sum to +0.0
        A = np.zeros((6, 3))
        A[::2, 0], A[1::2, 1] = -1.0, 2.0
        L = kl.build_L(A, 1.0).L
        assert not np.signbit(L[L == 0.0]).any()


class TestApplyG:
    def test_nullspace_untouched(self):
        # component in null(A) passes through unchanged
        rng = np.random.default_rng(2)
        B = rng.standard_normal((5, 3))
        A = np.hstack([B, B[:, :1]])  # column 3 duplicates column 0
        z = np.zeros(4)
        z[[0, 3]] = [1.0, -1.0]       # in null(A)
        lf = kl.build_L(A, 1.3)
        np.testing.assert_allclose(kl.apply_G(lf, A, z), z, atol=1e-12)

    def test_first_row_annihilated_at_omega_one(self, small_problems):
        for p in small_problems:
            lf = kl.build_L(p.A, 1.0)
            a1 = p.A[0]
            assert np.linalg.norm(kl.apply_G(lf, p.A, a1)) <= 1e-12 * np.linalg.norm(a1)

    def test_error_recursion_matches_sweep(self):
        # f_{k+1} = G f_k reproduces the sweep's error propagation
        p = kl.gravity(24, 0.08)
        lf = kl.build_L(p.A, 1.0)
        x_inf = kl.least_norm_solution(p.A, p.b_bar).x
        h = kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=4, store_iterates=True))
        f = h.iterates[0] - x_inf
        for k in range(1, 5):
            f = kl.apply_G(lf, p.A, f)
            direct = h.iterates[k] - x_inf
            assert np.linalg.norm(f - direct) <= 1e-10 * max(1.0, np.linalg.norm(f))


class TestApplyGt:
    def test_last_row_annihilated_at_omega_one(self, small_problems):
        for p in small_problems:
            lf = kl.build_L(p.A, 1.0)
            am = p.A[-1]
            assert np.linalg.norm(kl.apply_Gt(lf, p.A, am)) <= 1e-12 * np.linalg.norm(am)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 5))
        lf = kl.build_L(A, 0.9)
        x, y = rng.standard_normal(5), rng.standard_normal(5)
        lhs = kl.apply_Gt(lf, A, x) @ y
        rhs = x @ kl.apply_G(lf, A, y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_composition_matches_closed_form(self):
        # G^T G = I - (2/omega - 1) A^T L^-T D L^-1 A
        rng = np.random.default_rng(4)
        A = rng.standard_normal((7, 5))
        omega = 0.8
        lf = kl.build_L(A, omega)
        x = rng.standard_normal(5)
        got = kl.apply_Gs(lf, A, x)
        Linv = sla.solve_triangular(lf.L, np.eye(7), lower=True)
        Gs = np.eye(5) - (2.0 / omega - 1.0) * A.T @ Linv.T @ np.diag(lf.D_diag) @ Linv @ A
        assert np.linalg.norm(got - Gs @ x) <= 1e-10 * max(1.0, np.linalg.norm(x))


class TestSweepOperator:
    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    def test_half_sweeps_match_triangular_solves(self, omega):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((9, 6))
        X = rng.standard_normal((6, 3))
        B = rng.standard_normal((9, 3))
        lf = kl.build_L(A, omega)
        op = kl.SweepOperator(A, lf)
        down = X + A.T @ kl.solve_lower(lf.L, B - A @ X)
        up = X + A.T @ kl.solve_upper(lf.L.T, B - A @ X)
        np.testing.assert_allclose(op.down(X, B), down, rtol=0, atol=1e-12 * np.abs(down).max())
        np.testing.assert_allclose(op.up(X, B), up, rtol=0, atol=1e-12 * np.abs(up).max())
        sym = op.symmetric(X, B)
        np.testing.assert_array_equal(sym, op.up(op.down(X, B), B))

    def test_error_propagates_through_G_and_Gt(self):
        # the difference of two sweeps on the same data is G (resp. G^T)
        # applied to the difference of their starting points
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 5))
        X, Z = rng.standard_normal((2, 5, 4))
        B = rng.standard_normal((8, 4))
        lf = kl.build_L(A, 0.9)
        op = kl.SweepOperator(A, lf)
        for half, apply in ((op.down, kl.apply_G), (op.up, kl.apply_Gt)):
            want = apply(lf, A, X - Z)
            got = half(X, B) - half(Z, B)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_inputs_left_unchanged(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 4))
        X = np.asfortranarray(rng.standard_normal((4, 2)))
        B = np.asfortranarray(rng.standard_normal((6, 2)))
        X0, B0 = X.copy(), B.copy()
        kl.SweepOperator(A, kl.build_L(A, 1.2)).symmetric(X, B)
        assert np.array_equal(X, X0) and np.array_equal(B, B0)


def _dense_sweep_operators(A, lf):
    """G, G^T and G^T G formed explicitly from the numpy inverse of L."""
    Linv = np.linalg.inv(lf.L)
    G = np.eye(A.shape[1]) - A.T @ Linv @ A
    Gt = np.eye(A.shape[1]) - A.T @ Linv.T @ A
    return G, Gt, Gt @ G


class TestEngineBackedOperators:
    """apply_G/apply_Gt/apply_Gs run the SweepOperator half-sweeps on zero data."""

    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    def test_match_dense_operators(self, small_problems, omega):
        rng = np.random.default_rng(11)
        for p in small_problems:
            lf = kl.build_L(p.A, omega)
            dense = _dense_sweep_operators(p.A, lf)
            for shape in ((p.n,), (p.n, 1), (p.n, 3)):
                x = rng.standard_normal(shape)
                for apply, M in zip((kl.apply_G, kl.apply_Gt, kl.apply_Gs), dense):
                    got, want = apply(lf, p.A, x), M @ x
                    assert got.shape == x.shape
                    scale = np.abs(want).max()
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_zero_diagonal_factor_rejected(self):
        # a hand-built factor bypasses build_L's zero-row check, so LFactor
        # itself rejects it: no L^-1 route can return inf
        with pytest.raises(NumericalError, match="singular triangular"):
            kl.LFactor(L=np.array([[1.0, 0.0], [3.0, 0.0]]), omega=1.0,
                       D_diag=np.array([1.0, 0.0]))


class TestRestriction:
    def test_full_rank_spectrum_preserved(self):
        p = kl.gravity(20, 0.1)
        sv = kl.svd(p.A)
        assert sv.rank == 20
        lf = kl.build_L(p.A, 1.0)
        ro = kl.restrict_to_V(p.A, lf, sv)
        full = np.sort(np.abs(np.linalg.eigvals(_full_G(p.A, 1.0))))
        restricted = np.sort(np.abs(np.linalg.eigvals(ro.Gv)))
        np.testing.assert_allclose(full, restricted, atol=1e-9)

    def test_rank_deficient_drops_unit_eigenvalues(self):
        # a duplicated column attaches eigenvalue-1 copies to null(A);
        # the restriction must exclude exactly those
        rng = np.random.default_rng(5)
        B = rng.standard_normal((8, 4))
        A = np.hstack([B, B[:, :1]])
        sv = kl.svd(A)
        assert sv.rank == 4
        lf = kl.build_L(A, 1.0)
        full_ev = np.linalg.eigvals(_full_G(A, 1.0))
        n_unit_full = np.sum(np.abs(full_ev - 1.0) < 1e-8)
        assert n_unit_full >= 1
        ro = kl.restrict_to_V(A, lf, sv)
        restricted_ev = np.linalg.eigvals(ro.Gv)
        assert np.sum(np.abs(restricted_ev - 1.0) < 1e-8) == n_unit_full - 1

    def test_tomo_spectral_radius_order(self, tomo_spectrum):
        # the restricted radius sits a few parts in 1e7 below one
        assert 1e-8 < 1.0 - tomo_spectrum.rho < 1e-5

    def test_contraction_on_row_space_battery(self, small_problems):
        # 1 - rho scales with sigma_min^2, so for severely ill-conditioned
        # problems (baart) rho is numerically equal to 1; the strict
        # inequality is only resolvable when sigma_min is well above eps
        for p in small_problems:
            sv = kl.svd(p.A)
            resolvable = sv.S[-1] > 1e-6 * sv.S[0]
            for omega in (0.4, 1.0, 1.8):
                ro = kl.restrict_to_V(p.A, kl.build_L(p.A, omega), sv)
                rho = np.max(np.abs(np.linalg.eigvals(ro.Gv)))
                assert rho <= 1.0 + 1e-10
                if resolvable:
                    assert rho < 1.0


class TestLemmaSpectrumEquality:
    @pytest.mark.parametrize("shape", [(8, 5), (5, 8)])
    def test_nonzero_spectra_agree(self, shape):
        # nonzero eigenvalues of A^T L^-1 A equal those of L^-1 A A^T
        rng = np.random.default_rng(6)
        A = rng.standard_normal(shape)
        lf = kl.build_L(A, 1.1)
        M1 = A.T @ sla.solve_triangular(lf.L, A, lower=True)
        M2 = sla.solve_triangular(lf.L, A @ A.T, lower=True)
        e1 = np.linalg.eigvals(M1)
        e2 = np.linalg.eigvals(M2)
        e1 = np.sort_complex(e1[np.abs(e1) > 1e-8])
        e2 = np.sort_complex(e2[np.abs(e2) > 1e-8])
        np.testing.assert_allclose(e1, e2, atol=1e-8)


class TestConvergenceConditions:
    def test_all_agree_inside_range(self, small_problems):
        for p in small_problems[:2]:
            for omega in (0.5, 1.0, 1.9):
                res = kl.convergence_conditions(p.A, omega)
                flags = [res[k] for k in "abcde"]
                assert all(flags)

    def test_all_agree_outside_range(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 6))
        res = kl.convergence_conditions(A, 2.9)
        flags = [res[k] for k in "abcde"]
        assert len(set(flags)) == 1  # unanimous verdict
        assert not flags[0]

    def test_radii_consistent(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((7, 4))
        res = kl.convergence_conditions(A, 1.0)
        np.testing.assert_allclose(res["rho_a"], res["rho_b"], rtol=1e-8)
        np.testing.assert_allclose(res["rho_a"], res["rho_d"], rtol=1e-8)


def test_reference_routines_use_no_numpy_lapack(no_numpy_lapack):
    # the library's reference routines take their factorizations from
    # scipy (gelsd, QR, LU, svdvals), not from numpy's OpenBLAS
    p = kl.gravity(32, 0.06)
    assert kl.least_norm_solution(p.A, p.b_bar).x.shape == (p.n,)
    assert kl.convergence_conditions(p.A, 1.0)["e"]
    assert kl.fixed_point(p, p.b_bar).shape == (p.n,)
    assert abs(kl.norm_threshold_alpha() - 0.0281) <= 5e-4


class TestFixedPoint:
    @pytest.mark.parametrize("variant", ["standard", "symmetric"])
    def test_singular_restriction_raises(self, monkeypatch, variant):
        # an eigenvalue of G|_V at 1 makes I - G|_V singular: dgetrf's
        # info > 0 is the library's NumericalError, not scipy's LinAlgError
        def identity(A, lf, sv):
            return operator.RestrictedOperator(Gv=np.eye(sv.rank), omega=lf.omega)

        monkeypatch.setattr(operator, "restrict_to_V", identity)
        monkeypatch.setattr(operator, "restrict_symmetric_to_V", identity)
        p = kl.gravity(12, 0.1)
        with pytest.raises(NumericalError, match="dgetrf failed: info = 1"):
            kl.fixed_point(p, p.b_bar, variant=variant)

    def test_numerically_singular_restriction_raises(self):
        # baart(32) has rank 11 and rcond(I - G|_V) = 1.0e-16 < eps; the
        # LU solve there was 37 % off the least-norm solution, with no sign
        p = kl.baart(32)
        with pytest.raises(NumericalError, match="singular to working precision: rcond = "):
            kl.fixed_point(p, p.b_bar)

    def test_zero_data(self):
        p = kl.gravity(12, 0.1)
        np.testing.assert_allclose(kl.fixed_point(p, np.zeros(12)), np.zeros(12),
                                   atol=1e-14)

    def test_matches_least_norm_on_consistent_data(self):
        p = kl.gravity(32, 0.06)
        x = kl.fixed_point(p, p.b_bar)
        want = kl.least_norm_solution(p.A, p.b_bar).x
        assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)

    def test_independent_of_omega(self):
        p = kl.gravity(32, 0.06)
        x1 = kl.fixed_point(p, p.b_bar, omega=0.7)
        x2 = kl.fixed_point(p, p.b_bar, omega=1.3)
        assert np.linalg.norm(x1 - x2) <= 1e-8 * np.linalg.norm(x1)

    @pytest.mark.parametrize("b", [np.r_[np.nan, np.ones(11)], np.ones(11)], ids=["nan", "short"])
    def test_bad_data_rejected(self, b):
        with pytest.raises(ValueError, match="non-finite|12 rows"):
            kl.fixed_point(kl.gravity(12, 0.1), b)

    def test_runs_no_eigendecomposition(self, monkeypatch):
        # the LU route needs no eigenbasis: no dgeev, no kappa SVD, no dgesv
        def forbidden(*args, **kwargs):
            raise AssertionError("fixed_point used an eigendecomposition")

        monkeypatch.setattr(operator, "eig_general", forbidden)
        monkeypatch.setattr(operator, "dgesv", forbidden)
        p = kl.gravity(32, 0.06)
        want = kl.least_norm_solution(p.A, p.b_bar).x
        for variant in ("standard", "symmetric"):
            x = kl.fixed_point(p, p.b_bar, omega=0.8, variant=variant)
            assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want), variant

    def test_unknown_variant_rejected(self):
        p = kl.gravity(12, 0.1)
        with pytest.raises(ValueError, match="unknown variant 'randomized'"):
            kl.fixed_point(p, p.b_bar, variant="randomized")


@pytest.fixture(scope="module")
def g24():
    return sharp_case(kl.gravity(24, 0.08))


class TestSharpMaps:

    def test_k_zero_is_zero_map(self, g24):
        e = np.random.default_rng(10).standard_normal(24)
        np.testing.assert_allclose(kl.apply_Ak_sharp(g24.sm, e, 0), np.zeros(24),
                                   atol=1e-12)

    def test_k_one_is_one_sweep_from_zero(self, g24):
        # one term of the truncated series: A^T L^-1 e
        e = np.random.default_rng(11).standard_normal(24)
        want = g24.p.A.T @ sla.solve_triangular(g24.lf.L, e, lower=True)
        got = kl.apply_Ak_sharp(g24.sm, e, 1)
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))

    def test_large_k_approaches_limit(self, g24):
        e = np.random.default_rng(12).standard_normal(24)
        limit = kl.fixed_point(g24.p, e)
        got = kl.apply_Ak_sharp(g24.sm, e, 4000)
        assert np.linalg.norm(got - limit) <= 1e-6 * np.linalg.norm(limit)

    def test_symmetric_block_approaches_limit(self):
        # the symmetric variant's eigenbasis route tends to its LU route's
        # limit, column by column of a block
        case = sharp_case(kl.gravity(24, 0.08), 0.8, "symmetric")
        e = np.random.default_rng(12).standard_normal((24, 2))
        limit = kl.fixed_point(case.p, e, 0.8, "symmetric")
        got = kl.apply_Ak_sharp(case.sm, e, 4000)
        assert got.shape == limit.shape == (24, 2)
        assert np.linalg.norm(got - limit) <= 1e-6 * np.linalg.norm(limit)

    def test_matches_swept_iterate(self):
        # spectral k-sweep map equals k literal sweeps from x0 = 0
        p = kl.gravity(24, 0.08)
        sv = kl.svd(p.A)
        sm = kl.sharp_maps(p.A, kl.build_L(p.A, 1.0), sv)
        h = kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=7, store_iterates=True))
        got = kl.apply_Ak_sharp(sm, p.b_bar, 7)
        assert np.linalg.norm(got - h.iterates[7]) <= 1e-8 * np.linalg.norm(got)

    def test_symmetric_variant_matches_sweeps(self):
        p = kl.gravity(24, 0.08)
        sv = kl.svd(p.A)
        sm = kl.sharp_maps(p.A, kl.build_L(p.A, 0.8), sv, variant="symmetric")
        h = kl.run(p, p.b_bar,
                   kl.SweepConfig(omega=0.8, variant="symmetric", max_sweeps=5,
                                  store_iterates=True))
        got = kl.apply_Ak_sharp(sm, p.b_bar, 5)
        assert np.linalg.norm(got - h.iterates[5]) <= 1e-8 * max(1.0, np.linalg.norm(got))

    @pytest.mark.parametrize("variant", ["standard", "symmetric"])
    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    def test_b_transpose_matches_dense_B(self, small_problems, variant, omega):
        # B^T, the step of sharp_maps that takes triangular solves on the n
        # columns of A, against B formed from an explicit inverse of L
        for p in small_problems:
            lf = kl.build_L(p.A, omega)
            want = dense_B(p.A, lf, variant).T
            got = operator._weight(lf, variant, p.A, transpose=True)
            assert got.shape == (p.m, p.n)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), p.name

    @pytest.mark.parametrize("k", [-1, 2.5, np.nan])
    def test_bad_k_rejected(self, g24, k):
        # a fractional k used to be raised to a fractional power of lambda
        with pytest.raises(ValueError, match="nonnegative integers"):
            kl.apply_Ak_sharp(g24.sm, np.ones(24), k)

    @pytest.mark.parametrize("bad", ["nan", "inf", "nan-block", "short", "long", "short-block",
                                     "scalar"])
    def test_bad_data_rejected(self, g24, bad):
        # a NaN used to come back as a NaN iterate, and a short e as a BLAS
        # shape error; every map of data checks its e.  xi_profile takes a
        # vector only, so a block is a shape error there
        e = np.full(24, 1e-3)
        e[5] = np.nan if bad.startswith("nan") else np.inf
        e = {"nan-block": np.column_stack([e, e]), "short": e[:-1], "long": np.ones(25),
             "short-block": np.ones((23, 2)), "scalar": 1.0}.get(bad, e)
        match = "non-finite" if bad in ("nan", "inf", "nan-block") else "24 rows"
        for apply in (lambda e: kl.fixed_point(g24.p, e),
                      lambda e: kl.apply_Ak_sharp(g24.sm, e, 3)):
            with pytest.raises(ValueError, match=match):
                apply(e)
        match = "non-finite" if bad in ("nan", "inf") else "e must be an 24-vector"
        with pytest.raises(ValueError, match=match):
            kl.xi_profile(g24.sm, e, [1])

    def test_non_convergent_mode_raises(self):
        # omega -> 0 makes L blow up and G approach the identity, so an
        # eigenvalue lands on 1 and the fixed point is undefined
        p = kl.gravity(16, 0.1)
        sv = kl.svd(p.A)
        with pytest.raises(NumericalError, match="non-convergent"):
            kl.sharp_maps(p.A, kl.build_L(p.A, 1e-300), sv)

    def test_singular_eigenbasis_raises(self, monkeypatch):
        # dgesv reports a singular R0 through info > 0
        def singular(a, b, overwrite_a=0, overwrite_b=0):
            return a, np.zeros(a.shape[0], dtype=np.int32), b, 2
        monkeypatch.setattr(operator, "dgesv", singular)
        p = kl.gravity(16, 0.1)
        with pytest.raises(NumericalError, match="dgesv info = 2"):
            kl.sharp_maps(p.A, kl.build_L(p.A, 1.0), kl.svd(p.A))


@pytest.fixture(scope="module", params=["gravity128", "tomo24", "gravity24-symmetric", "real-spectrum"])
def real_route_case(request):
    """Sharp maps whose W^+ came from the real LU, and G|_V's eigendecomposition."""
    variant, omega = "standard", 1.0
    if request.param == "gravity128":
        p = kl.gravity(128, 0.02)  # kappa_W about 1.7e6
    elif request.param == "tomo24":
        p = kl.paralleltomo(24, 32, 32)
    elif request.param == "gravity24-symmetric":
        p, variant, omega = kl.gravity(24, 0.08), "symmetric", 0.8
    else:
        p, omega = kl.gravity(32, 0.06), 0.02  # every eigenvalue is real
    case = sharp_case(p, omega, variant)
    return request.param, case, kl.eig_general(restricted_gv(case))


def _complex_reference(case, eig):
    """C from R0 and conj, and W^+ = C^-1 V^T by a complex solve: the complex route."""
    C = complex_eigenvectors(case.sm.lam, eig.R0, case.sm.conj)
    return C, np.linalg.solve(C, case.sv.V.T.astype(complex))


def _complex_rows(sm, Z) -> np.ndarray:
    """Rows of real coordinates Z on R0 in the complex eigenbasis.

    (Z_j - i Z_conj[j]) / 2 for a pair with Im lambda_j > 0, its conjugate
    at conj[j], and Z_j at a real mode.
    """
    out = Z.astype(complex)
    up = np.flatnonzero(sm.lam.imag > 0)
    out[up] = (Z[up] - 1j * Z[sm.conj[up]]) / 2
    out[sm.conj[up]] = out[up].conj()
    return out


class TestRealRouteWInv:
    """The noise map M from the real W^+ route against a complex solve with C."""

    def test_matches_complex_solve(self, real_route_case):
        # M's rows, read in the complex eigenbasis, are (I - Lambda)^-1 W^+ B,
        # with W^+ from a complex solve and B from an explicit inverse of L
        _, case, eig = real_route_case
        sm = case.sm
        _, W_plus = _complex_reference(case, eig)
        B = dense_B(case.p.A, case.lf, case.variant)
        want = (W_plus / (1.0 - sm.lam)[:, None]) @ B
        assert sm.M.shape == want.shape
        got = _complex_rows(sm, sm.M)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_conjugate_rows_exact(self, real_route_case):
        # the coordinates xi_profile reads from M e are exact conjugates on
        # each pair, and a real mode's imaginary part is +0
        name, case, eig = real_route_case
        sm = case.sm
        conj = eig.conj
        assert np.array_equal(sm.lam[conj], sm.lam.conj())
        assert np.array_equal(conj[conj], np.arange(sm.r))
        e = np.random.default_rng(4).standard_normal(case.p.m)
        xi = kl.xi_profile(sm, e, [1]).xi
        assert np.array_equal(xi[conj], xi.conj())
        real = sm.lam.imag == 0
        assert not xi.imag[real].any() and not np.signbit(xi.imag[real]).any()
        if name in ("gravity128", "tomo24"):
            assert np.count_nonzero(sm.lam.imag) > 0
        else:
            # G^T G restricted to V is symmetric; small omega makes the spectrum real
            assert not np.iscomplexobj(sm.lam)

    def test_left_inverse(self, real_route_case):
        # W (I - Lambda) M e = W W^+ B e is B e's projection on the row space:
        # the real lift at k = 1 undoes the real coefficients
        _, case, _ = real_route_case
        sm, V = case.sm, case.sv.V
        e = np.random.default_rng(5).standard_normal((case.p.m, 3))
        x = V @ (V.T @ (dense_B(case.p.A, case.lf, case.variant) @ e))
        got = sm.k_sweep(1, sm.M @ e)
        np.testing.assert_allclose(got, x, rtol=0, atol=1e-9 * sm.kappa_W * np.abs(x).max())


class TestRealF:
    """``_real_f`` is f(D) for the real block-diagonal D with G|_V R0 = R0 D."""

    def test_one_rule(self, real_route_case):
        _, case, eig = real_route_case
        lam, conj, R0 = eig.eigenvalues, eig.conj, eig.R0
        I_r = np.eye(lam.size)
        D = operator._real_f(lam, conj, I_r)
        Gv = restricted_gv(case)
        res = np.linalg.norm(Gv @ R0 - R0 @ D, 2)
        assert res <= 1e-13 * np.linalg.norm(Gv, 2) * np.linalg.norm(R0, 2)
        for k in (2, 5):
            np.testing.assert_allclose(operator._real_f(lam**k, conj, I_r),
                                       np.linalg.matrix_power(D, k), rtol=0, atol=1e-14)
        inv = operator._real_f(1.0 / (1.0 - lam), conj, I_r)
        np.testing.assert_allclose(inv @ (I_r - D), I_r, rtol=0, atol=1e-14)


class TestRealFields:
    """SharpMaps keeps the eigenbasis real; the tests build the complex forms."""

    def test_every_array_field_is_real(self, real_route_case):
        # the eigenvalues are the one complex field
        _, case, _ = real_route_case
        sm = case.sm
        for f in dataclasses.fields(sm):
            value = getattr(sm, f.name)
            if isinstance(value, np.ndarray) and f.name != "lam":
                assert not np.iscomplexobj(value), f.name
        assert sm.W_real.shape == (case.p.n, sm.r)
        assert sm.M.shape == (sm.r, case.p.m)

    def test_complex_forms_are_the_eager_ones(self, real_route_case):
        # the complex eigenvectors that R0 and conj stand for are LAPACK's,
        # and the real fields are the lift of eig_general's basis (one dgemm)
        # and M from its LU (dgesv; at two threads OpenBLAS's getrf rounds
        # otherwise) and B^T.  The lift reads V through its transpose, which
        # can round otherwise than a product with V's copy
        _, case, eig = real_route_case
        sm, V = case.sm, case.sv.V
        C, _ = _complex_reference(case, eig)
        assert C.tobytes() == lapack_eigenvectors(restricted_gv(case)).astype(complex).tobytes()
        lift = dgemm(1.0, V.T, eig.R0, trans_a=1)
        BT = operator._weight(case.lf, case.variant, case.p.A, transpose=True)
        Y = operator._real_f(1.0 / (1.0 - sm.lam), eig.conj, dgesv(eig.R0, V.T)[2])
        M = dgemm(1.0, Y, BT, trans_b=1)
        for got, want in ((sm.W_real, lift), (sm.M, M)):
            assert got.dtype == want.dtype
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.array_equal(sm.conj, eig.conj)

    def test_holds_only_the_eigenbasis(self, small_problems):
        # the bytes sharp_maps allocates and still holds after it returns are
        # its four arrays and the small objects around them: neither the
        # real basis R0, G|_V (8 KiB each at r = 32), Y = R0^-1 V^T nor B^T
        # stays alive
        p = small_problems[0]
        sv, lf = kl.svd(p.A), kl.build_L(p.A, 1.0)
        kl.sharp_maps(p.A, lf, sv)  # a first call's lasting caches are not its arrays
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sm = kl.sharp_maps(p.A, lf, sv)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (sm.W_real, sm.M, sm.lam, sm.conj))
        assert sm.r == 32
        assert held <= kept + 4096

    def test_real_lift_is_the_lift_of_the_real_basis(self, real_route_case):
        # column j of W_real is Re w_j, column conj[j] is Im w_j for a pair
        _, case, eig = real_route_case
        sm, conj = case.sm, eig.conj
        C, _ = _complex_reference(case, eig)
        W = case.sv.V @ C
        up = np.flatnonzero(sm.lam.imag > 0)
        real = np.flatnonzero(sm.lam.imag == 0)
        tol = 1e-13 * np.abs(W).max()
        np.testing.assert_allclose(sm.W_real[:, up], W.real[:, up], rtol=0, atol=tol)
        np.testing.assert_allclose(sm.W_real[:, conj[up]], W.imag[:, up], rtol=0, atol=tol)
        np.testing.assert_allclose(sm.W_real[:, real], W.real[:, real], rtol=0, atol=tol)
